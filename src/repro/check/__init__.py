"""repro.check — the opt-in simulator sanitizer.

Modeled on runtime sanitizers (ASan/TSan): correctness invariants that the
figures silently rely on are checked *while the simulation runs*, and any
breach raises immediately with enough context to replay the failing run.

Two cooperating facilities:

* :mod:`repro.check.invariants` — cheap per-event physical-invariant checks
  (event-time monotonicity, byte conservation, FIFO queues, PFC
  losslessness, go-back-N sequence sanity, VAI/SF state bounds) installed
  through the same module-level ``None``-checked global idiom as
  :mod:`repro.obs` — disabled checking costs one attribute read per hook
  site and, crucially, never perturbs simulation output
  (``tests/check/test_sanitize_identity.py``);
* :mod:`repro.check.differential` — a differential harness asserting
  byte-identical flow-completion outputs across configurations that are
  supposed to be equivalent: fused vs. unfused delivery, serial vs.
  ``--jobs N`` campaigns, store-cold vs. store-warm, obs on vs. off.

Only :mod:`invariants` is imported eagerly: it is stdlib-only, so the sim
core can import it without cycles.  ``differential`` and ``claims`` (the
paper-claims scoreboard; both pull in the experiments layer) and
``selftest`` (which builds networks) are imported on demand by the CLI and
tests.
"""

from . import invariants
from .invariants import InvariantChecker, InvariantViolation

__all__ = ["invariants", "InvariantChecker", "InvariantViolation"]
