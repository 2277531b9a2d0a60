"""Orchestration chaos harness: fault injection must not change results.

The campaign supervisor (:mod:`repro.experiments.supervisor`) claims that
worker kills, hangs, transient errors, poison configs, and store
corruption are survivable *without touching the science*: every config
that produces a result produces the byte-identical result a fault-free
run would have.  This module makes that claim executable:

1. **Baseline pass** — every reference config simulated cleanly; its
   :func:`~repro.check.differential.fct_digest` is the ground truth.
2. **Chaos pass** — the same configs plus a deliberately poisoned one run
   under the supervisor while a seeded :class:`ChaosSpec` injects one
   fault per config *inside the workers*: a SIGKILL mid-run, a hang
   (silence past the stall deadline), a transient exception.  The pass
   asserts each fault actually fired (kill seen, stall kill issued,
   retry recorded), the poison config was quarantined without sinking
   the sweep, and every surviving digest equals its baseline.
3. **Corruption pass** — one store entry is bit-flipped on disk; the
   follow-up campaign must detect it via the entry checksum, evict,
   re-simulate, and again match the baseline digest.

Faults are planned deterministically from a seed (``plan_chaos``), so a
failure reproduces with the same command line.  ``repro-experiments
check chaos`` runs the whole ladder; the CI chaos-smoke job gates on it.
"""

from __future__ import annotations

import dataclasses
import os
import signal
import sys
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..experiments import runner as exp_runner
from ..experiments.config import scaled_incast, with_backend
from ..experiments.parallel import AnyConfig, run_campaign, run_config
from ..experiments.store import ResultStore, config_key
from ..experiments.supervisor import RetryPolicy, SupervisorConfig
from ..obs.journal import STATUS_OK, STATUS_QUARANTINED, STATUS_RETRIED, STATUS_SALVAGED
from .differential import _isolated_caches, fct_digest

__all__ = [
    "ChaosReport",
    "ChaosSpec",
    "ChaosTransientError",
    "PoisonConfig",
    "plan_chaos",
    "run_chaos",
]


class ChaosTransientError(RuntimeError):
    """The injected 'infrastructure blip' error (classified transient)."""


#: One fault per config; ``none`` keeps a control config fault-free.
ACTIONS = ("kill", "hang", "transient", "none")

#: An injected hang sleeps this long; the supervisor must kill it far
#: sooner (the harness runs with a sub-second stall deadline).
HANG_S = 600.0


def _kill_before_collect() -> None:
    """SIGKILL this process when the run now starting has finished simulating.

    The kill rides the struck run's own thread as a profile hook and fires
    on its call into the ``collect`` phase: the whole simulation has run,
    heartbeats included, and nothing has been replied.  It therefore cannot
    land after that run's reply however fast the engine or slow the host,
    and the hook comes off when ``run_config`` returns, so a run that never
    reaches ``collect`` cannot pass the kill on to the worker's next config.
    """
    phase_code = exp_runner._phase.__code__
    run_code = run_config.__code__

    def hook(frame: Any, event: str, _arg: Any) -> None:
        if event == "call" and frame.f_code is phase_code:
            if frame.f_locals["name"] == "collect":
                os.kill(os.getpid(), signal.SIGKILL)
        elif event == "return" and frame.f_code is run_code:
            sys.setprofile(None)

    sys.setprofile(hook)


@dataclass(frozen=True)
class ChaosSpec:
    """A deterministic fault plan: config key -> action, applied in-worker.

    ``inject`` runs inside the worker *before* the heartbeat thread
    starts, so an injected hang presents to the supervisor as true
    silence.  Faults fire on the first attempt only — retries of a
    chaos-struck config run clean, which is exactly the transient-fault
    model the retry machinery exists for.
    """

    plan: Tuple[Tuple[str, str], ...]  # (config key, action) pairs
    first_attempt_only: bool = True

    def action_for(self, key: str) -> str:
        for plan_key, action in self.plan:
            if plan_key == key:
                return action
        return "none"

    def inject(self, key: str, attempt: int) -> None:
        if self.first_attempt_only and attempt > 1:
            return
        action = self.action_for(key)
        if action == "kill":
            _kill_before_collect()
        elif action == "hang":
            time.sleep(HANG_S)
        elif action == "transient":
            raise ChaosTransientError(f"injected transient fault for {key[:8]}")


def plan_chaos(keys: Sequence[str], seed: int) -> ChaosSpec:
    """Assign every action to some key, deterministically from ``seed``.

    With at least ``len(ACTIONS)`` keys each action fires at least once
    (actions cycle over the shuffled keys), so the harness never silently
    skips a fault family.
    """
    import random

    order = list(keys)
    random.Random(seed).shuffle(order)
    plan = tuple(
        (key, ACTIONS[i % len(ACTIONS)]) for i, key in enumerate(order)
    )
    return ChaosSpec(plan=plan)


@dataclass(frozen=True)
class PoisonConfig:
    """A config that deterministically fails: quarantine bait.

    Routed through the normal campaign machinery via the ``run_self``
    hook on :func:`repro.experiments.parallel.run_config`.
    """

    label: str = "poison"
    seed: int = 0

    def cache_key(self) -> str:
        return config_key(self)

    def describe(self) -> str:
        return f"poison config '{self.label}'"

    def run_self(self) -> Any:
        raise ValueError(f"poisoned config '{self.label}': unusable parameters")


# ---------------------------------------------------------------------------
# The ladder
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChaosCheck:
    name: str
    ok: bool
    detail: str = ""

    def render(self) -> str:
        return f"[{'ok ' if self.ok else 'FAIL'}] {self.name}" + (
            f": {self.detail}" if self.detail else ""
        )


@dataclass
class ChaosReport:
    """Every check from one chaos ladder; ``ok`` is the overall verdict."""

    seed: int
    backend: str = "packet"
    checks: List[ChaosCheck] = field(default_factory=list)
    digests: Dict[str, str] = field(default_factory=dict)  # key -> baseline

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def render(self) -> str:
        lines = [f"=== chaos harness (seed={self.seed}, backend={self.backend}) ==="]
        lines.extend(c.render() for c in self.checks)
        lines.append(
            f"{'PASS' if self.ok else 'FAIL'}: "
            f"{sum(c.ok for c in self.checks)}/{len(self.checks)} checks ok"
        )
        return "\n".join(lines)


def reference_chaos_configs(
    n: int = 4, backend: str = "packet"
) -> List[AnyConfig]:
    """``n`` small, distinct incast configs (seed-varied; ~0.2 s each)."""
    base = with_backend(scaled_incast("swift", 4), backend)
    return [dataclasses.replace(base, seed=base.seed + i) for i in range(n)]


def run_chaos(
    *,
    store_dir: str,
    seed: int = 0,
    n_configs: int = 4,
    jobs: int = 2,
    journal_path: Optional[str] = None,
    progress: Optional[Callable[[str], None]] = None,
    backend: str = "packet",
) -> ChaosReport:
    """Run the three-pass chaos ladder; see the module docstring.

    ``backend`` reruns the whole ladder on another simulation backend —
    the supervisor's journaling/salvage/quarantine machinery must be
    backend-agnostic, so ``backend="flow"`` gets the same ladder.
    """
    if n_configs < len(ACTIONS):
        raise ValueError(
            f"n_configs must be >= {len(ACTIONS)} so every fault family fires"
        )
    report = ChaosReport(seed=seed, backend=backend)
    say = progress if progress is not None else (lambda _msg: None)
    configs = reference_chaos_configs(n_configs, backend)
    keys = [cfg.cache_key() for cfg in configs]
    spec = plan_chaos(keys, seed)
    by_action = {action: key for key, action in spec.plan}

    # -- pass 1: fault-free baseline ---------------------------------------
    say(f"chaos pass 1/3: baseline over {n_configs} config(s)")
    with _isolated_caches():
        for cfg in configs:
            report.digests[cfg.cache_key()] = fct_digest(run_config(cfg))
    report.checks.append(
        ChaosCheck("baseline", True, f"{len(report.digests)} digest(s)")
    )

    # -- pass 2: supervised campaign under injected faults ------------------
    say(
        "chaos pass 2/3: supervised campaign with injected kill/hang/"
        "transient faults and one poison config"
    )
    poison = PoisonConfig(seed=seed)
    store = ResultStore(store_dir)
    sup = SupervisorConfig(
        policy=RetryPolicy(max_attempts=3),
        journal_path=Path(journal_path) if journal_path else None,
        partial_ok=True,
        heartbeat_interval_s=0.05,
        stall_timeout_s=1.0,
        chaos=spec,
    )
    with _isolated_caches(store):
        outcome = run_campaign(
            configs + [poison], jobs=jobs, supervisor=sup, progress=progress
        )
        chaos_digests = {
            key: fct_digest(result)
            for key, result in outcome.results.items()
            if key != poison.cache_key()
        }
    mismatched = [
        key for key, digest in report.digests.items()
        if chaos_digests.get(key) != digest
    ]
    report.checks.append(
        ChaosCheck(
            "chaos-digests-match-baseline",
            not mismatched and len(chaos_digests) == len(report.digests),
            f"{len(chaos_digests)}/{len(report.digests)} results, "
            f"{len(mismatched)} mismatched",
        )
    )
    stats = outcome.stats
    report.checks.append(
        ChaosCheck(
            "faults-actually-fired",
            stats.workers_lost >= 1
            and stats.workers_killed >= 1
            and stats.retried >= 1,
            f"workers_lost={stats.workers_lost} (kill), "
            f"workers_killed={stats.workers_killed} (hang), "
            f"retried={stats.retried} (transient)",
        )
    )
    expected = {
        by_action["kill"]: STATUS_SALVAGED,
        by_action["hang"]: STATUS_SALVAGED,
        by_action["transient"]: STATUS_RETRIED,
        by_action["none"]: STATUS_OK,
        poison.cache_key(): STATUS_QUARANTINED,
    }
    wrong = {
        key[:8]: (outcome.statuses.get(key), want)
        for key, want in expected.items()
        if outcome.statuses.get(key) != want
    }
    report.checks.append(
        ChaosCheck(
            "statuses-as-planned",
            not wrong,
            "each fault maps to its status" if not wrong else f"wrong: {wrong}",
        )
    )
    report.checks.append(
        ChaosCheck(
            "poison-quarantined-not-fatal",
            outcome.statuses.get(poison.cache_key()) == STATUS_QUARANTINED
            and len(outcome.quarantines) == 1
            and outcome.quarantines[0].classification == "deterministic"
            and poison.cache_key() not in outcome.results,
            outcome.quarantines[0].error if outcome.quarantines else "no report",
        )
    )

    # -- pass 3: store corruption self-heals --------------------------------
    say("chaos pass 3/3: store corruption detection and self-heal")
    victim = configs[0]
    victim_path = store.path_for(victim)
    data = bytearray(victim_path.read_bytes())
    data[-1] ^= 0x01
    victim_path.write_bytes(bytes(data))
    evicted_before = store.stats.evicted_corrupt
    with _isolated_caches(store), warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        healed = run_campaign(
            configs,
            jobs=1,
            supervisor=SupervisorConfig(policy=sup.policy, partial_ok=True),
            progress=progress,
        )
        healed_digest = fct_digest(healed.results[victim.cache_key()])
        rewritten = store.get(victim) is not None
    report.checks.append(
        ChaosCheck(
            "corruption-detected-and-healed",
            store.stats.evicted_corrupt == evicted_before + 1
            and healed.stats.executed == 1
            and healed.stats.cached == len(configs) - 1
            and healed_digest == report.digests[victim.cache_key()]
            and rewritten,
            f"evicted={store.stats.evicted_corrupt - evicted_before}, "
            f"re-simulated={healed.stats.executed}, digest match="
            f"{healed_digest == report.digests[victim.cache_key()]}",
        )
    )
    return report
