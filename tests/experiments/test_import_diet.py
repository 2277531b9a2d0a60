"""Cold start: ``import repro.experiments.cli`` loads no optional heavyweight.

scipy has exactly one user (the fig-4 ODE cross-check) and is imported
there, so every CLI start, campaign worker and ledger child skips ~900
modules.  networkx (a test-only oracle for routing), ``http.server`` and
``concurrent.futures`` have no user in ``src/`` at all.
A module-level import sneaking back in fails this test, not a benchmark
three PRs later.

The second test is the layering the probe seam (:mod:`repro.probe`) buys:
the simulator, the protocols, the paper's mechanisms and the metrics load
without the planes that observe them.
"""

import os
import subprocess
import sys

import repro

_CHILD = """
import sys

import repro.experiments.cli

forbidden = ("scipy", "networkx", "http.server", "concurrent.futures")
loaded = [m for m in forbidden if m in sys.modules]
assert not loaded, f"imported at CLI start: {loaded}"

# The lazy user still works when called.
from repro.core.fluid_model import FluidModelParams, integrate_numerically

t, per_rtt, sampling = integrate_numerically(1e4, FluidModelParams(), n_points=5)
assert t.shape == (5,) and per_rtt.shape == (5, 2) and sampling.shape == (5, 2)
assert "scipy" in sys.modules
"""


_SCIENCE_CHILD = """
import sys

import repro.sim, repro.cc, repro.core, repro.metrics

loaded = sorted(m for m in sys.modules if m.startswith(("repro.obs", "repro.check")))
assert not loaded, f"the science imports its scaffolding: {loaded}"
assert "repro.probe" in sys.modules
"""


def _run_child(code: str) -> None:
    # ``-S``: no ``site`` or ``.pth`` hook may load a module before the
    # import under test; the parent's ``sys.path`` still finds the dependencies.
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    path = os.pathsep.join([src, *filter(None, sys.path)])
    done = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr


def test_cli_import_skips_scipy_networkx_http_server():
    _run_child(_CHILD)


def test_sim_cc_core_metrics_import_no_obs_and_no_check():
    _run_child(_SCIENCE_CHILD)
