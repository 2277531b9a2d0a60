"""Cold start: ``import repro.experiments.cli`` loads no optional heavyweight.

scipy, networkx and http.server each have exactly one user (the fig-4 ODE
cross-check, the device-graph helper and its no-path error, the
``--metrics-port`` server); they are imported there, so every CLI start,
campaign worker and ledger child skips ~900 modules.  ``concurrent.futures``
has no user at all since the supervisor became the only campaign executor.
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

# The lazy users still work when called.
from repro.core.fluid_model import FluidModelParams, integrate_numerically

t, per_rtt, sampling = integrate_numerically(1e4, FluidModelParams(), n_points=5)
assert t.shape == (5,) and per_rtt.shape == (5, 2) and sampling.shape == (5, 2)
assert "scipy" in sys.modules

from repro.sim.routing import build_device_graph, path_hop_count

adjacency = {0: [1], 1: [0], 2: []}
assert build_device_graph(adjacency).number_of_edges() == 1
assert path_hop_count(adjacency, 0, 1) == 1
import networkx

try:
    path_hop_count(adjacency, 0, 2)
except networkx.NetworkXNoPath as exc:
    assert "no path 0 -> 2" in str(exc)
else:
    raise AssertionError("unreachable node did not raise NetworkXNoPath")

from repro.obs.exporter import MetricsServer

server = MetricsServer()
assert "http.server" not in sys.modules  # constructing is still free
port = server.start()
try:
    import urllib.request

    body = urllib.request.urlopen(f"http://127.0.0.1:{port}/metrics", timeout=5).read()
    assert body.rstrip().endswith(b"# EOF")
finally:
    server.stop()
"""


_SCIENCE_CHILD = """
import sys

import repro.sim, repro.cc, repro.core, repro.metrics

loaded = sorted(m for m in sys.modules if m.startswith(("repro.obs", "repro.check")))
assert not loaded, f"the science imports its scaffolding: {loaded}"
assert "repro.probe" in sys.modules
"""


def _run_child(code: str) -> None:
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr


def test_cli_import_skips_scipy_networkx_http_server():
    _run_child(_CHILD)


def test_sim_cc_core_metrics_import_no_obs_and_no_check():
    _run_child(_SCIENCE_CHILD)
