"""Flow-backend parity with a committed golden fixture.

``data/fluid_golden.json`` was recorded at PR 22, which changed the fluid
physics on purpose (closed-form drain between rate changes, solved
departures, passive samplers; DESIGN.md sec 13), with ``python
tests/experiments/test_fluid_golden.py --record``.  The engine must
reproduce it: incast runs bit-for-bit (digest, event and wake-up counts and
both sample series), fat-tree runs to float-summation noise.  Re-record
only for a PR that changes the fluid physics on purpose.
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path
from typing import Any, Dict, List

import pytest

from repro.check.differential import fct_digest
from repro.experiments import flowsim, scaled_datacenter, scaled_incast
from repro.experiments.config import FaultConfig, with_backend
from repro.sim.fluid import FluidEngine
from repro.units import ms, us

FIXTURE = Path(__file__).parent / "data" / "fluid_golden.json"

FCT_REL = 1e-9
UTIL_ABS = 1e-12
SERIES_REL = 1e-9


def _incast(variant: str, senders: int, **changes: Any):
    return with_backend(replace(scaled_incast(variant, senders), **changes), "flow")


def _trace(duration_ns: float, backend: str):
    cfg = scaled_datacenter("hpcc-vai-sf", "hadoop", duration_ns=duration_ns)
    return with_backend(cfg, backend)


#: name -> (runner, config factory).  The flap lands mid-incast, while
#: flows are still arriving, and outlasts several batches.
CASES: Dict[str, Any] = {
    "incast16/hpcc": (flowsim.run_incast_flow, lambda: _incast("hpcc", 16)),
    "incast16/hpcc-vai-sf": (flowsim.run_incast_flow, lambda: _incast("hpcc-vai-sf", 16)),
    "incast32/hpcc": (flowsim.run_incast_flow, lambda: _incast("hpcc", 32)),
    "incast32/hpcc-vai-sf": (flowsim.run_incast_flow, lambda: _incast("hpcc-vai-sf", 32)),
    "incast16/hpcc-vai-sf/flap": (
        flowsim.run_incast_flow,
        lambda: _incast(
            "hpcc-vai-sf", 16, faults=FaultConfig(link_flap=(us(50.0), us(100.0)))
        ),
    ),
    "fattree2ms/flow": (flowsim.run_datacenter_flow, lambda: _trace(ms(2.0), "flow")),
    "fattree0.5ms/hybrid": (flowsim.run_datacenter_hybrid, lambda: _trace(ms(0.5), "hybrid")),
}


def observe(name: str) -> Dict[str, Any]:
    """Run one case and return everything the fixture pins about it."""
    runner, make_cfg = CASES[name]
    engines: List[FluidEngine] = []

    class Recording(FluidEngine):
        def __init__(self, *args: Any, **kwargs: Any):
            super().__init__(*args, **kwargs)
            engines.append(self)

    original = flowsim.FluidEngine
    flowsim.FluidEngine = Recording
    try:
        result = runner(make_cfg())
    finally:
        flowsim.FluidEngine = original
    (engine,) = engines
    rate_times, rate_rows = engine.rate_series()
    queue_times, queue_values = engine.queue_series()
    seen: Dict[str, Any] = {
        "fct_digest": fct_digest(result),
        "events_executed": result.events_executed,
        "wakeups": engine.wakeups,
        "rate_times": list(rate_times),
        "rate_rows": [list(row) for row in rate_rows],
        "queue_times": list(queue_times),
        "queue_values": list(queue_values),
    }
    if hasattr(result, "flows"):
        seen["fcts"] = [f.fct for f in result.flows]
    else:
        seen["fcts"] = [rec.fct_ns for rec in result.records]
    if name.endswith("hybrid"):
        seen["link_utilization"] = [
            [u, v, util] for (u, v), util in sorted(engine.link_utilization().items())
        ]
    return seen


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


def _assert_series(got: List[float], want: List[float], what: str) -> None:
    assert len(got) == len(want), f"{what}: {len(got)} samples, fixture has {len(want)}"
    for i, (g, w) in enumerate(zip(got, want)):
        assert _close(g, w, SERIES_REL), f"{what}[{i}]: {g!r} vs {w!r}"


@pytest.fixture(scope="module")
def golden() -> Dict[str, Any]:
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("name", sorted(CASES))
def test_matches_parent_commit(name: str, golden: Dict[str, Any]) -> None:
    want, got = golden[name], observe(name)
    assert got["wakeups"] == want["wakeups"]
    if name.startswith("incast"):
        assert got["fct_digest"] == want["fct_digest"]
        assert got["events_executed"] == want["events_executed"]
    elif name.endswith("flow"):
        # The hybrid run's count includes its packet phase, which sees link
        # rates derated by utilizations that move in the last bits.
        assert got["events_executed"] == want["events_executed"]
    assert len(got["fcts"]) == len(want["fcts"])
    for i, (g, w) in enumerate(zip(got["fcts"], want["fcts"])):
        assert _close(g, w, FCT_REL), f"flow {i}: fct {g!r} vs {w!r}"
    _assert_series(got["rate_times"], want["rate_times"], "rate times")
    _assert_series(got["queue_times"], want["queue_times"], "queue times")
    _assert_series(got["queue_values"], want["queue_values"], "queue depth")
    assert len(got["rate_rows"]) == len(want["rate_rows"])
    for i, (g, w) in enumerate(zip(got["rate_rows"], want["rate_rows"])):
        _assert_series(g, w, f"rate row {i}")
    if "link_utilization" in want:
        got_util = {(u, v): util for u, v, util in got["link_utilization"]}
        want_util = {(u, v): util for u, v, util in want["link_utilization"]}
        assert got_util.keys() == want_util.keys()
        for link, util in want_util.items():
            assert abs(got_util[link] - util) <= UTIL_ABS, f"utilization of {link}"


@pytest.mark.parametrize("senders", [16, 32])
def test_fig8_pair_wakes_only_when_rates_change(senders: int) -> None:
    """Samples are events written, not loop iterations (~850 a run before PR 22)."""
    pair = [observe(f"incast{senders}/{variant}") for variant in ("hpcc", "hpcc-vai-sf")]
    assert sum(seen["wakeups"] for seen in pair) <= 120
    for seen in pair:
        written = len(seen["rate_times"]) + len(seen["queue_times"])
        assert written > 20 * seen["wakeups"]
        assert seen["events_executed"] == 2 * senders + written  # arrivals, departures


def test_runs_repeat_exactly() -> None:
    """Same inputs, same bits: nothing iterates an ``id()``-ordered container."""
    for name in ("incast16/hpcc-vai-sf/flap", "fattree0.5ms/hybrid"):
        assert observe(name) == observe(name)


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/experiments/test_fluid_golden.py --record")
    FIXTURE.write_text(
        json.dumps({name: observe(name) for name in sorted(CASES)}, separators=(",", ":"))
        + "\n"
    )
    print(f"recorded {len(CASES)} cases to {FIXTURE}")
