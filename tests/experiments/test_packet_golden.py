"""Packet-backend parity with a committed golden fixture.

``data/packet_golden.json`` was recorded from the commit *before* the
packet datapath and the per-ACK CC path had their call chains cut (PR 13's
parent), with ``python tests/experiments/test_packet_golden.py --record``
run against that tree.  The packet engine is exact, so the bar is
byte-identity: ``fct_digest`` and ``events_executed`` of every case must
equal the fixture.  Re-record only for a PR that changes the packet physics
on purpose.
"""

from __future__ import annotations

import json
import sys
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, Optional

import pytest

from repro.check.differential import fct_digest
from repro.experiments import runner, scaled_datacenter, scaled_incast, with_seed
from repro.experiments.config import FaultConfig
from repro.experiments.parallel import run_config
from repro.sim.pfc import PfcConfig
from repro.units import ms

FIXTURE = Path(__file__).parent / "data" / "packet_golden.json"

#: Ingress watermarks well below one start window (~50 KB), so the first
#: batches of the incast pause their senders and the pause / resume / wake
#: paths all run.
PFC = PfcConfig(xoff=30_000.0, xon=15_000.0)


def _incast(variant: str, **changes: Any):
    return replace(with_seed(scaled_incast(variant, 16), 42), **changes)


def _trace(variant: str):
    return scaled_datacenter(variant, "hadoop", duration_ns=ms(1.0))


#: name -> (config factory, PFC watermarks for the star's links or None).
CASES: Dict[str, Any] = {
    "incast16/hpcc": (lambda: _incast("hpcc"), None),
    "incast16/hpcc-vai-sf": (lambda: _incast("hpcc-vai-sf"), None),
    "incast16/swift": (lambda: _incast("swift"), None),
    "incast16/swift-vai-sf": (lambda: _incast("swift-vai-sf"), None),
    "incast16/dcqcn": (lambda: _incast("dcqcn"), None),
    # Fig. 9's variant on a lossless fabric whose PFC actually fires.
    "incast16/swift-vai-sf/pfc": (lambda: _incast("swift-vai-sf"), PFC),
    # Periodic dropper on the bottleneck: fusion off on those ports,
    # go-back-N, RTO cancel / re-arm.
    "incast16/hpcc/drop401": (
        lambda: _incast(
            "hpcc", faults=FaultConfig(drop_every_nth=401, target="bottleneck")
        ),
        None,
    ),
    "fattree1ms/hpcc": (lambda: _trace("hpcc"), None),
    "fattree1ms/hpcc-vai-sf": (lambda: _trace("hpcc-vai-sf"), None),
}


@contextmanager
def _star_pfc(pfc: Optional[PfcConfig]) -> Iterator[None]:
    """Build the runner's star with ``pfc`` (no config field carries it)."""
    if pfc is None:
        yield
        return
    original: Callable[..., Any] = runner.build_star

    def build_star_with_pfc(*args: Any, **kwargs: Any) -> Any:
        return original(*args, pfc=pfc, **kwargs)

    runner.build_star = build_star_with_pfc
    try:
        yield
    finally:
        runner.build_star = original


def observe(name: str) -> Dict[str, Any]:
    """Run one case and return what the fixture pins about it."""
    make_cfg, pfc = CASES[name]
    with _star_pfc(pfc):
        result = run_config(make_cfg())
    return {
        "fct_digest": fct_digest(result),
        "events_executed": result.events_executed,
    }


@pytest.fixture(scope="module")
def golden() -> Dict[str, Any]:
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("name", sorted(CASES))
def test_matches_parent_commit(name: str, golden: Dict[str, Any]) -> None:
    assert observe(name) == golden[name]


def test_special_cases_leave_the_plain_path(golden: Dict[str, Any]) -> None:
    """The PFC and dropper cases must really pause and really drop."""
    assert golden["incast16/swift-vai-sf/pfc"] != golden["incast16/swift-vai-sf"]
    assert golden["incast16/hpcc/drop401"] != golden["incast16/hpcc"]


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/experiments/test_packet_golden.py --record")
    recorded = {case: observe(case) for case in sorted(CASES)}
    FIXTURE.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(CASES)} cases to {FIXTURE}")
