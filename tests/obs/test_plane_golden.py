"""What each instrumentation plane records, pinned against a committed fixture.

``data/plane_golden.json`` was recorded at PR 23's parent, before any hook
site moved onto the probe seam, with ``PYTHONPATH=src:. python
tests/obs/test_plane_golden.py --record`` run against that tree.  Per case
it holds a SHA-256 of what each plane produces when it is the only one
attached -- the registry snapshot,
the tracer's event list, the flight recorder's finalized run sections, the
sanitizer's per-invariant check counts and the profiler's per-phase push
counts (not seconds) -- plus the bare run's ``fct_digest`` and event count.
Planes only observe, so the bar is byte-identity.  Re-record only for a PR
that changes on purpose what a plane records.

The all-on test is the independence half: with the five planes attached at
once the simulation output is the bare run's and every plane still records
what it records alone (less what the planes tell *each other*: the
recorder's hop spans and series counters on the tracer, and its
``flightrec-conserve`` cross-check on the sanitizer).
"""

from __future__ import annotations

import hashlib
import json
import sys
from contextlib import ExitStack, contextmanager
from dataclasses import replace
from pathlib import Path
from typing import Any, Dict, Iterator

import pytest

from repro.check import invariants
from repro.check.differential import fct_digest
from repro.experiments import scaled_datacenter, scaled_incast
from repro.experiments.config import FaultConfig, with_backend
from repro.experiments.parallel import run_config
from repro.obs import flightrec, profiler, registry, tracer
from repro.units import ms
from tests.experiments.test_packet_golden import PFC, _star_pfc

FIXTURE = Path(__file__).parent / "data" / "plane_golden.json"

PLANES = ("registry", "tracer", "recorder", "sanitizer", "profiler")

#: Big enough that no case overflows the ring, so nothing is evicted and
#: ``tracer.ring_dropped`` never enters the registry snapshot.
TRACE_CAPACITY = 4_000_000

#: name -> (config factory, PFC watermarks for the star's links or None).
CASES: Dict[str, Any] = {
    "incast16/hpcc-vai-sf": (lambda: scaled_incast("hpcc-vai-sf", 16), None),
    "incast8/swift": (lambda: scaled_incast("swift", 8), None),
    "incast8/swift-vai-sf/pfc": (lambda: scaled_incast("swift-vai-sf", 8), PFC),
    # Periodic dropper on the bottleneck plus one flap of a host uplink:
    # fault drops, link transitions, go-back-N and RTOs all fire.
    "incast8/hpcc/lossy": (
        lambda: replace(
            scaled_incast("hpcc", 8),
            faults=FaultConfig(drop_every_nth=97, link_flap=(50_000.0, 20_000.0)),
        ),
        None,
    ),
    "fattree1ms/hpcc": (
        lambda: scaled_datacenter("hpcc", "hadoop", duration_ns=ms(1.0)),
        None,
    ),
    # The fluid engine's series land on the tracer only while the recorder
    # is on too, so this case always runs with both (see ``observe``).
    "flow/incast16/hpcc-vai-sf": (
        lambda: with_backend(scaled_incast("hpcc-vai-sf", 16), "flow"),
        None,
    ),
}


@contextmanager
def _tracer() -> Iterator[tracer.EventTracer]:
    tr = tracer.enable(capacity=TRACE_CAPACITY)
    try:
        yield tr
    finally:
        tracer.disable()


#: plane -> (context manager attaching it alone, what it recorded).
ATTACH: Dict[str, Any] = {
    "registry": (registry.capture, lambda reg: reg.snapshot()),
    "tracer": (_tracer, lambda tr: tr.events()),
    "recorder": (flightrec.capture, lambda rec: rec.runs),
    "sanitizer": (invariants.capture, lambda chk: dict(chk.checks)),
    "profiler": (
        lambda: profiler.capture("phase"),
        lambda prof: {name: rec[1] for name, rec in prof.phases.items()},
    ),
}


def _digest(recorded: Any) -> str:
    return hashlib.sha256(json.dumps(recorded, sort_keys=True).encode()).hexdigest()


def _alone(recorded: Dict[str, Any]) -> Dict[str, Any]:
    """Strip what one plane wrote into another (a no-op on a plane alone)."""
    out = dict(recorded)
    if "tracer" in out:
        out["tracer"] = [e for e in out["tracer"] if e[2] not in ("hop", "flightrec")]
    if "sanitizer" in out:
        out["sanitizer"] = {
            k: v for k, v in out["sanitizer"].items() if k != "flightrec-conserve"
        }
    return out


def run(name: str, planes: tuple = ()) -> Dict[str, Any]:
    """Run one case with ``planes`` attached; what they and the run produced."""
    make_cfg, pfc = CASES[name]
    with ExitStack() as stack:
        stack.enter_context(_star_pfc(pfc))
        live = {p: stack.enter_context(ATTACH[p][0]()) for p in planes}
        result = run_config(make_cfg())
        recorded = {p: ATTACH[p][1](obj) for p, obj in live.items()}
    recorded["bare"] = [fct_digest(result), result.events_executed]
    return recorded


def observe(name: str) -> Dict[str, str]:
    """Every plane's digest on one case, each from a run with it alone."""
    if name.startswith("flow/"):
        recorded = run(name, ("tracer", "recorder"))
        recorded.update(run(name, ("profiler",)))
    else:
        recorded = run(name)
        for plane in PLANES:
            recorded.update(run(name, (plane,)))
    return {key: _digest(value) for key, value in recorded.items()}


@pytest.fixture(scope="module")
def golden() -> Dict[str, Any]:
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("name", sorted(CASES))
def test_each_plane_alone_matches_parent_commit(name: str, golden: Dict[str, Any]) -> None:
    assert observe(name) == golden[name]


@pytest.mark.parametrize("name", sorted(n for n in CASES if not n.startswith("flow/")))
def test_all_planes_at_once_change_nothing(name: str, golden: Dict[str, Any]) -> None:
    together = _alone(run(name, PLANES))
    assert {key: _digest(value) for key, value in together.items()} == golden[name]


def test_cases_reach_the_rare_sites() -> None:
    """The PFC, lossy and flow cases must really pause, drop, flap and trace."""
    counters = run("incast8/swift-vai-sf/pfc", ("registry",))["registry"]["counters"]
    assert counters["pfc.xoff_triggered"] > 0 and counters["pfc.resumes_applied"] > 0
    counters = run("incast8/hpcc/lossy", ("registry",))["registry"]["counters"]
    assert counters["faults.drops"] > 0 and counters["faults.link_transitions"] == 2
    assert counters["host.retransmissions"] > 0
    cats = {e[2] for e in run("flow/incast16/hpcc-vai-sf", ("tracer", "recorder"))["tracer"]}
    assert cats == {"flightrec"}


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: PYTHONPATH=src:. python tests/obs/test_plane_golden.py --record")
    FIXTURE.parent.mkdir(exist_ok=True)
    fixture = {case: observe(case) for case in sorted(CASES)}
    FIXTURE.write_text(json.dumps(fixture, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(CASES)} cases to {FIXTURE}")
