"""Speed floors and overhead ceilings, timed with ``perf_counter``.

Each compares two measurements taken in the same process, so machine speed
cancels out of the ratio; the numbers of record are the perf ledger's
(``ledger/run.py``).  The bounds are deliberately loose: they catch a fast
path that stopped being fast or a hook that became pathologically
expensive, not a few percent.
"""

import dataclasses
from time import perf_counter

from repro.experiments import scaled_datacenter, scaled_incast
from repro.experiments.config import with_backend
from repro.experiments.runner import clear_caches, run_datacenter, run_incast
from repro.obs import flightrec as obs_flightrec
from repro.obs import profiler as obs_profiler
from repro.sim import Simulator
from repro.units import ms

#: Figure 8's two simulations (HPCC default vs HPCC VAI SF, 16-1 incast).
FIG8 = (scaled_incast("hpcc", 16), scaled_incast("hpcc-vai-sf", 16))
#: The ledger's ``fattree_flow`` trace: ~1,300 flows, 5-hop ECMP paths.
FATTREE = scaled_datacenter("hpcc-vai-sf", "hadoop", duration_ns=ms(2.0))


def _timed(run, configs, rounds=1):
    """Mean wall seconds of ``rounds`` uncached passes, and the last results."""
    start = perf_counter()
    for _ in range(rounds):
        results = [run(cfg) for cfg in configs]
        clear_caches()
    return (perf_counter() - start) / rounds, results


def test_flow_backend_is_20x_packet_on_fig8_and_keeps_its_shape():
    flow = [with_backend(cfg, "flow") for cfg in FIG8]
    _timed(run_incast, flow)  # warm imports and topology caches
    packet_s, _ = _timed(run_incast, FIG8)
    flow_s, (default, vai_sf) = _timed(run_incast, flow, rounds=10)
    assert packet_s / flow_s >= 20.0, f"{packet_s:.3f}s -> {flow_s:.4f}s"
    # The fast path must still show fig 8: default HPCC's last-starts-
    # finish-first trend, gone under VAI+SF.
    assert default.all_completed and vai_sf.all_completed
    assert default.start_finish_correlation() < -0.5
    assert vai_sf.start_finish_correlation() > 0.0
    assert vai_sf.finish_spread_ns() < default.finish_spread_ns() / 2


def test_flow_backend_at_least_matches_packet_on_the_2ms_fattree():
    flow = with_backend(FATTREE, "flow")
    warm = scaled_datacenter("hpcc-vai-sf", duration_ns=ms(0.5))
    _timed(run_datacenter, [with_backend(warm, "flow")])
    packet_s, (packet,) = _timed(run_datacenter, [FATTREE])
    flow_s, (fluid,) = _timed(run_datacenter, [flow], rounds=3)
    assert fluid.n_completed == fluid.n_offered == packet.n_offered
    assert packet_s / flow_s >= 1.0, f"{packet_s:.3f}s -> {flow_s:.3f}s"


def _tick_loop(n_events: int) -> int:
    sim = Simulator()
    count = [0]

    def tick():
        count[0] += 1
        if count[0] < n_events:
            sim.schedule(1.0, tick)

    sim.schedule(0.0, tick)
    sim.run()
    return count[0]


def _off_then_on(run, plane):
    """``run()`` bare, then with ``plane`` enabled: both results, the plane
    object and the on/off wall-time ratio."""
    run()  # warm allocator and caches outside the timed region
    start = perf_counter()
    off = run()
    off_s = perf_counter() - start
    attached = plane.enable()
    try:
        start = perf_counter()
        on = run()
        on_s = perf_counter() - start
    finally:
        plane.disable()
    return off, on, attached, on_s / off_s


def test_phase_profiler_costs_under_6x_on_empty_events():
    """The worst case for the profiler: zero real work per event."""
    off, on, profiler, ratio = _off_then_on(lambda: _tick_loop(20_000), obs_profiler)
    assert off == on == 20_000
    assert profiler.flat()["engine.loop"]["count"] >= 1
    assert ratio < 6.0


def test_flight_recorder_costs_under_2_5x_and_changes_nothing():
    incast8 = dataclasses.replace(scaled_incast("hpcc", 8), seed=101)
    off, on, _, ratio = _off_then_on(lambda: run_incast(incast8), obs_flightrec)
    assert off.all_completed and on.all_completed
    # The recorder must have worked for the ratio to mean anything.
    assert on.flightrec["flows_completed"] == len(on.flows)
    assert on.flightrec["conservation_failures"] == 0
    assert on.flightrec["max_residual_ns"] <= 1.0
    assert on.events_executed == off.events_executed
    assert [f.fct for f in on.flows] == [f.fct for f in off.flows]
    assert ratio < 2.5
