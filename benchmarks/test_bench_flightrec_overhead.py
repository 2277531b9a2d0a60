"""Flight-recorder overhead guard: off must be free, on must stay cheap.

The flight recorder's contract (DESIGN.md §15) mirrors the profiler's
(§14): when the recorder is off, instrumented code paths cost one
``probe.PROBE is None`` test at their sites and the engine's inner event
loop is not touched at all.  ``tests/sim/test_engine_hotpath.py`` pins
that structurally; this measures recorder-on against recorder-off
on a real packet incast (the hooks live on the per-packet enqueue/
dequeue/send/ack paths, so a tick loop would not exercise them) and holds
the ratio under a ceiling.
"""

import dataclasses
import time

from repro.experiments.config import scaled_incast
from repro.experiments.runner import run_incast
from repro.obs import flightrec as obs_flightrec

#: Ceiling for recorder-on overhead on a packet incast.  The hooks touch
#: every enqueue/dequeue/send/ack, so the cost is real but bounded; this
#: only trips when a change makes the per-packet work pathologically
#: expensive.
MAX_FLIGHTREC_OVERHEAD_RATIO = 2.5


def _incast(seed: int):
    cfg = dataclasses.replace(scaled_incast("hpcc", 8), seed=seed)
    return run_incast(cfg)


def test_flightrec_overhead(benchmark):
    """Recorder-on stays within a bounded factor of the bare incast."""
    _incast(seed=100)  # warm allocator/caches outside the timed region

    start = time.perf_counter()
    off = _incast(seed=101)
    off_s = time.perf_counter() - start
    assert off.all_completed

    rec = obs_flightrec.enable()
    try:
        start = time.perf_counter()
        on = benchmark.pedantic(
            _incast, kwargs={"seed": 101}, rounds=1, iterations=1
        )
        on_s = time.perf_counter() - start
        assert on.all_completed
        # The recorder must actually have worked for the ratio to mean
        # anything: every flow decomposed, conservation intact.
        frun = on.flightrec
        assert frun is not None
        assert frun["flows_completed"] == len(on.flows)
        assert frun["conservation_failures"] == 0
        assert frun["max_residual_ns"] <= 1.0
        # Recorder on is passive: same event count, same flow times.
        assert on.events_executed == off.events_executed
        assert [f.fct for f in on.flows] == [f.fct for f in off.flows]
    finally:
        obs_flightrec.disable()

    ratio = on_s / off_s if off_s > 0 else 1.0
    assert ratio < MAX_FLIGHTREC_OVERHEAD_RATIO, (
        f"flight recording costs {ratio:.1f}x the bare incast "
        f"(ceiling {MAX_FLIGHTREC_OVERHEAD_RATIO}x)"
    )
