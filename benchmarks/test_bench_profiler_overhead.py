"""Profiler overhead guard: off must be free, on must stay cheap.

The hot-path profiler's contract (DESIGN.md §14) is *zero overhead when
off*: ``Simulator.run`` dispatches once per invocation to ``_run_fast``,
whose bytecode contains no profiler reference at all — disabled profiling
is not "a cheap check per event", it is the unmodified event loop.
``tests/sim/test_engine_hotpath.py`` pins that structurally; this measures
the enabled profiler against the off path on a pure event-loop workload
(the worst case: zero real work per event, so the hook cost is maximally
visible) and holds the ratio under a ceiling.
"""

import time

from repro.obs import profiler as obs_profiler
from repro.sim import Simulator

#: Generous ceiling for phase-mode overhead on the empty-event worst case.
#: Real simulations sit far below (events do actual work); this only trips
#: when a change makes the per-event hooks pathologically expensive.
MAX_PHASE_OVERHEAD_RATIO = 6.0


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


def test_profiler_phase_mode_overhead(benchmark):
    """Phase-mode hooks stay within a bounded factor of the bare loop."""
    n = 20_000
    _tick_loop(n)  # warm allocator/caches outside the timed region

    start = time.perf_counter()
    assert _tick_loop(n) == n
    off_s = time.perf_counter() - start

    obs_profiler.enable("phase")
    try:
        start = time.perf_counter()
        assert benchmark.pedantic(_tick_loop, args=(n,), rounds=1, iterations=1) == n
        on_s = time.perf_counter() - start
        prof = obs_profiler.get()
        assert prof is not None and prof.flat()["engine.loop"]["count"] >= 1
    finally:
        obs_profiler.disable()

    ratio = on_s / off_s if off_s > 0 else 1.0
    assert ratio < MAX_PHASE_OVERHEAD_RATIO, (
        f"phase-mode profiling costs {ratio:.1f}x the bare event loop "
        f"(ceiling {MAX_PHASE_OVERHEAD_RATIO}x) on an empty-event workload"
    )
