"""Flow-backend fast path: runs/s and speedup over the packet backend.

The tentpole claim is >= 20x on the figure-8 workload (both variants,
measured in the same process so machine speed cancels out of the ratio).
The test asserts that floor and prints ``runs_per_s`` and ``speedup``; the
numbers of record are the ledger's ``fattree_flow`` workload.

The flow backend must also still *reproduce* figure 8's shape — the
speedup is worthless if the fluid model loses the paper's unfairness
signature — so the packet-side shape assertions from
``test_bench_fig08.py`` are re-checked on the flow results.

The second point is the 2 ms hadoop trace on the 16-host fat-tree, where
a flow arrives or departs at nearly every event and water-filling, not the
event loop, is the cost.  Until PR 12 the flow backend was *slower* than
the packet engine there (0.7x); the floor is parity.
"""

from time import perf_counter

from repro.experiments import scaled_datacenter, scaled_incast
from repro.experiments.config import with_backend
from repro.experiments.runner import clear_caches, run_datacenter, run_incast
from repro.units import ms

#: Figure 8's two simulations (HPCC default vs HPCC VAI SF, 16-1 incast).
FIG8_CONFIGS = (scaled_incast("hpcc", 16), scaled_incast("hpcc-vai-sf", 16))

#: Flow-mode rounds per measurement; the packet pair runs once (it is
#: ~20x+ slower, so one round already dominates the total wall time).
FLOW_ROUNDS = 10

SPEEDUP_FLOOR = 20.0

#: The ledger's ``fattree_flow`` trace: ~1,300 flows, 5-hop ECMP paths.
FATTREE_TRACE = scaled_datacenter("hpcc-vai-sf", "hadoop", duration_ns=ms(2.0))
FATTREE_FLOW_ROUNDS = 3
FATTREE_SPEEDUP_FLOOR = 1.0


def _run_pair(configs):
    results = [run_incast(cfg) for cfg in configs]
    clear_caches()
    return results


def test_flow_backend_speedup(bench_once):
    flow_configs = [with_backend(cfg, "flow") for cfg in FIG8_CONFIGS]
    _run_pair(flow_configs)  # warm imports and topology caches

    start = perf_counter()
    _run_pair(FIG8_CONFIGS)
    packet_pair_s = perf_counter() - start

    def flow_rounds():
        for _ in range(FLOW_ROUNDS - 1):
            _run_pair(flow_configs)
        return _run_pair(flow_configs)

    start = perf_counter()
    default, vai_sf = bench_once(flow_rounds)
    flow_pair_s = (perf_counter() - start) / FLOW_ROUNDS

    speedup = packet_pair_s / flow_pair_s
    runs_per_s = 2.0 / flow_pair_s
    print(
        f"\nflow backend: {runs_per_s:.1f} runs/s, "
        f"{speedup:.1f}x over packet (pair: {packet_pair_s:.3f}s -> "
        f"{flow_pair_s * 1000:.1f}ms)"
    )

    # The fast path must still show fig 8's shape: default HPCC's
    # last-starts-finish-first trend, gone under VAI+SF.
    assert default.all_completed and vai_sf.all_completed
    assert default.start_finish_correlation() < -0.5
    assert vai_sf.start_finish_correlation() > 0.0
    assert vai_sf.finish_spread_ns() < default.finish_spread_ns() / 2

    assert speedup >= SPEEDUP_FLOOR, (
        f"flow backend only {speedup:.1f}x over packet on fig8 "
        f"(floor: {SPEEDUP_FLOOR:g}x)"
    )


def _run_trace(cfg):
    result = run_datacenter(cfg)
    clear_caches()
    return result


def test_flow_backend_fattree_speedup(bench_once):
    flow_cfg = with_backend(FATTREE_TRACE, "flow")
    _run_trace(with_backend(scaled_datacenter("hpcc-vai-sf", "hadoop", duration_ns=ms(0.5)), "flow"))

    start = perf_counter()
    packet = _run_trace(FATTREE_TRACE)
    packet_s = perf_counter() - start

    def flow_rounds():
        for _ in range(FATTREE_FLOW_ROUNDS - 1):
            _run_trace(flow_cfg)
        return _run_trace(flow_cfg)

    start = perf_counter()
    flow = bench_once(flow_rounds)
    flow_s = (perf_counter() - start) / FATTREE_FLOW_ROUNDS

    speedup = packet_s / flow_s
    print(
        f"\nflow backend, 2 ms fat-tree trace: {speedup:.2f}x over packet "
        f"({packet_s:.3f}s -> {flow_s:.3f}s, {flow.n_offered} flows)"
    )

    assert flow.n_completed == flow.n_offered == packet.n_offered
    assert speedup >= FATTREE_SPEEDUP_FLOOR, (
        f"flow backend only {speedup:.2f}x over packet on the 2 ms fat-tree "
        f"trace (floor: {FATTREE_SPEEDUP_FLOOR:g}x)"
    )
