"""The ledger's workloads and metrics: names, units, directions, bounds.

``BENCHMARK.json`` at the repository root repeats the part of this table a
driver needs; ``ledger/tests/test_catalogue.py`` keeps the two in step.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

INCAST_PACKET = "incast_packet"
FATTREE_PACKET = "fattree_packet"
FATTREE_FLOW = "fattree_flow"
CAMPAIGN = "campaign"

#: Workload name -> the one-line reason it exists.
WORKLOADS: Dict[str, str] = {
    INCAST_PACKET: (
        "16-1 incast, packet backend, 5 CC variants: one switch hop, so per-ACK "
        "cc.decision work is the largest phase"
    ),
    FATTREE_PACKET: (
        "6 ms hadoop trace on the 16-host fat-tree, 2 variants: 5-hop paths, so "
        "port+engine dominate and cc.decision is small"
    ),
    FATTREE_FLOW: (
        "flow and hybrid backends on the same traffic: bypasses engine/port/cc, "
        "so packet-path changes must show no change here"
    ),
    CAMPAIGN: (
        "32 cheap flow-backend configs through pool, supervisor, store and CLI: "
        "orchestration dominates, simulation does little"
    ),
}
ALL = tuple(WORKLOADS)


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" | "higher"
    #: Share of the baseline median by which the metric may worsen
    #: (end-to-end metrics only).
    bound: Optional[float] = None
    #: Workloads that measure it; elsewhere it reads 0 ("not exercised").
    workloads: Tuple[str, ...] = ALL


#: What a user of the system sees, on the workloads listed; ``compare.py``
#: holds each to its bound between two reports made with the same seed.
END_TO_END: Tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("round_wall_s", "s", "lower", 0.10),
    Metric("sim_events_per_s", "1/s", "higher", 0.10),
    Metric("peak_rss_mb", "MB", "lower", 0.10),
    Metric("flow_incast_runs_per_s", "1/s", "higher", 0.10, (FATTREE_FLOW,)),
    Metric("flow_fattree_wall_s", "s", "lower", 0.10, (FATTREE_FLOW,)),
    Metric("hybrid_fattree_wall_s", "s", "lower", 0.10, (FATTREE_FLOW,)),
    Metric("flow_p99_slowdown_rel_err", "ratio", "lower", 0.01, (FATTREE_FLOW,)),
    Metric("cold_runs_per_s", "1/s", "higher", 0.10, (CAMPAIGN,)),
    Metric("supervised_runs_per_s", "1/s", "higher", 0.10, (CAMPAIGN,)),
    Metric("cli_fig8_wall_s", "s", "lower", 0.10, (CAMPAIGN,)),
    Metric("convergence_us", "us", "lower", 0.01, (INCAST_PACKET,)),
    Metric("long_flow_p90_slowdown", "ratio", "lower", 0.01, (FATTREE_PACKET,)),
    Metric("failed_frac", "ratio", "lower", 0.0),
)
#: The end-to-end metrics ``BENCHMARK.json`` names: measured on every
#: workload, and steady from one seed to the next.  ``round_wall_s`` is
#: neither on the trace-driven workloads (a seed's trace is 15-35% heavier or
#: lighter than the next one's), so there a driver reads it as a per-layer
#: metric and the work-normalised ``sim_events_per_s`` carries the bound.
UNIVERSAL = ("setup_s", "sim_events_per_s", "peak_rss_mb")

#: Hot-path split from ``repro.obs.profiler.capture("phase")``: profiler
#: phase -> metric, calibrated seconds per round.
PHASE_METRICS: Dict[str, str] = {
    "engine.loop": "sim.engine.loop_s",
    "port.serialize": "sim.port.serialize_s",
    "port.propagate": "sim.port.propagate_s",
    "cc.decision": "cc.decision_s",
    "pfc": "sim.pfc_s",
    "monitor.sample": "sim.monitor.sample_s",
    "engine.other": "sim.engine.other_s",
    "fluid.run": "sim.fluid.run_s",
    "fluid.relax": "sim.fluid.relax_s",
    "runner.build": "experiments.runner.build_s",
    "runner.simulate": "experiments.runner.simulate_s",
    "runner.collect": "experiments.runner.collect_s",
}
#: Spans the ledger's wrappers record: span name -> (self-time metric,
#: call-count metric), either of which may be absent.
SPAN_METRICS: Dict[str, Tuple[Optional[str], Optional[str]]] = {
    "topology.build": ("topology.build_s", None),
    "workloads.generate": ("workloads.generate_s", None),
    "cc.make_cc": ("cc.make_cc_s", "cc.make_cc_calls"),
    "sim.network.add_flow": ("sim.network.add_flow_s", None),
    "sim.network.run": ("sim.network.run_s", None),
    "metrics.collect": ("metrics.collect_s", None),
    "core.fluid_model.max_min": (None, "sim.fluid.max_min_calls"),
    "experiments.store.get": ("experiments.store.get_s", "experiments.store.gets"),
    "experiments.store.put": ("experiments.store.put_s", "experiments.store.puts"),
    "experiments.store.config_key": (
        "experiments.store.config_key_s",
        "experiments.store.config_key_calls",
    ),
}
#: CC variants whose per-ACK cost the probe replays, at 1 and 5 hops.
ON_ACK_VARIANTS = ("hpcc", "hpcc-vai-sf", "swift", "swift-vai-sf")
ON_ACK_HOPS = (1, 5)


def _per_layer() -> Tuple[Metric, ...]:
    seconds = [*PHASE_METRICS.values()]
    counts = []
    for self_time, calls in SPAN_METRICS.values():
        if self_time:
            seconds.append(self_time)
        if calls:
            counts.append(calls)
    rows = [(name, "s") for name in seconds] + [(name, "count") for name in counts]
    rows += [
        ("experiments.store.bytes", "count"),
        # Store re-reads per second.  Demoted from end-to-end: its rounds
        # spread 9-19% raw or calibrated (its time does not follow the spin),
        # which a 0.10 bound cannot resolve.
        ("warm_runs_per_s", "1/s"),
        ("experiments.parallel.overhead_s", "s"),
        ("experiments.supervisor.overhead_s", "s"),
        # Layer probes: direct calls, fixed op counts, calibrated time per op.
        ("sim.engine.ns_per_event", "ns"),
        ("sim.datapath.ns_per_pkt", "ns"),
        *(
            (f"cc.on_ack_ns.{variant}.{hops}hop", "ns")
            for variant in ON_ACK_VARIANTS
            for hops in ON_ACK_HOPS
        ),
        ("core.fluid_model.max_min_us", "us"),
        ("experiments.store.put_ms", "ms"),
        ("experiments.store.get_ms", "ms"),
        ("experiments.store.entry_kb", "KB"),
        ("experiments.store.fingerprint_ms", "ms"),
        ("experiments.parallel.pickle_roundtrip_ms", "ms"),
        ("experiments.cli.import_s", "s"),
        ("experiments.cli.imported_modules", "count"),
        ("metrics.jain_series_ms", "ms"),
        ("metrics.slowdown_by_size_ms", "ms"),
        ("workloads.poisson_gen_ms", "ms"),
        ("topology.fattree_build_ms", "ms"),
        # Counts and simulated errors: these repeat exactly for a seed.
        ("sim.engine.events_executed", "count"),
        ("sim.py_calls_per_event", "ratio"),
        ("experiments.flowsim.p50_slowdown_rel_err", "ratio"),
        ("experiments.flowsim.jain_mean_abs_err", "ratio"),
        ("experiments.flowsim.convergence_rel_err", "ratio"),
        # Honesty: what tracing costs and how noisy the host was.
        ("obs.trace_overhead_ratio", "ratio"),
        ("host.spin_ms", "ms"),
        ("host.spin_spread", "ratio"),
        ("host.raw_round_wall_s", "s"),
    ]
    return tuple(
        Metric(name, unit, "higher" if unit == "1/s" else "lower") for name, unit in rows
    )


#: Single-layer metrics, from the traced pass only.  They have no bound, and
#: one a workload does not exercise reads 0 there.
PER_LAYER: Tuple[Metric, ...] = _per_layer()

#: What a driver reads as per-layer metrics: the above, plus the end-to-end
#: metrics that only some workloads measure (from the traced pass's own
#: untraced rounds), since a driver wants every metric on every workload.
DRIVER_PER_LAYER: Tuple[Metric, ...] = PER_LAYER + tuple(
    m for m in END_TO_END if m.name not in UNIVERSAL and m.name != "failed_frac"
)


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles and count of one metric's samples.

    The median, not the minimum: on this box the fastest reading comes from
    a rare speed state and repeats worse than the middle one.
    """
    values = list(values)
    if not values:
        raise ValueError("no samples")
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4)
        med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}
