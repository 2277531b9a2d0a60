"""One entry point per paper figure.

Every function returns a :class:`FigureResult` whose ``tables`` hold the
rows the paper's plot encodes (so the harness "prints the same series the
paper reports").  ``scale`` selects parameter presets:

* ``"scaled"`` (default) — bench-friendly reductions (EXPERIMENTS.md);
* ``"paper"`` — the full Sec. III-D / VI-A parameters.

Figure inventory (the paper has no numbered tables):

=====  ====================================================================
Fig    Content
=====  ====================================================================
1      16-1 incast Jain index & queue depth, HPCC and Swift baselines
2, 3   16-1 incast start-vs-finish scatter (HPCC / Swift baselines)
4      fluid-model fairness difference
5, 6   16-1 and 96-1 incast Jain/queue with VAI+SF (HPCC / Swift)
7      fat-tree topology (reproduced as structural validation)
8, 9   16-1 incast start-vs-finish, default vs VAI+SF (HPCC / Swift)
10-13  FCT slowdown vs flow size on datacenter traces (tail and median)
=====  ====================================================================

Each figure is an :class:`Entry`: the configs it simulates, declared once,
and a pure reduce over their results.  ``fig1`` ... ``fig13`` are those
entries, callable as ``fig1(scale="scaled")``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from ..core.fluid_model import FluidModelParams, fig4_series, initial_slope_condition
from ..metrics.fct import slowdown_by_size, summarize, tail_slowdown_above
from ..topology.fattree import FatTreeParams, build_fattree
from ..units import ns_to_us
from .config import (
    DATACENTER_VARIANTS,
    FIG1_HPCC_VARIANTS,
    FIG1_SWIFT_VARIANTS,
    FIG5_HPCC_VARIANTS,
    FIG6_SWIFT_VARIANTS,
    SCALED_LARGE_INCAST,
    paper_datacenter,
    paper_incast,
    scaled_datacenter,
    scaled_incast,
)
from .parallel import EMPTY_OUTCOME, AnyConfig, Results, run_campaign
from .runner import IncastResult


@dataclass
class FigureResult:
    """Tabular reproduction of one figure."""

    figure: str
    title: str
    tables: Dict[str, List[tuple]] = field(default_factory=dict)
    columns: Dict[str, Tuple[str, ...]] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)

    def add_table(self, name: str, columns: Tuple[str, ...], rows: List[tuple]) -> None:
        self.tables[name] = rows
        self.columns[name] = columns


@dataclass(frozen=True)
class Entry:
    """One figure or extension, declared once.

    ``configs(scale)`` lists the simulations it needs and ``reduce(scale,
    results)`` turns their results into the figure without simulating;
    ``results`` is a :class:`~repro.experiments.parallel.Results` view that
    refuses configs the entry did not declare.  Calling the entry runs it
    alone: one in-process campaign, then the reduce.  The CLI instead runs
    the union of the selected entries' configs as one campaign.
    """

    configs: Callable[[str], List[AnyConfig]]
    reduce: Callable[[str, Results], FigureResult]

    def __call__(self, scale: str = "scaled") -> FigureResult:
        configs = self.configs(scale)
        outcome = run_campaign(configs) if configs else EMPTY_OUTCOME
        return self.reduce(scale, Results(outcome, configs))


def _incast_cfg(variant: str, n_senders: int, scale: str):
    if scale == "paper":
        return paper_incast(variant, n_senders)
    return scaled_incast(variant, n_senders)


def _large_incast_degree(scale: str) -> int:
    return 96 if scale == "paper" else SCALED_LARGE_INCAST


def _incasts(variants: Sequence[str], *, large: bool = False) -> Callable[[str], List[AnyConfig]]:
    """``configs`` for each variant's 16-1 incast (and, with ``large``, the
    large one)."""

    def configs(scale: str) -> List[AnyConfig]:
        degrees = (16, _large_incast_degree(scale)) if large else (16,)
        return [_incast_cfg(v, n, scale) for n in degrees for v in variants]

    return configs


def _incast_summary_rows(results: Sequence[IncastResult]) -> List[tuple]:
    rows = []
    for r in results:
        conv = (
            ns_to_us(r.convergence_ns - r.last_start_ns)
            if r.convergence_ns is not None
            else None
        )
        rows.append(
            (
                r.config.variant,
                round(conv, 1) if conv is not None else None,
                round(r.queue.max_bytes / 1000.0, 1),
                round(r.queue.mean_bytes / 1000.0, 1),
                round(r.queue.oscillation_bytes / 1000.0, 1),
                round(ns_to_us(r.finish_spread_ns()), 1),
                round(r.start_finish_correlation(), 3),
                r.all_completed,
            )
        )
    return rows


_INCAST_SUMMARY_COLUMNS = (
    "variant",
    "jain>=0.9 after last start (us)",
    "max queue (KB)",
    "mean queue (KB)",
    "queue osc. (KB std)",
    "finish spread (us)",
    "start-finish corr",
    "completed",
)


def _jain_decimated(r: IncastResult, n_points: int = 40) -> List[tuple]:
    """Decimate the Jain series to a printable table."""
    t, v = r.jain_times_ns, r.jain_values
    if len(t) == 0:
        return []
    idx = np.linspace(0, len(t) - 1, min(n_points, len(t))).astype(int)
    return [(round(ns_to_us(t[i]), 1), round(float(v[i]), 4)) for i in idx]


def _queue_decimated(r: IncastResult, n_points: int = 40) -> List[tuple]:
    t, v = r.queue_times_ns, r.queue_values_bytes
    if len(t) == 0:
        return []
    idx = np.linspace(0, len(t) - 1, min(n_points, len(t))).astype(int)
    return [(round(ns_to_us(t[i]), 1), round(float(v[i]) / 1000.0, 2)) for i in idx]


def _add_incast(
    fig: FigureResult,
    prefix: str,
    variants: Sequence[str],
    n_senders: int,
    scale: str,
    runs: Results,
    *,
    include_series: bool = True,
) -> None:
    """Add the summary (and series) tables of each variant's incast under
    ``prefix/``."""
    results = [runs[_incast_cfg(v, n_senders, scale)] for v in variants]
    fig.add_table(f"{prefix}/summary", _INCAST_SUMMARY_COLUMNS, _incast_summary_rows(results))
    if include_series:
        for r in results:
            v = r.config.variant
            fig.add_table(f"{prefix}/jain:{v}", ("t (us)", "jain"), _jain_decimated(r))
            fig.add_table(f"{prefix}/queue:{v}", ("t (us)", "KB"), _queue_decimated(r))
    fig.notes.append(
        f"{n_senders}-1 staggered incast at {scale} scale; convergence time is "
        "measured from the last flow's start."
    )


def _start_finish(figure: str, title: str, variants: Sequence[str]) -> Entry:
    """A start-vs-finish scatter of each variant's 16-1 incast."""

    def reduce(scale: str, runs: Results) -> FigureResult:
        fig = FigureResult(figure=figure, title=title)
        for v in variants:
            r = runs[_incast_cfg(v, 16, scale)]
            rows = [
                (round(ns_to_us(s), 1), round(ns_to_us(f), 1))
                for s, f in r.start_finish_pairs()
            ]
            fig.add_table(v, ("start (us)", "finish (us)"), rows)
            fig.notes.append(
                f"{v}: start-finish correlation {r.start_finish_correlation():+.3f}, "
                f"finish spread {ns_to_us(r.finish_spread_ns()):.1f} us"
            )
        return fig

    return Entry(_incasts(variants), reduce)


# ---------------------------------------------------------------------------
# Figures 1-3: baseline unfairness (Sec. III-E)
# ---------------------------------------------------------------------------


def _fig1(scale: str, runs: Results) -> FigureResult:
    """Jain index & queue depth, 16-1 incast, HPCC and Swift baselines."""
    fig = FigureResult(figure="1", title="Incast fairness and queues (baselines)")
    _add_incast(fig, "hpcc", FIG1_HPCC_VARIANTS, 16, scale, runs)
    _add_incast(fig, "swift", FIG1_SWIFT_VARIANTS, 16, scale, runs)
    return fig


fig1 = Entry(_incasts(FIG1_HPCC_VARIANTS + FIG1_SWIFT_VARIANTS), _fig1)
#: Start vs finish time, 16-1 staggered incast, HPCC / Swift baselines.
fig2 = _start_finish("2", "Start vs finish time (HPCC baselines)", FIG1_HPCC_VARIANTS)
fig3 = _start_finish("3", "Start vs finish time (Swift baselines)", FIG1_SWIFT_VARIANTS)


# ---------------------------------------------------------------------------
# Figure 4: fluid model
# ---------------------------------------------------------------------------


def _fig4(scale: str, runs: Results) -> FigureResult:
    """Fluid-model fairness difference between the two MD schedules."""
    params = FluidModelParams()
    t, diff = fig4_series(params=params)
    fig = FigureResult(
        figure="4",
        title="Fluid model: (R1-R0) - (S1-S0) over time",
    )
    idx = np.linspace(0, len(t) - 1, 40).astype(int)
    fig.add_table(
        "fairness-difference",
        ("t (us)", "diff (bytes/ns)"),
        [(round(ns_to_us(t[i]), 1), round(float(diff[i]), 4)) for i in idx],
    )
    fig.add_table(
        "properties",
        ("property", "value"),
        [
            ("initial slope condition (1/r < (C1+C0)/(s*MTU))", initial_slope_condition(params)),
            ("peak difference (bytes/ns)", round(float(diff.max()), 4)),
            ("peak time (us)", round(ns_to_us(float(t[np.argmax(diff)])), 1)),
            ("difference at t_end (bytes/ns)", round(float(diff[-1]), 4)),
        ],
    )
    fig.notes.append(
        "r=30000 ns, s=30 ACKs, MTU=1000 B, beta=0.5, rates 100/50 Gbps "
        "(paper Fig. 4 caption)."
    )
    return fig


fig4 = Entry(lambda scale: [], _fig4)


# ---------------------------------------------------------------------------
# Figures 5, 6: VAI + SF incast (Sec. VI-B-1)
# ---------------------------------------------------------------------------


def _vai_sf_incast(figure: str, protocol: str, variants: Sequence[str]) -> Entry:
    """16-1 (a, b) and large (c, d) incast of ``variants`` with VAI+SF."""

    def reduce(scale: str, runs: Results) -> FigureResult:
        big_n = _large_incast_degree(scale)
        fig = FigureResult(figure=figure, title=f"{protocol} incast with VAI + SF")
        _add_incast(fig, "16-1", variants, 16, scale, runs)
        _add_incast(fig, f"{big_n}-1", variants, big_n, scale, runs, include_series=False)
        return fig

    return Entry(_incasts(variants, large=True), reduce)


#: HPCC / Swift incast with VAI+SF: 16-1 (a, b) and 96-1 (c, d).
fig5 = _vai_sf_incast("5", "HPCC", FIG5_HPCC_VARIANTS)
fig6 = _vai_sf_incast("6", "Swift", FIG6_SWIFT_VARIANTS)


# ---------------------------------------------------------------------------
# Figure 7: topology
# ---------------------------------------------------------------------------


def _fig7(scale: str, runs: Results) -> FigureResult:
    """Structural validation of the Fig. 7 fat-tree (paper-scale build)."""
    params = FatTreeParams()  # always the paper's shape; building is cheap
    topo = build_fattree(params)
    net = topo.network
    hosts = topo.hosts
    # Hop-count extremes: same ToR (2 links), same pod (4), cross pod (6).
    same_tor = net.hop_count(hosts[0].node_id, hosts[1].node_id)
    same_pod = net.hop_count(
        hosts[0].node_id, hosts[params.hosts_per_tor].node_id
    )
    cross_pod = net.hop_count(
        hosts[0].node_id,
        hosts[params.hosts_per_tor * params.tors_per_pod].node_id,
    )
    fig = FigureResult(figure="7", title="Fat-tree topology structure")
    fig.add_table(
        "structure",
        ("property", "value"),
        [
            ("hosts", len(hosts)),
            ("ToR switches", params.n_tors),
            ("Agg switches", params.n_aggs),
            ("spine switches", params.spines),
            ("host link", f"{params.host_rate_bps / 1e9:g} Gbps"),
            ("fabric link", f"{params.fabric_rate_bps / 1e9:g} Gbps"),
            ("links same-ToR pair", same_tor),
            ("links same-pod pair", same_pod),
            ("links cross-pod pair", cross_pod),
            ("switch hops cross-pod (paper: max 5)", cross_pod - 1),
        ],
    )
    fig.notes.append(
        "Paper: 320 hosts, 5 pods x (4 ToR + 4 Agg), 16 spines, 100G/400G "
        "links, 1 us propagation per link."
    )
    return fig


fig7 = Entry(lambda scale: [], _fig7)


# ---------------------------------------------------------------------------
# Figures 8, 9: start vs finish with VAI + SF
# ---------------------------------------------------------------------------

#: Start vs finish, 16-1 incast: default vs VAI SF (HPCC / Swift).
fig8 = _start_finish("8", "Start vs finish (HPCC vs HPCC VAI SF)", ("hpcc", "hpcc-vai-sf"))
fig9 = _start_finish("9", "Start vs finish (Swift vs Swift VAI SF)", ("swift", "swift-vai-sf"))


# ---------------------------------------------------------------------------
# Figures 10-13: datacenter FCT slowdowns
# ---------------------------------------------------------------------------


def _dc_cfg(variant: str, workload: str, scale: str):
    if scale == "paper":
        return paper_datacenter(variant, workload)
    return scaled_datacenter(variant, workload)


def _long_flow_threshold_bytes(scale: str) -> float:
    """The paper's "long flow" boundary (1 MB), scaled with flow sizes."""
    return 1_000_000.0 if scale == "paper" else 100_000.0


def _dc_figure(
    figure: str,
    title: str,
    workload: str,
    percentile: float,
) -> Entry:
    """Slowdown vs flow size of every datacenter variant on ``workload``."""

    def configs(scale: str) -> List[AnyConfig]:
        return [_dc_cfg(v, workload, scale) for v in DATACENTER_VARIANTS]

    def reduce(scale: str, runs: Results) -> FigureResult:
        fig = FigureResult(figure=figure, title=title)
        threshold = _long_flow_threshold_bytes(scale)
        tail_pct = percentile if scale == "paper" else min(percentile, 99.0)
        n_buckets = 100 if scale == "paper" else 12
        for variant in DATACENTER_VARIANTS:
            result = runs[_dc_cfg(variant, workload, scale)]
            buckets = slowdown_by_size(
                result.records, percentile=tail_pct, n_buckets=n_buckets
            )
            fig.add_table(
                variant,
                ("size <= (KB)", f"p{tail_pct:g} slowdown", "flows"),
                [
                    (round(b.size_max_bytes / 1000.0, 1), round(b.slowdown, 2), b.count)
                    for b in buckets
                ],
            )
            long_tail = tail_slowdown_above(result.records, threshold, tail_pct)
            stats = summarize(result.records)
            fig.notes.append(
                f"{variant}: {result.n_completed}/{result.n_offered} flows completed, "
                f"long-flow (> {threshold / 1000:g} KB) p{tail_pct:g} slowdown = "
                f"{long_tail if long_tail is None else round(long_tail, 2)}, "
                f"overall p50 = {stats.get('p50_slowdown', float('nan')):.2f}"
            )
        if scale != "paper":
            fig.notes.append(
                f"Scaled run: 16-host fat-tree at 10/40 Gbps, sizes x0.1 "
                f"(long flow = > {threshold / 1000:g} KB), percentile capped at "
                f"p{tail_pct:g} for the available flow count."
            )
        return fig

    return Entry(configs, reduce)


#: 99.9% (tail) and median FCT slowdown vs flow size, Hadoop trace and
#: WebSearch + Storage mix.
fig10 = _dc_figure("10", "Tail FCT slowdown (Hadoop)", "hadoop", 99.9)
fig11 = _dc_figure(
    "11", "Tail FCT slowdown (WebSearch + Storage)", "websearch+storage", 99.9
)
fig12 = _dc_figure("12", "Median FCT slowdown (Hadoop)", "hadoop", 50.0)
fig13 = _dc_figure(
    "13", "Median FCT slowdown (WebSearch + Storage)", "websearch+storage", 50.0
)


ALL_FIGURES: Dict[str, Entry] = {
    "1": fig1,
    "2": fig2,
    "3": fig3,
    "4": fig4,
    "5": fig5,
    "6": fig6,
    "7": fig7,
    "8": fig8,
    "9": fig9,
    "10": fig10,
    "11": fig11,
    "12": fig12,
    "13": fig13,
}
