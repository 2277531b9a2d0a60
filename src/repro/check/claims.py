"""The paper's claims, each declared once and checked from here.

A :class:`Claim` is one sentence of the paper turned into an inequality on
the scaled presets.  ``configs()`` lists the simulations it reads and
``verdict(results)`` is pure over a :class:`~repro.experiments.parallel.Results`
view (which refuses undeclared configs), returning one scoreboard
:class:`Row`: claim id, paper source, measured value, bound, pass/FAIL and
sample size (runs; for tail claims also the flows above the long-flow
threshold).  Claims with ``configs() == []`` -- fig 4's closed form, fig 7's
structure, the custom-CC ablations -- compute inside the verdict, as the
``fig4`` / ``fig7`` entries do.

``repro-experiments check claims [--jobs N]`` runs the union of every
claim's configs as one campaign and prints the scoreboard between
:data:`BEGIN` / :data:`END` (exit 1 on any FAIL); EXPERIMENTS.md carries
that block.  The tier-1 suite evaluates every claim whose configs are all
incasts (:func:`incast_only`), sharing runs through the runner cache.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, replace
from typing import Any, Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..cc import SwiftCC
from ..cc.factory import PAPER_DAMPENER_CONSTANT, hpcc_vai_config
from ..cc.hpcc import HpccCC, HpccConfig
from ..cc.swift import SwiftConfig
from ..experiments.config import IncastConfig, scaled_datacenter, scaled_incast
from ..experiments.figures import ALL_FIGURES
from ..experiments.parallel import AnyConfig, CampaignOutcome, Results
from ..experiments.runner import make_env, run_incast_cached
from ..metrics.fct import summarize, tail_slowdown_above
from ..sim import Flow, QueueMonitor
from ..topology import FatTreeParams, build_fattree, build_star
from ..units import ns_to_us, us
from ..workloads import staggered_incast

BEGIN = "<!-- claims:begin (rendered by `repro-experiments check claims`) -->"
END = "<!-- claims:end -->"
#: The scaled "long flow" boundary: the paper's 1 MB with sizes x0.1.
LONG = 100_000
MIX = "websearch+storage"


@dataclass(frozen=True)
class Row:
    """One scoreboard line."""

    claim: str
    source: str
    measured: str
    bound: str
    ok: bool
    n: str

    def render(self) -> str:
        cells = (self.claim, self.source, self.measured, self.bound,
                 "pass" if self.ok else "FAIL", self.n)
        return "| " + " | ".join(cells) + " |"


#: What a claim's check hands back: measured, bound, ok, sample size.
Check = Tuple[str, str, bool, str]


@dataclass(frozen=True)
class Claim:
    id: str
    source: str
    configs: Callable[[], List[AnyConfig]]
    check: Callable[[Results], Check]

    def verdict(self, results: Results) -> Row:
        return Row(self.id, self.source, *self.check(results))


OPS = {"<": operator.lt, "<=": operator.le, ">": operator.gt}


def _versus(a, b, op: str, factor: float, ref: str, show=str, n: str = "2 runs") -> Check:
    """``a op factor x b``, where ``b`` is ``ref``'s value."""
    scale = "" if factor == 1 else f"{factor:.3g} x "
    ok = a is not None and b is not None and OPS[op](a, factor * b)
    return f"{show(a)} vs {show(b)}", f"{op} {scale}{ref}", ok, n


@dataclass(frozen=True)
class Metric:
    read: Callable[[Any], Optional[float]]
    fmt: str
    #: Tail metrics: how many flows the quantile is taken over.
    flows: Optional[Callable[[Any], int]] = None

    def show(self, value: Optional[float]) -> str:
        return "none" if value is None else self.fmt.format(value)


def _conv_us(r) -> float:
    """Convergence past the last flow's start (inf: never converged)."""
    if r.convergence_ns is None:
        return math.inf
    return ns_to_us(r.convergence_ns - r.last_start_ns)


def _long_flows(r) -> int:
    return sum(x.size_bytes > LONG for x in r.records)


CONV = Metric(_conv_us, "{:.0f} us")
SPREAD = Metric(lambda r: ns_to_us(r.finish_spread_ns()), "{:.0f} us")
CORR = Metric(lambda r: r.start_finish_correlation(), "{:+.2f}")
MEAN_Q = Metric(lambda r: r.queue.mean_bytes / 1e3, "{:.1f} KB")
MAX_Q = Metric(lambda r: r.queue.max_bytes / 1e3, "{:.0f} KB")
OSC_Q = Metric(lambda r: r.queue.oscillation_bytes / 1e3, "{:.1f} KB")
LAST = Metric(lambda r: ns_to_us(max(f.finish_time for f in r.flows)), "{:.0f} us")
LONG_P90 = Metric(
    lambda r: tail_slowdown_above(r.records, LONG, 90.0), "{:.2f}", flows=_long_flows
)
P50 = Metric(lambda r: summarize(r.records)["p50_slowdown"], "{:.2f}")


def _runs(n: int) -> str:
    return f"{n} run{'s' if n != 1 else ''}"


def _compare(
    id: str,
    source: str,
    metric: Metric,
    ours: AnyConfig,
    op: str,
    factor: float,
    ref: Union[None, AnyConfig, Sequence[AnyConfig]] = None,
) -> Claim:
    """``metric(ours) op factor`` (no ``ref``), or ``op factor x metric(ref)``
    where a tuple ``ref`` means its smallest member."""
    refs = [] if ref is None else list(ref) if isinstance(ref, tuple) else [ref]
    configs = [ours, *refs]

    def check(runs: Results) -> Check:
        a = metric.read(runs[ours])
        n = _runs(len(configs))
        if metric.flows is not None:
            counts = ", ".join(str(metric.flows(runs[c])) for c in configs)
            n += f"; {counts} flows > {LONG // 1000} KB"
        if not refs:
            ok = a is not None and OPS[op](a, factor)
            return metric.show(a), f"{op} {metric.show(factor)}", ok, n
        names = [c.variant for c in refs]
        label = names[0] if len(names) == 1 else f"min({', '.join(names)})"
        b = min(metric.read(runs[c]) for c in refs)
        return _versus(a, b, op, factor, label, metric.show, n)

    return Claim(id, source, lambda: configs, check)


def _incast(variant: str, n: int = 16) -> IncastConfig:
    return scaled_incast(variant, n)


def _vs(id: str, source: str, metric: Metric, variant: str, op: str, factor: float,
        n: int = 16) -> Claim:
    """``variant`` against its protocol's default (``hpcc-vai-sf`` vs ``hpcc``)."""
    default = _incast(variant.split("-")[0], n)
    return _compare(id, source, metric, _incast(variant, n), op, factor, default)


# ---------------------------------------------------------------------------
# Claims over a whole set of runs, closed forms and structure
# ---------------------------------------------------------------------------

_PAPER_VARIANTS = ("hpcc", "hpcc-1gbps", "hpcc-prob", "hpcc-vai-sf",
                   "swift", "swift-1gbps", "swift-prob", "swift-vai-sf")


def _all_complete() -> Claim:
    configs = [_incast(v) for v in _PAPER_VARIANTS]
    configs += [_incast(v, 32) for v in ("hpcc", "hpcc-vai-sf", "swift", "swift-vai-sf")]

    def check(runs: Results) -> Check:
        done = sum(runs[c].all_completed for c in configs)
        n = len(configs)
        return f"{done}/{n} runs complete", "all", done == n, _runs(n)

    return Claim("all-flows-complete", "Sec. VI-B-1", lambda: configs, check)


def _fig4_series(runs: Results) -> Tuple[np.ndarray, np.ndarray, dict]:
    fig = ALL_FIGURES["4"].reduce("scaled", runs)
    t, diff = (np.array(col) for col in zip(*fig.tables["fairness-difference"]))
    return t, diff, dict(fig.tables["properties"])


def _fig4_claims() -> List[Claim]:
    def fairer(runs: Results) -> Check:
        _, diff, _ = _fig4_series(runs)
        ok = diff[0] == 0.0 and bool(np.all(diff[1:] > 0))
        measured = f"{diff[0]:g} at t=0, min {diff[1:].min():.4f} after"
        return measured, "0, then > 0", ok, "closed form"

    def early_peak(runs: Results) -> Check:
        t, diff, _ = _fig4_series(runs)
        peak, half = int(np.argmax(diff)), len(diff) / 2
        bound = f"< {half:g} of {len(diff)}"
        return f"sample {peak} ({t[peak]:g} us)", bound, peak < half, "closed form"

    def decays(runs: Results) -> Check:
        _, diff, _ = _fig4_series(runs)
        return _versus(diff[-1], diff.max(), "<", 0.5, "peak", "{:.4f}".format, "closed form")

    def slope(runs: Results) -> Check:
        _, _, props = _fig4_series(runs)
        holds = props["initial slope condition (1/r < (C1+C0)/(s*MTU))"]
        return str(holds), "True", holds is True, "closed form"

    src = "Sec. V, Fig. 4"
    return [
        Claim("fig4-sf-fairer-throughout", src, list, fairer),
        Claim("fig4-early-peak", src, list, early_peak),
        Claim("fig4-difference-decays", src, list, decays),
        Claim("fig4-slope-condition", src, list, slope),
    ]


def _fig7_structure(runs: Results) -> Check:
    table = dict(ALL_FIGURES["7"].reduce("scaled", runs).tables["structure"])
    topo = build_fattree(FatTreeParams())
    measured = (
        *(table[k] for k in ("hosts", "ToR switches", "Agg switches", "spine switches",
                             "switch hops cross-pod (paper: max 5)")),
        topo.hosts[0].nic.spec.rate_bps / 1e9,
        min(len(sw.routes) for sw in topo.switches),
    )
    paper = (320, 20, 20, 16, 5, 100.0, 320)
    show = "{} hosts, {}/{}/{} ToR/Agg/spine, {} hops, {:g}G hosts, {} routes per switch"
    return show.format(*measured), "the paper's", measured == paper, "1 build"


# ---------------------------------------------------------------------------
# Ablations: custom per-flow CC factories on the standard staggered incast
# ---------------------------------------------------------------------------


def _custom_incast(cc_factory: Callable[[Any], Any], n: int = 16) -> Tuple[float, float]:
    """Finish spread (us) and mean bottleneck queue (KB) of the staggered
    incast run with ``cc_factory(env)`` per flow."""
    topo = build_star(n)
    net = topo.network
    receiver = topo.hosts[-1].node_id
    flows = []
    for spec in staggered_incast(n):
        src = topo.hosts[spec.sender_index].node_id
        flow = Flow(net.next_flow_id(), src, receiver, spec.size_bytes, spec.start_time_ns)
        net.add_flow(flow, cc_factory(make_env(net, src, receiver)))
        flows.append(flow)
    qmon = QueueMonitor(net.sim, topo.bottleneck_ports, us(2)).start()
    net.run_until_flows_complete(timeout_ns=us(50_000))
    finishes = [f.finish_time for f in flows if f.completed]
    spread = max(finishes) - min(finishes) if finishes else math.inf
    return ns_to_us(spread), qmon.mean_depth() / 1e3


def _hpcc_vai(dampener: float = PAPER_DAMPENER_CONSTANT, thresh_scale: float = 1.0):
    def make(env):
        base = hpcc_vai_config(env)
        vai = replace(base, token_thresh=base.token_thresh * thresh_scale,
                      dampener_constant=dampener)
        return HpccCC(env, HpccConfig(sampling_acks=30, vai=vai))

    return make


def _swift_no_fbs(sf_increase: bool):
    cfg = SwiftConfig(
        use_fbs=False, sampling_acks=30, use_reference_rate=True, sf_increase=sf_increase
    )
    return lambda env: SwiftCC(env, cfg)


def _hpcc_sampling(acks: int):
    return lambda env: HpccCC(env, HpccConfig(sampling_acks=acks))


_US, _KB = "{:.0f} us".format, "{:.1f} KB".format


def _dampener(runs: Results) -> Check:
    # A huge constant makes the damping divisor ~1: "off".
    _, off = _custom_incast(_hpcc_vai(dampener=1e9), n=32)
    _, on = _custom_incast(_hpcc_vai(), n=32)
    return _versus(on, off, "<=", 1.05, "off", _KB)


def _sf_interval(runs: Results) -> Check:
    s5, _ = _custom_incast(_hpcc_sampling(5))
    s60, _ = _custom_incast(_hpcc_sampling(60))
    return _versus(s5, s60, "<", 1.25, "s=60", _US)


def _sf_increase(runs: Results) -> Check:
    per_rtt, _ = _custom_incast(_swift_no_fbs(sf_increase=False))
    scheduled, _ = _custom_incast(_swift_no_fbs(sf_increase=True))
    return _versus(per_rtt, scheduled, "<=", 1.1, "SF-scheduled", _US)


def _token_thresh(runs: Results) -> Check:
    default = ns_to_us(run_incast_cached(_incast("hpcc")).finish_spread_ns())
    worst = max(_custom_incast(_hpcc_vai(thresh_scale=s))[0] for s in (0.5, 1.0, 2.0))
    return _versus(worst, default, "<", 1, "hpcc, worst of 0.5/1/2x", _US, "4 runs")


# ---------------------------------------------------------------------------
# Datacenter traces (Figs. 10-13)
# ---------------------------------------------------------------------------

_DC_VARIANTS = ("hpcc", "hpcc-vai-sf", "swift", "swift-vai-sf")


def _dc(variant: str, workload: str = "hadoop"):
    return scaled_datacenter(variant, workload)


def _median_slowdown(r, keep: Callable[[int], bool]) -> float:
    return float(np.median([x.slowdown for x in r.records if keep(x.size_bytes)]))


def _grows_with_size(runs: Results) -> Check:
    r = runs[_dc("hpcc")]
    small = _median_slowdown(r, lambda s: s <= 5_000)
    long = _median_slowdown(r, lambda s: s > LONG)
    n = f"1 run; {_long_flows(r)} flows > 100 KB"
    return _versus(long, small, ">", 2, "median <= 5 KB", "{:.2f}".format, n)


def _mix_long_heavy(runs: Results) -> Check:
    mix, hadoop = (runs[_dc("hpcc", w)] for w in (MIX, "hadoop"))
    a, b = (_long_flows(r) / len(r.records) for r in (mix, hadoop))
    return _versus(a, b, ">", 2, "hadoop", "{:.3f}".format)


def _small_flows_near_ideal(runs: Results) -> Check:
    worst = max(_median_slowdown(runs[_dc(v)], lambda s: s <= 2_000) for v in _DC_VARIANTS)
    return f"worst {worst:.2f}", "< 3.0", worst < 3.0, "4 runs"


def _figures_plot_every_variant(runs: Results) -> Check:
    figs = [ALL_FIGURES[f].reduce("scaled", runs) for f in ("10", "11", "12", "13")]
    tables = [len(fig.tables) for fig in figs]
    fewest = min(len(rows) for fig in figs for rows in fig.tables.values())
    ok = tables == [4, 4, 4, 4] and fewest >= 8
    measured = f"{sum(tables)} tables, >= {fewest} buckets"
    return measured, "4 per figure, >= 8 buckets", ok, "8 runs"


def _dc_claims() -> List[Claim]:
    every = [_dc(v, w) for w in ("hadoop", MIX) for v in _DC_VARIANTS]
    claims = [
        Claim("slowdown-grows-with-size", "Fig. 10", lambda: [_dc("hpcc")], _grows_with_size),
        Claim("mix-is-long-flow-heavy", "Fig. 11", lambda: [_dc("hpcc", MIX), _dc("hpcc")],
              _mix_long_heavy),
        Claim("small-flows-near-ideal", "Fig. 12", lambda: [_dc(v) for v in _DC_VARIANTS],
              _small_flows_near_ideal),
        Claim("figures-10-13-plot-every-variant", "Figs. 10-13", lambda: every,
              _figures_plot_every_variant),
    ]
    for workload, short, tail, median, bounds in (
        ("hadoop", "hadoop", "Fig. 10", "Fig. 12", {"hpcc": 1.25, "swift": 1.5}),
        (MIX, "mix", "Fig. 11", "Fig. 13", {"hpcc": 1.3, "swift": 1.3}),
    ):
        for proto in ("hpcc", "swift"):
            ours, base = _dc(f"{proto}-vai-sf", workload), _dc(proto, workload)
            claims += [
                _compare(f"{proto}-vai-sf-long-tail-{short}", tail, LONG_P90, ours, "<", 1, base),
                _compare(f"{proto}-vai-sf-median-{short}", median, P50, ours, "<", bounds[proto],
                         base),
            ]
    return claims


# ---------------------------------------------------------------------------
# The table
# ---------------------------------------------------------------------------

_SWIFT_OTHERS = tuple(_incast(v) for v in ("swift", "swift-1gbps", "swift-prob"))

CLAIMS: List[Claim] = [
    # Sec. III-E, Figs. 1-3: the baselines' unfairness.
    _compare("hpcc-late-flows-finish-first", "Sec. III-E, Fig. 2", CORR, _incast("hpcc"),
             "<", -0.5),
    _compare("swift-late-flows-finish-first", "Sec. III-E, Fig. 3", CORR, _incast("swift"),
             "<", -0.5),
    _compare("hpcc-converges-slowly", "Sec. III-E, Fig. 1", CONV, _incast("hpcc"), ">", 300),
    _compare("swift-converges-slowly", "Sec. III-E, Fig. 1", CONV, _incast("swift"), ">", 300),
    _vs("hpcc-1gbps-converges-faster", "Fig. 1", CONV, "hpcc-1gbps", "<", 1),
    _vs("swift-1gbps-converges-faster", "Fig. 1", CONV, "swift-1gbps", "<", 1),
    _vs("hpcc-1gbps-larger-queues", "Fig. 1", MEAN_Q, "hpcc-1gbps", ">", 1),
    _vs("swift-1gbps-larger-queues", "Fig. 1", MEAN_Q, "swift-1gbps", ">", 1),
    _vs("hpcc-1gbps-finishes-together", "Fig. 2", SPREAD, "hpcc-1gbps", "<", 1 / 3),
    _vs("hpcc-1gbps-flattens-trend", "Fig. 2", CORR, "hpcc-1gbps", ">", 1),
    _vs("hpcc-prob-finishes-together", "Fig. 2", SPREAD, "hpcc-prob", "<", 1),
    _vs("hpcc-prob-flattens-trend", "Fig. 2", CORR, "hpcc-prob", ">", 1),
    _vs("swift-1gbps-finishes-together", "Fig. 3", SPREAD, "swift-1gbps", "<", 1),
    _vs("swift-1gbps-flattens-trend", "Fig. 3", CORR, "swift-1gbps", ">", 1),
    # Sec. VI-B-1, Figs. 5, 6, 8, 9: VAI + SF on the 16-1 incast.
    _vs("hpcc-vai-sf-converges-faster", "Sec. VI-B-1, Fig. 5", CONV, "hpcc-vai-sf", "<", 0.25),
    _compare("hpcc-vai-sf-queue-below-1gbps", "Fig. 5(b)", MEAN_Q, _incast("hpcc-vai-sf"),
             "<", 1, _incast("hpcc-1gbps")),
    _vs("hpcc-vai-sf-queue-near-default", "Fig. 5(b)", MEAN_Q, "hpcc-vai-sf", "<", 3),
    _compare("swift-vai-sf-smallest-mean-queue", "Fig. 6(b)", MEAN_Q, _incast("swift-vai-sf"),
             "<=", 1.1, _SWIFT_OTHERS),
    _compare("swift-vai-sf-smallest-max-queue", "Fig. 6(b)", MAX_Q, _incast("swift-vai-sf"),
             "<=", 1.05, _SWIFT_OTHERS),
    _vs("hpcc-vai-sf-finishes-together", "Fig. 8", SPREAD, "hpcc-vai-sf", "<", 0.5),
    _compare("hpcc-vai-sf-no-late-first-trend", "Fig. 8", CORR, _incast("hpcc-vai-sf"), ">", 0),
    _vs("swift-vai-sf-finishes-together", "Fig. 9", SPREAD, "swift-vai-sf", "<", 0.6),
    _all_complete(),
    # Figs. 5(c,d), 6(c,d): the trends at the larger (scaled 96-1) incast.
    _vs("hpcc-vai-sf-converges-faster-32", "Fig. 5(c)", CONV, "hpcc-vai-sf", "<", 1, 32),
    _vs("hpcc-vai-sf-finishes-together-32", "Fig. 5(c)", SPREAD, "hpcc-vai-sf", "<", 0.5, 32),
    _vs("swift-vai-sf-converges-faster-32", "Fig. 6(c)", CONV, "swift-vai-sf", "<", 1, 32),
    _vs("swift-vai-sf-finishes-together-32", "Fig. 6(c)", SPREAD, "swift-vai-sf", "<", 1, 32),
    _vs("swift-vai-sf-smaller-queue-32", "Fig. 6(d)", MEAN_Q, "swift-vai-sf", "<", 1, 32),
    _vs("swift-vai-sf-smaller-oscillation-32", "Fig. 6(d)", OSC_Q, "swift-vai-sf", "<", 1.1, 32),
    _vs("hpcc-vai-sf-keeps-throughput-32", "Sec. VI", LAST, "hpcc-vai-sf", "<", 1.1, 32),
    _vs("swift-vai-sf-keeps-throughput-32", "Sec. VI", LAST, "swift-vai-sf", "<", 1.1, 32),
    # Sec. VII: the mechanisms on two more protocol families.
    _vs("dctcp-vai-sf-finishes-together", "Sec. VII", SPREAD, "dctcp-vai-sf", "<", 1),
    _vs("timely-vai-sf-finishes-together", "Sec. VII", SPREAD, "timely-vai-sf", "<", 1),
    # Ablations: each mechanism alone, then custom-CC runs.
    _vs("vai-alone-finishes-together", "Sec. IV-A", SPREAD, "hpcc-vai", "<", 1),
    _vs("sf-alone-finishes-together", "Sec. IV-B", SPREAD, "hpcc-sf", "<", 1),
    Claim("dampener-bounds-queues-32", "Sec. IV-A", list, _dampener),
    Claim("sf-interval-5-vs-60", "Sec. IV-B", list, _sf_interval),
    Claim("sf-on-increases-no-fairer", "Sec. IV-B", list, _sf_increase),
    Claim("token-thresh-not-knife-edge", "Sec. IV-A", list, _token_thresh),
    # Fig. 4 (fluid model) and Fig. 7 (topology).
    *_fig4_claims(),
    Claim("fig7-fattree-structure", "Fig. 7", list, _fig7_structure),
    # Figs. 10-13: datacenter traces.
    *_dc_claims(),
]


def incast_only(claim: Claim) -> bool:
    """Whether every config the claim reads is an incast (the tier-1 subset)."""
    return all(isinstance(cfg, IncastConfig) for cfg in claim.configs())


def campaign(claims: Sequence[Claim]) -> List[AnyConfig]:
    return [cfg for claim in claims for cfg in claim.configs()]


def evaluate(claims: Sequence[Claim], outcome: CampaignOutcome) -> List[Row]:
    """Each claim's row over one campaign's outcome."""
    return [claim.verdict(Results(outcome, claim.configs())) for claim in claims]


def render(rows: Sequence[Row]) -> str:
    held = sum(row.ok for row in rows)
    return "\n".join([
        BEGIN,
        "| claim | paper | measured | bound | verdict | n |",
        "|---|---|---|---|---|---|",
        *(row.render() for row in rows),
        "",
        f"{held}/{len(rows)} claims hold.",
        END,
    ])
