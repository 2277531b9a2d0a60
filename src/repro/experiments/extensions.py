"""Extension experiments beyond the paper's figures.

The paper's conclusion claims VAI and SF "could be used with a multitude of
congestion control algorithms".  The paper only evaluates HPCC and Swift;
these experiments extend the evaluation to the other protocol families in
:mod:`repro.cc` and add robustness studies:

* ``ext_generality`` — the 16-1 incast across *four* protocol families
  (HPCC/INT, Swift/delay, DCTCP/ECN-fraction, TIMELY/RTT-gradient), each
  with and without VAI+SF;
* ``ext_seed_variance`` — the headline incast metrics across seeds (the
  paper reports single runs);
* ``ext_load_sweep`` — long-flow tail vs. offered load on the fat-tree;
* ``ext_failure_sweep`` — the fault-tolerance study: seeded packet loss on
  the incast bottleneck (go-back-N keeps every flow completing) and a
  fabric link flap on the fat-tree (reroute keeps traffic flowing).

Each is an :class:`repro.experiments.figures.Entry` (configs declared once,
a pure reduce) whose :class:`~repro.experiments.figures.FigureResult` the
CLI renders like a paper figure (``repro-experiments --ext generality``).
Extensions run the scaled presets only: ``scale`` is accepted for symmetry
with the figures and ignored, and the CLI refuses ``--scale paper --ext``.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Sequence

from ..units import ms, ns_to_us
from .config import FaultConfig, scaled_datacenter, scaled_incast
from .figures import Entry, FigureResult
from .parallel import Results
from .sweeps import load_configs, load_reduce, seed_configs, variants_reduce

GENERALITY_PAIRS = (
    ("hpcc", "hpcc-vai-sf"),
    ("swift", "swift-vai-sf"),
    ("dctcp", "dctcp-vai-sf"),
    ("timely", "timely-vai-sf"),
)
SEEDS = (1, 2, 3, 4, 5)
LOADS = (0.3, 0.5, 0.7)
DROP_RATES = (0.001, 0.01)


def _generality(scale: str, runs: Results) -> FigureResult:
    """VAI+SF across four protocol families on the 16-1 incast."""
    fig = FigureResult(
        figure="ext-generality",
        title="VAI + SF across protocol families (16-1 incast)",
    )
    rows = []
    for base, extended in GENERALITY_PAIRS:
        rb = runs[scaled_incast(base)]
        re_ = runs[scaled_incast(extended)]
        spread_gain = (
            rb.finish_spread_ns() / re_.finish_spread_ns()
            if re_.finish_spread_ns() > 0
            else float("inf")
        )
        rows.append(
            (
                base,
                round(ns_to_us(rb.finish_spread_ns()), 1),
                round(ns_to_us(re_.finish_spread_ns()), 1),
                round(spread_gain, 2),
                round(rb.start_finish_correlation(), 2),
                round(re_.start_finish_correlation(), 2),
            )
        )
    fig.add_table(
        "families",
        (
            "protocol",
            "spread default (us)",
            "spread +VAI+SF (us)",
            "spread gain (x)",
            "corr default",
            "corr +VAI+SF",
        ),
        rows,
    )
    fig.notes.append(
        "Sec. VII's generality claim, tested on four structurally different "
        "signal types: INT (HPCC), delay (Swift), ECN fraction (DCTCP), and "
        "RTT gradient (TIMELY)."
    )
    return fig


ext_generality = Entry(
    lambda scale: [scaled_incast(v) for pair in GENERALITY_PAIRS for v in pair],
    _generality,
)


def ext_seed_variance(scale: str = "scaled", seeds: Sequence[int] = SEEDS) -> FigureResult:
    """Run-to-run variance of the incast headline metrics."""
    return _seed_variance(seeds)(scale)


def _seed_variance(seeds: Sequence[int]) -> Entry:
    bases = [scaled_incast(v) for v in ("hpcc", "hpcc-vai-sf", "swift", "swift-vai-sf")]

    def reduce(scale: str, runs: Results) -> FigureResult:
        fig = FigureResult(
            figure="ext-seed-variance",
            title="Incast metrics across seeds (mean ± std)",
        )
        metrics = ("convergence_ns", "finish_spread_ns", "mean_queue_bytes", "start_finish_corr")
        fig.add_table(
            "variance",
            ("variant", "convergence (ns)", "finish spread (ns)", "mean queue (B)",
             "start-finish corr"),
            [
                (variant, *(str(aggs[m]) for m in metrics))
                for variant, aggs in variants_reduce(runs, bases, seeds).items()
            ],
        )
        fig.notes.append(
            f"Seeds {tuple(seeds)}; the paper reports single runs.  Note: the "
            "incast workload itself is deterministic; seeds perturb RED marking "
            "and ECMP hashing, so deterministic variants may show zero variance."
        )
        return fig

    return Entry(lambda scale: [c for b in bases for c in seed_configs(b, seeds)], reduce)


def ext_load_sweep(scale: str = "scaled", loads: Sequence[float] = LOADS) -> FigureResult:
    """Long-flow tail slowdown vs offered load, with and without VAI+SF."""
    return _load_sweep(loads)(scale)


def _load_sweep(loads: Sequence[float]) -> Entry:
    bases = [scaled_datacenter(v, "hadoop") for v in ("hpcc", "hpcc-vai-sf")]

    def reduce(scale: str, runs: Results) -> FigureResult:
        fig = FigureResult(
            figure="ext-load-sweep",
            title="Long-flow tail slowdown vs offered load (Hadoop)",
        )
        metrics = ("p50_slowdown", "long_flow_p90", "completion_fraction")
        for base in bases:
            fig.add_table(
                base.variant,
                ("load", "p50 slowdown", "long-flow p90", "completed"),
                [
                    (f"{load:.0%}", *(str(aggs[m]) for m in metrics))
                    for load, aggs in load_reduce(runs, base, loads)
                ],
            )
        fig.notes.append(
            "The paper evaluates only 50% load; the sweep shows where the "
            "fairness win grows (contention) and where it vanishes (idle)."
        )
        return fig

    return Entry(lambda scale: [c for b in bases for c in load_configs(b, loads)], reduce)


def ext_failure_sweep(
    scale: str = "scaled", drop_rates: Sequence[float] = DROP_RATES
) -> FigureResult:
    """Fault tolerance: loss recovery under drops, reroute under a flap."""
    return _failure_sweep(drop_rates)(scale)


def _failure_sweep(drop_rates: Sequence[float]) -> Entry:
    drops = [
        replace(
            scaled_incast("hpcc"),
            faults=FaultConfig(drop_rate=rate, target="bottleneck"),
        )
        for rate in drop_rates
    ]
    flap = replace(
        scaled_datacenter("hpcc", duration_ns=ms(3.0)),
        faults=FaultConfig(link_flap=(ms(1.0), ms(0.5))),
    )

    def reduce(scale: str, runs: Results) -> FigureResult:
        fig = FigureResult(
            figure="ext-failure-sweep",
            title="Fault tolerance: packet loss and link failure",
        )
        rows = []
        for rate, cfg in zip(drop_rates, drops):
            r = runs[cfg]
            rows.append(
                (
                    f"{rate:.2%}",
                    "yes" if r.all_completed else "no",
                    r.fault_drops,
                    round(r.retransmitted_bytes / 1e3, 1),
                    round(ns_to_us(r.finish_spread_ns()), 1),
                )
            )
        fig.add_table(
            "incast-drops",
            ("drop rate", "all completed", "pkts dropped", "resent (KB)",
             "spread (us)"),
            rows,
        )
        dr = runs[flap]
        fig.add_table(
            "fattree-link-flap",
            ("completed", "offered", "pkts lost on link", "resent (KB)"),
            [
                (
                    dr.n_completed,
                    dr.n_offered,
                    dr.fault_drops,
                    round(dr.retransmitted_bytes / 1e3, 1),
                )
            ],
        )
        fig.notes.append(
            "The paper assumes a lossless PFC fabric; this study injects seeded "
            "faults (repro.sim.faults) with go-back-N loss recovery enabled.  "
            "Incast flows all complete despite bottleneck drops; the fat-tree "
            "reroutes around a 0.5 ms fabric-link failure."
        )
        return fig

    return Entry(lambda scale: drops + [flap], reduce)


ALL_EXTENSIONS: Dict[str, Entry] = {
    "generality": ext_generality,
    "seed-variance": _seed_variance(SEEDS),
    "load-sweep": _load_sweep(LOADS),
    "failure-sweep": _failure_sweep(DROP_RATES),
}
