"""Parameter sweeps: multi-seed confidence, load sweeps, protocol sweeps.

The paper reports single-run figures; a reproduction should quantify run-to-
run variance and sensitivity.  These helpers run a config across seeds or a
parameter across values and aggregate the headline metrics with means and
standard deviations (NumPy on the analysis side, per the HPC guides).

Every sweep is its configs plus a reduce over one
:func:`~repro.experiments.parallel.run_campaign`, so its runs get the
campaign's dedup, store, retry policy and quarantine.  The campaign runs
with ``partial_ok``: a run that fails is quarantined and reported on the
returned :class:`SweepOutcome` while the other runs aggregate.  The
``*_configs`` / ``*_reduce`` halves are public so an extension can put a
sweep's configs into a larger campaign (the CLI's) and reduce afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, List, Sequence, Tuple

import numpy as np

from ..metrics.fct import summarize, tail_slowdown_above
from .config import DatacenterConfig, IncastConfig
from .parallel import AnyConfig, Results, run_campaign
from .supervisor import SupervisorConfig


@dataclass(frozen=True)
class Aggregate:
    """Mean and standard deviation of one scalar metric across runs."""

    mean: float
    std: float
    n: int

    @classmethod
    def of(cls, values: Sequence[float]) -> "Aggregate":
        arr = np.asarray([v for v in values if v == v], dtype=float)  # drop NaN
        if arr.size == 0:
            return cls(float("nan"), float("nan"), 0)
        return cls(float(arr.mean()), float(arr.std()), int(arr.size))

    def __str__(self) -> str:  # pragma: no cover - formatting aid
        return f"{self.mean:.3g} ± {self.std:.2g} (n={self.n})"


class SweepOutcome(Dict[str, Aggregate]):
    """Sweep aggregates plus the runs that produced no result.

    A dict subclass so every ``sweep["metric"]`` call works; ``failures``
    lists ``(swept value, "ErrorType: message")`` for each run the campaign
    quarantined or lost, and ``n_failed`` / ``n_succeeded`` summarize
    coverage.
    """

    def __init__(
        self,
        aggregates: Dict[str, Aggregate],
        failures: Sequence[Tuple[Any, str]] = (),
        n_succeeded: int = 0,
    ):
        super().__init__(aggregates)
        self.failures: List[Tuple[Any, str]] = list(failures)
        self.n_succeeded = n_succeeded

    @property
    def n_failed(self) -> int:
        return len(self.failures)


def _campaign(configs: List[AnyConfig], jobs: int = 1) -> Results:
    """One partial-ok campaign over ``configs``, viewed for their reduce."""
    outcome = run_campaign(configs, jobs=jobs, supervisor=SupervisorConfig(partial_ok=True))
    return Results(outcome, configs)


def _reduce(
    runs: Results,
    labelled: Sequence[Tuple[Any, AnyConfig]],
    metrics: Callable[[List[Any]], Dict[str, Aggregate]],
) -> SweepOutcome:
    """Aggregate the runs that have a result; report the rest by label."""
    results, failures = [], []
    for label, cfg in labelled:
        result = runs.get(cfg)
        if result is None:
            failures.append((label, runs.error(cfg)))
        else:
            results.append(result)
    return SweepOutcome(metrics(results), failures, n_succeeded=len(results))


def seed_configs(base: AnyConfig, seeds: Sequence[int]) -> List[AnyConfig]:
    return [replace(base, seed=s) for s in seeds]


# ---------------------------------------------------------------------------
# Incast seed sweeps
# ---------------------------------------------------------------------------


def _incast_metrics(results: List[Any]) -> Dict[str, Aggregate]:
    conv = [
        (r.convergence_ns - r.last_start_ns)
        if r.convergence_ns is not None
        else float("nan")
        for r in results
    ]
    return {
        "convergence_ns": Aggregate.of(conv),
        "mean_queue_bytes": Aggregate.of([r.queue.mean_bytes for r in results]),
        "max_queue_bytes": Aggregate.of([r.queue.max_bytes for r in results]),
        "finish_spread_ns": Aggregate.of([r.finish_spread_ns() for r in results]),
        "start_finish_corr": Aggregate.of(
            [r.start_finish_correlation() for r in results]
        ),
    }


def incast_seed_reduce(
    runs: Results, base: IncastConfig, seeds: Sequence[int]
) -> SweepOutcome:
    return _reduce(runs, list(zip(seeds, seed_configs(base, seeds))), _incast_metrics)


def incast_seed_sweep(
    base: IncastConfig, seeds: Sequence[int], *, jobs: int = 1
) -> SweepOutcome:
    """Run an incast config across seeds; aggregate the figure metrics.

    Returns aggregates for: convergence time past last start (ns), mean and
    max queue (bytes), finish spread (ns), start-finish correlation.  A seed
    whose run fails is reported on the outcome's ``failures``; the
    aggregates cover the seeds that succeeded.  ``jobs`` is the campaign's.
    """
    runs = _campaign(seed_configs(base, seeds), jobs)
    return incast_seed_reduce(runs, base, seeds)


def variants_reduce(
    runs: Results, bases: Sequence[IncastConfig], seeds: Sequence[int]
) -> Dict[str, SweepOutcome]:
    return {base.variant: incast_seed_reduce(runs, base, seeds) for base in bases}


def compare_variants_across_seeds(
    make_config: Callable[[str], IncastConfig],
    variants: Sequence[str],
    seeds: Sequence[int],
    *,
    jobs: int = 1,
) -> Dict[str, SweepOutcome]:
    """Seed-sweep several variants with paired seeds for fair comparison."""
    bases = [make_config(v) for v in variants]
    runs = _campaign([cfg for base in bases for cfg in seed_configs(base, seeds)], jobs)
    return variants_reduce(runs, bases, seeds)


# ---------------------------------------------------------------------------
# Datacenter sweeps
# ---------------------------------------------------------------------------


def datacenter_seed_reduce(
    runs: Results,
    base: DatacenterConfig,
    seeds: Sequence[int],
    *,
    long_flow_bytes: float = 100_000.0,
    tail_percentile: float = 90.0,
) -> SweepOutcome:
    def metrics(results: List[Any]) -> Dict[str, Aggregate]:
        p50, p99, tail = [], [], []
        for r in results:
            s = summarize(r.records)
            p50.append(s.get("p50_slowdown", float("nan")))
            p99.append(s.get("p99_slowdown", float("nan")))
            t = tail_slowdown_above(r.records, long_flow_bytes, tail_percentile)
            tail.append(t if t is not None else float("nan"))
        return {
            "p50_slowdown": Aggregate.of(p50),
            "p99_slowdown": Aggregate.of(p99),
            f"long_flow_p{tail_percentile:g}": Aggregate.of(tail),
            "completion_fraction": Aggregate.of(
                [r.completion_fraction for r in results]
            ),
        }

    return _reduce(runs, list(zip(seeds, seed_configs(base, seeds))), metrics)


def datacenter_seed_sweep(
    base: DatacenterConfig,
    seeds: Sequence[int],
    *,
    long_flow_bytes: float = 100_000.0,
    tail_percentile: float = 90.0,
    jobs: int = 1,
) -> SweepOutcome:
    """Run a datacenter config across seeds; aggregate slowdown metrics.

    Failures are reported as in :func:`incast_seed_sweep`.
    """
    return datacenter_seed_reduce(
        _campaign(seed_configs(base, seeds), jobs),
        base,
        seeds,
        long_flow_bytes=long_flow_bytes,
        tail_percentile=tail_percentile,
    )


def load_configs(base: DatacenterConfig, loads: Sequence[float]) -> List[AnyConfig]:
    return [replace(base, load=load) for load in loads]


def load_reduce(
    runs: Results, base: DatacenterConfig, loads: Sequence[float], **kwargs: float
) -> List[Tuple[float, SweepOutcome]]:
    return [
        (load, datacenter_seed_reduce(runs, cfg, [cfg.seed], **kwargs))
        for load, cfg in zip(loads, load_configs(base, loads))
    ]


def load_sweep(
    base: DatacenterConfig,
    loads: Sequence[float],
    *,
    long_flow_bytes: float = 100_000.0,
    tail_percentile: float = 90.0,
) -> List[Tuple[float, SweepOutcome]]:
    """Sweep offered load; return per-load aggregates (single seed each).

    The paper runs only 50% load; this maps how the fairness win scales with
    pressure — at low load there is little contention to be unfair about,
    at high load convergence speed matters more.  All loads run as one
    campaign.
    """
    return load_reduce(
        _campaign(load_configs(base, loads)),
        base,
        loads,
        long_flow_bytes=long_flow_bytes,
        tail_percentile=tail_percentile,
    )
