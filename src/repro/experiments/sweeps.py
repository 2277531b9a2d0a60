"""Parameter sweeps: multi-seed confidence, load sweeps, protocol sweeps.

The paper reports single-run figures; a reproduction should quantify run-to-
run variance and sensitivity.  These helpers run a config across seeds or a
parameter across values and aggregate the headline metrics with means and
standard deviations (NumPy on the analysis side, per the HPC guides).

Sweeps are hardened against individual run failures: each run is retried
(``retries`` times, exponential backoff) and, if it still fails, written off
as a structured :class:`repro.experiments.runner.RunFailure` while the other
runs' aggregates are returned.  The returned :class:`SweepOutcome` is a plain
dict of aggregates (existing callers index it unchanged) with the failure
reports on ``.failures``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from ..metrics.fct import summarize, tail_slowdown_above
from .config import DatacenterConfig, IncastConfig
from .runner import (
    RunFailure,
    run_datacenter_cached,
    run_incast_cached,
    salvage_runs,
)


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
    """Sweep aggregates plus the failures that were salvaged around.

    A dict subclass so every existing ``sweep["metric"]`` call keeps
    working; ``failures`` lists runs that kept raising after retries and
    ``n_failed``/``n_succeeded`` summarize coverage.
    """

    def __init__(
        self,
        aggregates: Dict[str, Aggregate],
        failures: Sequence[RunFailure] = (),
        n_succeeded: int = 0,
    ):
        super().__init__(aggregates)
        self.failures: List[RunFailure] = list(failures)
        self.n_succeeded = n_succeeded

    @property
    def n_failed(self) -> int:
        return len(self.failures)


# ---------------------------------------------------------------------------
# Incast seed sweeps
# ---------------------------------------------------------------------------


def _prefetch_parallel(configs: Sequence[object], jobs: int) -> None:
    """Warm the result caches for ``configs`` using ``jobs`` processes.

    Best-effort (one attempt, ``partial_ok``): a config that fails here is
    simply re-attempted serially by ``salvage_runs``, which owns
    retry/reporting.
    """
    if jobs <= 1:
        return
    # local: avoid import cycle at module load
    from .parallel import run_campaign
    from .supervisor import RetryPolicy, SupervisorConfig

    best_effort = SupervisorConfig(policy=RetryPolicy(max_attempts=1), partial_ok=True)
    run_campaign(list(configs), jobs=jobs, supervisor=best_effort)


def incast_seed_sweep(
    base: IncastConfig,
    seeds: Sequence[int],
    *,
    retries: int = 0,
    jobs: int = 1,
    run: Callable[[IncastConfig], "object"] = run_incast_cached,
) -> SweepOutcome:
    """Run an incast config across seeds; aggregate the figure metrics.

    Returns aggregates for: convergence time past last start (ns), mean and
    max queue (bytes), finish spread (ns), start-finish correlation.  A seed
    whose run raises is retried ``retries`` times then reported on the
    outcome's ``failures``; the aggregates cover the seeds that succeeded.
    ``jobs > 1`` fans the seed runs across worker processes first (results
    land in the caches; the serial pass below then only aggregates).
    """
    configs = [replace(base, seed=s) for s in seeds]
    if run is run_incast_cached:
        _prefetch_parallel(configs, jobs)
    successes, failures = salvage_runs(configs, run, retries=retries)
    results = [r for _, r in successes]
    conv = [
        (r.convergence_ns - r.last_start_ns)
        if r.convergence_ns is not None
        else float("nan")
        for r in results
    ]
    return SweepOutcome(
        {
            "convergence_ns": Aggregate.of(conv),
            "mean_queue_bytes": Aggregate.of([r.queue.mean_bytes for r in results]),
            "max_queue_bytes": Aggregate.of([r.queue.max_bytes for r in results]),
            "finish_spread_ns": Aggregate.of(
                [r.finish_spread_ns() for r in results]
            ),
            "start_finish_corr": Aggregate.of(
                [r.start_finish_correlation() for r in results]
            ),
        },
        failures=[
            RunFailure(key=f.key.seed, error=f.error, attempts=f.attempts)
            for f in failures
        ],
        n_succeeded=len(results),
    )


def compare_variants_across_seeds(
    make_config: Callable[[str], IncastConfig],
    variants: Sequence[str],
    seeds: Sequence[int],
    *,
    retries: int = 0,
    jobs: int = 1,
) -> Dict[str, SweepOutcome]:
    """Seed-sweep several variants with paired seeds for fair comparison."""
    if jobs > 1:
        _prefetch_parallel(
            [replace(make_config(v), seed=s) for v in variants for s in seeds],
            jobs,
        )
    return {
        v: incast_seed_sweep(make_config(v), seeds, retries=retries)
        for v in variants
    }


# ---------------------------------------------------------------------------
# Datacenter sweeps
# ---------------------------------------------------------------------------


def datacenter_seed_sweep(
    base: DatacenterConfig,
    seeds: Sequence[int],
    *,
    long_flow_bytes: float = 100_000.0,
    tail_percentile: float = 90.0,
    retries: int = 0,
    jobs: int = 1,
    run: Callable[[DatacenterConfig], "object"] = run_datacenter_cached,
) -> SweepOutcome:
    """Run a datacenter config across seeds; aggregate slowdown metrics.

    ``jobs > 1`` fans the seed runs across worker processes first; see
    :func:`incast_seed_sweep`.
    """
    configs = [replace(base, seed=s) for s in seeds]
    if run is run_datacenter_cached:
        _prefetch_parallel(configs, jobs)
    successes, failures = salvage_runs(configs, run, retries=retries)
    results = [r for _, r in successes]
    p50, p99, tail = [], [], []
    for r in results:
        s = summarize(r.records)
        p50.append(s.get("p50_slowdown", float("nan")))
        p99.append(s.get("p99_slowdown", float("nan")))
        t = tail_slowdown_above(r.records, long_flow_bytes, tail_percentile)
        tail.append(t if t is not None else float("nan"))
    return SweepOutcome(
        {
            "p50_slowdown": Aggregate.of(p50),
            "p99_slowdown": Aggregate.of(p99),
            f"long_flow_p{tail_percentile:g}": Aggregate.of(tail),
            "completion_fraction": Aggregate.of(
                [r.completion_fraction for r in results]
            ),
        },
        failures=[
            RunFailure(key=f.key.seed, error=f.error, attempts=f.attempts)
            for f in failures
        ],
        n_succeeded=len(results),
    )


def load_sweep(
    base: DatacenterConfig,
    loads: Sequence[float],
    *,
    long_flow_bytes: float = 100_000.0,
    tail_percentile: float = 90.0,
) -> List[Tuple[float, Dict[str, Aggregate]]]:
    """Sweep offered load; return per-load aggregates (single seed each).

    The paper runs only 50% load; this maps how the fairness win scales with
    pressure — at low load there is little contention to be unfair about,
    at high load convergence speed matters more.
    """
    out = []
    for load in loads:
        cfg = replace(base, load=load)
        agg = datacenter_seed_sweep(
            cfg, [cfg.seed], long_flow_bytes=long_flow_bytes,
            tail_percentile=tail_percentile,
        )
        out.append((load, agg))
    return out
