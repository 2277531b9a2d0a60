"""Parallel experiment campaigns: fan configs across cores, cache by content.

A *campaign* is the set of simulation configs a figure selection needs.
:func:`run_campaign` deduplicates them by content key, serves what the
in-memory LRU or the persistent :mod:`store` already holds, and fans the
remainder out over a :class:`~concurrent.futures.ProcessPoolExecutor`.
Results come back to the parent, which seeds the runner's caches — figure
rendering afterwards is pure cache hits, so the existing sequential figure
code needs no changes to benefit.

Determinism: a simulation is a pure function of its config (every RNG in
the simulator is seeded from config fields), so a config computed in a
worker process is byte-identical to one computed serially or replayed from
the store — ``tests/experiments/test_parallel_store.py`` locks this in.
Workers share nothing: each runs its configs in a fresh interpreter with
its own seeded RNGs, and per-run watchdog budgets are re-installed in every
worker by the pool initializer.

``jobs=1`` never spawns a pool — campaigns degrade gracefully to serial
execution on single-core machines (and under coverage tools that dislike
forked children).
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..check import invariants as check_invariants
from ..obs import analytics as obs_analytics
from ..obs import flightrec as obs_flightrec
from ..obs import telemetry as obs_telemetry
from ..sim.network import RunBudget
from .config import (
    DATACENTER_VARIANTS,
    FIG1_HPCC_VARIANTS,
    FIG1_SWIFT_VARIANTS,
    FIG5_HPCC_VARIANTS,
    FIG6_SWIFT_VARIANTS,
    SCALED_LARGE_INCAST,
    DatacenterConfig,
    IncastConfig,
    apply_default_backend,
    get_default_backend,
    paper_datacenter,
    paper_incast,
    scaled_datacenter,
    scaled_incast,
    set_default_backend,
    with_backend,
)
from .runner import (
    peek_cached,
    run_datacenter,
    run_incast,
    seed_result_caches,
    set_default_budget,
)

AnyConfig = Union[IncastConfig, DatacenterConfig]

if TYPE_CHECKING:  # pragma: no cover - type-only; runtime import is lazy
    from .supervisor import CampaignJournal, SupervisorConfig


def run_config(cfg: AnyConfig) -> Any:
    """Simulate one config (uncached dispatch; the pool's work function).

    A config type outside the two built-in families can make itself runnable
    by exposing a ``run_self()`` method — the chaos harness's poison configs
    and test doubles (slow runs, self-killing workers) use this hook.
    """
    cfg = apply_default_backend(cfg)
    if isinstance(cfg, IncastConfig):
        return run_incast(cfg)
    if isinstance(cfg, DatacenterConfig):
        return run_datacenter(cfg)
    run_self = getattr(cfg, "run_self", None)
    if callable(run_self):
        return run_self()
    raise TypeError(f"not a runnable config: {type(cfg).__name__}")


def _worker_init(
    budget: Optional[RunBudget],
    analytics_config: Optional["obs_analytics.AnalyticsConfig"] = None,
    sanitize: bool = False,
    default_backend: str = "packet",
    flightrec: bool = False,
) -> None:
    """Pool initializer: re-install the parent's watchdog and analytics.

    Live analytics is a per-process switch; without this, pool runs would
    silently come back without streaming summaries while serial runs carry
    them.  The worker's aggregator itself is discarded — the per-run
    summary rides home on the result object and the parent re-records it.

    The sanitizer is likewise per-process: when the parent runs with
    ``--sanitize``, every worker gets its own checker so a violation in a
    pool run raises in the worker and surfaces through the future exactly
    like any other run failure.

    The flight recorder follows the analytics pattern: the worker's
    recorder dies with the worker, the finalized run section rides home on
    the result object, and the parent re-adopts it.
    """
    set_default_budget(budget)
    set_default_backend(default_backend)
    if analytics_config is not None:
        obs_analytics.enable(analytics_config)
    if sanitize:
        check_invariants.enable()
    if flightrec:
        obs_flightrec.enable()


def _describe(cfg: Any) -> str:
    """Progress label for a config (anything with cache_key() is runnable)."""
    describe = getattr(cfg, "describe", None)
    return describe() if callable(describe) else type(cfg).__name__


def _analytics_suffix(live: Optional[Dict[str, Any]]) -> str:
    """Compact live-analytics fields for a campaign heartbeat line."""
    if not live:
        return ""
    conv = live.get("convergence_ns")
    parts = [
        f"jain={live.get('jain', float('nan')):.3f}",
        f"conv={conv / 1e6:.3f}ms" if conv is not None else "conv=-",
    ]
    slowdown = live.get("slowdown") or {}
    p999 = slowdown.get("p999_slowdown")
    if p999 is not None:
        parts.append(f"p999-slowdown={p999:.2f}")
    return " [" + " ".join(parts) + "]"


@dataclass
class RunEnvelope:
    """A worker's result plus the per-run telemetry the parent reports.

    Workers never enable telemetry themselves (the collector is a parent-
    process object); instead every pool task comes back wrapped in one of
    these so the parent can attribute wall time, event count, and worker
    pid without a second communication channel.
    """

    result: Any
    pid: int
    wall_s: float
    events: int


def _run_config_timed(cfg: AnyConfig) -> RunEnvelope:
    """Pool work function: simulate and wrap with timing provenance."""
    t0 = time.perf_counter()
    result = run_config(cfg)
    return RunEnvelope(
        result=result,
        pid=os.getpid(),
        wall_s=time.perf_counter() - t0,
        events=getattr(result, "events_executed", 0),
    )


@dataclass
class CampaignStats:
    """What one campaign did: cache effectiveness and parallel speed.

    The supervision counters (``retried`` onward) stay zero on the plain
    pool path; the fault-tolerant supervisor fills them in.
    """

    requested: int = 0  # configs asked for, duplicates included
    unique: int = 0  # after content-key dedup
    cached: int = 0  # served by LRU or store, no simulation
    executed: int = 0  # actually simulated this campaign
    jobs: int = 1
    wall_s: float = 0.0
    retried: int = 0  # succeeded after >= 1 failed attempt
    salvaged: int = 0  # succeeded after >= 1 worker kill/loss
    quarantined: int = 0  # written off as poison (deterministic failure)
    lost: int = 0  # no result and not poison (worker loss / interrupt)
    workers_killed: int = 0  # stalled workers the supervisor SIGKILLed
    workers_lost: int = 0  # workers that died on their own mid-task

    def summary(self) -> str:
        text = (
            f"{self.requested} config(s), {self.unique} unique: "
            f"{self.cached} cached, {self.executed} simulated "
            f"(jobs={self.jobs}, {self.wall_s:.1f}s)"
        )
        supervision = [
            f"{value} {name}"
            for name, value in (
                ("retried", self.retried),
                ("salvaged", self.salvaged),
                ("quarantined", self.quarantined),
                ("lost", self.lost),
                ("worker(s) killed", self.workers_killed),
                ("worker(s) lost", self.workers_lost),
            )
            if value
        ]
        if supervision:
            text += " [" + ", ".join(supervision) + "]"
        return text


@dataclass
class CampaignOutcome:
    """Results keyed by config content key, plus stats and any failures.

    ``statuses`` maps every unique config key to its final per-config state
    (``ok``/``retried``/``salvaged``/``quarantined``/``lost``) when the
    campaign ran under the supervisor; the plain pool path leaves it empty.
    ``quarantines`` carries the replayable reports for poison configs.
    """

    results: Dict[str, Any]
    stats: CampaignStats
    failures: List[Tuple[str, str]]  # (config key, "ErrorType: message")
    statuses: Dict[str, str] = field(default_factory=dict)
    quarantines: List[Any] = field(default_factory=list)

    def result_for(self, cfg: AnyConfig) -> Any:
        return self.results[cfg.cache_key()]


def _announce(progress: Optional[Callable[[str], None]], message: str) -> None:
    """One live progress line: to the caller's sink and the telemetry log."""
    if progress is not None:
        progress(message)
    tel = obs_telemetry.TELEMETRY
    if tel is not None:
        tel.heartbeat(message)


def run_campaign(
    configs: Sequence[AnyConfig],
    *,
    jobs: int = 1,
    budget: Optional[RunBudget] = None,
    salvage: bool = False,
    progress: Optional[Callable[[str], None]] = None,
    supervisor: Optional["SupervisorConfig"] = None,
    journal: Optional["CampaignJournal"] = None,
) -> CampaignOutcome:
    """Run every config, each exactly once, using caches then ``jobs`` cores.

    Cache tiers are consulted in the parent only (workers always simulate);
    every fresh result is written back through :func:`seed_result_caches`,
    so a second campaign over the same configs executes nothing.

    With ``salvage=True`` a config whose run raises is reported on the
    outcome's ``failures`` instead of aborting the campaign — sweeps use
    this so one pathological seed cannot waste the other workers' results.

    With ``supervisor`` set the campaign is delegated wholesale to
    :func:`repro.experiments.supervisor.run_supervised`, which adds worker
    liveness monitoring, retry/backoff, quarantine, and journaled resume
    (``salvage`` is subsumed by the supervisor's ``partial_ok``).  Without
    it, an optional ``journal`` still records an ``interrupted`` event if
    the campaign dies on Ctrl-C, so even unsupervised campaigns leave a
    resumable trace.

    ``progress`` receives one human-readable line per completed (or failed)
    run, plus a campaign header; the same lines land in the telemetry
    collector's heartbeat log when telemetry is enabled.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if supervisor is not None:
        from .supervisor import run_supervised

        return run_supervised(
            configs, jobs=jobs, budget=budget, progress=progress, sup=supervisor
        )
    start = time.perf_counter()
    stats = CampaignStats(requested=len(configs), jobs=jobs)
    unique: Dict[str, AnyConfig] = {}
    for cfg in configs:
        unique.setdefault(cfg.cache_key(), cfg)
    stats.unique = len(unique)

    results: Dict[str, Any] = {}
    failures: List[Tuple[str, str]] = []
    pending: List[AnyConfig] = []
    for key, cfg in unique.items():
        cached = peek_cached(cfg)
        if cached is not None:
            results[key] = cached
            stats.cached += 1
        else:
            pending.append(cfg)

    if pending:
        _announce(
            progress,
            f"campaign: {stats.unique} unique config(s), {stats.cached} cached, "
            f"{len(pending)} to simulate (jobs={jobs})",
        )
        if jobs == 1:
            futures = [(cfg, None) for cfg in pending]
            pool = None
        else:
            parent_agg = obs_analytics.ANALYTICS
            pool = ProcessPoolExecutor(
                max_workers=min(jobs, len(pending)),
                initializer=_worker_init,
                initargs=(
                    budget,
                    parent_agg.config if parent_agg is not None else None,
                    check_invariants.CHECKER is not None,
                    get_default_backend(),
                    obs_flightrec.RECORDER is not None,
                ),
            )
            futures = [(cfg, pool.submit(_run_config_timed, cfg)) for cfg in pending]
        done = 0
        try:
            for cfg, future in futures:
                try:
                    if future is None:
                        # Serial path runs in-parent; the runner itself
                        # records the run when telemetry is on, so only the
                        # pool path reports envelopes (no double-counting).
                        result = run_config(cfg)
                        envelope = None
                    else:
                        envelope = future.result()
                        result = envelope.result
                except Exception as exc:
                    done += 1
                    _announce(
                        progress,
                        f"[{done}/{len(pending)}] {_describe(cfg)} "
                        f"FAILED: {type(exc).__name__}: {exc}",
                    )
                    if not salvage:
                        raise
                    failures.append(
                        (cfg.cache_key(), f"{type(exc).__name__}: {exc}")
                    )
                    continue
                seed_result_caches(cfg, result)
                results[cfg.cache_key()] = result
                stats.executed += 1
                done += 1
                live = getattr(result, "analytics", None)
                if envelope is not None and live is not None:
                    # The worker's aggregator died with the worker; re-record
                    # the summary that rode home on the result object.
                    agg = obs_analytics.ANALYTICS
                    if agg is not None:
                        agg.record(
                            "incast" if isinstance(cfg, IncastConfig) else "datacenter",
                            _describe(cfg),
                            live,
                        )
                frun = getattr(result, "flightrec", None)
                if envelope is not None and frun is not None:
                    # Same shipping pattern as analytics: the worker's
                    # recorder is gone, so adopt the section it finalized.
                    rec = obs_flightrec.RECORDER
                    if rec is not None:
                        rec.adopt_run(frun)
                if envelope is None:
                    _announce(progress, f"[{done}/{len(pending)}] {_describe(cfg)} done")
                else:
                    tel = obs_telemetry.TELEMETRY
                    if tel is not None:
                        status = getattr(result, "status", None)
                        tel.record_run(
                            "incast" if isinstance(cfg, IncastConfig) else "datacenter",
                            _describe(cfg),
                            wall_s=envelope.wall_s,
                            events=envelope.events,
                            completed=bool(status) if status is not None else True,
                            pid=envelope.pid,
                        )
                    _announce(
                        progress,
                        f"[{done}/{len(pending)}] {_describe(cfg)} done in "
                        f"{envelope.wall_s:.2f}s ({envelope.events} events, "
                        f"pid {envelope.pid})" + _analytics_suffix(live),
                    )
        except KeyboardInterrupt:
            # Ctrl-C must not leave orphaned workers grinding on, and the
            # journal (when one is attached) must land on disk before the
            # interrupt propagates — that file is what --resume reads.
            not_done = []
            for pending_cfg, pending_future in futures:
                key = pending_cfg.cache_key()
                if key in results:
                    continue
                if pending_future is not None:
                    pending_future.cancel()
                not_done.append(key)
            if pool is not None:
                for proc in list(getattr(pool, "_processes", {}).values()):
                    proc.terminate()
                pool.shutdown(wait=False, cancel_futures=True)
                pool = None
            if journal is not None:
                journal.append(
                    "interrupted", pending=not_done, completed=len(results)
                )
            raise
        finally:
            if pool is not None:
                pool.shutdown()

    stats.wall_s = time.perf_counter() - start
    tel = obs_telemetry.TELEMETRY
    if tel is not None:
        tel.record_campaign(
            requested=stats.requested,
            unique=stats.unique,
            cached=stats.cached,
            executed=stats.executed,
            jobs=stats.jobs,
            wall_s=stats.wall_s,
            failures=len(failures),
        )
    return CampaignOutcome(results=results, stats=stats, failures=failures)


# ---------------------------------------------------------------------------
# Figure -> config registry (what to prefetch for a figure selection)
# ---------------------------------------------------------------------------


def _incast_cfg(variant: str, n_senders: int, scale: str) -> IncastConfig:
    if scale == "paper":
        return paper_incast(variant, n_senders)
    return scaled_incast(variant, n_senders)


def _dc_cfg(variant: str, workload: str, scale: str) -> DatacenterConfig:
    if scale == "paper":
        return paper_datacenter(variant, workload)
    return scaled_datacenter(variant, workload)


def figure_configs(fig_id: str, scale: str = "scaled") -> List[AnyConfig]:
    """The simulation configs figure ``fig_id`` consumes (possibly empty).

    Must stay in lockstep with :mod:`repro.experiments.figures` — the
    campaign prefetches these, then the figure functions replay them from
    cache.  Listing a config here that a figure does not use wastes a
    simulation; omitting one merely makes the figure simulate it serially,
    so drift is a performance bug, never a correctness bug.  Figures 4
    (fluid model) and 7 (topology structure) run no simulations.
    """
    large = 96 if scale == "paper" else SCALED_LARGE_INCAST
    incasts = {
        "1": [(v, 16) for v in FIG1_HPCC_VARIANTS + FIG1_SWIFT_VARIANTS],
        "2": [(v, 16) for v in FIG1_HPCC_VARIANTS],
        "3": [(v, 16) for v in FIG1_SWIFT_VARIANTS],
        "5": [(v, n) for n in (16, large) for v in FIG5_HPCC_VARIANTS],
        "6": [(v, n) for n in (16, large) for v in FIG6_SWIFT_VARIANTS],
        "8": [(v, 16) for v in ("hpcc", "hpcc-vai-sf")],
        "9": [(v, 16) for v in ("swift", "swift-vai-sf")],
    }
    datacenters = {
        "10": "hadoop",
        "12": "hadoop",
        "11": "websearch+storage",
        "13": "websearch+storage",
    }
    fig_id = str(fig_id)
    configs: List[AnyConfig] = [
        _incast_cfg(v, n, scale) for v, n in incasts.get(fig_id, [])
    ]
    workload = datacenters.get(fig_id)
    if workload is not None:
        configs.extend(_dc_cfg(v, workload, scale) for v in DATACENTER_VARIANTS)
    return configs


def campaign_for_figures(
    fig_ids: Sequence[str], scale: str = "scaled", backend: str = "packet"
) -> List[AnyConfig]:
    """Union of configs for a figure selection, duplicates included.

    ``run_campaign`` deduplicates by content key, so figure pairs sharing
    simulations (2/3 with 1, 12/13 with 10/11) cost nothing extra.  A
    non-default ``backend`` is stamped onto every config so campaign keys
    match what the figure functions will look up after
    :func:`repro.experiments.config.set_default_backend`.
    """
    out: List[AnyConfig] = []
    for fig_id in fig_ids:
        out.extend(figure_configs(fig_id, scale))
    if backend != "packet":
        out = [with_backend(cfg, backend) for cfg in out]
    return out
