"""Experiment campaigns: what to run, how one run is wrapped, what comes back.

A *campaign* is the set of simulation configs a figure selection needs.
:func:`run_campaign` is the one way to execute it: the configs are
deduplicated by content key, what the in-memory LRU or the persistent
:mod:`store` already holds is served from there, and the remainder goes
through the task state machine in :mod:`repro.experiments.supervisor`
(journal, retries, quarantine).  Results come back to the parent, which
seeds the runner's caches — figure rendering afterwards is pure cache hits,
so the sequential figure code needs no changes to benefit.

``jobs`` alone decides where an attempt executes: ``jobs=1`` runs it in the
calling process (nothing is forked, so tracers, profilers and coverage tools
see the run), ``jobs >= 2`` runs it in supervised worker processes.

Determinism: a simulation is a pure function of its config (every RNG in
the simulator is seeded from config fields), so a config computed in a
worker process is byte-identical to one computed in-process or replayed from
the store — ``tests/experiments/test_parallel_store.py`` locks this in.

This module holds the pieces both sides of the pipe share (the work
function, the result envelope, the outcome types) and the figure -> config
registry; the executor itself lives in :mod:`supervisor`.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

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
    paper_datacenter,
    paper_incast,
    scaled_datacenter,
    scaled_incast,
    with_backend,
)
from .runner import run_datacenter, run_incast

AnyConfig = Union[IncastConfig, DatacenterConfig]

if TYPE_CHECKING:  # pragma: no cover - type-only; runtime import is lazy
    from .supervisor import SupervisorConfig


def run_config(cfg: AnyConfig) -> Any:
    """Simulate one config (uncached dispatch; the campaign's work function).

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


@dataclass
class RunEnvelope:
    """One attempt's result plus the provenance the campaign reports.

    Workers never enable telemetry themselves (the collector is a parent-
    process object); every attempt comes back wrapped in one of these so the
    parent can attribute wall time, event count and executing pid without a
    second communication channel.
    """

    result: Any
    pid: int
    wall_s: float
    events: int


def _run_config_timed(cfg: AnyConfig) -> RunEnvelope:
    """Campaign work function: simulate and wrap with timing provenance."""
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
    """What one campaign did: cache effectiveness, speed and supervision."""

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
    (``ok``/``retried``/``salvaged``/``quarantined``/``lost``);
    ``quarantines`` carries the replayable reports for poison configs.
    """

    results: Dict[str, Any]
    stats: CampaignStats
    failures: List[Tuple[str, str]]  # (config key, "ErrorType: message")
    statuses: Dict[str, str] = field(default_factory=dict)
    quarantines: List[Any] = field(default_factory=list)

    def result_for(self, cfg: AnyConfig) -> Any:
        return self.results[cfg.cache_key()]


def run_campaign(
    configs: Sequence[AnyConfig],
    *,
    jobs: int = 1,
    budget: Optional[RunBudget] = None,
    progress: Optional[Callable[[str], None]] = None,
    supervisor: Optional["SupervisorConfig"] = None,
) -> CampaignOutcome:
    """Run every config, each exactly once, using caches then ``jobs`` cores.

    Cache tiers are consulted in the parent only (workers always simulate);
    every fresh result is written back through the runner's caches, so a
    second campaign over the same configs executes nothing.

    ``jobs=1`` attempts each config in the calling process; ``jobs >= 2``
    hands attempts to that many supervised workers.  Either way a config
    whose run raises is retried or quarantined per ``supervisor.policy``
    and the campaign ends in :class:`~.supervisor.CampaignIncomplete`
    (carrying every partial result) unless ``supervisor.partial_ok`` is
    set.  ``supervisor=None`` means ``SupervisorConfig()``; see
    :func:`repro.experiments.supervisor.run_supervised`, which this calls.

    ``progress`` receives one human-readable line per completed (or failed)
    run, plus a campaign header; the same lines land in the telemetry
    collector's heartbeat log when telemetry is enabled.
    """
    from .supervisor import run_supervised  # supervisor imports this module

    return run_supervised(
        configs, jobs=jobs, budget=budget, progress=progress, sup=supervisor
    )


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
