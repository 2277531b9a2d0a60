"""Experiment campaigns: what to run, how one run is wrapped, what comes back.

A *campaign* is a list of simulation configs.  :func:`run_campaign` is the
one way any figure, extension or sweep gets its results: the configs are
deduplicated by content key, what the in-memory LRU or the persistent
:mod:`store` already holds is served from there, and the remainder goes
through the task state machine in :mod:`repro.experiments.supervisor`
(journal, retries, quarantine).  Each figure and extension declares the
configs it needs and a pure reduce over their results
(:class:`repro.experiments.figures.Entry`); the reduce reads them through a
:class:`Results` view of the :class:`CampaignOutcome`, which refuses any
config the entry did not declare.

``jobs`` alone decides where an attempt executes: ``jobs=1`` runs it in the
calling process (nothing is forked, so tracers, profilers and coverage tools
see the run), ``jobs >= 2`` runs it in supervised worker processes.

Determinism: a simulation is a pure function of its config (every RNG in
the simulator is seeded from config fields), so a config computed in a
worker process is byte-identical to one computed in-process or replayed from
the store — ``tests/experiments/test_parallel_store.py`` locks this in.

This module holds the pieces both sides of the pipe share (the work
function, the result envelope, the outcome types); the executor itself
lives in :mod:`supervisor`.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..sim.network import RunBudget
from .config import DatacenterConfig, IncastConfig, apply_default_backend
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
        return self.results[campaign_key(cfg)]


#: What an entry that simulates nothing (figures 4, 7) reduces over.
EMPTY_OUTCOME = CampaignOutcome(results={}, stats=CampaignStats(), failures=[])


def campaign_key(cfg: AnyConfig) -> str:
    """The key a campaign files ``cfg``'s result under.

    Configs are normalized to the process-default backend first, so a
    packet-default config spelled by a figure finds its ``--backend flow``
    result.
    """
    return apply_default_backend(cfg).cache_key()


class Results:
    """One entry's view of a campaign: results looked up by config.

    Only the configs the entry declared can be looked up, so a figure's
    ``configs`` and ``reduce`` cannot drift apart.  ``results[cfg]`` raises
    a :class:`LookupError` naming the config when the campaign has no
    result for it (quarantined or lost); ``get`` returns ``None`` instead,
    for sweeps that aggregate over whatever survived.
    """

    def __init__(self, outcome: CampaignOutcome, declared: Iterable[AnyConfig]) -> None:
        self.outcome = outcome
        self._declared = {campaign_key(cfg) for cfg in declared}

    def _key(self, cfg: AnyConfig) -> str:
        key = campaign_key(cfg)
        if key not in self._declared:
            raise LookupError(f"{_describe(cfg)} is not among the declared configs")
        return key

    def get(self, cfg: AnyConfig) -> Any:
        return self.outcome.results.get(self._key(cfg))

    def error(self, cfg: AnyConfig) -> str:
        """Why the campaign has no result for ``cfg``."""
        return dict(self.outcome.failures).get(self._key(cfg), "not run")

    def __getitem__(self, cfg: AnyConfig) -> Any:
        result = self.get(cfg)
        if result is None:
            raise LookupError(f"no result for {_describe(cfg)}: {self.error(cfg)}")
        return result


def _describe(cfg: Any) -> str:
    describe = getattr(cfg, "describe", None)
    return describe() if callable(describe) else type(cfg).__name__


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
