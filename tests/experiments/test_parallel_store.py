"""Campaign-layer tests: parallel execution, store integration, determinism.

The load-bearing guarantee: a simulation result is identical whether the
config runs in the calling process, in a campaign worker, or is replayed from the
persistent store — so the campaign layer can be used freely without ever
changing the science.
"""

import json
import os
import pickle
from dataclasses import dataclass

import pytest

from repro.check import invariants as check_invariants
from repro.check.differential import fct_digest
from repro.experiments import runner
from repro.experiments.config import (
    scaled_datacenter,
    scaled_incast,
    set_default_backend,
)
from repro.experiments.extensions import ALL_EXTENSIONS
from repro.experiments.figures import ALL_FIGURES
from repro.experiments.parallel import Results, run_campaign, run_config
from repro.experiments.store import ResultStore, set_store
from repro.experiments.supervisor import CampaignIncomplete, RetryPolicy, SupervisorConfig
from repro.experiments.sweeps import incast_seed_sweep
from repro.obs import tracer as obs_tracer
from repro.obs.journal import STATUS_OK, STATUS_QUARANTINED
from repro.sim import engine
from repro.sim.network import RunBudget
from repro.units import ms


@pytest.fixture(autouse=True)
def _clean_caches():
    """Every test starts and ends with cold caches and no active store."""
    runner.clear_caches()
    set_store(None)
    yield
    runner.clear_caches()
    set_store(None)


def _summary_bytes(result) -> bytes:
    """A byte-exact digest of everything the figures read from a result."""
    return pickle.dumps(
        (
            result.jain_times_ns.tobytes(),
            result.jain_values.tobytes(),
            result.queue_times_ns.tobytes(),
            result.queue_values_bytes.tobytes(),
            sorted((f.flow_id, f.start_time, f.finish_time) for f in result.flows),
            result.convergence_ns,
        )
    )


CFG = scaled_incast("swift", 4)


def test_serial_pool_and_store_hit_are_byte_identical(tmp_path):
    serial = _summary_bytes(run_config(CFG))

    store = ResultStore(tmp_path)
    set_store(store)
    pooled = run_campaign([CFG], jobs=2)
    assert pooled.stats.executed == 1
    assert _summary_bytes(pooled.result_for(CFG)) == serial

    runner.clear_caches()  # drop the LRU so the next read must hit the disk
    replayed = run_campaign([CFG], jobs=2)
    assert replayed.stats.executed == 0 and replayed.stats.cached == 1
    assert _summary_bytes(replayed.result_for(CFG)) == serial
    assert store.stats.hits == 1


def test_campaign_dedups_by_content_key():
    configs = [CFG, scaled_incast("swift", 4), scaled_incast("hpcc", 4)]
    outcome = run_campaign(configs, jobs=1)
    assert outcome.stats.requested == 3
    assert outcome.stats.unique == 2
    assert outcome.stats.executed == 2
    assert len(outcome.results) == 2


def test_second_campaign_executes_nothing():
    run_campaign([CFG], jobs=1)
    outcome = run_campaign([CFG], jobs=1)
    assert outcome.stats.executed == 0 and outcome.stats.cached == 1


def test_warm_store_across_processes_simulates_nothing(tmp_path):
    """A fresh process (cold LRU) with a warm store re-runs zero sims."""
    set_store(ResultStore(tmp_path))
    run_campaign([CFG], jobs=1)
    runner.clear_caches()  # simulate a new process: memory gone, disk warm
    before = engine.total_events_executed()
    outcome = run_campaign([CFG], jobs=1)
    assert outcome.stats.executed == 0
    assert engine.total_events_executed() == before


def test_keys_and_store_filenames_do_not_move(tmp_path):
    """Journals resume and stores replay by key across code versions, so
    removing a defaulted config field must leave both literals alone
    (recorded at the commit that still had the ``engine`` field)."""
    store = ResultStore(tmp_path)
    incast = scaled_incast("hpcc-vai-sf", 16)
    trace = scaled_datacenter("hpcc", "hadoop", duration_ns=ms(1.0))
    assert incast.cache_key() == "cdf93ebc561a447f12de"
    assert store.path_for(incast).name == "IncastConfig-packet-cdf93ebc561a447f12de.pkl"
    assert trace.cache_key() == "99ec80d7134fe430b74d"
    assert store.path_for(trace).name == "DatacenterConfig-packet-99ec80d7134fe430b74d.pkl"


@dataclass(frozen=True)
class _NotRunnable:
    x: int = 0

    def cache_key(self) -> str:
        return f"not-runnable-{self.x}"


def test_partial_ok_reports_failures_instead_of_raising():
    outcome = run_campaign(
        [_NotRunnable(), CFG], jobs=1, supervisor=SupervisorConfig(partial_ok=True)
    )
    assert len(outcome.failures) == 1
    key, error = outcome.failures[0]
    assert key == "not-runnable-0" and "TypeError" in error
    assert outcome.statuses[key] == STATUS_QUARANTINED
    (report,) = outcome.quarantines
    assert report.classification == "deterministic" and report.attempts == 1
    assert outcome.stats.executed == 1  # the good config still ran


def test_without_partial_ok_a_failure_raises_incomplete():
    with pytest.raises(CampaignIncomplete) as exc_info:
        run_campaign([_NotRunnable(), CFG], jobs=1)
    outcome = exc_info.value.outcome
    (report,) = outcome.quarantines
    assert "TypeError" in report.error
    assert outcome.statuses[CFG.cache_key()] == STATUS_OK  # partial results ride along


def test_jobs1_runs_in_calling_process(tmp_path):
    """``jobs=1`` never forks: the parent's counters and hooks see the run."""
    journal = tmp_path / "j.jsonl"
    before = engine.total_events_executed()
    tracer = obs_tracer.enable(capacity=4096)
    sanitizer = check_invariants.enable()
    try:
        outcome = run_campaign(
            [CFG], jobs=1, supervisor=SupervisorConfig(journal_path=journal)
        )
    finally:
        check_invariants.disable()
        obs_tracer.disable()
    assert outcome.statuses == {CFG.cache_key(): STATUS_OK}
    assert engine.total_events_executed() > before
    assert len(tracer) > 0
    assert sanitizer.total_checks() > 0
    records = [json.loads(line) for line in journal.read_text().splitlines()]
    (attempt,) = [r for r in records if r["event"] == "attempt"]
    (done,) = [r for r in records if r["event"] == "done"]
    assert attempt["pid"] == done["pid"] == os.getpid()


def test_jobs1_attempt_runs_under_the_campaign_budget():
    """``budget=`` bounds an in-process attempt as it does a worker's, and
    the process-wide default is put back afterwards."""
    one_try = SupervisorConfig(policy=RetryPolicy(max_attempts=1), partial_ok=True)
    outcome = run_campaign(
        [CFG], jobs=1, budget=RunBudget(max_events=500), supervisor=one_try
    )
    (report,) = outcome.quarantines
    assert report.error.startswith("WatchdogExpired") and report.classification == "transient"
    assert runner.get_default_budget() is None


def test_jobs2_without_config_is_supervised():
    """No ``supervisor=`` argument still means supervised workers."""
    configs = [CFG, scaled_incast("hpcc", 4)]
    before = engine.total_events_executed()
    lines = []
    outcome = run_campaign(configs, jobs=2, progress=lines.append)
    assert outcome.statuses == {c.cache_key(): STATUS_OK for c in configs}
    assert engine.total_events_executed() == before  # nothing ran here
    pids = {int(line.split("pid ")[1].split(")")[0]) for line in lines if "done in" in line}
    assert pids and os.getpid() not in pids


def test_supervised_worker_honours_default_backend():
    """An unstamped config runs on the parent's default backend in a worker,
    the backend its cache key was computed for."""
    cfg = scaled_incast("hpcc", 16)
    set_default_backend("flow")
    try:
        in_process = run_config(cfg)
        runner.clear_caches()
        worker = run_campaign(
            [cfg], jobs=2, supervisor=SupervisorConfig()
        ).result_for(cfg)
    finally:
        set_default_backend("packet")
    assert worker.config.backend == "flow"
    assert fct_digest(worker) == fct_digest(in_process)


def test_jobs_must_be_positive():
    with pytest.raises(ValueError):
        run_campaign([CFG], jobs=0)


# ---------------------------------------------------------------------------
# Figure and extension declarations
# ---------------------------------------------------------------------------

ENTRIES = {f"figure-{k}": v for k, v in ALL_FIGURES.items()}
ENTRIES.update({f"extension-{k}": v for k, v in ALL_EXTENSIONS.items()})


@pytest.fixture(scope="module")
def canned_results():
    """One small real result per config family, served for every config.

    The declared fat-tree and fault runs take tens of seconds; what is
    checked here is the wiring, not the numbers (the figure goldens check
    those), so every campaign below hands back one of these.
    """
    return {
        "IncastConfig": run_config(scaled_incast("hpcc", 4)),
        "DatacenterConfig": run_config(scaled_datacenter("hpcc", duration_ns=ms(0.2))),
    }


_DC = dict.fromkeys(("hpcc", "hpcc-vai-sf", "swift", "swift-vai-sf"))
#: The tables (and, where the declaration fixes it, the row count) an entry
#: renders; the figure goldens pin the rest.
TABLES = {
    "figure-2": dict.fromkeys(("hpcc", "hpcc-1gbps", "hpcc-prob")),
    "figure-3": dict.fromkeys(("swift", "swift-1gbps", "swift-prob")),
    "figure-8": dict.fromkeys(("hpcc", "hpcc-vai-sf")),
    "figure-9": dict.fromkeys(("swift", "swift-vai-sf")),
    **{f"figure-{fig}": _DC for fig in (10, 11, 12, 13)},
    "extension-generality": {"families": 4},
    "extension-seed-variance": {"variance": 4},
    "extension-load-sweep": {"hpcc": 3, "hpcc-vai-sf": 3},
}


@pytest.mark.parametrize("entry_id", sorted(ENTRIES))
def test_entry_reduces_only_declared_configs(
    entry_id, canned_results, monkeypatch
):
    """An entry's reduce reads only configs it declared, and the campaign
    over its declaration leaves the reduce nothing to simulate."""
    entry = ENTRIES[entry_id]
    configs = entry.configs("scaled")
    assert all(hasattr(cfg, "cache_key") for cfg in configs)
    assert (configs == []) == (entry_id in ("figure-4", "figure-7"))
    if entry_id.startswith("figure-"):  # paper scale swaps presets, not shapes
        assert len(entry.configs("paper")) == len(configs)
    monkeypatch.setattr(
        "repro.experiments.parallel.run_config",
        lambda cfg: canned_results[type(cfg).__name__],
    )
    outcome = run_campaign(configs, jobs=1)
    assert outcome.stats.executed == outcome.stats.unique
    runner.clear_caches()  # the reduce must read the outcome, not the caches
    before = engine.total_events_executed()
    figure = entry.reduce("scaled", Results(outcome, configs))
    assert engine.total_events_executed() == before
    assert figure.tables
    expected = TABLES.get(entry_id)
    if expected is not None:
        assert set(figure.tables) == set(expected)
        for name, rows in expected.items():
            assert rows is None or len(figure.tables[name]) == rows, name


def test_a_lookup_outside_the_declaration_raises():
    outcome = run_campaign([CFG], jobs=1)
    runs = Results(outcome, [CFG])
    assert runs[CFG] is outcome.result_for(CFG)
    with pytest.raises(LookupError, match="not among the declared configs"):
        runs[scaled_incast("swift", 5)]


def test_figure_pairs_share_simulations():
    union = [cfg for fig in ("1", "2", "3") for cfg in ALL_FIGURES[fig].configs("scaled")]
    outcome = run_campaign(union, jobs=1)
    # figs 2 and 3 are subsets of fig 1's six incast runs
    assert outcome.stats.unique == 6
    assert outcome.stats.requested == 12


# ---------------------------------------------------------------------------
# Sweeps fan out through the same cache
# ---------------------------------------------------------------------------


def test_seed_sweep_with_jobs_matches_serial():
    seeds = [1, 2]
    serial = incast_seed_sweep(CFG, seeds)
    runner.clear_caches()
    parallel = incast_seed_sweep(CFG, seeds, jobs=2)
    assert serial.keys() == parallel.keys()
    for metric in serial:
        assert serial[metric] == parallel[metric]
