"""Tests for the hardened experiment runner: LRU caches, watchdog budgets,
partial sweep results, the incomplete-run registry, and the CLI's exits."""

from dataclasses import dataclass, replace

import pytest

from repro.experiments import (
    FaultConfig,
    LRUCache,
    WatchdogExpired,
    clear_caches,
    drain_incomplete_runs,
    get_default_budget,
    incast_seed_sweep,
    run_incast,
    run_incast_cached,
    set_default_budget,
    with_seed,
)
from repro.experiments.cli import main as cli_main
from repro.experiments.config import IncastConfig
from repro.experiments.figures import Entry, FigureResult
from repro.experiments.store import config_key
from repro.sim.network import RunBudget
from repro.units import us


def tiny_incast(**overrides) -> IncastConfig:
    """A 4-to-1 incast small enough to run in well under a second."""
    defaults = dict(
        variant="hpcc",
        n_senders=4,
        flow_size_bytes=20_000,
        flows_per_batch=2,
        batch_interval_ns=us(5.0),
        timeout_ns=us(2_000.0),
    )
    defaults.update(overrides)
    return IncastConfig(**defaults)


class TestLRUCache:
    def test_maxsize_validation(self):
        with pytest.raises(ValueError):
            LRUCache(maxsize=0)

    def test_eviction_order_is_lru(self):
        cache = LRUCache(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("c", 3)  # evicts "a", the least recently used
        assert "a" not in cache
        assert cache.get("b") == 2 and cache.get("c") == 3
        assert cache.evictions == 1

    def test_get_refreshes_recency(self):
        cache = LRUCache(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # "a" is now the most recent
        cache.put("c", 3)  # so "b" is evicted instead
        assert "a" in cache and "b" not in cache

    def test_get_default_on_miss(self):
        cache = LRUCache(maxsize=2)
        assert cache.get("missing") is None
        assert cache.get("missing", 42) == 42

    def test_put_overwrites_without_growth(self):
        cache = LRUCache(maxsize=2)
        cache.put("a", 1)
        cache.put("a", 2)
        assert len(cache) == 1 and cache.get("a") == 2
        assert cache.evictions == 0

    def test_clear(self):
        cache = LRUCache(maxsize=2)
        cache.put("a", 1)
        cache.clear()
        assert len(cache) == 0 and "a" not in cache

    def test_cached_runner_is_bounded(self):
        """The process-wide incast cache evicts instead of growing forever."""
        from repro.experiments import runner

        clear_caches()
        try:
            base = tiny_incast()
            first = with_seed(base, 1000)
            run_incast_cached(first)
            # The LRU keys on the content hash, shared with the disk store.
            assert first.cache_key() in runner._INCAST_CACHE
            for s in range(1001, 1001 + runner._INCAST_CACHE.maxsize):
                runner._INCAST_CACHE.put(with_seed(base, s).cache_key(), object())
            assert first.cache_key() not in runner._INCAST_CACHE
            assert len(runner._INCAST_CACHE) == runner._INCAST_CACHE.maxsize
        finally:
            clear_caches()


class TestWatchdog:
    def test_default_budget_round_trip(self):
        assert get_default_budget() is None
        budget = RunBudget(max_events=123)
        set_default_budget(budget)
        try:
            assert get_default_budget() is budget
        finally:
            set_default_budget(None)

    def test_event_budget_aborts_run(self):
        set_default_budget(RunBudget(max_events=500))
        try:
            with pytest.raises(WatchdogExpired, match="max_events"):
                run_incast(tiny_incast())
        finally:
            set_default_budget(None)
            drain_incomplete_runs()

    def test_wall_clock_budget_aborts_run(self):
        set_default_budget(RunBudget(wall_clock_s=0.0))
        try:
            with pytest.raises(WatchdogExpired, match="wall_clock"):
                run_incast(tiny_incast())
        finally:
            set_default_budget(None)
            drain_incomplete_runs()

    def test_unbudgeted_run_succeeds(self):
        result = run_incast(tiny_incast())
        assert result.all_completed
        assert drain_incomplete_runs() == []


class TestIncompleteRunRegistry:
    def test_timeout_registers_and_drains(self):
        # A timeout far too short for the flows to finish: the run returns
        # (partial results are still useful) but the registry records it.
        result = run_incast(tiny_incast(timeout_ns=us(10.0)))
        assert not result.all_completed
        assert result.status.stop_reason == "timeout"
        assert len(result.incomplete_flow_ids) > 0
        incomplete = drain_incomplete_runs()
        assert len(incomplete) == 1
        assert "timeout" in incomplete[0]
        # Draining clears the registry.
        assert drain_incomplete_runs() == []


class TestSweepSalvage:
    def test_bad_seed_reported_others_aggregated(self):
        """A seed whose run always raises is quarantined and reported; the
        sweep still returns aggregates over the surviving seeds."""
        outcome = incast_seed_sweep(CursedSeedIncast(), [1, 13, 2])
        assert outcome.n_succeeded == 2
        assert outcome.n_failed == 1
        ((seed, error),) = outcome.failures
        assert seed == 13
        assert "ValueError: cursed seed" in error
        # Aggregates exist and cover the two good seeds.
        assert outcome["finish_spread_ns"].n == 2

    def test_dict_interface_preserved(self):
        base = tiny_incast()
        outcome = incast_seed_sweep(base, [1, 2])
        assert set(outcome) >= {"convergence_ns", "finish_spread_ns"}
        assert outcome.n_failed == 0


@dataclass(frozen=True)
class CursedSeedIncast:
    """A sweepable config whose seed 13 always raises (a poison run)."""

    seed: int = 1

    def cache_key(self) -> str:
        return config_key(self)

    def describe(self) -> str:
        return f"cursed-incast seed={self.seed}"

    def run_self(self):
        if self.seed == 13:
            raise ValueError("cursed seed")
        return run_incast(replace(tiny_incast(), seed=self.seed))


def _fake(reduce, *configs) -> Entry:
    """A test entry declaring ``configs`` and reducing with ``reduce``."""
    return Entry(lambda scale: list(configs), reduce)


class TestFaultyConfigsCacheAndRun:
    def test_faulty_config_hashable_and_cached(self):
        cfg = tiny_incast(faults=FaultConfig(drop_rate=0.01, seed=3))
        assert hash(cfg) == hash(tiny_incast(faults=FaultConfig(drop_rate=0.01, seed=3)))
        clear_caches()
        try:
            a = run_incast_cached(cfg)
            b = run_incast_cached(cfg)
            assert a is b  # second call was a cache hit
        finally:
            clear_caches()


class TestCliHardening:
    def test_incomplete_run_fails_the_cli(self, capsys, monkeypatch):
        """A figure whose run times out makes the CLI exit non-zero with a
        clear message, instead of silently rendering partial results."""
        from repro.experiments import figures

        cfg = tiny_incast(timeout_ns=us(10.0))
        fake = _fake(lambda scale, runs: FigureResult("99", str(runs[cfg].all_completed)), cfg)
        monkeypatch.setitem(figures.ALL_FIGURES, "99", fake)
        clear_caches()
        rc = cli_main(["--fig", "99", "--no-store"])
        captured = capsys.readouterr()
        assert rc == 1
        assert "incomplete" in captured.err

    def test_campaign_flags_need_no_supervise_switch(self, capsys, tmp_path):
        """--journal applies to every campaign; --trace-shards with --jobs 1
        warns, because shards are drained by workers and jobs=1 has none."""
        import json
        import os

        from repro.experiments.cli import build_parser
        from repro.experiments.store import set_store

        assert "--supervise" not in build_parser().format_help()
        journal = tmp_path / "j.jsonl"
        shards = tmp_path / "shards"
        set_store(None)  # earlier CLI tests leave their default store active
        clear_caches()
        try:
            rc = cli_main([
                "--fig", "8", "--no-store", "--journal", str(journal),
                "--trace-shards", str(shards),
            ])
        finally:
            clear_caches()
        captured = capsys.readouterr()
        assert rc == 0
        assert "--trace-shards is drained by worker processes" in captured.err
        assert not shards.exists()
        assert "[supervisor] per-config statuses: 2 ok" in captured.out
        records = [json.loads(line) for line in journal.read_text().splitlines()]
        done = [r for r in records if r["event"] == "done"]
        assert len(done) == 2 and {r["pid"] for r in done} == {os.getpid()}
        assert records[-1]["event"] == "end"

    def test_failing_figure_is_reported(self, capsys, monkeypatch):
        """Rendering replays a deterministic simulator: one attempt, no
        ``--retries`` (the campaign's ``--max-attempts`` owns retry)."""
        from repro.experiments import figures
        from repro.experiments.cli import build_parser

        calls = []

        def doomed(scale, runs):
            calls.append(1)
            raise RuntimeError("no such figure data")

        monkeypatch.setitem(figures.ALL_FIGURES, "99", _fake(doomed))
        rc = cli_main(["--fig", "99"])
        captured = capsys.readouterr()
        assert rc == 1
        assert len(calls) == 1
        assert "figure 99 failed: RuntimeError: no such figure data" in captured.err
        assert "--retries" not in build_parser().format_help()

    @pytest.mark.parametrize(
        "ids, expected_rc, expected_calls",
        [
            (["--fig", "98"], 0, ["98"]),
            (["--fig", "98", "--fig", "nope"], 2, []),
            (["--fig", "98", "--ext", "nope"], 2, []),
            (["--fig", "99"], 1, ["99"]),
        ],
        ids=["ok", "unknown-figure", "unknown-extension", "failing-figure"],
    )
    def test_main_leaves_the_process_as_it_found_it(
        self, ids, expected_rc, expected_calls, capsys, monkeypatch, tmp_path
    ):
        """A bad id runs nothing, and backend / store / budget / planes are
        the caller's again on every way out of ``main``."""
        from repro import probe
        from repro.experiments import figures
        from repro.experiments.config import get_default_backend
        from repro.experiments.store import ResultStore, get_store, set_store

        calls = []

        def fake_fig(scale, runs):
            calls.append("98")
            assert get_default_backend() == "flow" and probe.PROBE is not None
            assert runs[tiny_incast()].config.backend == "flow"
            return figures.FigureResult(figure="98", title="fake")

        def doomed(scale, runs):
            calls.append("99")
            raise RuntimeError("no such figure data")

        monkeypatch.setitem(figures.ALL_FIGURES, "98", _fake(fake_fig, tiny_incast()))
        monkeypatch.setitem(figures.ALL_FIGURES, "99", _fake(doomed))
        outer_store = ResultStore(tmp_path / "outer")
        outer_budget = RunBudget(max_events=10**9)
        set_store(outer_store)
        set_default_budget(outer_budget)
        try:
            rc = cli_main(
                ids
                + ["--backend", "flow", "--store", str(tmp_path / "inner")]
                + ["--budget-seconds", "50", "--sanitize", "--flightrec"]
            )
            assert (rc, calls) == (expected_rc, expected_calls)
            assert get_default_backend() == "packet"
            assert get_store() is outer_store
            assert get_default_budget() is outer_budget
            assert probe.PROBE is None
            if expected_rc == 2:
                assert "unknown" in capsys.readouterr().err
                assert not (tmp_path / "inner").exists()
        finally:
            set_store(None)
            set_default_budget(None)
            clear_caches()

    def test_budget_flags_install_watchdog(self, capsys, monkeypatch):
        """--budget-events propagates to the run and aborts it; the figure
        that needed the run fails naming it, and nothing re-runs it."""
        from repro.experiments import figures

        cfg = tiny_incast()
        fake = _fake(lambda scale, runs: runs[cfg], cfg)
        monkeypatch.setitem(figures.ALL_FIGURES, "99", fake)
        clear_caches()
        try:
            rc = cli_main(
                ["--fig", "99", "--no-store", "--budget-events", "500", "--max-attempts", "1"]
            )
            captured = capsys.readouterr()
            assert rc == 1
            assert "[supervisor] per-config statuses: 1 quarantined" in captured.out
            assert (
                f"figure 99 failed: LookupError: no result for {cfg.describe()}: "
                "WatchdogExpired" in captured.err
            )
        finally:
            set_default_budget(None)
            drain_incomplete_runs()
