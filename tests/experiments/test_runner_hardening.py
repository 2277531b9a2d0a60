"""Tests for the hardened experiment runner: LRU caches, watchdog budgets,
retry with backoff, partial-result salvage, and the incomplete-run registry."""

import pytest

from repro.experiments import (
    FaultConfig,
    LRUCache,
    RunFailure,
    WatchdogExpired,
    clear_caches,
    drain_incomplete_runs,
    get_default_budget,
    incast_seed_sweep,
    run_incast,
    run_incast_cached,
    run_with_retry,
    salvage_runs,
    set_default_budget,
    with_seed,
)
from repro.experiments.cli import main as cli_main
from repro.experiments.config import IncastConfig
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


class TestRunWithRetry:
    def test_negative_retries_rejected(self):
        with pytest.raises(ValueError):
            run_with_retry(lambda: None, retries=-1)

    def test_success_after_failures_with_backoff(self):
        calls, naps = [], []

        def flaky():
            calls.append(1)
            if len(calls) < 3:
                raise RuntimeError("transient")
            return "ok"

        out = run_with_retry(
            flaky, retries=5, backoff_s=0.1, sleep=naps.append
        )
        assert out == "ok"
        assert len(calls) == 3
        assert naps == [0.1, 0.2]  # exponential backoff between attempts

    def test_exhausted_retries_propagate(self):
        def always_fails():
            raise ValueError("permanent")

        with pytest.raises(ValueError, match="permanent"):
            run_with_retry(always_fails, retries=2, sleep=lambda s: None)

    def test_kwargs_forwarded(self):
        assert run_with_retry(lambda x, y=0: x + y, 1, y=2, retries=0) == 3


class TestSalvageRuns:
    def test_mixed_success_and_failure(self):
        def run(key):
            if key == "bad":
                raise RuntimeError("boom")
            return key.upper()

        successes, failures = salvage_runs(
            ["a", "bad", "b"], run, retries=1, sleep=lambda s: None
        )
        assert successes == [("a", "A"), ("b", "B")]
        assert len(failures) == 1
        f = failures[0]
        assert isinstance(f, RunFailure)
        assert f.key == "bad"
        assert f.attempts == 2  # first try + one retry
        assert "RuntimeError: boom" in f.error

    def test_all_succeed(self):
        successes, failures = salvage_runs([1, 2], lambda k: k * 10)
        assert successes == [(1, 10), (2, 20)]
        assert failures == []


class TestSweepSalvage:
    def test_bad_seed_reported_others_aggregated(self):
        """One always-raising seed is retried, reported, and excluded;
        the sweep still returns aggregates over the surviving seeds."""
        base = tiny_incast()
        attempts = {"count": 0}

        def run(cfg):
            if cfg.seed == 13:
                attempts["count"] += 1
                raise RuntimeError("cursed seed")
            return run_incast_cached(cfg)

        outcome = incast_seed_sweep(base, [1, 13, 2], retries=2, run=run)
        assert outcome.n_succeeded == 2
        assert outcome.n_failed == 1
        assert attempts["count"] == 3  # first try + 2 retries
        failure = outcome.failures[0]
        assert failure.key == 13
        assert "cursed seed" in failure.error
        # Aggregates exist and cover the two good seeds.
        assert outcome["finish_spread_ns"].n == 2

    def test_dict_interface_preserved(self):
        base = tiny_incast()
        outcome = incast_seed_sweep(base, [1, 2])
        assert set(outcome) >= {"convergence_ns", "finish_spread_ns"}
        assert outcome.n_failed == 0


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

        def fake_fig(scale="scaled"):
            run_incast(tiny_incast(timeout_ns=us(10.0)))
            return figures.FigureResult(
                figure="99", title="fake", description="", lines=["x"]
            )

        monkeypatch.setitem(figures.ALL_FIGURES, "99", fake_fig)
        rc = cli_main(["--fig", "99"])
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

        def doomed(scale="scaled"):
            calls.append(1)
            raise RuntimeError("no such figure data")

        monkeypatch.setitem(figures.ALL_FIGURES, "99", doomed)
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

        def fake_fig(scale="scaled"):
            calls.append("98")
            assert get_default_backend() == "flow" and probe.PROBE is not None
            run_incast(tiny_incast())
            return figures.FigureResult(figure="98", title="fake")

        def doomed(scale="scaled"):
            calls.append("99")
            raise RuntimeError("no such figure data")

        monkeypatch.setitem(figures.ALL_FIGURES, "98", fake_fig)
        monkeypatch.setitem(figures.ALL_FIGURES, "99", doomed)
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
        """--budget-events propagates to the run and aborts it."""
        from repro.experiments import figures

        def fake_fig(scale="scaled"):
            run_incast(tiny_incast())
            return figures.FigureResult(
                figure="99", title="fake", description="", lines=["x"]
            )

        monkeypatch.setitem(figures.ALL_FIGURES, "99", fake_fig)
        try:
            rc = cli_main(["--fig", "99", "--budget-events", "500"])
            captured = capsys.readouterr()
            assert rc == 1
            assert "WatchdogExpired" in captured.err
        finally:
            set_default_budget(None)
            drain_incomplete_runs()
