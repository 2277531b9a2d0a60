"""Campaign executor tests: the task state machine and supervised workers.

Cases that need a process to kill (self-SIGKILL, hangs, heartbeats) run
with ``jobs=2``: one task still spawns one worker, and ``jobs=1`` would run
the attempt in the test process itself.

The load-bearing guarantees: (1) supervision never changes results — a
campaign that limps home through worker kills, hangs, and retries yields
byte-identical digests to a fault-free run; (2) the journal makes a
campaign resumable after the supervisor itself is SIGKILLed; (3) poison
configs are quarantined with replayable context instead of sinking the
sweep.
"""

import dataclasses
import json
import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import pytest

import repro
from repro import probe
from repro.check.differential import fct_digest
from repro.experiments import runner
from repro.experiments.config import scaled_incast
from repro.experiments.parallel import run_campaign, run_config
from repro.experiments.store import ResultStore, code_fingerprint, config_key, set_store
from repro.experiments.supervisor import (
    STATUS_LOST,
    STATUS_OK,
    STATUS_QUARANTINED,
    STATUS_RETRIED,
    STATUS_SALVAGED,
    CampaignIncomplete,
    CampaignJournal,
    JournalState,
    RetryPolicy,
    SupervisorConfig,
    _attach_worker_planes,
    load_journal,
    run_supervised,
)
from repro.obs import profiler, registry, tracer


@pytest.fixture(autouse=True)
def _clean_caches():
    runner.clear_caches()
    set_store(None)
    yield
    runner.clear_caches()
    set_store(None)


# ---------------------------------------------------------------------------
# Fake configs (module level: pipe messages are pickled)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _FakeCfg:
    """Base for supervisor test doubles; runnable via the run_self hook."""

    tag: str = "x"
    marker_dir: str = ""

    def cache_key(self) -> str:
        return config_key(self)

    def describe(self) -> str:
        return f"{type(self).__name__}-{self.tag}"

    def _first_time(self) -> bool:
        marker = Path(self.marker_dir) / f"{type(self).__name__}-{self.tag}"
        if marker.exists():
            return False
        marker.write_text("seen")
        return True


@dataclass(frozen=True)
class GoodCfg(_FakeCfg):
    def run_self(self):
        return {"value": self.tag}


@dataclass(frozen=True)
class PoisonCfg(_FakeCfg):
    def run_self(self):
        raise ValueError(f"bad parameters in {self.tag}")


@dataclass(frozen=True)
class FlakyCfg(_FakeCfg):
    """Transient error on the first attempt, success afterwards."""

    def run_self(self):
        if self._first_time():
            raise OSError("transient blip")
        return {"value": self.tag}


@dataclass(frozen=True)
class AlwaysTransientCfg(_FakeCfg):
    def run_self(self):
        raise OSError("the network is always down")


@dataclass(frozen=True)
class SelfKillOnceCfg(_FakeCfg):
    """SIGKILLs its worker on the first attempt, succeeds afterwards."""

    def run_self(self):
        if self._first_time():
            os.kill(os.getpid(), signal.SIGKILL)
        return {"value": self.tag}


@dataclass(frozen=True)
class AlwaysKillCfg(_FakeCfg):
    def run_self(self):
        os.kill(os.getpid(), signal.SIGKILL)


@dataclass(frozen=True)
class SlowCfg(_FakeCfg):
    seconds: float = 30.0

    def run_self(self):
        time.sleep(self.seconds)
        return {"value": self.tag}


# ---------------------------------------------------------------------------
# RetryPolicy
# ---------------------------------------------------------------------------


class TestRetryPolicy:
    def test_classification(self):
        policy = RetryPolicy()
        assert policy.classify("OSError") == "transient"
        assert policy.classify("WatchdogExpired") == "transient"
        assert policy.classify("ChaosTransientError") == "transient"
        assert policy.classify("ValueError") == "deterministic"
        assert policy.classify("InvariantViolation") == "deterministic"

    def test_backoff_grows_and_jitter_is_deterministic(self):
        policy = RetryPolicy(backoff_s=0.1, backoff_factor=2.0, jitter_frac=0.25)
        d1 = policy.delay_s("k", 1)
        d2 = policy.delay_s("k", 2)
        assert 0.1 <= d1 <= 0.1 * 1.25
        assert 0.2 <= d2 <= 0.2 * 1.25
        assert policy.delay_s("k", 1) == d1  # same key+attempt = same delay
        assert policy.delay_s("other", 1) != d1  # keys fan out

    def test_zero_backoff_means_no_delay(self):
        assert RetryPolicy().delay_s("k", 5) == 0.0

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_s=-1.0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter_frac=2.0)


# ---------------------------------------------------------------------------
# Journal
# ---------------------------------------------------------------------------


class TestJournal:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with CampaignJournal(path) as journal:
            journal.append("campaign", version=1, fingerprint="abc")
            journal.append("attempt", key="k1", attempt=1)
            journal.append("done", key="k1", status="ok")
            journal.append("quarantine", key="k2", desc="d", error="e",
                           classification="deterministic", attempts=1,
                           config_repr="Cfg()")
            journal.append("end", statuses={"k1": "ok"})
        state = load_journal(path)
        assert state.statuses == {"k1": "ok", "k2": "quarantined"}
        assert state.attempts == {"k1": 1}
        assert state.quarantines["k2"]["error"] == "e"
        assert state.completed and not state.interrupted
        assert state.fingerprint == "abc"

    def test_torn_final_line_is_tolerated(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with CampaignJournal(path) as journal:
            journal.append("campaign", version=1)
            journal.append("done", key="k1", status="ok")
        with open(path, "a") as fh:
            fh.write('{"event": "done", "key": "k2", "sta')  # torn write
        state = load_journal(path)
        assert state.statuses == {"k1": "ok"}
        assert state.torn_lines == 1

    def test_corrupt_middle_line_raises(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text('not json\n{"event": "done", "key": "k"}\n')
        with pytest.raises(ValueError, match="corrupt journal line 1"):
            load_journal(path)

    def test_missing_journal_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_journal(tmp_path / "nope.jsonl")

    def test_lost_is_not_terminal_on_resume(self):
        state = JournalState(path=Path("x"), statuses={"a": "lost", "b": "ok"})
        assert state.terminal("a") is None  # lost configs re-run
        assert state.terminal("b") == "ok"


# ---------------------------------------------------------------------------
# Supervised campaigns: statuses
# ---------------------------------------------------------------------------


class TestSupervisedStatuses:
    def test_happy_path_all_ok(self, tmp_path):
        cfgs = [GoodCfg(tag=t, marker_dir=str(tmp_path)) for t in "abc"]
        out = run_supervised(cfgs, jobs=2, sup=SupervisorConfig())
        assert set(out.statuses.values()) == {STATUS_OK}
        assert [out.results[c.cache_key()] for c in cfgs] == [
            {"value": "a"}, {"value": "b"}, {"value": "c"}
        ]
        assert not out.failures and not out.quarantines

    def test_transient_error_is_retried(self, tmp_path):
        cfg = FlakyCfg(marker_dir=str(tmp_path))
        out = run_supervised([cfg], jobs=1, sup=SupervisorConfig())
        assert out.statuses[cfg.cache_key()] == STATUS_RETRIED
        assert out.results[cfg.cache_key()] == {"value": "x"}
        assert out.stats.retried == 1

    def test_worker_sigkill_mid_run_is_salvaged(self, tmp_path):
        cfg = SelfKillOnceCfg(marker_dir=str(tmp_path))
        out = run_supervised([cfg], jobs=2, sup=SupervisorConfig())
        assert out.statuses[cfg.cache_key()] == STATUS_SALVAGED
        assert out.results[cfg.cache_key()] == {"value": "x"}
        assert out.stats.workers_lost == 1

    def test_poison_is_quarantined_with_replayable_context(self, tmp_path):
        poison = PoisonCfg(tag="p", marker_dir=str(tmp_path))
        good = GoodCfg(marker_dir=str(tmp_path))
        out = run_supervised(
            [poison, good], jobs=1, sup=SupervisorConfig(partial_ok=True)
        )
        assert out.statuses[poison.cache_key()] == STATUS_QUARANTINED
        assert out.statuses[good.cache_key()] == STATUS_OK  # sweep survived
        (report,) = out.quarantines
        assert report.classification == "deterministic"
        assert report.attempts == 1  # no pointless retries of pure functions
        assert "bad parameters" in report.error
        assert "PoisonCfg" in report.config_repr  # replayable
        assert out.stats.quarantined == 1

    def test_exhausted_transient_attempts_quarantine(self, tmp_path):
        cfg = AlwaysTransientCfg(marker_dir=str(tmp_path))
        out = run_supervised(
            [cfg], jobs=1,
            sup=SupervisorConfig(
                policy=RetryPolicy(max_attempts=2), partial_ok=True
            ),
        )
        assert out.statuses[cfg.cache_key()] == STATUS_QUARANTINED
        (report,) = out.quarantines
        assert report.classification == "transient"
        assert report.attempts == 2

    def test_exhausted_worker_losses_are_lost(self, tmp_path):
        cfg = AlwaysKillCfg(marker_dir=str(tmp_path))
        out = run_supervised(
            [cfg], jobs=2,
            sup=SupervisorConfig(
                policy=RetryPolicy(max_attempts=2), partial_ok=True
            ),
        )
        assert out.statuses[cfg.cache_key()] == STATUS_LOST
        assert out.stats.lost == 1
        assert out.stats.workers_lost == 2

    def test_chaos_with_jobs1_is_refused(self, tmp_path):
        """An injected kill or hang must never strike the calling process."""

        class _NeverInjected:
            def inject(self, key, attempt):  # pragma: no cover - must not run
                os.kill(os.getpid(), signal.SIGKILL)

        with pytest.raises(ValueError, match="jobs >= 2"):
            run_supervised(
                [GoodCfg(marker_dir=str(tmp_path))],
                jobs=1,
                sup=SupervisorConfig(chaos=_NeverInjected()),
            )

    def test_incomplete_without_partial_ok_raises_with_outcome(self, tmp_path):
        poison = PoisonCfg(marker_dir=str(tmp_path))
        good = GoodCfg(marker_dir=str(tmp_path))
        with pytest.raises(CampaignIncomplete) as exc_info:
            run_supervised([poison, good], jobs=1, sup=SupervisorConfig())
        outcome = exc_info.value.outcome
        assert outcome.results[good.cache_key()] == {"value": "x"}
        assert outcome.stats.quarantined == 1

    def test_hang_killed_via_budget_deadline_and_salvaged(self, tmp_path):
        from repro.sim.network import RunBudget

        cfg = SlowCfg(marker_dir=str(tmp_path), seconds=600.0)
        # The sleeping worker heartbeats (the process is alive), so only the
        # budget-derived runtime deadline can catch it.
        sup = SupervisorConfig(
            heartbeat_interval_s=0.05,
            stall_grace_s=0.1,
            policy=RetryPolicy(max_attempts=2),
            partial_ok=True,
        )
        start = time.monotonic()
        out = run_supervised(
            [cfg], jobs=2, budget=RunBudget(wall_clock_s=0.2), sup=sup
        )
        assert time.monotonic() - start < 30.0  # not the 600 s sleep
        assert out.stats.workers_killed >= 1
        # Both attempts sleep forever, so the config is written off as lost
        # after the attempt budget -- but the sweep finishes.
        assert out.statuses[cfg.cache_key()] == STATUS_LOST

    def test_real_simulation_digest_unchanged_by_worker_kill(self, tmp_path):
        cfg = scaled_incast("swift", 4)
        baseline = fct_digest(run_config(cfg))
        runner.clear_caches()
        killer = SelfKillOnceCfg(tag="k", marker_dir=str(tmp_path))
        out = run_supervised([killer, cfg], jobs=2, sup=SupervisorConfig())
        assert out.statuses[cfg.cache_key()] in (STATUS_OK, STATUS_SALVAGED)
        assert fct_digest(out.results[cfg.cache_key()]) == baseline


# ---------------------------------------------------------------------------
# Journal + resume
# ---------------------------------------------------------------------------


class TestResume:
    def test_quarantine_carries_over_and_cached_results_dedupe(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        set_store(store)
        poison = PoisonCfg(marker_dir=str(tmp_path))
        good = GoodCfg(marker_dir=str(tmp_path))
        journal_path = tmp_path / "j.jsonl"
        sup = SupervisorConfig(journal_path=journal_path, partial_ok=True)
        first = run_supervised([poison, good], jobs=1, sup=sup)
        assert first.stats.executed == 1

        runner.clear_caches()  # LRU gone; the store survives the "crash"
        state = load_journal(journal_path)
        resumed = run_supervised(
            [poison, good], jobs=1,
            sup=SupervisorConfig(resume=state, partial_ok=True),
        )
        # Nothing re-runs: good served from the store, poison stays poisoned.
        assert resumed.stats.executed == 0
        assert resumed.stats.cached == 1
        assert resumed.statuses[poison.cache_key()] == STATUS_QUARANTINED
        assert resumed.quarantines[0].error == first.quarantines[0].error

    def test_fingerprint_change_invalidates_carried_statuses(self, tmp_path):
        poison = PoisonCfg(marker_dir=str(tmp_path))
        state = JournalState(
            path=tmp_path / "j.jsonl",
            fingerprint="000000000000",  # not the current code fingerprint
            statuses={poison.cache_key(): STATUS_QUARANTINED},
        )
        out = run_supervised(
            [poison], jobs=1,
            sup=SupervisorConfig(resume=state, partial_ok=True),
        )
        # The quarantine was NOT carried: the config re-ran (and re-failed).
        assert out.quarantines[0].attempts == 1
        assert out.stats.executed == 0 and out.stats.cached == 0

    def test_parent_sigkill_then_resume_byte_identical(self, tmp_path):
        """The acceptance scenario: SIGKILL the whole supervising process
        mid-campaign, resume from its journal, and the completed campaign's
        FCT digests are byte-identical to a fault-free run."""
        configs = [
            dataclasses.replace(scaled_incast("swift", 4), seed=7),
            dataclasses.replace(scaled_incast("swift", 16), seed=8),
            dataclasses.replace(scaled_incast("hpcc", 16), seed=9),
        ]
        baseline = {}
        for cfg in configs:
            baseline[cfg.cache_key()] = fct_digest(run_config(cfg))
        runner.clear_caches()

        journal_path = tmp_path / "journal.jsonl"
        script = (
            "import dataclasses, sys\n"
            "from pathlib import Path\n"
            "from repro.experiments.config import scaled_incast\n"
            "from repro.experiments.store import ResultStore, set_store\n"
            "from repro.experiments.supervisor import (\n"
            "    SupervisorConfig, run_supervised)\n"
            "base = Path(sys.argv[1])\n"
            "set_store(ResultStore(base / 'store'))\n"
            "configs = [\n"
            "    dataclasses.replace(scaled_incast('swift', 4), seed=7),\n"
            "    dataclasses.replace(scaled_incast('swift', 16), seed=8),\n"
            "    dataclasses.replace(scaled_incast('hpcc', 16), seed=9),\n"
            "]\n"
            "run_supervised(configs, jobs=1,\n"
            "    sup=SupervisorConfig(journal_path=base / 'journal.jsonl'))\n"
        )
        src_dir = Path(repro.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(src_dir)}
        proc = subprocess.Popen(
            [sys.executable, "-c", script, str(tmp_path)],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        try:
            # Wait for the first config to finish (journalled + in store),
            # then SIGKILL the supervisor mid-campaign.
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline:
                if journal_path.exists() and '"done"' in journal_path.read_text():
                    break
                if proc.poll() is not None:
                    pytest.fail("supervisor subprocess exited prematurely")
                time.sleep(0.002)
            else:
                pytest.fail("first config never finished")
            os.kill(proc.pid, signal.SIGKILL)
        finally:
            proc.wait(timeout=30)

        state = load_journal(journal_path)
        assert state.fingerprint == code_fingerprint(), (
            "the source tree changed while this test ran (the killed "
            "supervisor hashed different files than this process), so the "
            "resume below cannot hit the store; re-run on an unchanged tree"
        )
        finished = [k for k, s in state.statuses.items() if s == "ok"]
        assert finished, "journal lost the completed config"
        assert len(finished) < len(configs), "campaign finished before the kill"

        set_store(ResultStore(tmp_path / "store"))
        resumed = run_supervised(
            configs, jobs=1,
            sup=SupervisorConfig(resume=state, journal_path=journal_path),
        )
        assert resumed.stats.cached >= len(finished)  # dedup against the store
        assert resumed.stats.executed <= len(configs) - len(finished)
        for cfg in configs:
            assert fct_digest(resumed.results[cfg.cache_key()]) == (
                baseline[cfg.cache_key()]
            ), "resume changed the science"


# ---------------------------------------------------------------------------
# Interrupts
# ---------------------------------------------------------------------------


def _running(pid: int) -> bool:
    """``pid`` is a live process (a zombie nobody reaped yet is not)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rpartition(")")[2].split()[0] != "Z"


class TestOrphanedWorkers:
    def test_workers_of_a_sigkilled_supervisor_exit(self, tmp_path):
        """A forked worker holds copies of the supervisor's pipe ends (its
        own and its older siblings'); until it closes them it never sees the
        supervisor go, and sleeps -- or simulates -- on for nobody."""
        journal_path = tmp_path / "journal.jsonl"
        script = (
            "import sys\n"
            "from pathlib import Path\n"
            "from repro.experiments.supervisor import SupervisorConfig, run_supervised\n"
            "from tests.experiments.test_supervisor import SlowCfg\n"
            "base = Path(sys.argv[1])\n"
            "configs = [SlowCfg(tag=t, marker_dir=str(base), seconds=600.0) for t in 'ab']\n"
            "run_supervised(configs, jobs=2, sup=SupervisorConfig(\n"
            "    journal_path=base / 'journal.jsonl', heartbeat_interval_s=0.05))\n"
        )
        src_dir = Path(repro.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": f"{src_dir}{os.pathsep}{src_dir.parent}"}
        proc = subprocess.Popen(
            [sys.executable, "-c", script, str(tmp_path)],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        pids = set()
        try:
            deadline = time.monotonic() + 60.0
            while len(pids) < 2:
                assert time.monotonic() < deadline, "two workers never started"
                assert proc.poll() is None, "supervisor subprocess exited prematurely"
                time.sleep(0.01)
                if journal_path.exists():
                    records = [
                        json.loads(line)
                        for line in journal_path.read_text().splitlines()
                        if line.endswith("}")
                    ]
                    pids = {r["pid"] for r in records if r["event"] == "hb"}
            assert proc.pid not in pids and all(_running(pid) for pid in pids)
            os.kill(proc.pid, signal.SIGKILL)
            proc.wait(timeout=30)
            # A few heartbeat intervals; the bound is loose for a busy host
            # and still a hundredth of the configs' 600 s.
            deadline = time.monotonic() + 5.0
            while any(_running(pid) for pid in pids) and time.monotonic() < deadline:
                time.sleep(0.01)
            assert not [pid for pid in pids if _running(pid)]
        finally:
            for pid in {proc.pid, *pids}:
                try:
                    os.kill(pid, signal.SIGKILL)
                except OSError:
                    pass
            proc.wait(timeout=30)


def _report_attached_planes(conn, sanitize, flightrec, trace_capacity):
    _attach_worker_planes(sanitize, flightrec, trace_capacity)
    conn.send(sorted(name for name in probe.PLANES if probe.Slot(name).enabled()))
    conn.close()


class TestForkInheritance:
    @pytest.mark.parametrize(
        "switches, shipped_home",
        [
            ((False, False, None), []),
            ((True, True, 4096), ["recorder", "sanitizer", "tracer"]),
        ],
    )
    def test_worker_attaches_only_what_it_ships_home(self, switches, shipped_home):
        """A forked worker inherits the parent's planes.  The registry and
        the profiler send nothing home, so a worker that keeps them counts
        into a copy nobody reads -- on the slower profiled run loop."""
        from multiprocessing import Pipe, Process

        registry.enable()
        tracer.enable()
        profiler.enable()
        try:
            ours, theirs = Pipe()
            child = Process(target=_report_attached_planes, args=(theirs, *switches))
            child.start()
            theirs.close()
            assert ours.poll(30.0), "the child never reported"
            assert ours.recv() == shipped_home
            child.join(30.0)
            assert not child.is_alive()
        finally:
            registry.disable()
            tracer.disable()
            profiler.disable()
        assert probe.PROBE is None


class _InterruptAfterFirst:
    """A progress sink that raises KeyboardInterrupt on the first done line."""

    def __init__(self):
        self.lines = []

    def __call__(self, message):
        self.lines.append(message)
        if "] " in message and "done" in message:
            raise KeyboardInterrupt


class TestInterrupts:
    def test_in_process_interrupt_journals_and_reraises(self, tmp_path):
        """Ctrl-C during a ``jobs=1`` attempt: the running config is
        journaled in flight, the queued ones pending, and it re-raises."""

        @dataclass(frozen=True)
        class InterruptCfg(_FakeCfg):
            def run_self(self):
                raise KeyboardInterrupt

        fast = GoodCfg(marker_dir=str(tmp_path))
        struck = InterruptCfg(tag="i", marker_dir=str(tmp_path))
        queued = GoodCfg(tag="q", marker_dir=str(tmp_path))
        journal_path = tmp_path / "j.jsonl"
        with pytest.raises(KeyboardInterrupt):
            run_supervised(
                [fast, struck, queued],
                jobs=1,
                sup=SupervisorConfig(journal_path=journal_path),
            )
        (interrupted,) = [
            r for r in _journal_records(journal_path) if r["event"] == "interrupted"
        ]
        assert interrupted["completed"] == 1
        assert interrupted["in_flight"] == [struck.cache_key()]
        assert interrupted["pending"] == [queued.cache_key()]
        state = load_journal(journal_path)
        assert state.interrupted
        assert state.statuses[fast.cache_key()] == STATUS_OK
        assert state.statuses[struck.cache_key()] == STATUS_LOST
        assert state.statuses[queued.cache_key()] == STATUS_LOST

    def test_supervised_interrupt_journals_and_reraises(self, tmp_path):
        """Ctrl-C mid-campaign must kill the workers (not wait 30 s for the
        slow fakes), journal what was in flight and queued, and re-raise."""
        fast = GoodCfg(marker_dir=str(tmp_path))
        slow = [
            SlowCfg(tag=f"s{i}", marker_dir=str(tmp_path), seconds=30.0)
            for i in range(3)
        ]
        journal_path = tmp_path / "j.jsonl"
        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            run_supervised(
                [fast] + slow,
                jobs=2,
                progress=_InterruptAfterFirst(),
                sup=SupervisorConfig(journal_path=journal_path),
            )
        assert time.monotonic() - start < 20.0, "interrupt waited on killed workers"
        (interrupted,) = [
            r for r in _journal_records(journal_path) if r["event"] == "interrupted"
        ]
        assert interrupted["completed"] == 1
        assert set(interrupted["in_flight"] + interrupted["pending"]) == {
            c.cache_key() for c in slow
        }
        state = load_journal(journal_path)
        assert state.interrupted
        assert all(state.statuses[c.cache_key()] == STATUS_LOST for c in slow)


# ---------------------------------------------------------------------------
# Store edge cases under run_campaign
# ---------------------------------------------------------------------------


class TestSalvageEdgeCases:
    def test_empty_keys_is_a_clean_noop(self):
        outcome = run_campaign([])
        assert outcome.results == {} and outcome.failures == []
        assert outcome.stats.unique == 0

    def test_vanished_store_blob_resimulates(self, tmp_path):
        cfg = scaled_incast("swift", 4)
        store = ResultStore(tmp_path)
        set_store(store)
        first = runner.run_incast_cached(cfg)
        store.path_for(cfg).unlink()  # the blob vanishes out from under us
        runner.clear_caches()
        outcome = run_campaign([cfg])
        assert not outcome.failures
        assert outcome.stats.executed == 1
        assert fct_digest(outcome.results[cfg.cache_key()]) == fct_digest(first)

    def test_fingerprint_change_is_a_miss_not_a_failure(self, tmp_path):
        cfg = scaled_incast("swift", 4)
        old_store = ResultStore(tmp_path, fingerprint="aaaaaaaaaaaa")
        old_store.put(cfg, "stale physics from old code")
        set_store(ResultStore(tmp_path))  # current fingerprint namespace
        outcome = run_campaign([cfg])
        assert not outcome.failures
        result = outcome.results[cfg.cache_key()]
        assert result != "stale physics from old code"
        assert result.flows  # a real, fresh simulation


# ---------------------------------------------------------------------------
# Journal observability: timestamps, heartbeats, shards, analytics enrichment
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _SummaryResult:
    """Result double exposing the ``summary()`` the real result types have."""

    value: str

    def summary(self):
        return {
            "jain": 0.97,
            "convergence_ns": 1_000.0,
            "slowdown": {"p50_slowdown": 1.2, "p99_slowdown": 3.4},
        }


@dataclass(frozen=True)
class AnalyticsCfg(_FakeCfg):
    def run_self(self):
        return _SummaryResult(value=self.tag)


def _journal_records(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


class TestJournalObservability:
    def test_every_record_carries_wall_clock_ts(self, tmp_path):
        journal = tmp_path / "j.jsonl"
        cfgs = [GoodCfg(tag=t, marker_dir=str(tmp_path)) for t in "ab"]
        run_supervised(cfgs, jobs=2, sup=SupervisorConfig(journal_path=journal))
        records = _journal_records(journal)
        assert {r["event"] for r in records} >= {"campaign", "attempt", "done", "end"}
        for rec in records:
            assert isinstance(rec["ts"], float), rec

    def test_heartbeats_are_journaled_unfsynced(self, tmp_path):
        journal = tmp_path / "j.jsonl"
        cfg = SlowCfg(tag="s", seconds=0.4, marker_dir=str(tmp_path))
        out = run_supervised(
            [cfg],
            jobs=2,
            sup=SupervisorConfig(
                journal_path=journal, heartbeat_interval_s=0.05
            ),
        )
        assert out.statuses[cfg.cache_key()] == STATUS_OK
        beats = [r for r in _journal_records(journal) if r["event"] == "hb"]
        assert beats, "no hb records reached the journal"
        for hb in beats:
            assert hb["key"] == cfg.cache_key()
            assert hb["desc"] == "SlowCfg-s"
            assert isinstance(hb["pid"], int)

    def test_trace_shards_written_and_journaled(self, tmp_path):
        journal = tmp_path / "j.jsonl"
        shard_dir = tmp_path / "shards"
        cfgs = [GoodCfg(tag=t, marker_dir=str(tmp_path)) for t in "ab"]
        run_supervised(
            cfgs,
            jobs=2,
            sup=SupervisorConfig(
                journal_path=journal, trace_shard_dir=shard_dir
            ),
        )
        shard_records = [
            r for r in _journal_records(journal) if r["event"] == "trace_shard"
        ]
        assert len(shard_records) == 2
        for rec in shard_records:
            path = Path(rec["path"])
            assert path.parent == shard_dir
            doc = json.loads(path.read_text())
            assert "traceEvents" in doc and "otherData" in doc

    def test_no_shards_without_trace_dir(self, tmp_path):
        journal = tmp_path / "j.jsonl"
        run_supervised(
            [GoodCfg(marker_dir=str(tmp_path))],
            jobs=1,
            sup=SupervisorConfig(journal_path=journal),
        )
        events = {r["event"] for r in _journal_records(journal)}
        assert "trace_shard" not in events

    def test_done_records_carry_live_analytics(self, tmp_path):
        journal = tmp_path / "j.jsonl"
        cfg = AnalyticsCfg(marker_dir=str(tmp_path))
        run_supervised([cfg], jobs=1, sup=SupervisorConfig(journal_path=journal))
        (done,) = [r for r in _journal_records(journal) if r["event"] == "done"]
        assert done["analytics"] == {
            "jain": 0.97,
            "convergence_ns": 1_000.0,
            "p50_slowdown": 1.2,
            "p99_slowdown": 3.4,
        }


class TestClockOddities:
    def test_stall_detection_survives_wall_clock_step_backwards(
        self, tmp_path, monkeypatch
    ):
        """Journal ``ts`` is the only consumer of ``time.time()``; liveness
        math is all ``time.monotonic()``.  A wall clock stepping *backwards*
        mid-campaign (NTP correction) must not trigger spurious stall kills
        or retries."""
        state = {"now": 1_000_000.0}

        def backwards_clock():
            state["now"] -= 5.0
            return state["now"]

        monkeypatch.setattr(time, "time", backwards_clock)
        journal = tmp_path / "j.jsonl"
        cfg = SlowCfg(tag="s", seconds=0.3, marker_dir=str(tmp_path))
        out = run_supervised(
            [cfg],
            jobs=2,
            sup=SupervisorConfig(
                journal_path=journal,
                heartbeat_interval_s=0.05,
                stall_timeout_s=5.0,
            ),
        )
        assert out.statuses[cfg.cache_key()] == STATUS_OK
        records = _journal_records(journal)
        events = [r["event"] for r in records]
        assert "reschedule" not in events and "quarantine" not in events
        # Proof the broken clock was live: journal timestamps regress.
        ts = [r["ts"] for r in records]
        assert any(b < a for a, b in zip(ts, ts[1:]))
