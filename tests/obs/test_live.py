"""Tests for the ``obs top`` live campaign dashboard (repro.obs.live)."""

import json
import subprocess
import sys

from repro.obs import live


def _line(event, ts, **fields):
    return json.dumps({"event": event, "ts": ts, **fields}) + "\n"


def _write(path, *lines):
    path.write_text("".join(lines))


class TestJournalTailer:
    def test_incremental_polls_return_only_new_records(self, tmp_path):
        journal = tmp_path / "j.jsonl"
        _write(journal, _line("campaign", 1.0, jobs=2))
        tailer = live.JournalTailer(journal)
        assert [r["event"] for r in tailer.poll()] == ["campaign"]
        assert tailer.poll() == []
        with open(journal, "a") as fh:
            fh.write(_line("end", 2.0))
        assert [r["event"] for r in tailer.poll()] == ["end"]

    def test_torn_trailing_line_is_buffered_until_complete(self, tmp_path):
        journal = tmp_path / "j.jsonl"
        full = _line("attempt", 1.0, key="k", pid=7)
        journal.write_text(full[:10])  # writer mid-append
        tailer = live.JournalTailer(journal)
        assert tailer.poll() == []
        with open(journal, "a") as fh:
            fh.write(full[10:])
        records = tailer.poll()
        assert len(records) == 1 and records[0]["pid"] == 7

    def test_shrunken_file_restarts_from_top(self, tmp_path):
        journal = tmp_path / "j.jsonl"
        _write(journal, _line("campaign", 1.0), _line("attempt", 2.0, key="a", pid=1))
        tailer = live.JournalTailer(journal)
        assert len(tailer.poll()) == 2
        _write(journal, _line("campaign", 9.0))  # journal replaced
        records = tailer.poll()
        assert len(records) == 1 and records[0]["ts"] == 9.0

    def test_corrupt_middle_lines_skipped(self, tmp_path):
        journal = tmp_path / "j.jsonl"
        journal.write_text(_line("campaign", 1.0) + "{garbage\n" + _line("end", 2.0))
        assert [r["event"] for r in live.JournalTailer(journal).poll()] == [
            "campaign",
            "end",
        ]

    def test_missing_file_returns_nothing(self, tmp_path):
        assert live.JournalTailer(tmp_path / "absent.jsonl").poll() == []


class TestLiveState:
    def _folded(self, *records):
        state = live.LiveState()
        state.apply_all([json.loads(line) for line in records])
        return state

    def test_counts_and_worker_lifecycle(self):
        state = self._folded(
            _line("campaign", 1.0, jobs=2, requested=3, unique=3),
            _line("attempt", 1.1, key="a", attempt=1, pid=10, desc="run-a"),
            _line("hb", 1.5, key="a", pid=10, desc="run-a"),
            _line("done", 2.0, key="a", status="ok", pid=10, wall_s=0.9),
            _line("done", 2.1, key="b", status="ok", cached=True),
            _line("attempt", 2.2, key="c", attempt=1, pid=11, desc="run-c"),
            _line("fail", 2.5, key="c", error="OSError: x", classification="transient", attempt=1),
            _line("reschedule", 2.5, key="c", reason="worker died", attempt=1),
            _line("quarantine", 3.0, key="c", desc="run-c", attempts=3),
        )
        # Both the simulated and the store-served run finished "ok".
        assert state.counts["ok"] == 2
        assert state.cached == 1 and state.executed == 1
        assert state.failures == 1 and state.reschedules == 1
        assert state.counts["quarantined"] == 1
        assert state.attempts == 2 and state.heartbeats == 1
        assert state.store_hit_pct() == 50.0
        assert state.workers[10].state == "idle"
        assert state.workers[11].state == "running"
        assert state.terminal_total == 3

    def test_end_marks_workers_done(self):
        state = self._folded(
            _line("attempt", 1.0, key="a", attempt=1, pid=5, desc="d"),
            _line("end", 2.0, statuses={}),
        )
        assert state.ended
        assert state.workers[5].state == "done"

    def test_streaming_estimates_fed_from_done_analytics(self):
        state = self._folded(
            _line("done", 1.0, key="a", status="ok", pid=1,
                  analytics={"jain": 0.99, "p99_slowdown": 12.0}),
            _line("done", 2.0, key="b", status="ok", pid=1,
                  analytics={"jain": 0.95, "p99_slowdown": 14.0}),
        )
        assert state.analytics_runs == 2
        assert state.jain_min == 0.95
        assert state.slowdown_p50.value() is not None

    def test_incast_runs_leave_the_slowdown_estimates_blank(self):
        # An incast summary carries no slowdown; the row says so with '-'.
        state = self._folded(
            _line("done", 1.0, key="a", status="ok", pid=1,
                  analytics={"jain": 1.0, "convergence_ns": 195_000.0,
                             "p50_slowdown": None, "p99_slowdown": None}),
        )
        frame = live.render_top(state, now=2.0)
        assert "jain p50=1.000 min=1.000   p99-slowdown p50=- p95=-" in frame


class TestRenderTop:
    def test_frame_contains_liveness_and_counts(self):
        state = live.LiveState()
        state.journal_label = "camp.jsonl"
        state.apply_all(
            [
                json.loads(_line("campaign", 100.0, jobs=2, unique=2)),
                json.loads(_line("attempt", 100.1, key="a", attempt=1, pid=9, desc="run-a")),
                json.loads(_line("hb", 100.2, key="a", pid=9, desc="run-a")),
            ]
        )
        frame = live.render_top(state, now=101.0)
        assert "camp.jsonl [live]" in frame
        assert "-- workers (1)" in frame
        assert "running" in frame and "0.8s" in frame

    def test_stale_worker_flagged(self):
        state = live.LiveState()
        state.apply_all(
            [json.loads(_line("hb", 100.0, key="a", pid=9, desc="run-a"))]
        )
        fresh = live.render_top(state, now=101.0, stale_after_s=5.0)
        stale = live.render_top(state, now=200.0, stale_after_s=5.0)
        assert "running" in fresh and "stale" not in fresh
        assert "stale" in stale

    def test_wall_clock_step_backwards_clamps_ages(self):
        # The dashboard host's clock steps *behind* the journal timestamps:
        # ages clamp to zero and the worker stays 'running', never negative
        # or spuriously stale.
        state = live.LiveState()
        state.apply_all(
            [json.loads(_line("hb", 1000.0, key="a", pid=3, desc="run-a"))]
        )
        frame = live.render_top(state, now=500.0, stale_after_s=5.0)
        assert "0.0s" in frame
        assert "-0" not in frame and "stale" not in frame


class TestWatch:
    def test_once_renders_single_frame(self, tmp_path):
        journal = tmp_path / "j.jsonl"
        _write(
            journal,
            _line("campaign", 1.0, jobs=1, unique=1),
            _line("done", 2.0, key="a", status="ok", pid=4),
            _line("end", 3.0, statuses={}),
        )
        frames = []
        state = live.watch(journal, once=True, write=frames.append)
        assert state.ended
        text = "".join(frames)
        assert "[ENDED]" in text and "ok 1" in text

    def test_live_loop_exits_on_end_record(self, tmp_path):
        journal = tmp_path / "j.jsonl"
        _write(journal, _line("campaign", 1.0), _line("end", 2.0, statuses={}))
        frames = []
        state = live.watch(
            journal, once=False, interval_s=0.01, clear=False, write=frames.append
        )
        assert state.ended and frames


class TestCrossProcessTop:
    def test_obs_top_once_renders_foreign_supervised_campaign(
        self, tmp_path, supervised_journal
    ):
        # The acceptance path: a supervised campaign (separate worker
        # processes, journal on disk) rendered by `obs top --once` running
        # in a *different* process than the supervisor that wrote it.
        journal, pids = supervised_journal
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro.experiments.cli",
                "obs",
                "top",
                str(journal),
                "--once",
            ],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "[ENDED]" in proc.stdout
        assert "-- workers (2)" in proc.stdout
        for pid in pids:
            assert str(pid) in proc.stdout
        assert "quarantined 0" in proc.stdout and "retried" in proc.stdout
