"""The one journal reader (repro.obs.journal) under its three consumers.

``data/golden_campaign/`` holds the journal and trace shards of a real
two-worker campaign (``repro-experiments --fig 8 --fig 9 --jobs 2
--no-store --journal journal.jsonl --trace-shards . --trace-capacity 64``,
shard paths cut to their file names) followed by synthetic ``attempt``,
``fail``, ``reschedule`` (one stalled worker killed, one worker died),
``quarantine``, ``hb`` and ``lost`` records.  Beside it are the ``obs top``
frame and the sha256 of the ``obs stitch`` output that the journal's three
hand-written folds (resume, dashboard, stitcher) produced before they were
merged into one.

The resumed- and interrupted-journal cases drive the CLI in a subprocess.
"""

import hashlib
import json
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import pytest

import repro
from repro.experiments import runner
from repro.experiments.store import ResultStore, config_key, set_store
from repro.experiments.supervisor import SupervisorConfig, run_supervised
from repro.obs import live, stitch
from repro.obs.journal import load_journal

GOLDEN = Path(__file__).parent / "data" / "golden_campaign"
GOLDEN_NOW = 1792514198.833  # three seconds after the campaign's `end`


def _cli(*args, cwd=None):
    src_dir = Path(repro.__file__).resolve().parents[1]
    return subprocess.run(
        [sys.executable, "-m", "repro.experiments.cli", *map(str, args)],
        capture_output=True,
        text=True,
        timeout=120,
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": str(src_dir)},
    )


def _write(path, records):
    path.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in records))


def _rate(frame):
    (line,) = [ln for ln in frame.splitlines() if ln.startswith("rate: ")]
    return line.split()[1]


class TestGoldenCampaign:
    def test_top_frame_is_byte_identical(self, monkeypatch):
        monkeypatch.chdir(GOLDEN)
        state = load_journal("journal.jsonl", strict=False)
        frame = live.render_top(state, now=GOLDEN_NOW) + "\n"
        assert frame == (GOLDEN / "top_frame.txt").read_text()

    def test_stitched_trace_hash_matches_bar_the_died_label(self, monkeypatch):
        monkeypatch.chdir(GOLDEN)
        trace = stitch.stitch_journal("journal.jsonl")
        died = [
            ev for ev in trace["traceEvents"]
            if ev.get("cat") == "run" and ev["args"]["status"] == "died"
        ]
        assert [ev["name"] for ev in died] == ["synthetic lost config [died]"]
        # The one intended difference: a worker that died was drawn "killed".
        died[0]["name"] = "synthetic lost config [killed]"
        died[0]["args"]["status"] = "killed"
        digest = hashlib.sha256(json.dumps(trace, sort_keys=True).encode()).hexdigest()
        assert digest == (GOLDEN / "stitch.sha256").read_text().split()[0]

    def test_corrupt_middle_line_fails_resume_and_is_counted_by_the_viewers(
        self, tmp_path
    ):
        lines = (GOLDEN / "journal.jsonl").read_text().splitlines(keepends=True)
        journal = tmp_path / "journal.jsonl"
        journal.write_text("".join(lines[:5] + ["{garbage\n"] + lines[5:]))

        resume = _cli("--fig", "8", "--no-store", "--resume", journal)
        assert resume.returncode == 2
        assert "corrupt journal line 6" in resume.stderr

        top = _cli("obs", "top", journal, "--once")
        assert top.returncode == 0, top.stderr
        assert "journal: 1 corrupt line(s) skipped" in top.stdout
        assert "runs: 6/4 done" in top.stdout

        out = tmp_path / "stitched.json"
        stitched = _cli("obs", "stitch", journal, "--out", out, cwd=GOLDEN)
        assert stitched.returncode == 0, stitched.stderr
        assert "(0 missing)" in stitched.stdout
        assert "1 corrupt journal line(s) skipped" in stitched.stdout
        assert json.loads(out.read_text())["otherData"]["lines_skipped"] == 1


@dataclass(frozen=True)
class DoneCfg:
    tag: str = "done"

    def cache_key(self):
        return config_key(self)

    def describe(self):
        return f"DoneCfg-{self.tag}"

    def run_self(self):
        return {"value": self.tag}


@dataclass(frozen=True)
class InterruptOnceCfg(DoneCfg):
    """Ctrl-C on its first run (a marker file remembers), done after."""

    marker: str = ""

    def run_self(self):
        if not Path(self.marker).exists():
            Path(self.marker).write_text("seen")
            raise KeyboardInterrupt
        return {"value": self.tag}


# An interrupted two-config campaign (a done at 102, b in flight at 103)
# and the resume appended to it (a from the store, b simulated).
RESUMED = [
    {"event": "campaign", "ts": 100.0, "jobs": 1, "requested": 2, "unique": 2},
    {"event": "attempt", "ts": 100.0, "key": "a", "attempt": 1, "pid": 7, "desc": "A"},
    {"event": "done", "ts": 102.0, "key": "a", "status": "ok", "pid": 7, "wall_s": 2.0},
    {"event": "attempt", "ts": 102.0, "key": "b", "attempt": 1, "pid": 7, "desc": "B"},
    {"event": "interrupted", "ts": 103.0, "in_flight": ["b"], "pending": [],
     "completed": 1},
    {"event": "campaign", "ts": 1000.0, "jobs": 2, "requested": 2, "unique": 2,
     "resumed_from": "j.jsonl"},
    {"event": "done", "ts": 1000.0, "key": "a", "status": "ok", "cached": True},
    {"event": "attempt", "ts": 1000.5, "key": "b", "attempt": 2, "pid": 8, "desc": "B"},
    {"event": "reschedule", "ts": 1000.6, "key": "b", "attempt": 2,
     "reason": "worker pid 8 died"},
    {"event": "attempt", "ts": 1000.6, "key": "b", "attempt": 3, "pid": 9, "desc": "B"},
    {"event": "done", "ts": 1001.0, "key": "b", "status": "salvaged", "pid": 9,
     "wall_s": 0.4},
    {"event": "end", "ts": 1001.0, "statuses": {"a": "ok", "b": "salvaged"}},
]


class TestResumedJournal:
    def test_top_counts_each_config_once(self, tmp_path):
        set_store(ResultStore(tmp_path / "store"))
        runner.clear_caches()
        configs = [
            DoneCfg(),
            InterruptOnceCfg(tag="struck", marker=str(tmp_path / "struck")),
        ]
        journal = tmp_path / "j.jsonl"
        try:
            with pytest.raises(KeyboardInterrupt):
                run_supervised(configs, jobs=1, sup=SupervisorConfig(journal_path=journal))
            runner.clear_caches()  # the store survives the "crash"
            resumed = run_supervised(
                configs,
                jobs=1,
                sup=SupervisorConfig(journal_path=journal, resume=load_journal(journal)),
            )
        finally:
            runner.clear_caches()
            set_store(None)
        assert resumed.stats.cached == 1 and resumed.stats.executed == 1

        top = _cli("obs", "top", journal, "--once")
        assert top.returncode == 0, top.stderr
        assert "[ENDED]" in top.stdout
        assert "runs: 2/2 done  ok 2  retried 0  salvaged 0  quarantined 0  lost 0" in (
            top.stdout
        )
        assert "cached 1 (store 33%)" in top.stdout

    def test_rate_sums_the_segments_durations(self, tmp_path):
        journal = tmp_path / "j.jsonl"
        _write(journal, RESUMED)
        top = _cli("obs", "top", journal, "--once")
        assert top.returncode == 0, top.stderr
        # Two runs simulated over 3 s + 1 s, not over the last segment's 1 s.
        assert _rate(top.stdout) == "0.50"
        assert "runs: 2/2 done  ok 1  retried 0  salvaged 1" in top.stdout

    def test_single_segment_rate_is_unchanged(self, tmp_path):
        journal = tmp_path / "j.jsonl"
        _write(journal, RESUMED[:4] + [
            {"event": "done", "ts": 104.0, "key": "b", "status": "ok", "pid": 7},
            {"event": "end", "ts": 105.0, "statuses": {}},
        ])
        top = _cli("obs", "top", journal, "--once")
        assert _rate(top.stdout) == "0.40"  # 2 runs / (105 - 100) s


class TestInterruptedJournalStitch:
    def _stitched(self, tmp_path, records):
        journal = tmp_path / "j.jsonl"
        _write(journal, records)
        out = tmp_path / "stitched.json"
        proc = _cli("obs", "stitch", journal, "--out", out)
        assert proc.returncode == 0, proc.stderr
        return json.loads(out.read_text())["traceEvents"]

    def test_spans_of_an_interrupted_then_resumed_campaign(self, tmp_path):
        events = self._stitched(tmp_path, RESUMED)
        runs = [
            (ev["args"]["key"], ev["args"]["attempt"], ev["args"]["status"],
             ev["ts"], ev["dur"])
            for ev in events if ev.get("cat") == "run"
        ]
        assert runs == [
            ("a", 1, "ok", 0.0, 2e6),
            ("b", 1, "interrupted", 2e6, 1e6),  # closed by the interrupt
            ("b", 2, "died", pytest.approx(900.5e6), pytest.approx(0.1e6)),
            ("b", 3, "salvaged", pytest.approx(900.6e6), pytest.approx(0.4e6)),
        ]
        campaigns = [
            (ev["ts"], ev["dur"])
            for ev in events if ev.get("cat") == "campaign" and ev["ph"] == "X"
        ]
        assert campaigns == [(0.0, 3e6), (900e6, 1e6)]  # one span per segment
