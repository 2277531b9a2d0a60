"""The campaign journal: its writer, its one reader and its one fold.

A journal is JSON lines, one record per campaign state transition, each
with an ``event`` and a wall-clock ``ts``.  Everything that reads one —
``--resume``, ``obs top`` and ``obs stitch`` — reads it here:

* :class:`CampaignJournal` — the supervisor's append-only, fsync'd writer;
* :class:`JournalReader` — incremental by byte offset: it buffers a torn
  trailing line until the writer completes it, starts over if the file
  shrank (journal replaced), and counts and skips corrupt lines — except
  that a ``strict`` read (``--resume``) refuses one that is not the last;
* :class:`JournalState` — ``apply(record)`` folds records in order into
  per-config status, attempts and quarantine reports, per-attempt spans,
  per-worker liveness, counts and trace-shard records.

A journal holds one *segment* per ``campaign`` record: a ``--resume`` that
appends to the journal of an interrupted campaign adds a segment after it.
Per-config state carries across segments (a resume needs what finished
before the crash); the segment that last set a config's status is kept, so
``obs top`` counts each config once, in the campaign now running.

Journal ``ts`` fields are display-only: supervision never reads them back
(its liveness math stays on ``time.monotonic()``).
"""

from __future__ import annotations

import json
import os
import time
from collections import Counter, deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Any, Deque, Dict, List, Optional, Tuple

JOURNAL_VERSION = 1

# Final per-config statuses (CampaignOutcome.statuses values).
STATUS_OK = "ok"
STATUS_RETRIED = "retried"  # succeeded after >= 1 failed attempt
STATUS_SALVAGED = "salvaged"  # succeeded after >= 1 worker kill/loss
STATUS_QUARANTINED = "quarantined"  # written off as poison; replayable report
STATUS_LOST = "lost"  # no result, not poison (worker loss budget / interrupt)

TERMINAL_STATUSES = (STATUS_OK, STATUS_RETRIED, STATUS_SALVAGED, STATUS_QUARANTINED)


class CampaignJournal:
    """Append-only, crash-safe record of a campaign's state transitions.

    One JSON object per line; every append is flushed and fsync'd before
    returning, so the journal on disk is never behind the campaign's
    actual state by more than the line being written.  A torn final line
    (the writer died mid-append) is expected and tolerated by
    :func:`load_journal`.
    """

    def __init__(self, path: Path, fsync: bool = True) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fsync = fsync
        self._fh: Optional[IO[str]] = open(self.path, "a", encoding="utf-8")

    def append(self, event: str, _sync: Optional[bool] = None, **fields: Any) -> None:
        """Append one record.  ``_sync=False`` flushes without fsync — used
        for high-rate advisory records (worker heartbeats) that a live
        tailer wants promptly but whose loss in a crash costs nothing.

        Every record carries ``ts`` (wall-clock epoch seconds) for display
        by ``obs top``/``obs stitch``; supervision logic itself never reads
        it back — liveness math stays on ``time.monotonic()``.
        """
        if self._fh is None:
            return
        record = {"event": event, "ts": round(time.time(), 3), **fields}
        self._fh.write(json.dumps(record, sort_keys=True) + "\n")
        self._fh.flush()
        if self._fsync if _sync is None else _sync:
            os.fsync(self._fh.fileno())

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "CampaignJournal":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


@dataclass
class Segment:
    """One ``campaign`` record and the records after it, up to the next."""

    start_ts: Optional[float]
    jobs: Optional[int] = None
    unique: Optional[int] = None
    last_ts: Optional[float] = None  # latest ``ts`` in the segment
    end_ts: Optional[float] = None  # its ``end`` or ``interrupted`` record's


@dataclass
class Span:
    """One attempt of one config on one worker, as the journal saw it."""

    key: str
    pid: int
    attempt: Any
    desc: str
    start_ts: Optional[float]
    end_ts: Optional[float] = None
    status: Optional[str] = None  # done status, fail/killed/died/lost/interrupted
    seq: int = 0  # index of the record that closed it


@dataclass
class Worker:
    """What the journal says about one worker pid."""

    pid: int
    seq: int  # index of the record that first named it
    state: str = "running"
    desc: str = "-"
    attempt: Any = None
    last_ts: Optional[float] = None


@dataclass
class JournalState:
    """What a journal says happened, folded record by record."""

    path: Path
    fingerprint: Optional[str] = None
    statuses: Dict[str, str] = field(default_factory=dict)  # latest, all segments
    attempts: Dict[str, int] = field(default_factory=dict)
    quarantines: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    interrupted: bool = False  # the last segment's
    completed: bool = False  # the last segment's
    skipped_lines: int = 0  # corrupt or torn lines the reader passed over
    records: int = 0  # folded so far; a record's index orders stitch events
    first_ts: Optional[float] = None
    segments: List[Segment] = field(default_factory=list)
    status_segment: Dict[str, int] = field(default_factory=dict)  # who set it
    counts: Counter = field(default_factory=Counter)  # records by event
    cached: int = 0  # runs served from the store
    executed: int = 0  # runs simulated
    summaries: Dict[str, Dict[str, Any]] = field(default_factory=dict)  # done analytics
    workers: Dict[int, Worker] = field(default_factory=dict)
    open_spans: Dict[str, Span] = field(default_factory=dict)
    spans: List[Span] = field(default_factory=list)  # closed, in journal order
    marks: List[Tuple[int, Optional[float], str]] = field(default_factory=list)  # instants
    shards: List[Tuple[int, Optional[Span], Any]] = field(default_factory=list)  # span, path
    recent: Deque[Dict[str, Any]] = field(default_factory=lambda: deque(maxlen=8))

    def terminal(self, key: str) -> Optional[str]:
        """The carried-over status for ``key``, if it need not re-run.

        ``lost`` is deliberately *not* terminal on resume: the loss was
        most likely the crash being resumed from, so the config gets a
        fresh attempt budget.  Quarantine carries over — poison stays
        poison until the code fingerprint changes.
        """
        status = self.statuses.get(key)
        return status if status in TERMINAL_STATUSES else None

    def current_statuses(self) -> Dict[str, str]:
        """Each config's status, for configs the last segment has settled."""
        seg = len(self.segments) - 1
        return {
            k: s for k, s in self.statuses.items() if self.status_segment.get(k) == seg
        }

    def runs_per_s(self) -> Optional[float]:
        """Runs simulated per second of the segments' summed duration."""
        durations = [
            max(0.0, s.last_ts - s.start_ts)
            for s in self.segments
            if s.start_ts is not None and s.last_ts is not None
        ]
        if not durations or not self.executed:
            return None
        return self.executed / max(1e-9, sum(durations))

    # -- folding -----------------------------------------------------------

    def _settle(self, key: Any, status: str) -> None:
        self.statuses[key] = status
        self.status_segment[key] = len(self.segments) - 1

    def _worker(self, pid: Any, seq: int) -> Optional[Worker]:
        if not isinstance(pid, int):
            return None
        if pid not in self.workers:
            self.workers[pid] = Worker(pid, seq)
        return self.workers[pid]

    def _close(self, key: Any, ts: Optional[float], status: str, seq: int) -> None:
        span = self.open_spans.pop(key, None)
        if span is not None:
            span.end_ts, span.status, span.seq = ts, status, seq
            self.spans.append(span)

    def apply(self, rec: Dict[str, Any]) -> None:
        """Fold one record (unknown events count and change nothing else)."""
        seq = self.records
        self.records += 1
        event, key = rec.get("event"), rec.get("key")
        ts = rec.get("ts") if isinstance(rec.get("ts"), (int, float)) else None
        if self.first_ts is None:
            self.first_ts = ts
        self.counts[event] += 1
        worker = self._worker(rec.get("pid"), seq) if event in ("attempt", "hb", "done") else None
        if event == "campaign":
            self.segments.append(Segment(ts, rec.get("jobs"), rec.get("unique")))
            self.fingerprint = rec.get("fingerprint")
            self.interrupted = self.completed = False
        elif event == "attempt":
            self.attempts[key] = rec.get("attempt", self.attempts.get(key, 0) + 1)
            if worker is not None:
                worker.state, worker.desc = "running", rec.get("desc") or "-"
                worker.attempt = rec.get("attempt")
                if key:
                    self.open_spans[key] = Span(
                        key, worker.pid, rec.get("attempt", 0), rec.get("desc") or key, ts
                    )
        elif event == "hb" and worker is not None:
            worker.state, worker.desc = "running", rec.get("desc") or worker.desc
        elif event == "done":
            status = rec.get("status", STATUS_OK)
            self._settle(key, status)
            if rec.get("cached"):
                self.cached += 1
            else:
                self.executed += 1
                self._close(key, ts, status, seq)
            if worker is not None:
                worker.state, worker.desc, worker.attempt = "idle", "-", None
            if isinstance(rec.get("analytics"), dict):
                self.summaries[key] = rec["analytics"]
        elif event == "fail":
            self._close(key, ts, "fail", seq)
        elif event == "reschedule":
            died = str(rec.get("reason", "")).endswith(" died")
            self._close(key, ts, "died" if died else "killed", seq)
        elif event == "quarantine":
            self._settle(key, STATUS_QUARANTINED)
            self.quarantines[key] = {
                k: rec.get(k)
                for k in ("desc", "error", "classification", "attempts", "config_repr")
            }
            self.marks.append((seq, ts, f"quarantine {rec.get('desc') or key}"))
        elif event == "lost":
            self._settle(key, STATUS_LOST)
            self._close(key, ts, STATUS_LOST, seq)
            self.marks.append((seq, ts, f"lost {key}"))
        elif event == "interrupted":
            # In-flight and queued work is lost (not terminal: a resume
            # schedules it again); the workers were killed.
            in_flight = list(rec.get("in_flight") or ())
            for k in in_flight:
                self._close(k, ts, "interrupted", seq)
            for k in in_flight + list(rec.get("pending") or ()):
                if self.terminal(k) is None:
                    self._settle(k, STATUS_LOST)
            self.interrupted = True
            self.marks.append((seq, ts, "interrupted"))
        elif event == "trace_shard":
            closed = next((s for s in reversed(self.spans) if s.key == key), None)
            self.shards.append((seq, closed, rec.get("path")))
        if event in ("interrupted", "end"):
            self.completed = event == "end"
            for w in self.workers.values():
                w.state = "done"
            if self.segments:
                self.segments[-1].end_ts = ts
        if event in ("done", "fail", "reschedule", "quarantine", "lost", "interrupted"):
            self.recent.append(rec)
        if worker is not None:
            worker.last_ts = ts
        if ts is not None and self.segments:
            self.segments[-1].last_ts = ts


class JournalReader:
    """Incremental reader over a journal, folding into :attr:`state`.

    ``poll()`` folds and returns the records appended since the previous
    call.  ``final=True`` says the writer is done (or dead), so an
    unterminated last line is parsed too, and a missing file is an error
    rather than one not yet created.  ``strict`` makes a corrupt line that
    is not the file's last fatal (``ValueError``); strict reads are one-shot
    (:func:`load_journal`).
    """

    def __init__(self, path: Any, *, strict: bool = False) -> None:
        self.path = Path(path)
        self.strict = strict
        self._restart()

    def _restart(self) -> None:
        self.state = JournalState(path=self.path)
        self._offset = 0
        self._tail = b""
        self._lineno = 0

    def poll(self, *, final: bool = False) -> List[Dict[str, Any]]:
        try:
            size = self.path.stat().st_size
        except FileNotFoundError:
            if final:
                raise
            return []
        if size < self._offset:
            self._restart()  # replaced or truncated: fold it afresh
        with open(self.path, "rb") as fh:
            fh.seek(self._offset)
            chunk = fh.read()
        self._offset += len(chunk)
        lines = (self._tail + chunk).split(b"\n")
        self._tail = lines.pop()  # b"" when the chunk ended on a newline
        if final and self._tail:
            lines.append(self._tail)
            self._tail = b""
        records: List[Dict[str, Any]] = []
        for i, line in enumerate(lines):
            self._lineno += 1
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
            except ValueError:  # JSONDecodeError, or bytes that are not UTF-8
                rec = None
            if not isinstance(rec, dict):
                if self.strict and i < len(lines) - 1:
                    raise ValueError(f"{self.path}: corrupt journal line {self._lineno}")
                self.state.skipped_lines += 1
                continue
            self.state.apply(rec)
            records.append(rec)
        return records


def load_journal(path: Any, *, strict: bool = True) -> JournalState:
    """Fold a whole journal at once.

    Raises ``FileNotFoundError`` for a missing journal — resuming from
    nothing is an operator error worth surfacing — and, when ``strict``
    (``--resume``), ``ValueError`` for a corrupt line that is not the last;
    a torn final line is counted in ``skipped_lines``, not fatal.
    """
    reader = JournalReader(path, strict=strict)
    reader.poll(final=True)
    return reader.state
