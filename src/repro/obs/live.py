"""Live supervised-campaign dashboard: the ``obs top`` engine.

Strictly **read-only and cross-process**: the dashboard never talks to the
supervisor — it tails the :class:`~repro.experiments.supervisor.CampaignJournal`
the supervisor is already fsync'ing (heartbeats are flushed un-fsync'd, so
they stream with sub-second latency) and reconstructs campaign state from
the event records.  That makes ``obs top`` safe to point at a campaign run
by another process, another user, or one that is already dead — the journal
is the protocol.

Three pieces:

* :class:`JournalTailer` — incremental JSONL reader: remembers its byte
  offset, buffers a torn trailing line until the writer completes it, and
  restarts from zero if the file shrinks (journal replaced/truncated).
* :class:`LiveState` — folds journal records into per-worker liveness,
  attempt/retry/quarantine counts, store hit rate, and streaming P²
  estimates of per-run Jain index and P99 FCT-slowdown (fed from the
  compact ``analytics`` payload ``done`` records carry).
* :func:`render_top` — one deterministic ASCII frame of that state;
  ``obs top --once`` prints a single frame, the live loop redraws it.

Clock honesty: journal ``ts`` fields are wall-clock (display only), so all
age math clamps at zero — a wall-clock step backwards under the dashboard
renders ``0.0s`` ages instead of negative ones (the supervisor's own
liveness decisions use ``time.monotonic()`` and never read these fields).
"""

from __future__ import annotations

import json
import time
from collections import deque
from pathlib import Path
from typing import Any, Dict, List, Optional

from .registry import P2Quantile

#: A worker whose last heartbeat is older than this many seconds renders
#: as ``stale`` (the supervisor's own kill deadline is usually longer).
STALE_AFTER_S = 5.0

#: Terminal per-config statuses `done` records may carry.
_DONE_STATUSES = ("ok", "retried", "salvaged")


def _age_s(now: float, ts: Optional[float]) -> Optional[float]:
    """Wall-clock age, clamped at zero against backwards clock steps."""
    if ts is None:
        return None
    return max(0.0, now - ts)


class JournalTailer:
    """Incremental reader over an append-only JSONL journal.

    ``poll()`` returns the records appended since the previous call.  A
    partial final line (writer mid-append) is buffered, not dropped; a
    file that shrank below our offset means the journal was replaced —
    reading restarts from the top.  Other-process unparseable middle
    lines are skipped defensively (the supervisor's own loader treats
    them as fatal; a live dashboard should keep rendering instead).
    """

    def __init__(self, path: Any) -> None:
        self.path = Path(path)
        self._offset = 0
        self._partial = ""

    def poll(self) -> List[Dict[str, Any]]:
        try:
            size = self.path.stat().st_size
        except FileNotFoundError:
            return []
        if size < self._offset:
            self._offset = 0
            self._partial = ""
        if size == self._offset:
            return []
        with open(self.path, "r", encoding="utf-8") as fh:
            fh.seek(self._offset)
            chunk = fh.read()
            self._offset = fh.tell()
        text = self._partial + chunk
        lines = text.split("\n")
        self._partial = lines.pop()  # "" when chunk ended on a newline
        records = []
        for line in lines:
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(rec, dict):
                records.append(rec)
        return records


class WorkerView:
    """What the journal says about one worker pid."""

    __slots__ = ("pid", "state", "desc", "key", "attempt", "last_ts")

    def __init__(self, pid: int) -> None:
        self.pid = pid
        self.state = "running"
        self.desc = "-"
        self.key: Optional[str] = None
        self.attempt: Optional[int] = None
        self.last_ts: Optional[float] = None


class LiveState:
    """Campaign state folded from journal records (see module docstring)."""

    def __init__(self) -> None:
        self.journal_label = ""
        self.started_ts: Optional[float] = None
        self.last_ts: Optional[float] = None
        self.jobs: Optional[int] = None
        self.requested: Optional[int] = None
        self.unique: Optional[int] = None
        self.resumed_from: Optional[str] = None
        self.counts: Dict[str, int] = {
            status: 0
            for status in (*_DONE_STATUSES, "quarantined", "lost")
        }
        self.cached = 0
        self.executed = 0
        self.attempts = 0
        self.failures = 0
        self.reschedules = 0
        self.shards = 0
        self.heartbeats = 0
        self.interrupted = False
        self.ended = False
        self.workers: Dict[int, WorkerView] = {}
        self.recent: deque = deque(maxlen=8)
        # Streaming tail estimates over per-run analytics payloads.
        self.jain_p50 = P2Quantile(0.5)
        self.jain_min: Optional[float] = None
        self.slowdown_p50 = P2Quantile(0.5)
        self.slowdown_p95 = P2Quantile(0.95)
        self.analytics_runs = 0

    # -- folding -----------------------------------------------------------

    def apply(self, rec: Dict[str, Any]) -> None:
        event = rec.get("event")
        ts = rec.get("ts")
        if isinstance(ts, (int, float)):
            self.last_ts = ts
        handler = getattr(self, f"_on_{event}", None)
        if handler is not None:
            handler(rec)

    def apply_all(self, records: List[Dict[str, Any]]) -> None:
        for rec in records:
            self.apply(rec)

    def _worker(self, pid: Any) -> Optional[WorkerView]:
        if not isinstance(pid, int):
            return None
        view = self.workers.get(pid)
        if view is None:
            view = self.workers[pid] = WorkerView(pid)
        return view

    def _note(self, rec: Dict[str, Any], text: str) -> None:
        self.recent.append((rec.get("ts"), text))

    def _on_campaign(self, rec: Dict[str, Any]) -> None:
        self.started_ts = rec.get("ts")
        self.jobs = rec.get("jobs")
        self.requested = rec.get("requested")
        self.unique = rec.get("unique")
        self.resumed_from = rec.get("resumed_from")

    def _on_attempt(self, rec: Dict[str, Any]) -> None:
        self.attempts += 1
        view = self._worker(rec.get("pid"))
        if view is not None:
            view.state = "running"
            view.desc = rec.get("desc") or "-"
            view.key = rec.get("key")
            view.attempt = rec.get("attempt")
            view.last_ts = rec.get("ts")

    def _on_hb(self, rec: Dict[str, Any]) -> None:
        self.heartbeats += 1
        view = self._worker(rec.get("pid"))
        if view is not None:
            view.state = "running"
            if rec.get("desc"):
                view.desc = rec["desc"]
            view.key = rec.get("key", view.key)
            view.last_ts = rec.get("ts")

    def _on_done(self, rec: Dict[str, Any]) -> None:
        status = rec.get("status", "ok")
        if status in self.counts:
            self.counts[status] += 1
        if rec.get("cached"):
            self.cached += 1
        else:
            self.executed += 1
        view = self._worker(rec.get("pid"))
        if view is not None:
            view.state = "idle"
            view.desc = "-"
            view.key = None
            view.attempt = None
            view.last_ts = rec.get("ts")
        live = rec.get("analytics")
        if isinstance(live, dict):
            self.analytics_runs += 1
            jain = live.get("jain")
            if isinstance(jain, (int, float)):
                self.jain_p50.observe(float(jain))
                self.jain_min = (
                    float(jain)
                    if self.jain_min is None
                    else min(self.jain_min, float(jain))
                )
            p99 = live.get("p99_slowdown")
            if isinstance(p99, (int, float)):
                self.slowdown_p50.observe(float(p99))
                self.slowdown_p95.observe(float(p99))
        wall = rec.get("wall_s")
        wall_txt = f" {wall:.2f}s" if isinstance(wall, (int, float)) else ""
        self._note(
            rec,
            f"done {rec.get('desc') or rec.get('key', '?')} [{status}]"
            f"{' (cached)' if rec.get('cached') else wall_txt}",
        )

    def _on_fail(self, rec: Dict[str, Any]) -> None:
        self.failures += 1
        self._note(
            rec,
            f"FAIL attempt {rec.get('attempt', '?')} "
            f"[{rec.get('classification', '?')}]: {rec.get('error', '?')}",
        )

    def _on_reschedule(self, rec: Dict[str, Any]) -> None:
        self.reschedules += 1
        self._note(rec, f"reschedule {rec.get('key', '?')}: {rec.get('reason', '?')}")

    def _on_quarantine(self, rec: Dict[str, Any]) -> None:
        self.counts["quarantined"] += 1
        self._note(
            rec,
            f"QUARANTINE {rec.get('desc', '?')} after "
            f"{rec.get('attempts', '?')} attempt(s)",
        )

    def _on_lost(self, rec: Dict[str, Any]) -> None:
        self.counts["lost"] += 1
        self._note(rec, f"LOST {rec.get('key', '?')}: {rec.get('error', '?')}")

    def _on_trace_shard(self, rec: Dict[str, Any]) -> None:
        self.shards += 1

    def _on_interrupted(self, rec: Dict[str, Any]) -> None:
        self.interrupted = True
        self._note(rec, "campaign INTERRUPTED")

    def _on_end(self, rec: Dict[str, Any]) -> None:
        self.ended = True
        for view in self.workers.values():
            view.state = "done"

    # -- derived -----------------------------------------------------------

    @property
    def done_total(self) -> int:
        return self.cached + self.executed

    @property
    def terminal_total(self) -> int:
        return self.done_total + self.counts["quarantined"] + self.counts["lost"]

    def store_hit_pct(self) -> Optional[float]:
        total = self.done_total
        return 100.0 * self.cached / total if total else None

    def runs_per_s(self) -> Optional[float]:
        if self.started_ts is None or self.last_ts is None or not self.executed:
            return None
        elapsed = max(1e-9, self.last_ts - self.started_ts)
        return self.executed / elapsed

    def eta_s(self) -> Optional[float]:
        rate = self.runs_per_s()
        if rate is None or rate <= 0 or self.unique is None:
            return None
        remaining = max(0, self.unique - self.terminal_total)
        return remaining / rate


def _fmt_age(age: Optional[float]) -> str:
    return f"{age:.1f}s" if age is not None else "-"


def _fmt_opt(v: Optional[float], fmt: str = "{:.2f}") -> str:
    # NaN is an estimator that saw nothing (an incast has no slowdown).
    return fmt.format(v) if isinstance(v, (int, float)) and v == v else "-"


def render_top(
    state: LiveState, *, now: Optional[float] = None, stale_after_s: float = STALE_AFTER_S
) -> str:
    """One deterministic ASCII frame of the campaign state."""
    # Local import mirrors report.py: keep obs importable without the
    # experiments stack at module-import time.
    from ..experiments.reporting import format_table

    now = time.time() if now is None else now
    c = state.counts
    status = "ENDED" if state.ended else ("INTERRUPTED" if state.interrupted else "live")
    out: List[str] = [
        f"== repro campaign top == {state.journal_label or 'journal'} [{status}]"
    ]
    unique = state.unique if state.unique is not None else "?"
    out.append(
        f"runs: {state.terminal_total}/{unique} done"
        f"  ok {c['ok']}  retried {c['retried']}  salvaged {c['salvaged']}"
        f"  quarantined {c['quarantined']}  lost {c['lost']}"
        f"  cached {state.cached}"
        + (
            f" (store {state.store_hit_pct():.0f}%)"
            if state.store_hit_pct() is not None
            else ""
        )
    )
    out.append(
        f"rate: {_fmt_opt(state.runs_per_s())} runs/s"
        f"  eta: {_fmt_opt(state.eta_s(), '{:.1f}')}s"
        f"  jobs: {state.jobs if state.jobs is not None else '?'}"
        f"  attempts: {state.attempts}  failures: {state.failures}"
        f"  reschedules: {state.reschedules}"
        f"  hb: {state.heartbeats}  shards: {state.shards}"
    )

    if state.workers:
        rows = []
        for pid in sorted(state.workers):
            view = state.workers[pid]
            age = _age_s(now, view.last_ts)
            worker_state = view.state
            if (
                worker_state == "running"
                and age is not None
                and age > stale_after_s
            ):
                worker_state = "stale"
            rows.append(
                (
                    pid,
                    worker_state,
                    _fmt_age(age),
                    view.attempt if view.attempt is not None else "-",
                    view.desc,
                )
            )
        out.append(f"\n-- workers ({len(rows)})")
        out.append(format_table(("pid", "state", "hb-age", "attempt", "run"), rows))

    if state.analytics_runs:
        out.append(f"\n-- streaming tail estimates ({state.analytics_runs} run(s), P2)")
        out.append(
            f"  jain p50={_fmt_opt(state.jain_p50.value(), '{:.3f}')}"
            f" min={_fmt_opt(state.jain_min, '{:.3f}')}"
            f"   p99-slowdown p50={_fmt_opt(state.slowdown_p50.value())}"
            f" p95={_fmt_opt(state.slowdown_p95.value())}"
        )

    if state.recent:
        out.append(f"\n-- recent events ({len(state.recent)})")
        for ts, text in state.recent:
            age = _age_s(now, ts if isinstance(ts, (int, float)) else None)
            out.append(f"  [{_fmt_age(age):>6}] {text}")

    return "\n".join(out)


def watch(
    journal_path: Any,
    *,
    once: bool = False,
    interval_s: float = 0.5,
    clear: bool = True,
    stale_after_s: float = STALE_AFTER_S,
    write: Any = None,
    max_frames: Optional[int] = None,
) -> LiveState:
    """Tail a journal and render frames until the campaign ends.

    ``once`` reads what exists and prints a single frame (tests/CI);
    the live loop polls every ``interval_s`` seconds, redraws on change,
    and returns when an ``end`` record is seen (or ``max_frames`` is
    reached).  Returns the final :class:`LiveState`.
    """
    import sys

    emit = write if write is not None else sys.stdout.write
    tailer = JournalTailer(journal_path)
    state = LiveState()
    state.journal_label = str(journal_path)
    frames = 0
    while True:
        records = tailer.poll()
        state.apply_all(records)
        if once or records or frames == 0:
            frame = render_top(state, stale_after_s=stale_after_s)
            if clear and not once:
                emit("\x1b[2J\x1b[H")
            emit(frame + "\n")
            frames += 1
        if once or state.ended:
            return state
        if max_frames is not None and frames >= max_frames:
            return state
        time.sleep(interval_s)
