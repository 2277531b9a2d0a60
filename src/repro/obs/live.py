"""Live supervised-campaign dashboard: the ``obs top`` engine.

Strictly **read-only and cross-process**: the dashboard never talks to the
supervisor — it tails the campaign journal the supervisor is already
fsync'ing (heartbeats are flushed un-fsync'd, so they stream with
sub-second latency) through :class:`~repro.obs.journal.JournalReader`, the
one reader and fold the supervisor's ``--resume`` also uses.  That makes
``obs top`` safe to point at a campaign run by another process, another
user, or one that is already dead — the journal is the protocol.

:func:`render_top` draws one deterministic ASCII frame of a
:class:`~repro.obs.journal.JournalState`: each config counted once by its
status in the campaign segment now running, runs/s over every segment's
duration, per-worker liveness, streaming P² estimates of per-run Jain index
and P99 FCT-slowdown (from the summaries ``done`` records carry) and the
recent events.  ``obs top --once`` prints a single frame; the live loop
(:func:`watch`) redraws it.

Clock honesty: journal ``ts`` fields are wall-clock (display only), so all
age math clamps at zero — a wall-clock step backwards under the dashboard
renders ``0.0s`` ages instead of negative ones (the supervisor's own
liveness decisions use ``time.monotonic()`` and never read these fields).
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from typing import Any, Dict, List, Optional

from .journal import STATUS_OK, JournalReader, JournalState, Segment
from .registry import P2Quantile

#: A worker whose last heartbeat is older than this many seconds renders
#: as ``stale`` (the supervisor's own kill deadline is usually longer).
STALE_AFTER_S = 5.0


def _age_s(now: float, ts: Optional[float]) -> Optional[float]:
    """Wall-clock age, clamped at zero against backwards clock steps."""
    return None if ts is None else max(0.0, now - ts)


#: ``recent events`` lines for notable records (a missing field reads ``?``).
_NOTES = {
    "fail": "FAIL attempt {attempt} [{classification}]: {error}",
    "reschedule": "reschedule {key}: {reason}",
    "quarantine": "QUARANTINE {desc} after {attempts} attempt(s)",
    "lost": "LOST {key}: {error}",
    "interrupted": "campaign INTERRUPTED",
}


def _note(rec: Dict[str, Any]) -> str:
    if rec.get("event") != "done":
        return _NOTES[rec["event"]].format_map(defaultdict(lambda: "?", rec))
    wall = rec.get("wall_s")
    wall_txt = f" {wall:.2f}s" if isinstance(wall, (int, float)) else ""
    return (
        f"done {rec.get('desc') or rec.get('key', '?')} [{rec.get('status', STATUS_OK)}]"
        f"{' (cached)' if rec.get('cached') else wall_txt}"
    )


def _fmt_age(age: Optional[float]) -> str:
    return f"{age:.1f}s" if age is not None else "-"


def _fmt_opt(v: Optional[float], fmt: str = "{:.2f}") -> str:
    # NaN is an estimator that saw nothing (an incast has no slowdown).
    return fmt.format(v) if isinstance(v, (int, float)) and v == v else "-"


def render_top(
    state: JournalState, *, now: Optional[float] = None, stale_after_s: float = STALE_AFTER_S
) -> str:
    """One deterministic ASCII frame of the campaign state."""
    # Local import mirrors report.py: keep obs importable without the
    # experiments stack at module-import time.
    from ..experiments.reporting import format_table

    now = time.time() if now is None else now
    c = Counter(state.current_statuses().values())
    seg = state.segments[-1] if state.segments else Segment(None)
    status = "ENDED" if state.completed else ("INTERRUPTED" if state.interrupted else "live")
    out: List[str] = [f"== repro campaign top == {state.path} [{status}]"]
    unique = "?" if seg.unique is None else seg.unique
    runs = state.cached + state.executed
    out.append(
        f"runs: {sum(c.values())}/{unique} done"
        f"  ok {c['ok']}  retried {c['retried']}  salvaged {c['salvaged']}"
        f"  quarantined {c['quarantined']}  lost {c['lost']}"
        f"  cached {state.cached}"
        + (f" (store {100.0 * state.cached / runs:.0f}%)" if runs else "")
    )
    rate = state.runs_per_s()
    eta = None
    if rate and isinstance(unique, int):
        eta = max(0, unique - sum(c.values())) / rate
    n = state.counts
    out.append(
        f"rate: {_fmt_opt(rate)} runs/s"
        f"  eta: {_fmt_opt(eta, '{:.1f}')}s"
        f"  jobs: {'?' if seg.jobs is None else seg.jobs}"
        f"  attempts: {n['attempt']}  failures: {n['fail']}"
        f"  reschedules: {n['reschedule']}"
        f"  hb: {n['hb']}  shards: {n['trace_shard']}"
    )
    if state.skipped_lines:
        out.append(f"journal: {state.skipped_lines} corrupt line(s) skipped")

    if state.workers:
        rows = []
        for pid in sorted(state.workers):
            view = state.workers[pid]
            age = _age_s(now, view.last_ts)
            worker_state = view.state
            if worker_state == "running" and age is not None and age > stale_after_s:
                worker_state = "stale"
            attempt = "-" if view.attempt is None else view.attempt
            rows.append((pid, worker_state, _fmt_age(age), attempt, view.desc))
        out.append(f"\n-- workers ({len(rows)})")
        out.append(format_table(("pid", "state", "hb-age", "attempt", "run"), rows))

    if state.summaries:
        jain_p50, slow_p50, slow_p95 = P2Quantile(0.5), P2Quantile(0.5), P2Quantile(0.95)
        jains = []
        for summary in state.summaries.values():
            jain, p99 = summary.get("jain"), summary.get("p99_slowdown")
            if isinstance(jain, (int, float)):
                jain_p50.observe(float(jain))
                jains.append(float(jain))
            if isinstance(p99, (int, float)):
                slow_p50.observe(float(p99))
                slow_p95.observe(float(p99))
        out.append(f"\n-- streaming tail estimates ({len(state.summaries)} run(s), P2)")
        out.append(
            f"  jain p50={_fmt_opt(jain_p50.value(), '{:.3f}')}"
            f" min={_fmt_opt(min(jains, default=None), '{:.3f}')}"
            f"   p99-slowdown p50={_fmt_opt(slow_p50.value())}"
            f" p95={_fmt_opt(slow_p95.value())}"
        )

    if state.recent:
        out.append(f"\n-- recent events ({len(state.recent)})")
        for rec in state.recent:
            ts = rec.get("ts")
            age = _age_s(now, ts if isinstance(ts, (int, float)) else None)
            out.append(f"  [{_fmt_age(age):>6}] {_note(rec)}")

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
) -> JournalState:
    """Tail a journal and render frames until the campaign ends.

    ``once`` reads what exists and prints a single frame (tests/CI);
    the live loop polls every ``interval_s`` seconds, redraws on change,
    and returns when the running segment's ``end`` record is seen (or
    ``max_frames`` is reached).  Returns the final state.
    """
    import sys

    emit = write if write is not None else sys.stdout.write
    reader = JournalReader(journal_path)
    frames = 0
    while True:
        records = reader.poll(final=once)
        if once or records or frames == 0:
            frame = render_top(reader.state, stale_after_s=stale_after_s)
            if clear and not once:
                emit("\x1b[2J\x1b[H")
            emit(frame + "\n")
            frames += 1
        if once or reader.state.completed:
            return reader.state
        if max_frames is not None and frames >= max_frames:
            return reader.state
        time.sleep(interval_s)
