"""Cross-worker trace stitching: one Perfetto timeline per campaign.

A supervised campaign with ``trace_shard_dir`` set leaves behind (a) the
journal — wall-clock spans of every attempt on every worker — and (b) one
Chrome-trace shard per successful run, drained from each worker's tracer
ring.  ``obs stitch`` merges them into a single Perfetto-loadable
``trace_event`` JSON, drawn from the journal's one fold
(:class:`~repro.obs.journal.JournalState`):

* **pid 0** is the campaign track: one span per campaign segment (a
  ``--resume`` appended to the journal adds one) plus instants for
  quarantines, losses, and interruption;
* **one pid per worker process** (named ``worker <pid>``), whose ``runs``
  lane (tid 0) carries an ``X`` span per attempt — ``desc [status]``,
  where status is the ``done`` status or ``fail``, ``killed``, ``died``,
  ``lost`` or ``interrupted`` — so even runs without shards (or killed
  mid-flight) appear on the timeline;
* **shard events nest under their run span**: each shard's virtual-time
  events are linearly rescaled into the run's wall-clock window (virtual
  nanoseconds and wall seconds share no clock; rank order inside the run
  is what matters) and placed on tids offset by :data:`SHARD_TID_BASE`.

Everything is read-only over the journal + shard files; a missing or
corrupt shard degrades to the journal-only span for that run, and corrupt
journal lines are skipped and counted (``otherData.lines_skipped``).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from .journal import Span, load_journal

#: Shard event lanes start here (lane 0 is the per-worker "runs" lane).
SHARD_TID_BASE = 1

#: pid of the campaign-level track.
CAMPAIGN_PID = 0


def _meta(pid: int, name: str, value: str, tid: int = 0) -> dict:
    return {
        "ph": "M",
        "name": name,
        "pid": pid,
        "tid": tid,
        "args": {"name": value},
    }


def stitch_journal(
    journal_path: Any,
    *,
    shard_root: Optional[Any] = None,
) -> Dict[str, Any]:
    """Merge a campaign journal (+ its trace shards) into one Chrome trace.

    ``shard_root``, when given, re-roots relative shard paths (CI moves
    artifacts around); absolute paths in the journal are used as-is.
    Events keep journal order: a worker's track where the worker first
    appears, a run span where its attempt ends, a shard where it was
    recorded, and one campaign span per segment last.
    """
    state = load_journal(journal_path, strict=False)
    t0 = state.first_ts
    if t0 is None:
        raise ValueError(f"{journal_path}: no parseable journal records")

    def us(ts: float) -> float:
        return (ts - t0) * 1e6

    def window(start: float, end: float) -> Tuple[float, float]:
        return us(start), max(0.0, us(end) - us(start))

    def span_event(name: str, cat: str, pid: int, start: float, end: float) -> dict:
        ts, dur = window(start, end)
        return {"name": name, "cat": cat, "ph": "X", "ts": ts, "dur": dur,
                "pid": pid, "tid": 0}

    def timed(span: Optional[Span]) -> bool:
        return span is not None and None not in (span.start_ts, span.end_ts)

    # (journal position, rank at one position, events), sorted below
    placed: List[Tuple[int, int, List[dict]]] = [
        (w.seq, 0, [_meta(pid, "process_name", f"worker {pid}"),
                    _meta(pid, "thread_name", "runs")])
        for pid, w in state.workers.items()
    ]
    for span in filter(timed, state.spans):
        run = span_event(f"{span.desc} [{span.status}]", "run", span.pid,
                         span.start_ts, span.end_ts)
        run["args"] = {"key": span.key, "attempt": span.attempt, "status": span.status}
        placed.append((span.seq, 1, [run]))
    placed += [
        (seq, 2, [{"name": name, "cat": "campaign", "ph": "i", "s": "g",
                   "ts": us(ts), "pid": CAMPAIGN_PID, "tid": 0}])
        for seq, ts, name in state.marks if ts is not None
    ]
    shard_count = shards_missing = 0
    for seq, span, path in state.shards:
        shard = _load_shard(path, shard_root)
        if shard is None:
            shards_missing += 1
        elif timed(span):
            start_us, dur_us = window(span.start_ts, span.end_ts)
            raw = [ev for ev in shard["traceEvents"] if isinstance(ev, dict)]
            placed.append((seq, 3, rescale_events(
                raw, pid=span.pid, start_us=start_us, dur_us=dur_us)))
            shard_count += 1

    events: List[dict] = [
        _meta(CAMPAIGN_PID, "process_name", "campaign"),
        _meta(CAMPAIGN_PID, "thread_name", "phases"),
    ]
    for _, _, evs in sorted(placed, key=lambda p: p[:2]):
        events.extend(evs)
    for seg in state.segments:
        end_ts = seg.end_ts if seg.end_ts is not None else seg.last_ts
        if seg.start_ts is not None and end_ts is not None:
            events.append(span_event("campaign", "campaign", CAMPAIGN_PID,
                                     seg.start_ts, end_ts))

    other: Dict[str, Any] = {
        "journal": str(journal_path),
        "workers": len(state.workers),
        "shards_embedded": shard_count,
        "shards_missing": shards_missing,
    }
    if state.skipped_lines:
        other["lines_skipped"] = state.skipped_lines
    return {"traceEvents": events, "displayTimeUnit": "ms", "otherData": other}


def _load_shard(path: Any, shard_root: Optional[Any]) -> Optional[Dict[str, Any]]:
    if not path:
        return None
    candidates = [Path(path)]
    if shard_root is not None:
        candidates.append(Path(shard_root) / Path(path).name)
    for candidate in candidates:
        try:
            shard = json.loads(candidate.read_text())
        except (OSError, json.JSONDecodeError):
            continue
        if isinstance(shard, dict) and isinstance(shard.get("traceEvents"), list):
            return shard
    return None


def virtual_extent_us(events: List[dict]) -> float:
    """The latest timestamp (+duration) across a shard's virtual events."""
    extent = 0.0
    for ev in events:
        ts = ev.get("ts")
        if isinstance(ts, (int, float)):
            extent = max(extent, ts + (ev.get("dur") or 0.0))
    return extent


def rescale_events(
    events: List[dict],
    *,
    pid: int,
    start_us: float,
    dur_us: float,
) -> List[dict]:
    """Linearly map virtual-time events into a wall-clock window.

    This is THE virtual→wall rescale for the whole obs plane: journal
    shard events, flight-recorder link/queue series counters, and the
    fluid backend's rate/queue series all ride through here, so every
    lane of a merged Perfetto timeline shares one time base.  Virtual
    nanoseconds and wall seconds share no clock; rank order inside the
    window is what the mapping preserves.  Metadata (``ph == "M"``) and
    timestamp-less events are dropped; tids are shifted past the
    per-worker "runs" lane (:data:`SHARD_TID_BASE`).
    """
    extent = virtual_extent_us(events)
    scale = (dur_us / extent) if extent > 0 and dur_us > 0 else 0.0
    out: List[dict] = []
    seen_tids = set()
    for ev in events:
        ts = ev.get("ts")
        if ev.get("ph") == "M" or not isinstance(ts, (int, float)):
            continue
        tid = ev.get("tid", 0)
        tid = SHARD_TID_BASE + (tid if isinstance(tid, int) and tid >= 0 else 0)
        mapped = dict(ev)
        mapped["pid"] = pid
        mapped["tid"] = tid
        mapped["ts"] = start_us + ts * scale
        if isinstance(ev.get("dur"), (int, float)):
            mapped["dur"] = ev["dur"] * scale
        out.append(mapped)
        seen_tids.add(tid)
    for tid in sorted(seen_tids):
        out.append(_meta(pid, "thread_name", f"sim lane {tid - SHARD_TID_BASE}", tid))
    return out


def write_stitched(
    journal_path: Any,
    out_path: Any,
    *,
    shard_root: Optional[Any] = None,
) -> Dict[str, Any]:
    """Stitch and write; returns the trace's ``otherData`` summary."""
    trace = stitch_journal(journal_path, shard_root=shard_root)
    Path(out_path).write_text(json.dumps(trace, sort_keys=True))
    return trace["otherData"]
