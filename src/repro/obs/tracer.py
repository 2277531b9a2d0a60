"""Structured event tracer: typed spans/instants into a bounded ring buffer.

The tracer records *what the simulation did* — flow lifecycles, MD/AI
decisions, fault windows, queue high-watermarks — as typed records in a
bounded ring (:class:`collections.deque` with ``maxlen``), and exports them
as Chrome ``trace_event`` JSON (loadable in Perfetto / ``chrome://tracing``)
or CSV.

Like the metric registry, the tracer is one of the planes of
:mod:`repro.probe`: its ``on_<event>`` methods subscribe to the simulator's
events and are where every span / instant / counter name and argument dict
is formatted.  Recording is strictly passive: no events are scheduled, no
RNG is drawn, so traced runs are byte-identical to untraced ones.

Record shape (one tuple per event, cheap to append)::

    (ph, name, cat, ts_ns, dur_ns, tid, args)

where ``ph`` is the Chrome phase — ``"X"`` complete span, ``"i"`` instant,
``"C"`` counter sample — ``ts_ns``/``dur_ns`` are virtual nanoseconds,
``tid`` is a small integer lane (flow id, node id, ...), and ``args`` is a
dict or ``None``.

Chrome's ``ts`` field is *microseconds*; the exporter converts.  The ring
drops the **oldest** records once full (``dropped`` counts them), which is
the right bias for post-mortem use: the end of a run is where incast
collapse, drains, and stragglers live.
"""

from __future__ import annotations

import json
from collections import deque
from typing import Any, Dict, List, Optional

from .. import probe
from ..sim.trace import rows_to_csv
from . import registry as obs_registry

#: Default ring capacity; ~65k events is a few MB and loads instantly in
#: Perfetto.  Pass a larger capacity for long trace-everything runs.
DEFAULT_CAPACITY = 65_536

#: Chrome phase codes (subset used here).
PH_COMPLETE = "X"
PH_INSTANT = "i"
PH_COUNTER = "C"


class EventTracer:
    """Bounded ring of typed trace records with Chrome/CSV export."""

    __slots__ = ("capacity", "_ring", "emitted", "dropped")

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        if capacity < 1:
            raise ValueError(f"tracer capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._ring: deque = deque(maxlen=capacity)
        self.emitted = 0  # total records ever offered
        self.dropped = 0  # records evicted by ring overflow

    # -- recording ---------------------------------------------------------

    def _push(self, record: tuple) -> None:
        ring = self._ring
        if len(ring) == self.capacity:
            self.dropped += 1
            # Overflow is a first-class signal: surface it in the registry
            # so manifests/exports carry it and `obs report` can warn that
            # the trace was truncated.  Off the common path — only paid
            # once the ring is already full.
            reg = obs_registry.get()
            if reg is not None:
                reg.counter("tracer.ring_dropped").inc()
        ring.append(record)
        self.emitted += 1

    def instant(
        self,
        name: str,
        ts_ns: float,
        *,
        cat: str = "sim",
        tid: int = 0,
        args: Optional[dict] = None,
    ) -> None:
        """A point event (Chrome phase ``i``)."""
        self._push((PH_INSTANT, name, cat, ts_ns, 0.0, tid, args))

    def complete(
        self,
        name: str,
        start_ns: float,
        dur_ns: float,
        *,
        cat: str = "sim",
        tid: int = 0,
        args: Optional[dict] = None,
    ) -> None:
        """A span with explicit start and duration (Chrome phase ``X``)."""
        self._push((PH_COMPLETE, name, cat, start_ns, dur_ns, tid, args))

    def counter(
        self,
        name: str,
        ts_ns: float,
        values: Dict[str, float],
        *,
        cat: str = "sim",
    ) -> None:
        """A counter sample (Chrome phase ``C``); plots as a track."""
        self._push((PH_COUNTER, name, cat, ts_ns, 0.0, 0, dict(values)))

    # -- probe events ------------------------------------------------------

    def on_queue_max(self, port: Any, now: float) -> None:
        # Queue high-watermark: one counter sample per new maximum renders
        # as a rising staircase track in Perfetto.
        self.counter(
            f"qmax {port.owner.name}.p{port.index}",
            now,
            {"bytes": port.max_qlen_seen},
            cat="queue",
        )

    def on_pause(self, port: Any, now: float, duration_ns: float) -> None:
        self.complete(
            f"pfc pause {port.owner.name}.p{port.index}",
            now,
            duration_ns,
            cat="pfc",
            tid=port.owner.node_id,
        )

    def on_flow_complete(self, state: Any, now: float) -> None:
        # Flow lifecycle as one complete span: start -> last ACK.
        flow = state.flow
        self.complete(
            f"flow {flow.flow_id}",
            flow.start_time,
            now - flow.start_time,
            cat="flow",
            tid=flow.flow_id,
            args={
                "src": flow.src,
                "dst": flow.dst,
                "size_bytes": flow.size,
                "retransmits": flow.retransmits,
            },
        )

    def on_retx(self, state: Any, now: float) -> None:
        flow_id = state.flow.flow_id
        self.instant(
            f"rto flow {flow_id}",
            now,
            cat="loss",
            tid=flow_id,
            args={"rewind_to": state.acked, "backoff": state.rto_backoff},
        )

    def on_cc_decrease(self, family: str, flow_id: int, now: float, detail: dict) -> None:
        self.instant(f"{family} md flow {flow_id}", now, cat="cc", tid=flow_id, args=detail)

    def on_link_state(self, now: float, a: int, b: int, up: bool) -> None:
        self.instant(
            f"link {a}-{b} {'up' if up else 'down'}",
            now,
            cat="fault",
            args={"a": a, "b": b, "up": up},
        )

    def on_switch_state(self, now: float, switch_id: int, up: bool) -> None:
        self.instant(
            f"switch {switch_id} {'up' if up else 'down'}",
            now,
            cat="fault",
            args={"switch": switch_id, "up": up},
        )

    # -- access ------------------------------------------------------------

    def events(self) -> List[tuple]:
        """The retained records, oldest first."""
        return list(self._ring)

    def __len__(self) -> int:
        return len(self._ring)

    def clear(self) -> None:
        self._ring.clear()

    # -- export ------------------------------------------------------------

    def to_chrome(self) -> dict:
        """The retained trace as a Chrome ``trace_event`` object.

        Times convert from virtual nanoseconds to the microseconds the
        format specifies; ``pid`` is always 0 (one simulated world).
        """
        trace_events = []
        for ph, name, cat, ts_ns, dur_ns, tid, args in self._ring:
            ev: dict = {
                "name": name,
                "cat": cat,
                "ph": ph,
                "ts": ts_ns / 1_000.0,
                "pid": 0,
                "tid": tid,
            }
            if ph == PH_COMPLETE:
                ev["dur"] = dur_ns / 1_000.0
            elif ph == PH_INSTANT:
                ev["s"] = "t"  # thread-scoped instant
            if args:
                ev["args"] = args
            trace_events.append(ev)
        return {
            "traceEvents": trace_events,
            "displayTimeUnit": "ns",
            "otherData": {"emitted": self.emitted, "dropped": self.dropped},
        }

    def to_chrome_json(self) -> str:
        return json.dumps(self.to_chrome(), sort_keys=True)

    def drain_chrome(self) -> dict:
        """Export as Chrome JSON, then clear the ring and its counters.

        Supervised-campaign workers call this after each run to ship a
        per-run trace shard back to the parent (``obs stitch`` merges the
        shards); resetting ``emitted``/``dropped`` makes each shard's
        ``otherData`` describe that shard alone.
        """
        out = self.to_chrome()
        self._ring.clear()
        self.emitted = 0
        self.dropped = 0
        return out

    def to_csv(self) -> str:
        """Retained records as deterministic CSV (args JSON-encoded)."""
        rows = [
            {
                "ph": ph,
                "name": name,
                "cat": cat,
                "ts_ns": ts_ns,
                "dur_ns": dur_ns,
                "tid": tid,
                "args": json.dumps(args, sort_keys=True) if args else "",
            }
            for ph, name, cat, ts_ns, dur_ns, tid, args in self._ring
        ]
        return rows_to_csv(
            ("ph", "name", "cat", "ts_ns", "dur_ns", "tid", "args"), rows
        )


_SLOT = probe.Slot("tracer")
#: Remove the tracer / whether one is attached / the attached one or None.
disable, enabled, get = _SLOT.detach, _SLOT.enabled, _SLOT.get


def enable(
    tracer: Optional[EventTracer] = None, *, capacity: int = DEFAULT_CAPACITY
) -> EventTracer:
    """Attach (and return) the process-wide tracer."""
    return _SLOT.attach(tracer if tracer is not None else EventTracer(capacity))
