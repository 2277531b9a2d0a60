"""The one instrumentation seam between the simulator and everything that
watches it.

``sim/``, ``cc/`` and ``core/`` know this module and nothing of
:mod:`repro.obs` or :mod:`repro.check`.  An instrumented site reads one
global and makes at most one call::

    pr = probe.PROBE
    if pr is not None:
        pr.enqueue(self, pkt, now)

:data:`PROBE` is ``None`` iff no plane is attached, so a bare run pays one
global read and one identity test per site.  The planes (sanitizer, metric
registry, tracer, flight recorder, phase profiler) *subscribe*: a plane
handles event ``x`` by having a method ``on_x`` with that event's
arguments.  Whenever a plane attaches or detaches the :class:`Probe` is
rebuilt, so that each event attribute is the one subscriber's bound
method, a closure calling each in :data:`PLANES` order where several
subscribe, and a shared no-op where none does: nothing is looked up or
looped over when a site fires.

Planes only observe.  A handler never schedules an event, draws a random
number or writes simulation state, which is what keeps an instrumented run
byte-identical to a bare one (``tests/obs/test_plane_golden.py``).

This module imports nothing from :mod:`repro`.
"""

from __future__ import annotations

from contextlib import contextmanager
from functools import reduce
from typing import Any, Callable, Dict, Iterator, Optional, Sequence

#: The vocabulary: event -> the arguments every handler of it takes.
#: DESIGN.md sec. 9 lists the site and the subscribers of each.
EVENTS: Dict[str, str] = {
    # runner, engine
    "run_begin": "kind, cfg",
    "event": "fire_time, now",
    "run_end": "now, executed, scheduled, cancelled, compactions, heap_len",
    "phase_push": "name",
    "phase_pop": "",
    "phase_of": "fn",  # -> phase name; the profiler is the only subscriber
    # port
    "enqueue": "port, pkt, now",
    "queue_max": "port, now",
    "dequeue": "port, pkt, now, ser_ns, fused",
    "drop": "port, pkt, ingress, reason",
    "pause": "port, now, duration_ns",
    "resume": "port, now",
    # PFC ingress accounting, switch
    "pfc_xoff": "occupancy",
    "pfc_xon": "",
    "pfc_occupancy": "occupancy",
    "switch_forward": "switch, pkt, out",
    # host
    "flow_start": "state",
    "send": "state, pkt, now",
    "data": "state, pkt",
    "ack": "state, pkt, now",
    "flow_complete": "state, now",
    "retx": "state, now",
    "late_packet": "host, pkt",
    "corrupt_discard": "host, pkt",
    # congestion control and the paper's two mechanisms
    "cc_decrease": "family, flow_id, now, detail",
    "cc_increase": "family, flow_id, now",
    "vai": "vai, banked, spent, multiplier",
    "sf_ack": "sf, granted",
    "sf_reset": "sf",
    # faults
    "fault_corrupt": "port, pkt",
    "link_state": "now, a, b, up",
    "switch_state": "now, switch_id, up",
    # fluid engine
    "fluid_series": "engine, flow_ids",
}

#: Attach points, in the order their handlers run when several planes
#: subscribe to one event.
PLANES = ("sanitizer", "registry", "tracer", "recorder", "profiler")


def _noop(a: Any = None, b: Any = None, c: Any = None, d: Any = None, e: Any = None,
          f: Any = None) -> None:
    """What an event nobody subscribes to calls.  Six optional positionals
    (the widest event's count), not ``*args``: packing a tuple per call costs
    half as much again (63 vs 43 ns), on every site of a one-plane run."""


def _both(first: Callable[..., Any], second: Callable[..., Any]) -> Callable[..., None]:
    def both(*args: Any) -> None:
        first(*args)
        second(*args)

    return both


class Probe:
    """One callable per event, bound for the planes attached right now."""

    __slots__ = tuple(EVENTS)

    def __init__(self, planes: Sequence[Any]):
        for name in EVENTS:
            handlers = [
                handler
                for handler in (getattr(plane, "on_" + name, None) for plane in planes)
                if handler is not None
            ]
            setattr(self, name, reduce(_both, handlers) if handlers else _noop)

    def handles(self, name: str) -> bool:
        """Whether any plane subscribes to ``name``.  For code that hoists a
        per-event handler out of a loop and wants ``None`` for "nobody"."""
        return getattr(self, name) is not _noop


#: What instrumented sites read.  ``None`` iff nothing is attached.
PROBE: Optional[Probe] = None

_attached: Dict[str, Any] = {}


def _rebuild() -> None:
    global PROBE
    planes = [_attached[name] for name in PLANES if name in _attached]
    PROBE = Probe(planes) if planes else None


def detach_all() -> None:
    """Back to a bare process (a forked campaign worker starts here)."""
    _attached.clear()
    _rebuild()


class Slot:
    """One plane's attach point: what its module's ``enable`` / ``disable`` /
    ``enabled`` / ``get`` / ``capture`` are made of."""

    def __init__(self, name: str):
        if name not in PLANES:
            raise ValueError(f"unknown plane {name!r} (want one of {PLANES})")
        self.name = name

    def attach(self, plane: Any) -> Any:
        _attached[self.name] = plane
        _rebuild()
        return plane

    def detach(self) -> Optional[Any]:
        """Remove and return the attached plane (``None`` if there is none)."""
        plane = _attached.pop(self.name, None)
        _rebuild()
        return plane

    def get(self) -> Optional[Any]:
        return _attached.get(self.name)

    def enabled(self) -> bool:
        return self.name in _attached

    @contextmanager
    def capture(self, plane: Any) -> Iterator[Any]:
        """Attach ``plane`` for a ``with`` block, then put back whatever was
        attached before (usually nothing), so tests never leak a plane."""
        previous = self.get()
        self.attach(plane)
        try:
            yield plane
        finally:
            if previous is None:
                self.detach()
            else:
                self.attach(previous)
