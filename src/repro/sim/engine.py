"""Discrete-event simulation engine.

This is the bottom layer of the ns-3-equivalent substrate: a classic
calendar-of-events loop over the binary heap of :mod:`repro.sim.calendar`
(``heapq``'s interface and array order; native keys when the extension
built).  Design notes:

* Timestamps are ``float`` nanoseconds.  Events scheduled at identical
  timestamps are executed in FIFO scheduling order thanks to a monotonically
  increasing sequence number in the heap entries — simulation results are
  therefore fully deterministic for a given seed.
* Cancellation is *lazy*: cancelled events stay in the heap, flagged, and are
  discarded when popped.  This keeps ``cancel`` O(1), which matters because
  pacing timers are rescheduled constantly.  The simulator counts live
  cancellations exactly and compacts the heap once cancelled entries dominate
  it, so ``pending_events`` always reports *live* events and a long run
  cannot accumulate an arbitrarily large graveyard of dead entries.
* Event callbacks receive no arguments beyond those bound at scheduling time;
  components capture the simulator by reference and query :meth:`Simulator.now`
  when they need the current time.

Hot-path notes (this loop executes millions of times per experiment):

* :meth:`Simulator.schedule` pushes directly onto the heap — no delegation to
  :meth:`schedule_at` and no scheduling-into-the-past check, which a
  non-negative delay makes impossible by construction.
* Heap entries are ``(fire_time, schedule_time, seq, ev, fn, args)`` and the
  run loops call ``entry[4](*entry[5])``.  A fire-and-forget event *is* its
  entry: :meth:`Simulator.schedule_detached` and
  :meth:`Simulator.schedule_delivery` push ``ev = None`` and allocate
  nothing else.  Only the handle-returning :meth:`Simulator.schedule` /
  :meth:`Simulator.schedule_at` put an :class:`Event` in slot 3, which is
  all cancellation needs (``ev is not None and ev.cancelled``).
* Who may push an entry: this module, and :mod:`repro.sim.port` at its three
  per-packet sites (fused delivery, unfused tx-done, delivery from tx-done),
  which write the tuple out instead of paying a call per packet.  The two
  detached methods stay the single written definition of the key those
  sites must reproduce (``tests/sim/test_port.py`` compares the tuples), and
  nothing else in ``src/`` writes ``_heap`` or ``_seq``.
* Arrivals known long ahead (a trace's flow starts) go through
  :meth:`Simulator.schedule_stream`: the key is drawn at registration, as
  ``schedule_at`` would, but only each stream's earliest entry occupies the
  calendar, so a long trace neither deepens the heap nor moves a key.
* :meth:`Simulator.schedule_delivery` is the ordering-preserving primitive
  behind fused transmission (see :mod:`repro.sim.port`).  A packet delivery
  historically got its tie-break sequence number at serialization *end*
  (drawn inside the tx-done event); fusing tx-done away would draw it at
  serialization *start* and flip the execution order of same-timestamp
  events — observably, via INT queue-length stamps.  Heap entries therefore
  carry an explicit *schedule time* as the first tie-break:
  ``(fire_time, schedule_time, seq, ...)``.  For ordinary events the pair
  ``(schedule_time, seq)`` sorts identically to ``seq`` alone (sequence
  numbers are drawn monotonically in virtual time), so their semantics are
  untouched; a fused delivery is entered with ``schedule_time`` set to the
  serialization end and the sequence number the vanished tx-done event
  would have consumed — exactly the key the legacy schedule produced.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, List, Optional

from .. import probe
from .calendar import Calendar, heappop, heappush

#: Compaction trigger: sweep the heap once at least this many cancelled
#: entries exist *and* they outnumber the live ones.
_COMPACT_MIN_CANCELLED = 64

#: Process-wide executed-event total, across all Simulator instances (the
#: the perf ledger and ``--profile`` read this to derive events/second).
_TOTAL_EVENTS_EXECUTED = 0


def total_events_executed() -> int:
    """Events executed by every simulator in this process (profiling aid)."""
    return _TOTAL_EVENTS_EXECUTED


class Event:
    """A scheduled callback.

    Users obtain instances from :meth:`Simulator.schedule` and may keep them
    only to call :meth:`cancel`.  All other attributes are engine-internal.
    An event reference is dead once its entry has left the calendar (fired,
    discarded or compacted away): the engine clears ``sim`` at that moment,
    so cancelling a dead reference is a harmless no-op that no counter sees
    (detached schedules have no ``Event`` at all, so there is nothing to
    hand out or cancel).
    """

    __slots__ = ("time", "seq", "fn", "args", "cancelled", "sim")

    def __init__(self, time: float, seq: int, fn: Callable[..., None], args: tuple):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False
        self.sim: Optional["Simulator"] = None

    def cancel(self) -> None:
        """Mark the event so the engine drops it instead of firing it."""
        if not self.cancelled:
            self.cancelled = True
            sim = self.sim
            if sim is not None:
                sim._cancelled += 1
                sim.cancellations += 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        name = getattr(self.fn, "__qualname__", repr(self.fn))
        return f"<Event t={self.time:.1f}ns seq={self.seq} {name} {state}>"


class SimulationError(RuntimeError):
    """Raised for invalid engine usage (e.g. scheduling into the past)."""


class Simulator:
    """Event loop with float-nanosecond virtual time.

    Examples
    --------
    >>> sim = Simulator()
    >>> out = []
    >>> _ = sim.schedule(10.0, out.append, "a")
    >>> _ = sim.schedule(5.0, out.append, "b")
    >>> sim.run()
    >>> out
    ['b', 'a']
    >>> sim.now()
    10.0
    """

    __slots__ = (
        "_heap",
        "_now",
        "_seq",
        "_cur_seq",
        "_events_executed",
        "_running",
        "_stopped",
        "_cancelled",
        "cancellations",
        "compactions",
    )

    def __init__(self) -> None:
        # Heap entries are (fire_time, schedule_time, seq, Event | None, fn,
        # args) — see the module docstring for why schedule_time participates
        # in ordering.  The numeric prefix is unique (seq never repeats among
        # coexisting entries), so ordering never falls through to slot 3: the
        # native calendar compares unboxed keys only, the stdlib one stays
        # in C (a measured ~25% of total runtime otherwise).
        self._heap = Calendar()
        self._now: float = 0.0
        self._seq: int = 0
        # Sequence number of the event currently executing (run loop sets it
        # before each callback).  _tx_done uses it to key its delivery.
        self._cur_seq: int = 0
        self._events_executed: int = 0
        self._running: bool = False
        self._stopped: bool = False
        # Live count of cancelled-but-still-heaped entries; maintained exactly
        # by Event.cancel / the pop paths, consumed by _maybe_compact.
        self._cancelled: int = 0
        # Lifetime introspection totals (never decremented, unlike _cancelled).
        self.cancellations: int = 0
        self.compactions: int = 0

    # -- time ---------------------------------------------------------------

    def now(self) -> float:
        """Current virtual time in nanoseconds."""
        return self._now

    @property
    def events_executed(self) -> int:
        """Total number of events executed so far (profiling aid)."""
        return self._events_executed

    @property
    def pending_events(self) -> int:
        """Number of *live* (non-cancelled) events still in the heap.

        Lazily-cancelled entries are excluded, so watchdogs and budget
        accounting built on this number are not inflated by dead timers.
        """
        return len(self._heap) - self._cancelled

    @property
    def heap_size(self) -> int:
        """Raw heap length including cancelled entries (introspection aid)."""
        return len(self._heap)

    # -- scheduling ---------------------------------------------------------

    def schedule(self, delay: float, fn: Callable[..., None], *args: Any) -> Event:
        """Schedule ``fn(*args)`` to run ``delay`` ns after the current time."""
        if delay < 0.0:
            raise SimulationError(f"cannot schedule with negative delay {delay}")
        # Hot path: a non-negative delay cannot land in the past, so skip the
        # schedule_at validation and push directly.
        now = self._now
        time = now + delay
        seq = self._seq
        ev = Event(time, seq, fn, args)
        ev.sim = self
        heappush(self._heap, (time, now, seq, ev, fn, args))
        self._seq = seq + 1
        return ev

    def schedule_detached(self, delay: float, fn: Callable[..., None], *args: Any) -> None:
        """Fire-and-forget scheduling: no handle, no :class:`Event`.

        Nothing is returned, so nothing can be retained or cancelled, and
        the calendar entry is all there is to the event.  The serializer
        (:meth:`repro.sim.port.Port.try_drain`) pushes this same entry
        itself; periodic samplers and everything off the per-packet path
        call here.
        """
        if delay < 0.0:
            raise SimulationError(f"cannot schedule with negative delay {delay}")
        now = self._now
        seq = self._seq
        heappush(self._heap, (now + delay, now, seq, None, fn, args))
        self._seq = seq + 1

    def schedule_delivery(
        self,
        delay: float,
        t_end: float,
        tx_seq: Optional[int],
        fn: Callable[..., None],
        *args: Any,
    ) -> None:
        """Schedule a packet delivery, ordered as the legacy schedule would.

        ``t_end`` is the absolute time serialization finishes and ``tx_seq``
        the sequence number of the transmission-completion event (pass
        ``None`` from the fused path, which has no such event: a fresh
        number is drawn — the very number the tx-done would have consumed).
        The entry sorts at ``(t_end + delay, t_end, tx_seq)``, the exact key
        a receive scheduled from inside a tx-done event at ``t_end`` gets.
        The fire time is deliberately computed as ``t_end + delay`` — NOT
        ``now + (ser + delay)`` — because float addition is not associative
        and a one-ULP difference reorders the calendar observably.
        Detached semantics: no handle, no :class:`Event`.  The port pushes
        this same entry itself at its two delivery sites.
        """
        if tx_seq is None:
            tx_seq = self._seq
            self._seq = tx_seq + 1
        heappush(self._heap, (t_end + delay, t_end, tx_seq, None, fn, args))

    def schedule_at(self, time: float, fn: Callable[..., None], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at an absolute virtual time."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule into the past: t={time} < now={self._now}"
            )
        ev = Event(time, self._seq, fn, args)
        ev.sim = self
        heappush(self._heap, (time, self._now, self._seq, ev, fn, args))
        self._seq += 1
        return ev

    def schedule_stream(
        self, stream: List[tuple], time: float, fn: Callable[..., None], *args: Any
    ) -> None:
        """:meth:`schedule_at` without a handle, for arrivals known long ahead.

        The entry gets the key ``schedule_at(time, fn, *args)`` would give it
        *now* -- ``(time, now, seq)``, ``seq`` drawn here -- so it fires
        exactly where it always did, whatever is registered after it.  But it
        waits in ``stream`` (the caller's list, a :mod:`heapq` heap, empty at
        first), and only the stream's earliest entry is on the calendar:
        ``fn`` must call :meth:`stream_next` when it fires to put the next
        one there.  An entry earlier than the waiting head (registration out
        of time order) goes onto the calendar beside it, not into ``stream``.
        """
        if time < self._now:
            raise SimulationError(
                f"cannot schedule into the past: t={time} < now={self._now}"
            )
        seq = self._seq
        self._seq = seq + 1
        entry = (time, self._now, seq, None, fn, args)
        if stream and entry > stream[0]:
            heapq.heappush(stream, entry)  # behind the head, which is out
            return
        if not stream:
            stream.append(entry)
        heappush(self._heap, entry)

    def stream_next(self, stream: List[tuple]) -> None:
        """The executing :meth:`schedule_stream` entry hands over to the next."""
        if stream and stream[0][2] == self._cur_seq:
            heapq.heappop(stream)
            if stream:
                heappush(self._heap, stream[0])

    def cancel(self, event: Optional[Event]) -> None:
        """Cancel a previously scheduled event (None is tolerated)."""
        if event is not None:
            event.cancel()

    def _maybe_compact(self) -> None:
        """Sweep cancelled entries out of the heap once they dominate it.

        Compaction preserves (time, seq) ordering exactly — it only removes
        entries the run loop would have discarded anyway — so results are
        unchanged; what changes is that ``pending_events`` readers and the
        heap itself no longer pay for an unbounded graveyard of dead timers.
        """
        if self._cancelled >= _COMPACT_MIN_CANCELLED and (
            self._cancelled * 2 > len(self._heap)
        ):
            self._compact()

    def _compact(self) -> None:
        self.compactions += 1
        live = []
        for entry in self._heap:
            ev = entry[3]
            if ev is None or not ev.cancelled:
                live.append(entry)
            else:
                ev.sim = None
        self._heap = Calendar(live)
        self._cancelled = 0

    def close(self) -> None:
        """Drop everything pending (the simulator is finished with), handles
        included: entries and handles hold bound methods of ports, hosts and
        timers, the cycles that keep a finished network from being freed."""
        for entry in self._heap:
            ev = entry[3]
            if ev is not None:
                ev.sim = ev.fn = ev.args = None
        self._heap = Calendar()
        self._cancelled = 0

    # -- execution ----------------------------------------------------------

    def stop(self) -> None:
        """Request the run loop to stop after the current event."""
        self._stopped = True

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> None:
        """Execute events in timestamp order.

        Parameters
        ----------
        until:
            If given, stop once the next event's timestamp exceeds ``until``;
            virtual time is advanced to exactly ``until``.  Events *at*
            ``until`` are executed.
        max_events:
            If given, stop after executing this many events (safety valve for
            runaway feedback loops in tests).  Zero or less executes nothing.
        """
        global _TOTAL_EVENTS_EXECUTED
        # The loops test the limit after a callback, so an exhausted budget
        # is turned away here.
        if max_events is not None and max_events <= 0:
            return
        if self._running:
            raise SimulationError("Simulator.run() is not reentrant")
        self._running = True
        self._stopped = False
        heap = self._heap
        # The probe is read once per run(): the loops pay one local None test
        # per event unless a plane subscribes to ``event``, and what the run
        # did is reported as deltas at exit.  Dispatch, not inline hooks: the
        # fast loop must carry zero profiler instructions
        # (tests/sim/test_engine_hotpath.py asserts its bytecode is clean of
        # them), so the profiled variant is a separate twin loop.
        pr = probe.PROBE
        on_event = pr.event if pr is not None and pr.handles("event") else None
        profiled = pr is not None and pr.handles("phase_push")
        executed_before = self._events_executed
        seq_before = self._seq
        cancels_before = self.cancellations
        compactions_before = self.compactions
        if profiled:
            # Loop bookkeeping (heap ops, cancelled discards, the compaction
            # sweep) accrues here; each callback runs under its own phase.
            pr.phase_push("engine.loop")
        try:
            if profiled:
                self._run_profiled(until, max_events, heap, on_event, pr)
            else:
                self._run_fast(until, max_events, heap, on_event)
            if until is not None and not self._stopped and self._now < until:
                # Advance the clock even if the heap drained early so that
                # "run for 50 ms" semantics hold for monitors reading now().
                if not heap or heap[0][0] > until:
                    self._now = until
            self._maybe_compact()
        finally:
            if profiled:
                pr.phase_pop()
            self._running = False
            executed = self._events_executed - executed_before
            _TOTAL_EVENTS_EXECUTED += executed
            if pr is not None:
                pr.run_end(
                    self._now,
                    executed,
                    self._seq - seq_before,
                    self.cancellations - cancels_before,
                    self.compactions - compactions_before,
                    len(heap),  # the calendar the run started on, even if swept since
                )

    def _run_fast(
        self, until: Optional[float], max_events: Optional[int], heap: Any, on_event: Any
    ) -> None:
        executed = 0
        try:
            while heap and not self._stopped:
                entry = heap[0]
                ev = entry[3]
                if ev is not None and ev.cancelled:
                    heappop(heap)
                    self._cancelled -= 1
                    ev.sim = None
                    continue
                t = entry[0]
                if until is not None and t > until:
                    break
                heappop(heap)
                if ev is not None:
                    # Off the calendar: a late cancel() must not be counted.
                    ev.sim = None
                if on_event is not None:
                    on_event(t, self._now)
                self._now = t
                self._cur_seq = entry[2]
                entry[4](*entry[5])
                executed += 1
                if max_events is not None and executed >= max_events:
                    break
        finally:
            self._events_executed += executed

    def _run_profiled(
        self,
        until: Optional[float],
        max_events: Optional[int],
        heap: Any,
        on_event: Any,
        pr: "probe.Probe",
    ) -> None:
        """Twin of :meth:`_run_fast` with per-event phase attribution.

        Semantically identical — same heap discipline, same counters — so
        outputs stay byte-identical with profiling on; the only addition is
        the push/pop pair around each callback, under the phase the
        profiler's ``phase_of`` assigns to it.
        """
        classify = pr.phase_of
        prof_push = pr.phase_push
        prof_pop = pr.phase_pop
        executed = 0
        try:
            while heap and not self._stopped:
                entry = heap[0]
                ev = entry[3]
                if ev is not None and ev.cancelled:
                    heappop(heap)
                    self._cancelled -= 1
                    ev.sim = None
                    continue
                t = entry[0]
                if until is not None and t > until:
                    break
                heappop(heap)
                if ev is not None:
                    # Off the calendar: a late cancel() must not be counted.
                    ev.sim = None
                if on_event is not None:
                    on_event(t, self._now)
                self._now = t
                self._cur_seq = entry[2]
                fn = entry[4]
                prof_push(classify(fn))
                try:
                    fn(*entry[5])
                finally:
                    prof_pop()
                executed += 1
                if max_events is not None and executed >= max_events:
                    break
        finally:
            self._events_executed += executed

    def run_until_idle(self, max_events: Optional[int] = None) -> None:
        """Run until no events remain (or ``max_events`` executed)."""
        self.run(until=None, max_events=max_events)

    def peek_time(self) -> Optional[float]:
        """Timestamp of the next live event, or ``None`` if the heap is empty."""
        heap = self._heap
        while heap and heap[0][3] is not None and heap[0][3].cancelled:
            heappop(heap)[3].sim = None
            self._cancelled -= 1
        return heap[0][0] if heap else None
