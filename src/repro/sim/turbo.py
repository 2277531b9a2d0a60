"""Turbo packet core: struct-of-arrays state + timing-wheel scheduler.

This is the opt-in ``engine="turbo"`` implementation of the packet-accurate
simulator.  The reference engine (:mod:`repro.sim.engine`) stays untouched as
ground truth; everything here is an alternative implementation of the *same*
semantics, and CI proves the two produce **byte-identical** FCT digests on
the reference figures (``repro-experiments check differential --engines``).

What changes, and why it cannot change results:

* **Scheduler** — :class:`TurboSimulator` replaces the single global heap
  with a :class:`repro.sim.wheel.TimingWheel`.  The wheel reproduces the
  heap's total order ``(fire_time, schedule_time, seq)`` exactly (see the
  wheel module docstring for the argument), so event execution order — the
  only thing the scheduler can observably affect — is identical.  The
  wheel-push logic is inlined into the four ``schedule_*`` methods (the
  hottest calls in the simulator; a method call per event is measurable).

* **Struct-of-arrays state** — :class:`TurboCore` keeps per-flow delivered /
  acked / done columns as NumPy arrays (written through on the receive path)
  and gathers per-port queue/byte tallies into dense arrays on demand.  The
  columns are *mirrors* of the authoritative per-object scalars, so nothing
  downstream sees different values; they exist to make the batch consumers —
  completion checks, goodput sampling, bench probes — O(1)/vectorized
  instead of per-flow dict walks.  (Scalar hot-path tallies deliberately
  stay plain Python attributes: a NumPy scalar store costs several times an
  attribute store, so mirroring is only done where a batch reader exists.)

* **Flattened datapath** — :class:`TurboPort`, :class:`TurboSwitch` and
  :class:`TurboHost` override the per-packet methods with semantically
  identical bodies that hoist attribute lookups, inline the single-call
  helpers (``is_control``, ``end_seq``, ``route``, ``serialization_ns``,
  PFC accounting) and index flows through dense per-id slot lists instead
  of dict lookups.  Every observable side-effect (counters, sanitizer /
  flight-recorder / tracer hooks, RNG draws, event scheduling) happens in
  the same order with the same values.  (Extending transmit fusion to
  *forwarded* packets was evaluated and rejected: a packet arriving
  mid-serialization arms a wake whose tie-break key differs from the
  tx-done it replaces, which the ``--engines`` digest matrix caught as a
  real reordering on the fig-9 preset.)

Observability contract: the sanitizer (``check_invariants``), flight
recorder, phase profiler and tracer all work on the turbo path — the hooks
are inherited or replicated verbatim — so the ``--engines`` matrix can
assert identity with each of them enabled.

NumPy is required (the ``[perf]`` extra); constructing any turbo component
without it raises ImportError with an actionable message, and the test suite
skips (not fails) turbo cases in its absence.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, List, Optional

try:  # pragma: no cover - exercised via require_numpy in both branches
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

from ..check import invariants as check_invariants
from ..obs import flightrec as obs_flightrec
from ..obs import profiler as obs_profiler
from ..obs import registry as obs_registry
from ..obs import tracer as obs_tracer
from . import engine as _engine
from .engine import _COMPACT_MIN_CANCELLED, Event, SimulationError, Simulator
from .host import Host
from .monitor import GoodputMonitor
from .packet import ACK, CNP, DATA, HopRecord, Packet
from .port import FAULT_CORRUPT, FAULT_DROP, Port
from .switch import RoutingError, Switch
from .wheel import TimingWheel


def require_numpy():
    """Return numpy or raise an actionable ImportError (the [perf] gate)."""
    if _np is None:
        raise ImportError(
            "engine='turbo' requires numpy (the struct-of-arrays state "
            "columns are numpy arrays). Install it via the perf extra — "
            "pip install 'repro[perf]' — or run with the default "
            "engine='reference', which has no numpy dependency here."
        )
    return _np


# ---------------------------------------------------------------------------
# Struct-of-arrays state
# ---------------------------------------------------------------------------


class TurboCore:
    """Struct-of-arrays mirrors of per-flow and per-port hot state.

    Flow columns are indexed by ``flow_id`` (experiment flow ids are dense,
    starting at 0; the arrays grow amortized-doubling if they are not).  The
    receive path writes ``flow_received`` / ``flow_acked`` through as the
    authoritative per-object scalars change, so batch readers — the goodput
    sampler, the completion check, bench probes — get current values without
    touching any per-flow object.
    """

    __slots__ = (
        "flow_received",
        "flow_acked",
        "flow_done",
        "n_flows",
        "active",
        "ports",
    )

    def __init__(self, initial_capacity: int = 64):
        np = require_numpy()
        cap = max(int(initial_capacity), 1)
        self.flow_received = np.zeros(cap, dtype=np.int64)
        self.flow_acked = np.zeros(cap, dtype=np.int64)
        self.flow_done = np.zeros(cap, dtype=bool)
        #: One past the highest registered flow id (the live column extent).
        self.n_flows = 0
        #: Registered-but-not-completed flow count; the O(1) completion check.
        self.active = 0
        #: Every port in the network, in wiring order (see register_port).
        self.ports: List[Port] = []

    # -- flows ---------------------------------------------------------------

    def register_flow(self, flow) -> None:
        fid = flow.flow_id
        if fid < 0:
            raise ValueError(f"flow id must be non-negative, got {fid}")
        cap = len(self.flow_received)
        if fid >= cap:
            np = _np
            new_cap = max(cap * 2, fid + 1)
            for name in ("flow_received", "flow_acked", "flow_done"):
                old = getattr(self, name)
                grown = np.zeros(new_cap, dtype=old.dtype)
                grown[: len(old)] = old
                setattr(self, name, grown)
        if fid >= self.n_flows:
            self.n_flows = fid + 1
        self.active += 1

    def mark_done(self, flow) -> None:
        self.flow_done[flow.flow_id] = True
        self.active -= 1

    def all_done(self) -> bool:
        return self.active == 0

    # -- ports ---------------------------------------------------------------

    def register_port(self, port: Port) -> None:
        self.ports.append(port)

    def port_queue_bytes(self):
        """Per-port queue occupancy gathered into one float64 array."""
        np = _np
        return np.fromiter(
            (p.queue_bytes for p in self.ports), dtype=np.float64, count=len(self.ports)
        )

    def port_tx_bytes(self):
        """Per-port cumulative transmitted bytes as one float64 array."""
        np = _np
        return np.fromiter(
            (p.tx_bytes for p in self.ports), dtype=np.float64, count=len(self.ports)
        )


# ---------------------------------------------------------------------------
# Engine
# ---------------------------------------------------------------------------

#: Cap on the free list of detached events.
_POOL_MAX = 4096


class TurboEvent(Event):
    """The wheel's event: every entry carries one, detached ones are pooled.

    Wheel entries are ``(fire_time, schedule_time, seq, TurboEvent)``.  The
    reference engine's detached entries carry the callback instead of an
    event object, so the ``detached`` flag and the free list it feeds
    (``TurboSimulator._pool``) exist only here.
    """

    __slots__ = ("detached",)

    def __init__(self, time: float, seq: int, fn: Callable[..., None], args: tuple):
        # Event.__init__'s stores written out: one frame per event, not two.
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False
        self.sim = None
        self.detached = False


class TurboSimulator(Simulator):
    """Drop-in :class:`~repro.sim.engine.Simulator` on a timing wheel.

    The public API, counters, sanitizer/flight-recorder/profiler hooks,
    lazy-cancellation accounting and compaction policy are all identical to
    the reference engine; only the pending-event container differs.  The
    inherited ``_heap`` stays empty — every entry lives in :attr:`wheel`.

    Each ``schedule_*`` method inlines :meth:`TimingWheel.push` (same logic,
    no method call): ``idx <= cur`` folds the float-dust clamp and the
    current-bucket case together, both landing a ``heappush`` into the
    (always heap-ordered) current bucket.
    """

    __slots__ = ("wheel", "_bucket_ns", "_n_buckets", "_pool")

    def __init__(
        self,
        bucket_ns: Optional[float] = None,
        n_buckets: Optional[int] = None,
    ) -> None:
        require_numpy()
        super().__init__()
        kwargs = {}
        if bucket_ns is not None:
            kwargs["bucket_ns"] = bucket_ns
        if n_buckets is not None:
            kwargs["n_buckets"] = n_buckets
        self.wheel = TimingWheel(**kwargs)
        # Immutable wheel geometry, cached for the inlined push fast paths.
        self._bucket_ns = self.wheel.bucket_ns
        self._n_buckets = self.wheel.n_buckets
        # Free list of detached events: nothing hands them out, so one that
        # has fired (or was swept) can serve a later detached schedule.
        self._pool: List[TurboEvent] = []

    # -- scheduling (wheel-backed twins of the reference methods) ------------

    def schedule(self, delay: float, fn: Callable[..., None], *args: Any) -> Event:
        if delay < 0.0:
            raise SimulationError(f"cannot schedule with negative delay {delay}")
        now = self._now
        time = now + delay
        seq = self._seq
        ev = TurboEvent(time, seq, fn, args)
        ev.sim = self
        wheel = self.wheel
        idx = int(time // self._bucket_ns)
        cur = wheel._cur
        if idx <= cur:
            heappush(wheel.current, (time, now, seq, ev))
            wheel._wheel_count += 1
        elif idx - cur >= self._n_buckets:
            heappush(wheel._overflow, (time, now, seq, ev))
        else:
            wheel._buckets[idx % self._n_buckets].append((time, now, seq, ev))
            wheel._wheel_count += 1
        self._seq = seq + 1
        return ev

    def schedule_detached(self, delay: float, fn: Callable[..., None], *args: Any) -> None:
        if delay < 0.0:
            raise SimulationError(f"cannot schedule with negative delay {delay}")
        now = self._now
        time = now + delay
        seq = self._seq
        pool = self._pool
        if pool:
            ev = pool.pop()
            ev.time = time
            ev.seq = seq
            ev.fn = fn
            ev.args = args
            ev.cancelled = False
        else:
            ev = TurboEvent(time, seq, fn, args)
            ev.sim = self
            ev.detached = True
        wheel = self.wheel
        idx = int(time // self._bucket_ns)
        cur = wheel._cur
        if idx <= cur:
            heappush(wheel.current, (time, now, seq, ev))
            wheel._wheel_count += 1
        elif idx - cur >= self._n_buckets:
            heappush(wheel._overflow, (time, now, seq, ev))
        else:
            wheel._buckets[idx % self._n_buckets].append((time, now, seq, ev))
            wheel._wheel_count += 1
        self._seq = seq + 1

    def schedule_delivery(
        self,
        delay: float,
        t_end: float,
        tx_seq: Optional[int],
        fn: Callable[..., None],
        *args: Any,
    ) -> None:
        time = t_end + delay
        if tx_seq is None:
            tx_seq = self._seq
            self._seq = tx_seq + 1
        pool = self._pool
        if pool:
            ev = pool.pop()
            ev.time = time
            ev.seq = tx_seq
            ev.fn = fn
            ev.args = args
            ev.cancelled = False
        else:
            ev = TurboEvent(time, tx_seq, fn, args)
            ev.sim = self
            ev.detached = True
        wheel = self.wheel
        idx = int(time // self._bucket_ns)
        cur = wheel._cur
        if idx <= cur:
            heappush(wheel.current, (time, t_end, tx_seq, ev))
            wheel._wheel_count += 1
        elif idx - cur >= self._n_buckets:
            heappush(wheel._overflow, (time, t_end, tx_seq, ev))
        else:
            wheel._buckets[idx % self._n_buckets].append((time, t_end, tx_seq, ev))
            wheel._wheel_count += 1

    def schedule_at(self, time: float, fn: Callable[..., None], *args: Any) -> Event:
        if time < self._now:
            raise SimulationError(
                f"cannot schedule into the past: t={time} < now={self._now}"
            )
        seq = self._seq
        ev = TurboEvent(time, seq, fn, args)
        ev.sim = self
        now = self._now
        wheel = self.wheel
        idx = int(time // self._bucket_ns)
        cur = wheel._cur
        if idx <= cur:
            heappush(wheel.current, (time, now, seq, ev))
            wheel._wheel_count += 1
        elif idx - cur >= self._n_buckets:
            heappush(wheel._overflow, (time, now, seq, ev))
        else:
            wheel._buckets[idx % self._n_buckets].append((time, now, seq, ev))
            wheel._wheel_count += 1
        self._seq = seq + 1
        return ev

    # -- introspection -------------------------------------------------------

    @property
    def pending_events(self) -> int:
        return self.wheel.size - self._cancelled

    @property
    def heap_size(self) -> int:
        return self.wheel.size

    def peek_time(self) -> Optional[float]:
        # Non-mutating on purpose: advancing the wheel cursor between runs
        # would let later pushes land behind it (see TimingWheel.find_min_live).
        entry = self.wheel.find_min_live()
        return entry[0] if entry is not None else None

    # -- compaction ----------------------------------------------------------

    def _maybe_compact(self) -> None:
        if self._cancelled >= _COMPACT_MIN_CANCELLED and (
            self._cancelled * 2 > self.wheel.size
        ):
            self._compact()

    def _compact(self) -> None:
        self.compactions += 1
        dropped = self.wheel.compact()
        pool = self._pool
        for ev in dropped:
            if ev.detached and len(pool) < _POOL_MAX:
                ev.fn = ev.args = None
                pool.append(ev)
        self._cancelled = 0

    # -- execution -----------------------------------------------------------

    def _run_fast(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> None:
        if self._running:
            raise SimulationError("Simulator.run() is not reentrant")
        self._running = True
        self._stopped = False
        executed = 0
        wheel = self.wheel
        peek = wheel.peek_until
        pool = self._pool
        reg = obs_registry.STATS
        chk = check_invariants.CHECKER
        if reg is not None:
            seq_before = self._seq
            cancels_before = self.cancellations
            compactions_before = self.compactions
        # Set exactly when the loop proved no event fires at or before
        # ``until`` — the only exits where the clock may advance to it.
        drained = False
        # Pops are tallied locally and settled onto the wheel's counters
        # before any peek (which consults them) and at loop exit; pushes from
        # inside callbacks update the wheel directly, so the wheel's counters
        # are only ever stale by exactly ``popped``.
        popped = 0
        cur_list = wheel.current
        try:
            while not self._stopped:
                if cur_list:
                    entry = cur_list[0]
                else:
                    if popped:
                        wheel._wheel_count -= popped
                        popped = 0
                    entry = peek(until)
                    if entry is None:
                        drained = True
                        break
                    cur_list = wheel.current
                ev = entry[3]
                if ev.cancelled:
                    heappop(cur_list)
                    popped += 1
                    self._cancelled -= 1
                    if ev.detached and len(pool) < _POOL_MAX:
                        ev.fn = ev.args = None
                        pool.append(ev)
                    continue
                t = entry[0]
                if until is not None and t > until:
                    drained = True
                    break
                heappop(cur_list)
                popped += 1
                if chk is not None:
                    chk.on_event(t, self._now)
                self._now = t
                self._cur_seq = entry[2]
                ev.fn(*ev.args)
                self._events_executed += 1
                executed += 1
                if ev.detached and len(pool) < _POOL_MAX:
                    ev.fn = ev.args = None
                    pool.append(ev)
                if max_events is not None and executed >= max_events:
                    break
            if popped:
                wheel._wheel_count -= popped
                popped = 0
            if until is not None and not self._stopped and self._now < until:
                if drained:
                    self._now = until
                else:
                    # max_events exit: mirror the reference's raw-head
                    # comparison (cancelled entries included, cursor fixed).
                    head = wheel.find_min_any()
                    if head is None or head[0] > until:
                        self._now = until
            self._maybe_compact()
        finally:
            if popped:  # a callback raised mid-loop: settle the counters
                wheel._wheel_count -= popped
            self._running = False
            _engine._TOTAL_EVENTS_EXECUTED += executed
            if reg is not None:
                reg.counter("engine.events_executed").inc(executed)
                reg.counter("engine.events_scheduled").inc(self._seq - seq_before)
                reg.counter("engine.events_cancelled").inc(
                    self.cancellations - cancels_before
                )
                reg.counter("engine.heap_compactions").inc(
                    self.compactions - compactions_before
                )
                reg.gauge("engine.heap_peak").update_max(wheel.size)

    def _run_profiled(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> None:
        """Twin of :meth:`_run_fast` with per-event phase attribution.

        Same wheel discipline, same counters, same clock advancement — so
        outputs stay byte-identical with profiling on; the only additions
        are the profiler push/pop pairs (see the reference engine's twin).
        """
        if self._running:
            raise SimulationError("Simulator.run() is not reentrant")
        self._running = True
        self._stopped = False
        executed = 0
        wheel = self.wheel
        peek = wheel.peek_until
        pool = self._pool
        reg = obs_registry.STATS
        chk = check_invariants.CHECKER
        prof = obs_profiler.PHASE_HOOKS
        classify = obs_profiler.classify_callback
        prof_push = prof.push
        prof_pop = prof.pop
        if reg is not None:
            seq_before = self._seq
            cancels_before = self.cancellations
            compactions_before = self.compactions
        drained = False
        popped = 0
        cur_list = wheel.current
        prof_push("engine.loop")
        try:
            while not self._stopped:
                if cur_list:
                    entry = cur_list[0]
                else:
                    if popped:
                        wheel._wheel_count -= popped
                        popped = 0
                    entry = peek(until)
                    if entry is None:
                        drained = True
                        break
                    cur_list = wheel.current
                ev = entry[3]
                if ev.cancelled:
                    heappop(cur_list)
                    popped += 1
                    self._cancelled -= 1
                    if ev.detached and len(pool) < _POOL_MAX:
                        ev.fn = ev.args = None
                        pool.append(ev)
                    continue
                t = entry[0]
                if until is not None and t > until:
                    drained = True
                    break
                heappop(cur_list)
                popped += 1
                if chk is not None:
                    chk.on_event(t, self._now)
                self._now = t
                self._cur_seq = entry[2]
                prof_push(classify(ev.fn))
                try:
                    ev.fn(*ev.args)
                finally:
                    prof_pop()
                self._events_executed += 1
                executed += 1
                if ev.detached and len(pool) < _POOL_MAX:
                    ev.fn = ev.args = None
                    pool.append(ev)
                if max_events is not None and executed >= max_events:
                    break
            if popped:
                wheel._wheel_count -= popped
                popped = 0
            if until is not None and not self._stopped and self._now < until:
                if drained:
                    self._now = until
                else:
                    head = wheel.find_min_any()
                    if head is None or head[0] > until:
                        self._now = until
            self._maybe_compact()
        finally:
            if popped:  # a callback raised mid-loop: settle the counters
                wheel._wheel_count -= popped
            prof_pop()
            self._running = False
            _engine._TOTAL_EVENTS_EXECUTED += executed
            if reg is not None:
                reg.counter("engine.events_executed").inc(executed)
                reg.counter("engine.events_scheduled").inc(self._seq - seq_before)
                reg.counter("engine.events_cancelled").inc(
                    self.cancellations - cancels_before
                )
                reg.counter("engine.heap_compactions").inc(
                    self.compactions - compactions_before
                )
                reg.gauge("engine.heap_peak").update_max(wheel.size)


# ---------------------------------------------------------------------------
# Flattened datapath
# ---------------------------------------------------------------------------


class TurboPort(Port):
    """Port with the enqueue/drain/tx paths flattened.

    Identical early-outs, hooks, counters, fusion condition and event keys
    to the reference :class:`Port` — only Python-level overhead differs:
    hoisted attribute and module-global lookups, the ``is_control`` property
    and the two-layer ``serialization_ns`` call inlined (``LinkSpec``
    guarantees ``rate_bps > 0``, so the inlined arithmetic is exactly
    ``units.serialization_time_ns`` with its guard pre-proven).
    """

    __slots__ = ()

    def enqueue(self, pkt: Packet, ingress: Optional["Port"] = None) -> bool:
        size = pkt.size
        if pkt.kind > CNP:  # PAUSE / RESUME — control jumps the queue
            self.queue.appendleft((pkt, ingress))
            self.queue_bytes += size
        else:
            hook = self.fault_hook
            if hook is not None:
                action = hook.on_packet(pkt)
                if action == FAULT_DROP:
                    self.fault_drops += 1
                    chk = check_invariants.CHECKER
                    if chk is not None:
                        chk.on_drop(self, pkt, ingress, "fault")
                    self._release_dropped(pkt, ingress)
                    return False
                if action == FAULT_CORRUPT:
                    pkt.corrupt = True
            if (
                self.max_queue_bytes is not None
                and self.queue_bytes + size > self.max_queue_bytes
            ):
                self.drops += 1
                reg = obs_registry.STATS
                if reg is not None:
                    reg.counter("port.tail_drops").inc()
                chk = check_invariants.CHECKER
                if chk is not None:
                    chk.on_drop(self, pkt, ingress, "tail")
                self._release_dropped(pkt, ingress)
                return False
            red = self.red
            if red is not None and pkt.kind == DATA:
                p = red.mark_probability(self.queue_bytes)
                if p > 0.0 and (p >= 1.0 or self.rng.random() < p):
                    pkt.ece = True
            self.queue.append((pkt, ingress))
            self.queue_bytes += size
        chk = check_invariants.CHECKER
        if chk is not None:
            chk.on_enqueue(self, pkt)
        fr = obs_flightrec.RECORDER
        if fr is not None:
            fr.on_enqueue(self, pkt, self.sim._now)
        qb = self.queue_bytes
        if qb > self.max_qlen_seen:
            self.max_qlen_seen = qb
            tr = obs_tracer.TRACER
            if tr is not None:
                tr.counter(
                    f"qmax {self.owner.name}.p{self.index}",
                    self.sim._now,
                    {"bytes": qb},
                    cat="queue",
                )
        self.try_drain()
        return True

    def try_drain(self) -> None:
        queue = self.queue
        if not queue:
            return
        if self._tx_pending:
            return
        sim = self.sim
        now = sim._now
        if now <= self.busy_until:
            self._schedule_wake(self.busy_until)
            return
        pfc_egress = self.pfc_egress
        if now < pfc_egress.paused_until:
            self._schedule_wake(pfc_egress.paused_until)
            return
        prof = obs_profiler.PHASE_HOOKS
        if prof is not None:
            prof.push("port.serialize")
        pkt, ingress = queue.popleft()
        size = pkt.size
        self.queue_bytes -= size
        chk = check_invariants.CHECKER
        if chk is not None:
            chk.on_dequeue(self, pkt)
        spec = self.spec
        if self.stamp_int and pkt.kind == DATA and pkt.int_records is not None:
            pkt.int_records.append(
                HopRecord(
                    qlen=self.queue_bytes,
                    tx_bytes=self.tx_bytes + size,
                    ts=now,
                    rate_bps=spec.rate_bps,
                )
            )
            pkt.hops += 1
        ser = size * 8.0 / spec.rate_bps * 1e9
        fr = obs_flightrec.RECORDER
        if fr is not None:
            fr.on_dequeue(self, pkt, now, ser)
        peer = self.peer_node
        if (
            ingress is None
            and not queue
            and self.allow_fusion
            and self.link_up
            and peer is not None
        ):
            busy_until = now + ser
            self.busy_until = busy_until
            self.tx_bytes += size
            reg = obs_registry.STATS
            if reg is not None:
                reg.counter("port.fused_deliveries").inc()
            sim.schedule_delivery(
                spec.prop_delay_ns, busy_until, None,
                peer.receive, pkt, self.peer_port,
            )
        else:
            self._tx_pending = True
            reg = obs_registry.STATS
            if reg is not None:
                reg.counter("port.unfused_deliveries").inc()
            sim.schedule_detached(ser, self._tx_done, pkt, ingress)
        if prof is not None:
            prof.pop()

    def _tx_done(self, pkt: Packet, ingress: Optional["Port"]) -> None:
        self._tx_pending = False
        self.tx_bytes += pkt.size
        if ingress is not None:
            self.owner.on_forwarded(pkt, ingress)
        peer = self.peer_node
        if peer is not None:
            if self.link_up:
                sim = self.sim
                sim.schedule_delivery(
                    self.spec.prop_delay_ns, sim._now, sim._cur_seq,
                    peer.receive, pkt, self.peer_port,
                )
            else:
                self.fault_drops += 1
                chk = check_invariants.CHECKER
                if chk is not None:
                    chk.on_drop(self, pkt, ingress, "link-down")
        self.try_drain()


class TurboSwitch(Switch):
    """Switch with the per-packet forwarding path flattened.

    Same PFC charging/release, routing, hooks and drop handling as the
    reference :class:`Switch`, with the ``is_control`` property, the PFC
    watermark tests (in the common no-PFC-config case) and the ``route``
    ECMP selection inlined.
    """

    def receive(self, pkt: Packet, in_port: Optional[Port]) -> None:
        if pkt.kind > CNP:  # PAUSE / RESUME — link-local control
            if in_port is not None:
                in_port.apply_pause(pkt)
            return
        if in_port is not None:
            pfc_in = in_port.pfc_ingress
            if pfc_in.config is None:
                pfc_in.occupancy += pkt.size
            elif pfc_in.on_enqueue(pkt.size):
                self.send_pfc(in_port, resume=False)
        group = self.routes.get(pkt.dst)
        if group is None:
            if not self.drop_unroutable:
                raise RoutingError(
                    f"{self.name}: no route to node {pkt.dst} for {pkt!r}"
                )
            self.routing_drops += 1
            if in_port is not None:
                if in_port.pfc_ingress.on_release(pkt.size):
                    self.send_pfc(in_port, resume=True)
            return
        out = group[0] if len(group) == 1 else group[pkt.ecmp_hash % len(group)]
        self.packets_forwarded += 1
        chk = check_invariants.CHECKER
        if chk is not None:
            chk.on_switch_forward(self, pkt, out)
        out.enqueue(pkt, ingress=in_port)

    def on_forwarded(self, pkt: Packet, ingress: Port) -> None:
        # Inlined PfcIngress.on_release for the no-config common case; the
        # watermarked path delegates to keep the counter/trigger logic in
        # one place.  Negative-occupancy clamping (and its sanitizer hook)
        # is replicated exactly.
        pi = ingress.pfc_ingress
        if pi.config is None:
            occ = pi.occupancy - pkt.size
            if occ < 0:
                chk = check_invariants.CHECKER
                if chk is not None:
                    chk.on_pfc_occupancy(occ)
                occ = 0.0
            pi.occupancy = occ
        elif pi.on_release(pkt.size):
            self.send_pfc(ingress, resume=True)


class TurboHost(Host):
    """Host with the receive path flattened and SoA write-through.

    Flow state is additionally indexed through dense per-id slot lists
    (``flow_id`` → state), replacing the per-packet dict lookups; the
    delivered/acked columns of the network's :class:`TurboCore` are written
    through as the scalars change.  Rare paths (PFC frames, corrupt
    packets, CNPs, completion) replicate or delegate to the reference
    implementation verbatim.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        #: SoA columns, installed by the owning Network (None standalone).
        self.core: Optional[TurboCore] = None
        self._recv_slots: List = []
        self._send_slots: List = []
        self._nic_port: Optional[Port] = None

    def attach_port(self, port: Port, neighbour_id: int) -> None:
        super().attach_port(port, neighbour_id)
        if self._nic_port is None:
            self._nic_port = port

    def add_receiver_flow(self, flow):
        state = super().add_receiver_flow(flow)
        slots = self._recv_slots
        fid = flow.flow_id
        if fid >= len(slots):
            slots.extend([None] * (fid + 1 - len(slots)))
        slots[fid] = state
        return state

    def add_sender_flow(self, flow, cc):
        state = super().add_sender_flow(flow, cc)
        slots = self._send_slots
        fid = flow.flow_id
        if fid >= len(slots):
            slots.extend([None] * (fid + 1 - len(slots)))
        slots[fid] = state
        return state

    def _try_send(self, state) -> None:
        # Verbatim twin of Host._try_send with the per-iteration property
        # reads inlined (``inflight`` is ``next_seq - acked``; ``min`` is a
        # branch) and the hook globals hoisted out of the loop — they cannot
        # change mid-loop, only between runs.
        flow = state.flow
        sim = self.sim
        mtu = self.mtu
        nic = self._nic_port
        if nic is None:
            nic = self.nic
        size = flow.size
        node_id = self.node_id
        chk = check_invariants.CHECKER
        fr = obs_flightrec.RECORDER
        while state.next_seq < size:
            cc = state.cc
            if state.next_seq - state.acked >= cc.window_bytes:
                return  # window-blocked; ACK arrival re-triggers
            if state.probe_mode and state.next_seq > state.acked:
                return  # stop-and-wait probe: one unacked packet at a time
            now = sim._now
            if now < state.next_allowed:
                self._arm_timer(state, state.next_allowed)
                return
            payload = size - state.next_seq
            if payload > mtu:
                payload = mtu
            pkt = Packet.data(
                flow.flow_id,
                node_id,
                flow.dst,
                state.next_seq,
                payload,
                send_ts=now,
                ecmp_hash=flow.ecmp_hash,
                priority=flow.priority,
            )
            state.next_seq += payload
            state.packets_sent += 1
            if chk is not None:
                chk.on_send(state)
            if fr is not None:
                track = state.fr
                if track is not None:
                    fr.on_send(track, pkt, now)
            nic.enqueue(pkt)
            rate = cc.pacing_rate_bps
            if rate is not None and rate > 0.0:
                state.next_allowed = now + pkt.size * 8.0 / rate * 1e9

    def receive(self, pkt: Packet, in_port: Optional[Port]) -> None:
        kind = pkt.kind
        if kind > CNP:  # PAUSE / RESUME — control, never data-handled
            if in_port is not None:
                in_port.apply_pause(pkt)
            return
        if pkt.corrupt:
            self.corrupt_discards += 1
            reg = obs_registry.STATS
            if reg is not None:
                reg.counter("host.corrupt_discards").inc()
            return
        fid = pkt.flow_id
        if kind == DATA:
            slots = self._recv_slots
            state = slots[fid] if 0 <= fid < len(slots) else None
            if state is None:
                raise RuntimeError(
                    f"{self.name}: data for unknown flow {fid} ({pkt!r})"
                )
            state.packets_received += 1
            end = pkt.seq + pkt.payload
            received = state.received
            if pkt.seq <= received and end > received:
                state.received = received = end
                core = self.core
                if core is not None:
                    core.flow_received[fid] = end
            chk = check_invariants.CHECKER
            if chk is not None:
                chk.on_data(state, pkt)
            now = self.sim._now
            nic = self._nic_port
            if nic is None:
                nic = self.nic
            if state.flow.use_cnp and pkt.ece:
                if now - state.last_cnp_time >= self.cnp_interval_ns:
                    state.last_cnp_time = now
                    nic.enqueue(Packet.cnp(fid, self.node_id, pkt.src))
            nic.enqueue(Packet.ack(pkt, received, now))
        elif kind == ACK:
            self._receive_ack_flat(pkt)
        else:  # CNP
            self._receive_cnp(pkt)

    def _receive_ack_flat(self, pkt: Packet) -> None:
        # Verbatim twin of Host._receive_ack with slot indexing, SoA
        # write-through and hoisted locals; every hook, counter and branch
        # matches the reference implementation (the engines matrix guards).
        fid = pkt.flow_id
        slots = self._send_slots
        state = slots[fid] if 0 <= fid < len(slots) else None
        if state is None:
            raise RuntimeError(f"{self.name}: ACK for unknown flow {fid}")
        flow = state.flow
        now = self.sim._now
        newly = pkt.seq - state.acked
        if newly < 0:
            newly = 0
        else:
            state.acked = pkt.seq
            core = self.core
            if core is not None:
                core.flow_acked[fid] = pkt.seq
        state.last_ack_time = now
        chk = check_invariants.CHECKER
        if chk is not None:
            chk.on_ack(state, pkt)
        if self.loss_recovery and newly > 0:
            state.rto_backoff = 1.0
            state.probe_mode = False
            state.last_rto_acked = -1
            self._arm_rto(state, reset=True)
        fr = obs_flightrec.RECORDER
        if fr is not None:
            track = state.fr
            if track is not None:
                fr.on_ack(track, pkt.fr, state.acked, now)
        ctx = self._ack_ctx
        ctx.now = now
        ctx.ack_seq = pkt.seq
        ctx.newly_acked = newly
        ctx.ece = pkt.ece
        ctx.int_records = pkt.int_records
        ctx.rtt = now - pkt.send_ts
        ctx.hops = pkt.hops
        state.cc.on_ack(ctx)
        if state.acked >= flow.size and not flow.completed:
            flow.finish_time = now
            if state.rto_timer is not None:
                state.rto_timer.cancel()
                state.rto_timer = None
            reg = obs_registry.STATS
            if reg is not None:
                reg.counter("host.flows_completed").inc()
            tr = obs_tracer.TRACER
            if tr is not None:
                tr.complete(
                    f"flow {flow.flow_id}",
                    flow.start_time,
                    now - flow.start_time,
                    cat="flow",
                    tid=flow.flow_id,
                    args={
                        "src": flow.src,
                        "dst": flow.dst,
                        "size_bytes": flow.size,
                        "retransmits": state.retransmits,
                    },
                )
            if fr is not None:
                track = state.fr
                if track is not None:
                    fr.on_complete(track, state, now)
            for cb in self.completion_callbacks:
                cb(flow)
            return
        self._try_send(state)


class TurboGoodputMonitor(GoodputMonitor):
    """Goodput sampler reading the SoA delivered column in one gather.

    Sample values are exactly the reference monitor's: the column mirrors
    ``receiver.received`` (int64, written through on every advance), and
    ``.tolist()`` yields the same Python ints the per-flow dict walk
    produces, so downstream rate math is byte-identical.
    """

    def __init__(self, sim, flows, nodes, interval_ns: float, *, core: TurboCore):
        super().__init__(sim, flows, nodes, interval_ns)
        np = require_numpy()
        self.core = core
        self._flow_ids = np.asarray([f.flow_id for f in self.flows], dtype=np.intp)

    def _sample(self) -> None:
        self.times.append(self.sim.now())
        self.samples.append(self.core.flow_received[self._flow_ids].tolist())
