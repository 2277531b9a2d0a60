"""Egress port: the queueing and transmission workhorse.

Every node-to-node channel is owned by exactly one :class:`Port` on the
sending side.  A port bundles:

* the FIFO egress queue (bytes-accounted, optional tail-drop limit),
* the transmitter (serialization at line rate, then propagation),
* ECN/RED marking at enqueue (used by DCQCN),
* INT stamping at dequeue (used by HPCC),
* the PFC egress pause state, plus the PFC ingress accounting for traffic
  *arriving from* the neighbour this port faces (the same port object
  identifies the interface in both directions, which is how pause frames
  find their target).

The drain loop is the hottest code in the simulator; it avoids allocation and
keeps bookkeeping to integer/float adds.

Fused transmission (the big event-count win): a packet normally costs two
events — ``_tx_done`` at serialization end (free the transmitter, continue
draining) and the peer ``receive`` one propagation later.  When the packet
was *locally originated* (no ingress port, so no forwarding or PFC-release
bookkeeping is owed at serialization end) and the link is healthy, the port
instead schedules a single detached delivery event at ``serialization +
propagation`` and models the transmitter occupancy with a ``busy_until``
timestamp.  Anyone who tries to drain before ``busy_until`` arms a wake
timer at exactly that instant, so packet spacing — and therefore every
simulation output — is identical to the two-event schedule; host NICs (every
data packet and every ACK in the network starts at one) simply stop paying
the second event.  Fusion turns itself off (``allow_fusion``) as soon as
link-state faults enter the picture, because delivery of a fused packet is
committed at serialization *start*, which would bypass the "packets
finishing serialization on a down link are lost" rule.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from .. import probe
from .calendar import heappush
from .engine import Simulator
from .link import LinkSpec
from .packet import DATA, PAUSE, RESUME, HopRecord, Packet
from .pfc import PfcConfig, PfcEgressState, PfcIngress

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .node import Node

# Fault-hook action codes (see repro.sim.faults).  Ints, not an Enum, for the
# same hot-path reason as the packet kinds.
FAULT_NONE = 0
FAULT_DROP = 1
FAULT_CORRUPT = 2


@dataclass(frozen=True)
class RedConfig:
    """RED/ECN marking thresholds (DCQCN-style), on instantaneous queue length.

    ``q <= kmin``: never mark; ``kmin < q < kmax``: mark with probability
    ``pmax * (q - kmin) / (kmax - kmin)``; ``q >= kmax``: always mark.
    """

    kmin_bytes: float
    kmax_bytes: float
    pmax: float

    def __post_init__(self) -> None:
        if not 0 <= self.pmax <= 1:
            raise ValueError(f"pmax must be in [0, 1], got {self.pmax}")
        if self.kmin_bytes < 0 or self.kmax_bytes <= self.kmin_bytes:
            raise ValueError(
                f"need 0 <= kmin < kmax, got kmin={self.kmin_bytes}, "
                f"kmax={self.kmax_bytes}"
            )

    def mark_probability(self, qlen: float) -> float:
        """Marking probability at instantaneous queue length ``qlen`` bytes."""
        if qlen <= self.kmin_bytes:
            return 0.0
        if qlen >= self.kmax_bytes:
            return 1.0
        return self.pmax * (qlen - self.kmin_bytes) / (self.kmax_bytes - self.kmin_bytes)


class Port:
    """One egress interface of a node.

    Wiring (:meth:`attach_peer`, called by :class:`repro.sim.network.Network`)
    sets ``peer_node`` and ``peer_port`` so that packet arrival is delivered
    as ``peer_node.receive(pkt, in_port=peer_port)``.

    The three per-packet schedules push their calendar entry themselves (see
    :mod:`repro.sim.engine` for the layout and for who else may).
    """

    __slots__ = (
        "sim",
        "owner",
        "spec",
        "index",
        "peer_node",
        "peer_port",
        "queue",
        "queue_bytes",
        "tx_bytes",
        "busy_until",
        "_tx_pending",
        "drops",
        "max_queue_bytes",
        "red",
        "rng",
        "stamp_int",
        "pfc_egress",
        "pfc_ingress",
        "max_qlen_seen",
        "_wake_event",
        "fault_hook",
        "link_up",
        "fault_drops",
        "allow_fusion",
        "_deliver",
        "_on_tx_done",
    )

    def __init__(
        self,
        sim: Simulator,
        owner: "Node",
        spec: LinkSpec,
        index: int,
        *,
        max_queue_bytes: Optional[float] = None,
        red: Optional[RedConfig] = None,
        rng: Optional[random.Random] = None,
        stamp_int: bool = False,
        pfc: Optional[PfcConfig] = None,
    ):
        self.sim = sim
        self.owner = owner
        self.spec = spec
        self.index = index
        self.peer_node: Optional["Node"] = None
        self.peer_port: Optional["Port"] = None
        # The two per-packet callbacks, bound once: the peer's ``receive``
        # (None until attach_peer) and this port's own ``_tx_done``.
        self._deliver = None
        self._on_tx_done = self._tx_done
        self.queue: deque = deque()  # entries: (Packet, ingress Port | None)
        self.queue_bytes = 0.0
        self.tx_bytes = 0.0
        # Transmitter occupancy.  The legacy (two-event) path is governed by
        # ``_tx_pending`` — busy until its ``_tx_done`` event *executes*, so
        # same-timestamp events that run before it still see the port busy,
        # exactly as the pre-fusion flag did.  The fused path has no tx-done
        # event, so occupancy is the timestamp ``busy_until`` (inclusive: the
        # wake event armed at that instant plays the role of ``_tx_done`` and
        # resets it to -1).
        self.busy_until = -1.0
        self._tx_pending = False
        self.drops = 0
        self.max_queue_bytes = max_queue_bytes
        self.red = red
        self.rng = rng
        self.stamp_int = stamp_int
        self.pfc_egress = PfcEgressState()
        self.pfc_ingress = PfcIngress(pfc)
        self.max_qlen_seen = 0.0
        self._wake_event = None
        # Fault-injection state (repro.sim.faults): None / True means healthy
        # and costs one attribute test on the hot path.
        self.fault_hook = None
        self.link_up = True
        self.fault_drops = 0
        self.allow_fusion = True

    def attach_peer(self, node: "Node", port: Optional["Port"]) -> None:
        """Wire the far end: arrivals run ``node.receive(pkt, port)``."""
        self.peer_node = node
        self.peer_port = port
        self._deliver = node.receive

    def close(self) -> None:
        """Cut every reference that closes a cycle through this port
        (:meth:`repro.sim.network.Network.close`); counters stay readable."""
        self.owner = self.peer_node = self.peer_port = self._deliver = None
        self._on_tx_done = self._wake_event = self.fault_hook = None

    # -- identity -----------------------------------------------------------

    @property
    def name(self) -> str:
        peer = self.peer_node.name if self.peer_node is not None else "?"
        return f"{self.owner.name}.p{self.index}->{peer}"

    @property
    def busy(self) -> bool:
        """True while a packet is serializing on the transmitter."""
        return self._tx_pending or self.sim.now() <= self.busy_until

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Port {self.name} q={self.queue_bytes:.0f}B busy={self.busy}>"

    # -- enqueue ------------------------------------------------------------

    def enqueue(self, pkt: Packet, ingress: Optional["Port"] = None) -> bool:
        """Queue a packet for transmission.  Returns False if tail-dropped.

        Control (PFC) frames jump the queue and are never dropped or marked.
        """
        if pkt.kind >= PAUSE:
            self.queue.appendleft((pkt, ingress))
            self.queue_bytes += pkt.size
        else:
            hook = self.fault_hook
            if hook is not None:
                action = hook.on_packet(pkt)
                if action == FAULT_DROP:
                    self.fault_drops += 1
                    pr = probe.PROBE
                    if pr is not None:
                        pr.drop(self, pkt, ingress, "fault")
                    self._release_dropped(pkt, ingress)
                    return False
                if action == FAULT_CORRUPT:
                    pkt.corrupt = True
                    pr = probe.PROBE
                    if pr is not None:
                        pr.fault_corrupt(self, pkt)
            if (
                self.max_queue_bytes is not None
                and self.queue_bytes + pkt.size > self.max_queue_bytes
            ):
                self.drops += 1
                pr = probe.PROBE
                if pr is not None:
                    pr.drop(self, pkt, ingress, "tail")
                self._release_dropped(pkt, ingress)
                return False
            if self.red is not None and pkt.kind == DATA:
                p = self.red.mark_probability(self.queue_bytes)
                if p > 0.0 and (p >= 1.0 or self.rng.random() < p):
                    pkt.ece = True
            self.queue.append((pkt, ingress))
            self.queue_bytes += pkt.size
        pr = probe.PROBE
        if pr is not None:
            pr.enqueue(self, pkt, self.sim._now)
        if self.queue_bytes > self.max_qlen_seen:
            self.max_qlen_seen = self.queue_bytes
            if pr is not None:
                pr.queue_max(self, self.sim._now)
        if not self._tx_pending:  # else that packet's _tx_done drains
            self.try_drain()
        return True

    def _release_dropped(self, pkt: Packet, ingress: Optional["Port"]) -> None:
        """Undo the ingress PFC accounting for a packet dropped at enqueue.

        A dropped packet never occupies the egress buffer, so the bytes it
        charged against the upstream-facing ingress accounting must be freed
        immediately — otherwise a drop while the upstream is PFC-paused can
        leave the pause latched forever (the RESUME that would have been
        triggered by this packet's departure never fires).
        """
        if ingress is not None:
            if ingress.pfc_ingress.on_release(pkt.size):
                self.owner.send_pfc(ingress, resume=True)

    # -- drain --------------------------------------------------------------

    def try_drain(self) -> None:
        """Start transmitting the head-of-line packet if possible."""
        if not self.queue:
            return
        sim = self.sim
        now = sim._now
        if self._tx_pending:
            # Legacy path in flight: its _tx_done event will drain.
            return
        if now <= self.busy_until:
            # Fused transmission in flight: there is no tx-done event coming,
            # so arm a wake at the exact instant the transmitter frees up.
            self._schedule_wake(self.busy_until)
            return
        paused_until = self.pfc_egress.paused_until
        if now < paused_until:
            self._schedule_wake(paused_until)
            return
        # Past the early-outs a transmission definitely starts; everything
        # below is serializer work.  Single fall-through exit, so one
        # push/pop pair brackets it.
        pr = probe.PROBE
        if pr is not None:
            pr.phase_push("port.serialize")
        pkt, ingress = self.queue.popleft()
        size = pkt.size
        self.queue_bytes -= size
        spec = self.spec
        if self.stamp_int and pkt.kind == DATA and pkt.int_records is not None:
            pkt.int_records.append(
                # qlen, tx_bytes, ts, rate_bps
                HopRecord(self.queue_bytes, self.tx_bytes + size, now, spec.rate_bps)
            )
            pkt.hops += 1
        # spec.serialization_ns(size): units.serialization_time_ns's own
        # expression, operand for operand (LinkSpec guarantees rate > 0).
        ser = size * 8.0 / spec.rate_bps * 1e9
        deliver = self._deliver
        fused = (
            ingress is None
            and not self.queue
            and self.allow_fusion
            and self.link_up
            and deliver is not None
        )
        if pr is not None:
            # One event covers both delivery paths below: queue accounting
            # is settled and the serialization that starts now is known.
            pr.dequeue(self, pkt, now, ser, fused)
        if fused:
            # Fused path: single delivery event, occupancy via busy_until.
            # Only taken for locally-originated packets (no forwarding or
            # PFC-release bookkeeping owed at serialization end) with an
            # empty queue behind them (nobody needs a tx-done to keep
            # draining; a later enqueue arms a wake at busy_until instead).
            # tx accounting moves to serialization start — the counter is
            # cumulative, only intra-packet sampling can see the shift.
            # The entry is schedule_delivery(prop_delay, t_end, None, ...)
            # written out: keyed to serialization end so its execution order
            # matches the legacy two-event schedule exactly.
            t_end = now + ser
            self.busy_until = t_end
            self.tx_bytes += size
            seq = sim._seq
            sim._seq = seq + 1
            entry = (t_end + spec.prop_delay_ns, t_end, seq, None, deliver, (pkt, self.peer_port))
            heappush(sim._heap, entry)
        else:
            self._tx_pending = True
            # schedule_detached(ser, self._tx_done, pkt, ingress) written out.
            seq = sim._seq
            sim._seq = seq + 1
            heappush(sim._heap, (now + ser, now, seq, None, self._on_tx_done, (pkt, ingress)))
        if pr is not None:
            pr.phase_pop()

    def _tx_done(self, pkt: Packet, ingress: Optional["Port"]) -> None:
        self._tx_pending = False
        self.tx_bytes += pkt.size
        if ingress is not None:
            self.owner.on_forwarded(pkt, ingress)
        deliver = self._deliver
        if deliver is not None:
            if self.link_up:
                # schedule_delivery(prop_delay, now, sim._cur_seq, ...) written
                # out: keyed by this event's own (time, seq) so fused and
                # legacy deliveries interleave identically.
                sim = self.sim
                now = sim._now
                fire = now + self.spec.prop_delay_ns
                entry = (fire, now, sim._cur_seq, None, deliver, (pkt, self.peer_port))
                heappush(sim._heap, entry)
            else:
                # Link is down: the queue keeps draining (carrier loss), every
                # serialized packet is lost on the wire.
                self.fault_drops += 1
                pr = probe.PROBE
                if pr is not None:
                    pr.drop(self, pkt, ingress, "link-down")
        if self.queue:
            self.try_drain()

    def _schedule_wake(self, at: float) -> None:
        ev = self._wake_event
        if ev is not None and not ev.cancelled and ev.time <= at:
            return
        if ev is not None:
            ev.cancel()
        self._wake_event = self.sim.schedule_at(at, self._wake)

    def _wake(self) -> None:
        self._wake_event = None
        # This wake is the fused path's stand-in for _tx_done: if the fused
        # serialization has completed (<= because the wake fires at exactly
        # busy_until), free the transmitter.  The guard protects against a
        # stale same-timestamp wake firing after a new transmission started.
        if self.sim._now >= self.busy_until:
            self.busy_until = -1.0
        self.try_drain()

    # -- PFC ---------------------------------------------------------------

    def apply_pause(self, pkt: Packet) -> None:
        """Apply a received PFC frame to this (egress) port."""
        pr = probe.PROBE
        if pr is not None:
            pr.phase_push("pfc")
        if pkt.kind == PAUSE:
            now = self.sim.now()
            self.pfc_egress.pause(now, pkt.pause_duration)
            if pr is not None:
                pr.pause(self, now, pkt.pause_duration)
        elif pkt.kind == RESUME:
            self.pfc_egress.resume()
            if pr is not None:
                pr.resume(self, self.sim.now())
            self.try_drain()
        if pr is not None:
            pr.phase_pop()

    # -- introspection -------------------------------------------------------

    def reset_counters(self) -> None:
        """Reset monitoring counters (not queue state)."""
        self.max_qlen_seen = self.queue_bytes
        self.drops = 0
        self.fault_drops = 0

    @property
    def utilization_bytes(self) -> float:
        """Cumulative bytes transmitted (for throughput accounting)."""
        return self.tx_bytes
