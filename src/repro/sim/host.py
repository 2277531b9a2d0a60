"""End-host model: sender scheduling (window + pacing) and receiver logic.

Senders follow the RDMA NIC model the paper assumes:

* a flow starts sending **at line rate** — its congestion-control module
  initializes window/rate to the line-rate BDP (Sec. IV: "new flows in RDMA
  networks often start sending packets at line rate");
* transmission is gated by both a byte window (inflight < cwnd) and an
  optional pacing rate, whichever is more restrictive;
* one ACK is generated per received data packet (no coalescing), echoing the
  INT telemetry, the ECN mark, and the sender's timestamp;
* for DCQCN flows the receiver emits at most one CNP per ``cnp_interval_ns``
  while marked packets keep arriving.

The send loop re-arms itself on ACK arrival (window opens) or via a pacing
timer, so there is no polling.

Loss recovery (off by default — the paper's fabric is lossless): when enabled
via :meth:`Host.enable_loss_recovery`, every flow keeps a retransmission
timer armed while data is unacknowledged.  If the cumulative ACK stalls for a
full RTO the sender performs **go-back-N**: it rewinds ``next_seq`` to the
last cumulative ACK and resends from there, doubling the RTO (exponential
backoff, capped) until progress resumes.  Receivers stay
cumulative-ACK-only; an out-of-order packet beyond a gap is *not* credited
(it re-ACKs the old cumulative edge), which is exactly what makes go-back-N
correct.  With recovery disabled the timer is never armed and the hot path
pays a single attribute test.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Union

from .. import probe
from .engine import Simulator
from .flow import Flow, ReceiverState, SenderState
from .node import Node
from .packet import ACK, CNP, DATA, PAUSE, AckContext, Packet
from .port import Port

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..cc.base import CongestionControl

#: A flow's congestion control, or a zero-argument factory called at its start.
CCOrFactory = Union["CongestionControl", Callable[[], "CongestionControl"]]

#: Default payload bytes per packet (MTU), as used throughout the paper.
DEFAULT_MTU = 1000
#: DCQCN: minimum spacing between CNPs for one flow (50 microseconds).
DEFAULT_CNP_INTERVAL_NS = 50_000.0
#: Loss recovery: RTO = max(floor, scale x base RTT).  The scale leaves room
#: for queueing delay well beyond the unloaded RTT so that a healthy incast
#: never fires a spurious retransmission.
DEFAULT_RTO_SCALE = 16.0
DEFAULT_RTO_MIN_NS = 25_000.0
#: Exponential backoff cap: RTO never exceeds ``rto_ns * max_backoff``.
DEFAULT_MAX_RTO_BACKOFF = 64.0


class Host(Node):
    """A single-NIC end host running sender and receiver logic."""

    def __init__(
        self,
        sim: Simulator,
        node_id: int,
        name: str,
        *,
        mtu: int = DEFAULT_MTU,
        cnp_interval_ns: float = DEFAULT_CNP_INTERVAL_NS,
    ):
        super().__init__(sim, node_id, name)
        self.mtu = mtu
        self.cnp_interval_ns = cnp_interval_ns
        # A key per flow ever registered here; the value is None before the
        # flow's start event (it waits in ``_starts``) and after its last ACK.
        self.senders: Dict[int, Optional[SenderState]] = {}
        self._starts: List[tuple] = []  # Simulator.schedule_stream's list
        self.receivers: Dict[int, ReceiverState] = {}
        self.completion_callbacks: List[Callable[[Flow], None]] = []
        # Loss-recovery knobs; disabled unless enable_loss_recovery() is called.
        self.loss_recovery = False
        self.rto_override_ns: Optional[float] = None
        self.rto_scale = DEFAULT_RTO_SCALE
        self.rto_min_ns = DEFAULT_RTO_MIN_NS
        self.max_rto_backoff = DEFAULT_MAX_RTO_BACKOFF
        self.corrupt_discards = 0
        #: ACKs / CNPs dropped because their flow had no sender state (any more).
        self.late_packets = 0
        # Reusable per-host AckContext: one is filled per ACK and handed to
        # cc.on_ack, which must not retain it (none do — they copy scalars
        # and at most keep the int_records list).  Saves an allocation on
        # every ACK, the single most frequent host-side object.
        self._ack_ctx = AckContext(
            now=0.0, ack_seq=0, newly_acked=0, ece=False,
            int_records=None, rtt=0.0, hops=0,
        )

    # -- wiring ---------------------------------------------------------------

    @property
    def nic(self) -> Port:
        """The host's single NIC egress port."""
        if not self.ports:
            raise RuntimeError(f"host {self.name} has no NIC port attached")
        return self.ports[0]

    @property
    def line_rate_bps(self) -> float:
        return self.nic.spec.rate_bps

    # -- sender ---------------------------------------------------------------

    def enable_loss_recovery(
        self,
        *,
        rto_ns: Optional[float] = None,
        rto_scale: float = DEFAULT_RTO_SCALE,
        rto_min_ns: float = DEFAULT_RTO_MIN_NS,
        max_backoff: float = DEFAULT_MAX_RTO_BACKOFF,
    ) -> None:
        """Turn on go-back-N retransmission for this host's sender flows.

        ``rto_ns`` fixes the base timeout outright; otherwise it is computed
        per flow as ``max(rto_min_ns, rto_scale * base_rtt)``.  Flows already
        sending are updated too; one still waiting reads the knobs at its start.
        """
        self.loss_recovery = True
        self.rto_override_ns = rto_ns
        self.rto_scale = rto_scale
        self.rto_min_ns = rto_min_ns
        self.max_rto_backoff = max_backoff
        for state in self.senders.values():
            if state is not None:
                state.rto_ns = self._rto_for(state)

    def _rto_for(self, state: SenderState) -> float:
        if self.rto_override_ns is not None:
            return self.rto_override_ns
        return max(self.rto_min_ns, self.rto_scale * state.cc.env.base_rtt_ns)

    def add_sender_flow(self, flow: Flow, cc: CCOrFactory) -> None:
        """Register an outgoing flow; transmission starts at flow.start_time.

        Nothing per-flow is built until then, ``cc`` included if it is a
        factory (a CC object is not callable); see DESIGN "Flow lifecycle".
        """
        if flow.flow_id in self.senders:
            raise ValueError(f"flow {flow.flow_id} already registered on {self.name}")
        self.senders[flow.flow_id] = None
        start = max(flow.start_time, self.sim.now())
        self.sim.schedule_stream(self._starts, start, self._start_flow, flow, cc)

    def _start_flow(self, flow: Flow, cc: CCOrFactory) -> None:
        self.sim.stream_next(self._starts)
        if callable(cc):
            cc = cc()
        state = SenderState(flow, cc)
        cc.bind(state, self)
        self.senders[flow.flow_id] = state
        if self.loss_recovery:
            state.rto_ns = self._rto_for(state)
        flow.started = True
        pr = probe.PROBE
        if pr is not None:
            pr.flow_start(state)
        state.cc.on_flow_start(self.sim._now)
        self._try_send(state)
        if self.loss_recovery:
            self._arm_rto(state)

    def _try_send(self, state: SenderState) -> None:
        """Emit as many packets as window and pacing currently allow."""
        flow = state.flow
        sim = self.sim
        mtu = self.mtu
        nic = self.nic
        while state.next_seq < flow.size:
            cc = state.cc
            if state.next_seq - state.acked >= cc.window_bytes:
                return  # window-blocked; ACK arrival re-triggers
            if state.probe_mode and state.next_seq > state.acked:
                return  # stop-and-wait probe: one unacked packet at a time
            now = sim._now
            if now < state.next_allowed:
                self._arm_timer(state, state.next_allowed)
                return
            payload = min(mtu, flow.size - state.next_seq)
            pkt = Packet.data(
                flow.flow_id, self.node_id, flow.dst, state.next_seq, payload,
                now, flow.ecmp_hash, flow.priority,
            )
            state.next_seq += payload
            flow.packets_sent += 1
            pr = probe.PROBE
            if pr is not None:
                # Before the NIC enqueue sees the packet (the recorder stamps it).
                pr.send(state, pkt, now)
            nic.enqueue(pkt)
            rate = cc.pacing_rate_bps
            if rate is not None and rate > 0.0:
                state.next_allowed = now + pkt.size * 8.0 / rate * 1e9

    def _arm_timer(self, state: SenderState, at: float) -> None:
        timer = state.timer
        if timer is not None and not timer.cancelled and timer.time <= at:
            return
        if timer is not None:
            timer.cancel()
        state.timer = self.sim.schedule_at(at, self._timer_fired, state)

    def _timer_fired(self, state: SenderState) -> None:
        state.timer = None
        self._try_send(state)

    # -- loss recovery -----------------------------------------------------------

    def _arm_rto(self, state: SenderState, *, reset: bool = False) -> None:
        """Arm the retransmission timer (idempotent unless ``reset``)."""
        if state.flow.completed:
            return
        if reset and state.rto_timer is not None:
            state.rto_timer.cancel()
            state.rto_timer = None
        if state.rto_timer is None:
            state.rto_timer = self.sim.schedule(
                state.rto_ns * state.rto_backoff, self._rto_fired, state
            )

    def _rto_fired(self, state: SenderState) -> None:
        state.rto_timer = None
        flow = state.flow
        if flow.completed:
            return
        if state.next_seq <= state.acked:
            # Nothing in flight (pacing gap / window fully acknowledged but
            # flow unfinished): keep watching without counting a timeout.
            self._arm_rto(state)
            return
        # Consecutive RTOs without cumulative-ACK progress mean the rewound
        # burst keeps losing the same packet — a deterministic dropper (e.g.
        # FaultConfig.drop_every_nth) can phase-lock with the go-back-N burst
        # and starve the flow forever.  Degrade to a single-packet
        # stop-and-wait probe: a periodic dropper cannot hit every probe, so
        # the cumulative ACK is guaranteed to advance eventually, at which
        # point normal windowed sending resumes (see _receive_ack).
        if state.acked == state.last_rto_acked:
            state.probe_mode = True
        state.last_rto_acked = state.acked
        # Go-back-N: rewind to the last cumulative ACK and resend from there.
        flow.retransmits += 1
        flow.retransmitted_bytes += state.next_seq - state.acked
        pr = probe.PROBE
        if pr is not None:
            # Before the rewind and the backoff doubling; the benign re-arm
            # branch above deliberately raises nothing.
            pr.retx(state, self.sim._now)
        state.next_seq = state.acked
        state.rto_backoff = min(state.rto_backoff * 2.0, self.max_rto_backoff)
        state.cc.on_timeout(self.sim._now)
        self._arm_rto(state)
        self._try_send(state)

    # -- receiver ---------------------------------------------------------------

    def add_receiver_flow(self, flow: Flow) -> ReceiverState:
        if flow.flow_id in self.receivers:
            raise ValueError(f"flow {flow.flow_id} already received on {self.name}")
        state = ReceiverState(flow)
        self.receivers[flow.flow_id] = state
        return state

    # -- datapath ------------------------------------------------------------------

    def receive(self, pkt: Packet, in_port: Optional[Port]) -> None:
        kind = pkt.kind
        if kind >= PAUSE:
            if in_port is not None:
                in_port.apply_pause(pkt)
            return
        if pkt.corrupt:
            # CRC failure: the packet (data, ACK or CNP alike) is discarded
            # silently; sender-side loss recovery covers the gap.
            self.corrupt_discards += 1
            pr = probe.PROBE
            if pr is not None:
                pr.corrupt_discard(self, pkt)
            return
        if kind == DATA:
            self._receive_data(pkt)
        elif kind == ACK:
            self._receive_ack(pkt)
        elif kind == CNP:
            self._receive_cnp(pkt)

    def _receive_data(self, pkt: Packet) -> None:
        state = self.receivers.get(pkt.flow_id)
        if state is None:
            raise RuntimeError(
                f"{self.name}: data for unknown flow {pkt.flow_id} ({pkt!r})"
            )
        state.packets_received += 1
        # Cumulative-ACK discipline: only packets that extend the contiguous
        # prefix advance ``received``.  A packet beyond a loss-induced gap
        # must NOT be credited (go-back-N will resend the gap); a duplicate
        # or overlapping retransmission advances by its novel suffix only.
        end = pkt.seq + pkt.payload
        if pkt.seq <= state.received and end > state.received:
            state.received = end
        pr = probe.PROBE
        if pr is not None:
            pr.data(state, pkt)
        now = self.sim._now
        nic = self.ports[0]
        if state.flow.use_cnp and pkt.ece:
            if now - state.last_cnp_time >= self.cnp_interval_ns:
                state.last_cnp_time = now
                nic.enqueue(Packet.cnp(pkt.flow_id, self.node_id, pkt.src))
        nic.enqueue(Packet.ack(pkt, state.received, now))

    def _receive_ack(self, pkt: Packet) -> None:
        state = self.senders.get(pkt.flow_id)
        if state is None:
            self._no_sender(pkt, "ACK")
            return
        flow = state.flow
        now = self.sim._now
        newly = pkt.seq - state.acked
        if newly < 0:
            newly = 0
        else:
            state.acked = pkt.seq
        state.last_ack_time = now
        pr = probe.PROBE
        if pr is not None:
            # Every ACK, duplicates included, after ``acked`` moved.
            pr.ack(state, pkt, now)
        if self.loss_recovery and newly > 0:
            # Forward progress: reset the backoff and restart the RTO clock,
            # and leave stop-and-wait probing (the phase-lock is broken).
            state.rto_backoff = 1.0
            state.probe_mode = False
            state.last_rto_acked = -1
            self._arm_rto(state, reset=True)
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
            if pr is not None:
                pr.flow_complete(state, now)
            # Retire: the totals live on ``flow``; with the CC's back-pointer
            # cut, dropping ours frees state, CC and the INT records it kept.
            self.senders[flow.flow_id] = None
            state.cc.unbind()
            for cb in self.completion_callbacks:
                cb(flow)
            return
        self._try_send(state)

    def _receive_cnp(self, pkt: Packet) -> None:
        state = self.senders.get(pkt.flow_id)
        if state is None:
            self._no_sender(pkt, "CNP")
            return
        state.cc.on_cnp(self.sim._now)
        # Rate may have dropped; pacing timer handles future sends. No-op here.

    def _no_sender(self, pkt: Packet, what: str) -> None:
        """An ACK / CNP with no sender state to land on: late, or a bug."""
        if pkt.flow_id not in self.senders:
            raise RuntimeError(f"{self.name}: {what} for unknown flow {pkt.flow_id}")
        self.late_packets += 1
        pr = probe.PROBE
        if pr is not None:
            pr.late_packet(self, pkt)
