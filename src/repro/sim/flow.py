"""Flow descriptors and per-endpoint runtime state.

A :class:`Flow` is the unit of workload: ``size`` payload bytes from ``src``
to ``dst`` starting at ``start_time``.  The same object is visible to both
endpoints (a simulation shortcut — the "wire format" state they could not
share, like sequence numbers, lives in the per-endpoint state classes).

Completion semantics match the HPCC artifact: a flow finishes when the
*sender* receives the ACK covering its final byte, so FCT includes the final
ACK's return trip.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..cc.base import CongestionControl


class Flow:
    """Workload-level description plus completion bookkeeping."""

    __slots__ = (
        "flow_id",
        "src",
        "dst",
        "size",
        "start_time",
        "priority",
        "ecmp_hash",
        "use_cnp",
        "finish_time",
        "started",
        "packets_sent",
        "retransmits",
        "retransmitted_bytes",
    )

    def __init__(
        self,
        flow_id: int,
        src: int,
        dst: int,
        size: int,
        start_time: float,
        priority: int = 0,
        ecmp_hash: Optional[int] = None,
    ):
        if size <= 0:
            raise ValueError(f"flow size must be positive, got {size}")
        if src == dst:
            raise ValueError(f"flow {flow_id}: src == dst == {src}")
        self.flow_id = flow_id
        self.src = src
        self.dst = dst
        self.size = size
        self.start_time = start_time
        self.priority = priority
        # A flow-stable hash pins the ECMP path; default derives from the id
        # with a multiplicative scramble so consecutive ids spread out.
        self.ecmp_hash = (
            ecmp_hash if ecmp_hash is not None else (flow_id * 2654435761) & 0xFFFFFFFF
        )
        self.use_cnp = False
        self.finish_time: Optional[float] = None
        self.started = False
        # Sender-side totals.  They are kept here, not on SenderState, because
        # that is dropped at completion and results are read after it.  The
        # last two move only under loss recovery (Host.enable_loss_recovery).
        self.packets_sent = 0
        self.retransmits = 0
        self.retransmitted_bytes = 0

    @property
    def completed(self) -> bool:
        return self.finish_time is not None

    @property
    def fct(self) -> Optional[float]:
        """Flow completion time in nanoseconds (None until completed)."""
        if self.finish_time is None:
            return None
        return self.finish_time - self.start_time

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        done = f"fct={self.fct:.0f}ns" if self.completed else "running"
        return (
            f"<Flow {self.flow_id} {self.src}->{self.dst} size={self.size}B "
            f"start={self.start_time:.0f}ns {done}>"
        )


class SenderState:
    """Sender-side runtime state for one flow, from its start event to its
    completing ACK (:class:`repro.sim.host.Host` builds and drops it).

    The ``rto_*`` fields are only active when the owning host has loss
    recovery enabled (see :meth:`repro.sim.host.Host.enable_loss_recovery`);
    on a lossless fabric they stay at their initial values.
    """

    __slots__ = (
        "flow",
        "cc",
        "next_seq",
        "acked",
        "next_allowed",
        "timer",
        "last_ack_time",
        "rto_timer",
        "rto_ns",
        "rto_backoff",
        "last_rto_acked",
        "probe_mode",
        "fr",
    )

    def __init__(self, flow: Flow, cc: "CongestionControl"):
        self.flow = flow
        self.cc = cc
        self.next_seq = 0
        self.acked = 0
        self.next_allowed = 0.0
        self.timer = None
        self.last_ack_time = 0.0
        self.rto_timer = None
        self.rto_ns = 0.0  # assigned when the host enables loss recovery
        self.rto_backoff = 1.0
        # Anti-livelock probe (see Host._rto_fired): the cumulative ACK at
        # the previous RTO, and whether the sender is in single-packet
        # stop-and-wait mode because consecutive RTOs made no progress.
        self.last_rto_acked = -1
        self.probe_mode = False
        # Flight-recorder track (repro.obs.flightrec); None unless the
        # recorder was on when this flow started.
        self.fr = None

    @property
    def inflight(self) -> int:
        return self.next_seq - self.acked

    @property
    def done_sending(self) -> bool:
        return self.next_seq >= self.flow.size


_NEVER = -float("inf")  # one shared object, not one per receiver


class ReceiverState:
    """Receiver-side runtime state for one flow."""

    __slots__ = ("flow", "received", "last_cnp_time", "packets_received")

    def __init__(self, flow: Flow):
        self.flow = flow
        self.received = 0  # contiguous bytes received
        self.last_cnp_time = _NEVER
        self.packets_received = 0
