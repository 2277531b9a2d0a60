"""Packets, acknowledgements, and in-band network telemetry records.

Packets are deliberately light-weight (``__slots__``) because the datacenter
simulations push hundreds of thousands of them through the event loop.  A
single :class:`Packet` class covers data packets, ACKs, CNPs (DCQCN
congestion-notification packets), and PFC pause frames, discriminated by
:attr:`Packet.kind` — this avoids isinstance dispatch on the hot path.

INT (in-band network telemetry) is modelled exactly as HPCC consumes it: every
switch egress port appends a :class:`HopRecord` carrying the queue length at
dequeue time, the cumulative bytes the port has transmitted, the timestamp,
and the port's line rate.  The receiver echoes the final record list back on
the ACK.
"""

from __future__ import annotations

from typing import List, Optional

# Packet kinds (ints, not an Enum, to keep hot-path comparisons cheap).  The
# two PFC kinds sort last on purpose: the datapath tests ``kind >= PAUSE``
# where it means :attr:`Packet.is_control`.
DATA = 0
ACK = 1
CNP = 2
PAUSE = 3
RESUME = 4

KIND_NAMES = {DATA: "DATA", ACK: "ACK", CNP: "CNP", PAUSE: "PAUSE", RESUME: "RESUME"}

#: Bytes of L2/L3/L4 header added to every data packet's payload.  RoCEv2
#: framing is ~58 B on the wire; we use 48 B like the HPCC artifact simulator.
HEADER_BYTES = 48
#: On-the-wire size of an acknowledgement.
ACK_BYTES = 64
#: On-the-wire size of a DCQCN congestion-notification packet.
CNP_BYTES = 64
#: On-the-wire size of a PFC pause/resume frame.
PAUSE_BYTES = 64


class HopRecord:
    """One INT stamp, added at a switch egress port.

    Attributes
    ----------
    qlen:
        Egress queue length in bytes observed when this packet was dequeued.
    tx_bytes:
        Cumulative bytes the egress port has transmitted (monotonic counter),
        including this packet.
    ts:
        Timestamp (ns) at which this packet began serialization on the port.
    rate_bps:
        Line rate of the egress port in bits/second.
    """

    __slots__ = ("qlen", "tx_bytes", "ts", "rate_bps")

    def __init__(self, qlen: float, tx_bytes: float, ts: float, rate_bps: float):
        self.qlen = qlen
        self.tx_bytes = tx_bytes
        self.ts = ts
        self.rate_bps = rate_bps

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"HopRecord(qlen={self.qlen:.0f}B, tx={self.tx_bytes:.0f}B, "
            f"ts={self.ts:.0f}ns, B={self.rate_bps / 1e9:.0f}Gbps)"
        )


class Packet:
    """A unit of transmission.

    For ``kind == DATA``: ``seq`` is the first payload byte's offset within
    the flow and ``payload`` the number of payload bytes; the wire size is
    ``payload + HEADER_BYTES``.

    For ``kind == ACK``: ``seq`` is the cumulative acknowledgement (all bytes
    < seq received), ``payload`` is 0 and the wire size is ``ACK_BYTES``.
    ``int_records`` echoes the data packet's telemetry and ``ece`` its ECN
    congestion-experienced mark.

    ``send_ts`` is stamped by the sending host and echoed on the ACK so that
    delay-based protocols (Swift) can measure RTT without per-packet state at
    the sender.
    """

    __slots__ = (
        "kind",
        "flow_id",
        "src",
        "dst",
        "seq",
        "payload",
        "size",
        "send_ts",
        "ece",
        "int_records",
        "hops",
        "ecmp_hash",
        "priority",
        "pause_duration",
        "corrupt",
        "fr",
    )

    def __init__(
        self,
        kind: int,
        flow_id: int,
        src: int,
        dst: int,
        seq: int,
        payload: int,
        size: int,
        send_ts: float = 0.0,
        ecmp_hash: int = 0,
        priority: int = 0,
    ):
        self.kind = kind
        self.flow_id = flow_id
        self.src = src
        self.dst = dst
        self.seq = seq
        self.payload = payload
        self.size = size
        self.send_ts = send_ts
        self.ece = False
        self.int_records: Optional[List[HopRecord]] = None
        self.hops = 0
        self.ecmp_hash = ecmp_hash
        self.priority = priority
        self.pause_duration = 0.0
        # Set by fault injectors; corrupt packets are discarded (and counted)
        # by the destination host's CRC check, never acknowledged.
        self.corrupt = False
        # Flight-recorder stamp (repro.obs.flightrec): None unless the
        # recorder is on and this is a data packet or its echoed ACK.
        self.fr = None

    # -- constructors ---------------------------------------------------

    @classmethod
    def data(
        cls,
        flow_id: int,
        src: int,
        dst: int,
        seq: int,
        payload: int,
        send_ts: float,
        ecmp_hash: int = 0,
        priority: int = 0,
    ) -> "Packet":
        """Build a data packet; wire size adds the fixed header overhead."""
        if payload <= 0:
            raise ValueError(f"data packet needs positive payload, got {payload}")
        pkt = cls(
            DATA, flow_id, src, dst, seq, payload, payload + HEADER_BYTES,
            send_ts, ecmp_hash, priority,
        )
        pkt.int_records = []
        return pkt

    @classmethod
    def ack(cls, data_pkt: "Packet", cumulative_seq: int, recv_ts: float) -> "Packet":
        """Build the acknowledgement for ``data_pkt`` (reverse direction)."""
        ackp = cls(
            ACK, data_pkt.flow_id, data_pkt.dst, data_pkt.src, cumulative_seq, 0, ACK_BYTES,
            data_pkt.send_ts, data_pkt.ecmp_hash, data_pkt.priority,
        )
        ackp.ece = data_pkt.ece
        ackp.int_records = data_pkt.int_records
        ackp.hops = data_pkt.hops
        # Echo the flight-recorder stamp: the return path keeps accumulating
        # on it, so the sender sees one full round-trip breakdown per ACK.
        ackp.fr = data_pkt.fr
        return ackp

    @classmethod
    def cnp(cls, flow_id: int, src: int, dst: int) -> "Packet":
        """Build a DCQCN congestion-notification packet."""
        return cls(CNP, flow_id, src, dst, 0, 0, CNP_BYTES)

    @classmethod
    def pause(cls, src: int, dst: int, duration_ns: float, priority: int = 0) -> "Packet":
        """Build a PFC pause frame (duration 0 encodes resume)."""
        kind = PAUSE if duration_ns > 0 else RESUME
        pkt = cls(kind, -1, src, dst, 0, 0, PAUSE_BYTES, priority=priority)
        pkt.pause_duration = duration_ns
        return pkt

    # -- helpers ----------------------------------------------------------

    @property
    def is_data(self) -> bool:
        return self.kind == DATA

    @property
    def is_ack(self) -> bool:
        return self.kind == ACK

    @property
    def is_control(self) -> bool:
        """PFC frames are link-local control, never routed or queued."""
        return self.kind == PAUSE or self.kind == RESUME

    def end_seq(self) -> int:
        """One past the last payload byte carried by a data packet."""
        return self.seq + self.payload

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<{KIND_NAMES[self.kind]} flow={self.flow_id} {self.src}->{self.dst} "
            f"seq={self.seq} payload={self.payload} size={self.size}>"
        )


class AckContext:
    """Everything a congestion-control module may inspect for one ACK.

    This is the boundary between the substrate (:mod:`repro.sim`) and the
    protocols (:mod:`repro.cc`): host receive logic fills one of these and
    hands it to :meth:`repro.cc.base.CongestionControl.on_ack`.

    The context is only valid for the duration of the ``on_ack`` call — the
    host reuses a single instance per ACK to avoid an allocation on the
    hottest receive path.  Protocols may keep the ``int_records`` list (HPCC
    does, across one RTT) but must copy any scalar they need later.
    """

    __slots__ = (
        "now",
        "ack_seq",
        "newly_acked",
        "ece",
        "int_records",
        "rtt",
        "hops",
    )

    def __init__(
        self,
        now: float,
        ack_seq: int,
        newly_acked: int,
        ece: bool,
        int_records: Optional[List[HopRecord]],
        rtt: float,
        hops: int,
    ):
        self.now = now
        self.ack_seq = ack_seq
        self.newly_acked = newly_acked
        self.ece = ece
        self.int_records = int_records
        self.rtt = rtt
        self.hops = hops

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"AckContext(t={self.now:.0f}, seq={self.ack_seq}, "
            f"acked={self.newly_acked}, ece={self.ece}, rtt={self.rtt:.0f}ns)"
        )
