"""Tests for packet construction, INT records, and sizes."""

import pytest

from repro.sim.packet import (
    ACK,
    ACK_BYTES,
    CNP,
    CNP_BYTES,
    HEADER_BYTES,
    KIND_NAMES,
    PAUSE,
    PAUSE_BYTES,
    RESUME,
    AckContext,
    HopRecord,
    Packet,
)


class TestDataPacket:
    def test_wire_size_adds_header(self):
        pkt = Packet.data(1, 0, 2, seq=0, payload=1000, send_ts=5.0)
        assert pkt.size == 1000 + HEADER_BYTES
        assert pkt.payload == 1000

    def test_data_has_empty_int_list(self):
        pkt = Packet.data(1, 0, 2, 0, 1000, 0.0)
        assert pkt.int_records == []
        assert pkt.hops == 0

    def test_end_seq(self):
        pkt = Packet.data(1, 0, 2, seq=3000, payload=500, send_ts=0.0)
        assert pkt.end_seq() == 3500

    def test_zero_payload_rejected(self):
        with pytest.raises(ValueError):
            Packet.data(1, 0, 2, 0, 0, 0.0)

    def test_kind_flags(self):
        pkt = Packet.data(1, 0, 2, 0, 100, 0.0)
        assert pkt.is_data and not pkt.is_ack and not pkt.is_control

    def test_ecmp_hash_and_priority_carried(self):
        pkt = Packet.data(1, 0, 2, 0, 100, 0.0, ecmp_hash=77, priority=3)
        assert pkt.ecmp_hash == 77
        assert pkt.priority == 3


class TestAck:
    def _data(self):
        pkt = Packet.data(flow_id=9, src=1, dst=5, seq=2000, payload=1000, send_ts=123.0)
        pkt.ece = True
        pkt.hops = 3
        pkt.int_records.append(HopRecord(100.0, 5000.0, 10.0, 1e9))
        return pkt

    def test_ack_reverses_direction(self):
        ack = Packet.ack(self._data(), cumulative_seq=3000, recv_ts=200.0)
        assert ack.kind == ACK
        assert (ack.src, ack.dst) == (5, 1)
        assert ack.flow_id == 9

    def test_ack_carries_cumulative_seq_and_size(self):
        ack = Packet.ack(self._data(), 3000, 200.0)
        assert ack.seq == 3000
        assert ack.size == ACK_BYTES
        assert ack.payload == 0

    def test_ack_echoes_telemetry(self):
        data = self._data()
        ack = Packet.ack(data, 3000, 200.0)
        assert ack.ece is True
        assert ack.int_records is data.int_records
        assert ack.hops == 3
        assert ack.send_ts == 123.0  # original send timestamp for RTT

    def test_ack_preserves_ecmp_hash(self):
        data = self._data()
        ack = Packet.ack(data, 3000, 200.0)
        assert ack.ecmp_hash == data.ecmp_hash


class TestControlPackets:
    def test_cnp(self):
        cnp = Packet.cnp(flow_id=4, src=2, dst=7)
        assert cnp.kind == CNP
        assert cnp.size == CNP_BYTES
        assert not cnp.is_control  # CNPs are routed like normal packets

    def test_pause_frame(self):
        p = Packet.pause(src=1, dst=2, duration_ns=500.0)
        assert p.kind == PAUSE
        assert p.is_control
        assert p.pause_duration == 500.0
        assert p.size == PAUSE_BYTES

    def test_resume_frame(self):
        p = Packet.pause(src=1, dst=2, duration_ns=0.0)
        assert p.kind == RESUME
        assert p.is_control

    @pytest.mark.parametrize("kind", sorted(KIND_NAMES))
    def test_datapath_kind_test_is_is_control(self, kind):
        # Port.enqueue, Switch.receive and Host.receive test ``kind >= PAUSE``.
        pkt = Packet(kind, 1, 0, 2, 0, 0, 64)
        assert (kind >= PAUSE) == pkt.is_control


class TestHopRecord:
    def test_fields(self):
        rec = HopRecord(qlen=1500.0, tx_bytes=1e6, ts=42.0, rate_bps=100e9)
        assert rec.qlen == 1500.0
        assert rec.tx_bytes == 1e6
        assert rec.ts == 42.0
        assert rec.rate_bps == 100e9


class TestAckContext:
    def test_fields(self):
        ctx = AckContext(
            now=10.0,
            ack_seq=2000,
            newly_acked=1000,
            ece=False,
            int_records=None,
            rtt=5200.0,
            hops=2,
        )
        assert ctx.ack_seq == 2000
        assert ctx.newly_acked == 1000
        assert ctx.rtt == 5200.0
