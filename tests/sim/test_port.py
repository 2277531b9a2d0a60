"""Tests for the egress port: queueing, serialization, RED, INT, PFC pause."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sim.engine import Simulator
from repro.sim.link import LinkSpec
from repro.sim.node import Node
from repro.sim.packet import HEADER_BYTES, Packet
from repro.sim.pfc import PfcConfig
from repro.sim.port import Port, RedConfig


class Sink(Node):
    """Records arriving packets with timestamps."""

    def __init__(self, sim, node_id=99, name="sink"):
        super().__init__(sim, node_id, name)
        self.received = []

    def receive(self, pkt, in_port):
        self.received.append((self.sim.now(), pkt))


def make_port(sim, rate_bps=8e9, prop=100.0, **kwargs):
    """A port on a dummy owner wired to a Sink.  8 Gb/s = 1 byte/ns."""
    owner = Sink(sim, 1, "owner")
    port = Port(sim, owner, LinkSpec(rate_bps, prop), index=0, **kwargs)
    sink = Sink(sim)
    port.attach_peer(sink, None)
    owner.ports.append(port)
    return port, sink


def data_pkt(seq=0, payload=1000, flow=1):
    return Packet.data(flow, 1, 99, seq, payload, send_ts=0.0)


class TestTransmission:
    def test_single_packet_timing(self):
        sim = Simulator()
        port, sink = make_port(sim)  # 1 byte/ns, 100 ns prop
        pkt = data_pkt()
        port.enqueue(pkt)
        sim.run()
        # serialization = (1000+48) bytes at 1 B/ns, then 100 ns propagation
        assert sink.received[0][0] == pytest.approx(1048 + 100)

    def test_fifo_order_and_back_to_back(self):
        sim = Simulator()
        port, sink = make_port(sim)
        for i in range(3):
            port.enqueue(data_pkt(seq=i * 1000))
        sim.run()
        times = [t for t, _ in sink.received]
        seqs = [p.seq for _, p in sink.received]
        assert seqs == [0, 1000, 2000]
        # Spaced exactly one serialization time apart.
        assert times[1] - times[0] == pytest.approx(1048)
        assert times[2] - times[1] == pytest.approx(1048)

    def test_tx_bytes_accumulates(self):
        sim = Simulator()
        port, _ = make_port(sim)
        port.enqueue(data_pkt())
        port.enqueue(data_pkt(seq=1000))
        sim.run()
        assert port.tx_bytes == 2 * 1048

    def test_queue_bytes_tracks_occupancy(self):
        sim = Simulator()
        port, _ = make_port(sim)
        port.enqueue(data_pkt())
        port.enqueue(data_pkt(seq=1000))
        # First packet started serializing immediately; second still queued.
        assert port.queue_bytes == 1048
        sim.run()
        assert port.queue_bytes == 0

    def test_max_qlen_seen(self):
        sim = Simulator()
        port, _ = make_port(sim)
        for i in range(5):
            port.enqueue(data_pkt(seq=i * 1000))
        assert port.max_qlen_seen == 4 * 1048  # head leaves queue when tx starts
        sim.run()
        port.reset_counters()
        assert port.max_qlen_seen == 0


class TestInlinedSerialization:
    """``try_drain`` writes ``LinkSpec.serialization_ns`` out in place."""

    @given(
        rate_bps=st.floats(min_value=1e6, max_value=4e11),
        sizes=st.lists(st.integers(min_value=1, max_value=9000), min_size=1, max_size=8),
    )
    def test_packet_spacing_is_serialization_ns(self, rate_bps, sizes):
        sim = Simulator()
        port, sink = make_port(sim, rate_bps=rate_bps, prop=0.0)
        for size in sizes:
            port.enqueue(data_pkt(payload=size))
        sim.run()
        # Arrival times are the running sum of the function's own values,
        # bit for bit (``==``, not ``approx``).
        t, expected = 0.0, []
        for size in sizes:
            t = t + port.spec.serialization_ns(size + HEADER_BYTES)
            expected.append(t + port.spec.prop_delay_ns)
        assert [when for when, _ in sink.received] == expected


class TestPushEquivalence:
    """``Port`` writes its three calendar entries out instead of calling
    ``schedule_delivery`` / ``schedule_detached``; each must equal, slot for
    slot, what the method pushes on a twin simulator in the same state."""

    #: (rate_bps, prop_delay_ns, now).  The second row is the one-ULP case
    #: of ``TestScheduleDelivery``: ser = prop = 83.84 ns at t = 1000.
    STATES = [(8e9, 100.0, 0.0), (100e9, 83.84, 1000.0), (25e9, 1000.0, 12345.678)]

    @staticmethod
    def _at(now):
        sim = Simulator()
        sim.run(until=now)  # empty calendar: the clock just moves
        return sim

    @pytest.mark.parametrize("rate_bps,prop,now", STATES)
    def test_fused_delivery(self, rate_bps, prop, now):
        sim, twin = self._at(now), self._at(now)
        port, sink = make_port(sim, rate_bps=rate_bps, prop=prop)
        pkt = data_pkt()
        port.enqueue(pkt)
        t_end = now + port.spec.serialization_ns(pkt.size)
        twin.schedule_delivery(prop, t_end, None, sink.receive, pkt, None)
        assert list(sim._heap) == list(twin._heap)
        assert sim._seq == twin._seq == 1
        assert port.busy_until == t_end

    def test_fused_fire_time_is_the_one_ulp_case(self):
        sim = self._at(1000.0)
        port, _ = make_port(sim, rate_bps=100e9, prop=83.84)
        port.enqueue(data_pkt())
        assert sim.peek_time() == (1000.0 + 83.84) + 83.84 != 1000.0 + (83.84 + 83.84)

    @pytest.mark.parametrize("rate_bps,prop,now", STATES)
    def test_unfused_tx_done_then_its_delivery(self, rate_bps, prop, now):
        sim, twin = self._at(now), self._at(now)
        port, sink = make_port(sim, rate_bps=rate_bps, prop=prop)
        port.allow_fusion = False
        pkt = data_pkt()
        port.enqueue(pkt)
        ser = port.spec.serialization_ns(pkt.size)

        def tx_done_on_twin(*_):
            twin.schedule_delivery(prop, twin._now, twin._cur_seq, sink.receive, pkt, None)

        twin.schedule_detached(ser, tx_done_on_twin, pkt, None)
        (entry,), (twin_entry,) = sim._heap, twin._heap
        assert entry[:4] == twin_entry[:4] and entry[5] == twin_entry[5]
        assert entry[4] == port._tx_done
        assert sim._seq == twin._seq == 1

        sim.run(max_events=1)  # _tx_done fires and pushes the delivery
        twin.run(max_events=1)
        assert list(sim._heap) == list(twin._heap)
        assert sim._heap[0][:3] == (now + ser + prop, now + ser, 0)
        assert sim._seq == twin._seq == 1  # the delivery reuses tx-done's seq

    def test_the_three_sites_call_no_schedule_method(self):
        for fn in (Port.try_drain, Port._tx_done):
            names = set(fn.__code__.co_names)
            assert not names & {"schedule_delivery", "schedule_detached"}, fn.__qualname__

    def test_fig8_run_draws_the_same_sequence_numbers(self):
        # engine.events_scheduled is the run's _seq delta; the values are the
        # parent commit's, where every one of these pushes was a method call.
        from repro.experiments.config import scaled_incast
        from repro.experiments.runner import run_incast
        from repro.obs import registry

        for variant, scheduled in (("hpcc", 81_272), ("hpcc-vai-sf", 80_159)):
            with registry.capture() as reg:
                run_incast(scaled_incast(variant, 16))
            assert reg.snapshot()["counters"]["engine.events_scheduled"] == scheduled


class TestBufferLimit:
    def test_tail_drop_beyond_limit(self):
        sim = Simulator()
        port, sink = make_port(sim, max_queue_bytes=2100.0)  # fits two packets
        ok = [port.enqueue(data_pkt(seq=i * 1000)) for i in range(4)]
        sim.run()
        # First starts transmitting (leaves queue), next two fit, fourth drops.
        assert ok == [True, True, True, False]
        assert port.drops == 1
        assert len(sink.received) == 3

    def test_control_frames_never_dropped(self):
        sim = Simulator()
        port, sink = make_port(sim, max_queue_bytes=64.0)
        # The buffer cannot fit even one pause frame plus backlog, yet
        # control frames bypass the limit entirely.
        for _ in range(5):
            assert port.enqueue(Packet.pause(1, 99, 100.0)) is True
        assert port.drops == 0


class TestRedMarking:
    def test_no_marking_below_kmin(self):
        sim = Simulator()
        red = RedConfig(kmin_bytes=5000, kmax_bytes=10000, pmax=1.0)
        port, sink = make_port(sim, red=red, rng=random.Random(1))
        for i in range(3):
            port.enqueue(data_pkt(seq=i * 1000))
        sim.run()
        assert not any(p.ece for _, p in sink.received)

    def test_always_marks_above_kmax(self):
        sim = Simulator()
        red = RedConfig(kmin_bytes=100, kmax_bytes=1000, pmax=0.5)
        port, sink = make_port(sim, red=red, rng=random.Random(1))
        for i in range(5):
            port.enqueue(data_pkt(seq=i * 1000))
        sim.run()
        # Packets enqueued when queue > kmax must be marked.
        marked = [p.ece for _, p in sink.received]
        assert marked[2:] == [True, True, True]

    def test_mark_probability_linear(self):
        red = RedConfig(kmin_bytes=100, kmax_bytes=300, pmax=0.5)
        assert red.mark_probability(100) == 0.0
        assert red.mark_probability(200) == pytest.approx(0.25)
        assert red.mark_probability(300) == 1.0
        assert red.mark_probability(1000) == 1.0

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            RedConfig(kmin_bytes=300, kmax_bytes=100, pmax=0.5)
        with pytest.raises(ValueError):
            RedConfig(kmin_bytes=0, kmax_bytes=100, pmax=1.5)

    def test_statistical_marking_rate(self):
        """At fixed queue depth the empirical mark rate matches RED's formula."""
        red = RedConfig(kmin_bytes=0, kmax_bytes=10_000, pmax=1.0)
        rng = random.Random(7)
        marks = 0
        trials = 4000
        qlen = 2500.0  # -> probability 0.25
        for _ in range(trials):
            if rng.random() < red.mark_probability(qlen):
                marks += 1
        assert marks / trials == pytest.approx(0.25, abs=0.03)


class TestIntStamping:
    def test_stamping_appends_record(self):
        sim = Simulator()
        port, sink = make_port(sim, stamp_int=True)
        # The first packet starts serializing immediately (stamped with an
        # empty queue); the second dequeues while the third still waits.
        port.enqueue(data_pkt())
        port.enqueue(data_pkt(seq=1000))
        port.enqueue(data_pkt(seq=2000))
        sim.run()
        first = sink.received[0][1]
        second = sink.received[1][1]
        third = sink.received[2][1]
        assert len(first.int_records) == 1
        rec1, rec2, rec3 = (
            first.int_records[0],
            second.int_records[0],
            third.int_records[0],
        )
        assert rec1.qlen == 0.0
        assert rec2.qlen == 1048.0  # third packet was waiting behind it
        assert rec3.qlen == 0.0
        assert rec3.tx_bytes == 3 * 1048  # cumulative including itself
        assert rec2.ts > rec1.ts
        assert first.hops == 1

    def test_no_stamping_when_disabled(self):
        sim = Simulator()
        port, sink = make_port(sim, stamp_int=False)
        port.enqueue(data_pkt())
        sim.run()
        assert sink.received[0][1].int_records == []


class TestPfcPause:
    def test_pause_halts_draining(self):
        sim = Simulator()
        port, sink = make_port(sim)
        port.apply_pause(Packet.pause(2, 1, duration_ns=5000.0))
        port.enqueue(data_pkt())
        sim.run(until=4000.0)
        assert sink.received == []
        sim.run()
        # Wakes at 5000, serialization 1048, prop 100.
        assert sink.received[0][0] == pytest.approx(5000 + 1048 + 100)

    def test_resume_restarts_immediately(self):
        sim = Simulator()
        port, sink = make_port(sim)
        port.apply_pause(Packet.pause(2, 1, duration_ns=1e9))
        port.enqueue(data_pkt())
        sim.schedule(2000.0, port.apply_pause, Packet.pause(2, 1, duration_ns=0.0))
        sim.run()
        assert sink.received[0][0] == pytest.approx(2000 + 1048 + 100)

    def test_pause_does_not_abort_inflight_packet(self):
        sim = Simulator()
        port, sink = make_port(sim)
        port.enqueue(data_pkt())  # starts serializing at t=0
        sim.schedule(10.0, port.apply_pause, Packet.pause(2, 1, duration_ns=1e6))
        port.enqueue(data_pkt(seq=1000))
        sim.run(until=500_000.0)
        assert len(sink.received) == 1  # first finished, second held


class TestDropReleasesPfcAccounting:
    """Covers the drop-while-PFC-accounted path in Port.enqueue.

    A packet tail-dropped at a switch egress never departs, so the departure
    that would have released its ingress PFC accounting never happens.  The
    drop path must release the bytes immediately — otherwise the inflated
    occupancy stays above XON forever and the upstream pause latches until
    the quanta expire (33 ms with the defaults), deadlocking the run.
    """

    def _overloaded_net(self):
        from repro.cc.base import CCEnv, CongestionControl
        from repro.sim import Flow, Network
        from repro.units import gbps, us

        class BlastCC(CongestionControl):
            def __init__(self, env):
                super().__init__(env)
                self.window_bytes = 1e12

            def on_ack(self, ctx):
                pass

        pfc = PfcConfig(xoff=3000.0, xon=1000.0)
        net = Network()
        hosts = [net.add_host() for _ in range(3)]
        sw = net.add_switch()
        for h in hosts[:2]:
            net.connect(h, sw, gbps(8), us(1), pfc=pfc)
        # Receiver link: a buffer so small the 2-to-1 overload must drop.
        net.connect(hosts[2], sw, gbps(8), us(1), pfc=pfc,
                    max_queue_bytes=6000.0)
        net.build_routing()
        net.enable_loss_recovery()
        dst = hosts[2].node_id
        for i, h in enumerate(hosts[:2]):
            env = CCEnv(
                line_rate_bps=gbps(8),
                base_rtt_ns=net.path_rtt_ns(h.node_id, dst),
                hops=net.hop_count(h.node_id, dst),
            )
            net.add_flow(Flow(i, h.node_id, dst, 30_000, 0.0), BlastCC(env))
        return net, hosts, sw

    def test_drop_while_paused_sends_resume(self):
        """Deterministic walk of the exact path: the ingress has crossed
        XOFF (upstream paused) and the very packet that tail-drops brings
        occupancy back under XON — the RESUME must come from the drop path,
        because no departure will ever fire for a dropped packet."""
        from repro.cc.base import CCEnv, CongestionControl
        from repro.sim import Flow, Network
        from repro.sim.packet import Packet as Pkt
        from repro.units import gbps, us

        class IdleCC(CongestionControl):
            def on_ack(self, ctx):
                pass

        pfc = PfcConfig(xoff=3000.0, xon=2500.0)
        net = Network()
        sender, sink = net.add_host(), net.add_host()
        sw = net.add_switch()
        net.connect(sender, sw, gbps(8), us(1), pfc=pfc)
        # Bottleneck holds one queued packet: the third in a burst drops.
        net.connect(sink, sw, gbps(8), us(1), pfc=pfc, max_queue_bytes=1100.0)
        net.build_routing()
        # Register the flow so the sink's ACKs are for a flow the sender
        # knows, but feed the data by hand: the flow itself never starts, so
        # the sender never transmits (and drops those ACKs, counted).
        flow = Flow(0, sender.node_id, sink.node_id, 3000, 1e18)
        env = CCEnv(line_rate_bps=gbps(8), base_rtt_ns=us(4), hops=2)
        net.add_flow(flow, IdleCC(env))
        in_port = sw.port_to[sender.node_id]
        ingress = in_port.pfc_ingress

        def feed(seq):
            sw.receive(
                Pkt.data(0, sender.node_id, sink.node_id, seq, 1000, 0.0),
                in_port,
            )

        feed(0)  # starts serializing on the bottleneck
        feed(1000)  # queued (1048 <= 1100)
        assert ingress.occupancy == pytest.approx(2096.0)
        assert not ingress.paused_upstream
        # Third packet: charging it crosses XOFF (3144 >= 3000) -> PAUSE
        # goes upstream; then the egress tail-drops it, and the release
        # (3144 - 1048 = 2096 <= XON) must send the RESUME right there.
        feed(2000)
        bottleneck = sw.port_to[sink.node_id]
        assert bottleneck.drops == 1
        assert ingress.occupancy == pytest.approx(2096.0)
        assert not ingress.paused_upstream  # resumed by the drop release
        net.run(until=us(100))
        # Both control frames traversed the wire; the sender ends unpaused
        # and every byte of accounting drains with the queue.
        assert sender.nic.pfc_egress.paused_until == 0.0
        assert ingress.occupancy == pytest.approx(0.0)

    def test_overload_with_drops_leaks_no_accounting(self):
        from repro.units import us

        net, hosts, sw = self._overloaded_net()
        bottleneck = sw.port_to[hosts[2].node_id]
        status = net.run_until_flows_complete(timeout_ns=us(5000))
        # The 2-to-1 overload drops, yet the run completes (go-back-N
        # refills the gaps) and no PFC accounting is left behind.
        assert bottleneck.drops > 0
        assert status, status.stop_reason
        for port in sw.ports:
            assert port.pfc_ingress.occupancy == pytest.approx(0.0)
            assert not port.pfc_ingress.paused_upstream
