"""Tests for switch forwarding/ECMP/PFC and host sender/receiver logic."""

import pytest

from repro.cc.base import CCEnv, CongestionControl
from repro.check import invariants
from repro.check.invariants import InvariantViolation
from repro.sim import Flow, Network
from repro.sim.packet import CNP, Packet
from repro.sim.pfc import PfcConfig, PfcIngress
from repro.sim.switch import RoutingError
from repro.units import gbps, kb, us


class NullCC(CongestionControl):
    def __init__(self, env, window=1e12):
        super().__init__(env)
        self.window_bytes = window
        self.pacing_rate_bps = None
        self.cnp_times = []

    def on_ack(self, ctx):
        pass

    def on_cnp(self, now):
        self.cnp_times.append(now)


def env_for(net, src, dst):
    host = net.nodes[src]
    return CCEnv(
        line_rate_bps=host.ports[0].spec.rate_bps,
        base_rtt_ns=net.path_rtt_ns(src, dst),
        hops=net.hop_count(src, dst),
    )


class TestSwitchRouting:
    def test_unknown_destination_raises(self):
        net = Network()
        h = net.add_host()
        sw = net.add_switch()
        net.connect(h, sw, gbps(8), 0.0)
        net.build_routing()
        pkt = Packet.data(0, h.node_id, 12345, 0, 100, 0.0)
        with pytest.raises(RoutingError):
            sw.route(pkt)

    def test_ecmp_spreads_flows_but_pins_each(self):
        """Diamond: two equal paths; each flow uses exactly one."""
        net = Network()
        h0, h1 = net.add_host(), net.add_host()
        s_in, s_a, s_b, s_out = (net.add_switch() for _ in range(4))
        net.connect(h0, s_in, gbps(8), 0.0)
        net.connect(s_in, s_a, gbps(8), 0.0)
        net.connect(s_in, s_b, gbps(8), 0.0)
        net.connect(s_a, s_out, gbps(8), 0.0)
        net.connect(s_b, s_out, gbps(8), 0.0)
        net.connect(s_out, h1, gbps(8), 0.0)
        net.build_routing()
        group = s_in.routes[h1.node_id]
        assert len(group) == 2
        for fid in range(8):
            pkt1 = Packet.data(fid, h0.node_id, h1.node_id, 0, 100, 0.0,
                               ecmp_hash=Flow(fid, 0, 1, 1, 0).ecmp_hash)
            pkt2 = Packet.data(fid, h0.node_id, h1.node_id, 1000, 100, 0.0,
                               ecmp_hash=pkt1.ecmp_hash)
            assert s_in.route(pkt1) is s_in.route(pkt2)
        chosen = {
            s_in.route(
                Packet.data(f, h0.node_id, h1.node_id, 0, 100, 0.0,
                            ecmp_hash=Flow(f, 0, 1, 1, 0).ecmp_hash)
            )
            for f in range(32)
        }
        assert len(chosen) == 2  # both paths get used across many flows


class TestSwitchInlinedHelpers:
    """``Switch.receive`` writes out ``route`` and, with PFC off,
    ``PfcIngress.on_enqueue``; same results."""

    def test_forwarding_picks_the_port_route_picks(self):
        net = Network()
        h0, h1 = net.add_host(), net.add_host()
        s_in, s_a, s_b, s_out = (net.add_switch() for _ in range(4))
        net.connect(h0, s_in, gbps(8), 0.0)
        net.connect(s_in, s_a, gbps(8), 0.0)
        net.connect(s_in, s_b, gbps(8), 0.0)
        net.connect(s_a, s_out, gbps(8), 0.0)
        net.connect(s_b, s_out, gbps(8), 0.0)
        net.connect(s_out, h1, gbps(8), 0.0)
        net.build_routing()
        for switch, dst in ((s_in, h1), (s_in, h0)):  # ECMP pair, single port
            for fid in range(16):
                pkt = Packet.data(fid, 0, dst.node_id, 0, 100, 0.0,
                                  ecmp_hash=Flow(fid, 0, 1, 1, 0).ecmp_hash)
                out = switch.route(pkt)
                before = out.tx_bytes + out.queue_bytes
                switch.receive(pkt, None)
                assert out.tx_bytes + out.queue_bytes == before + pkt.size

    def test_pfc_off_accounting_is_pfc_ingress(self):
        net = Network()
        h0, h1 = net.add_host(), net.add_host()
        sw = net.add_switch()
        net.connect(h0, sw, gbps(8), 0.0)
        net.connect(sw, h1, gbps(8), 0.0)
        net.build_routing()
        in_port = sw.port_to[h0.node_id]
        shadow = PfcIngress(None)
        pkts = [Packet.data(0, h0.node_id, h1.node_id, 0, n, 0.0) for n in (1000, 1, 737)]
        for pkt in pkts:
            sw.receive(pkt, in_port)
            assert not shadow.on_enqueue(pkt.size)
            assert in_port.pfc_ingress.occupancy == shadow.occupancy
        for pkt in pkts:
            sw.on_forwarded(pkt, in_port)
            assert not shadow.on_release(pkt.size)
            assert in_port.pfc_ingress.occupancy == shadow.occupancy
        # One release too many goes through PfcIngress.on_release: clamped
        # to zero, and the sanitizer sees the pre-clamp value.
        sw.on_forwarded(pkts[0], in_port)
        assert in_port.pfc_ingress.occupancy == 0.0
        with invariants.capture(), pytest.raises(InvariantViolation) as err:
            sw.on_forwarded(pkts[0], in_port)
        assert "-1048" in str(err.value)


class TestHostReceiver:
    def _net(self, red=None):
        net = Network()
        h0, h1 = net.add_host(), net.add_host()
        sw = net.add_switch()
        net.connect(h0, sw, gbps(8), us(1), red=red)
        net.connect(h1, sw, gbps(8), us(1), red=red)
        net.build_routing()
        return net, h0, h1

    def test_ack_per_packet(self):
        net, h0, h1 = self._net()
        flow = Flow(0, h0.node_id, h1.node_id, 5000, 0.0)
        net.add_flow(flow, NullCC(env_for(net, h0.node_id, h1.node_id)))
        net.run_until_flows_complete(timeout_ns=us(1000))
        assert h1.receivers[0].packets_received == 5

    def test_unknown_flow_data_raises(self):
        net, h0, h1 = self._net()
        pkt = Packet.data(77, h0.node_id, h1.node_id, 0, 100, 0.0)
        with pytest.raises(RuntimeError):
            h1.receive(pkt, None)

    #: RED profile that marks every packet that sees any backlog at all.
    MARK_ALL = __import__("repro.sim.port", fromlist=["RedConfig"]).RedConfig(
        kmin_bytes=0.0, kmax_bytes=1.0, pmax=1.0
    )

    def test_cnp_generated_for_marked_packets(self):
        net, h0, h1 = self._net(red=self.MARK_ALL)
        flow = Flow(0, h0.node_id, h1.node_id, 50_000, 0.0)
        flow.use_cnp = True
        cc = NullCC(env_for(net, h0.node_id, h1.node_id))
        net.add_flow(flow, cc)
        net.run_until_flows_complete(timeout_ns=us(5000))
        # 50 packets arrive within ~60 us; CNPs are spaced >= 50 us apart,
        # so only the first marked packet (and possibly one more) yields one.
        assert 1 <= len(cc.cnp_times) <= 2

    def test_cnp_interval_respected(self):
        net, h0, h1 = self._net(red=self.MARK_ALL)
        h1.cnp_interval_ns = us(5)
        flow = Flow(0, h0.node_id, h1.node_id, 50_000, 0.0)
        flow.use_cnp = True
        cc = NullCC(env_for(net, h0.node_id, h1.node_id))
        net.add_flow(flow, cc)
        net.run_until_flows_complete(timeout_ns=us(5000))
        assert len(cc.cnp_times) >= 2
        gaps = [b - a for a, b in zip(cc.cnp_times, cc.cnp_times[1:])]
        assert all(g >= us(5) - 1e-6 for g in gaps)


class TestPfcEndToEnd:
    def test_pause_prevents_drops_on_tiny_buffer(self):
        """With PFC on, a 2-to-1 overload backs pressure up instead of dropping."""
        pfc = PfcConfig(xoff=kb(20), xon=kb(10))
        net = Network()
        hosts = [net.add_host() for _ in range(3)]
        sw = net.add_switch()
        for h in hosts:
            net.connect(h, sw, gbps(8), us(1), pfc=pfc)
        net.build_routing()
        dst = hosts[2].node_id
        for i, h in enumerate(hosts[:2]):
            net.add_flow(
                Flow(i, h.node_id, dst, 200_000, 0.0),
                NullCC(env_for(net, h.node_id, dst)),
            )
        assert net.run_until_flows_complete(timeout_ns=us(20_000))
        assert net.total_drops() == 0

    def test_pause_frames_flow_upstream(self):
        pfc = PfcConfig(xoff=kb(20), xon=kb(10))
        net = Network()
        hosts = [net.add_host() for h in range(3)]
        sw = net.add_switch()
        ports = [net.connect(h, sw, gbps(8), us(1), pfc=pfc) for h in hosts]
        net.build_routing()
        dst = hosts[2].node_id
        for i, h in enumerate(hosts[:2]):
            net.add_flow(
                Flow(i, h.node_id, dst, 500_000, 0.0),
                NullCC(env_for(net, h.node_id, dst)),
            )
        net.run(until=us(100))
        # The switch's ingress accounting toward either sender crossed XOFF
        # and paused at least one sender NIC at some point.
        paused_any = any(
            h.nic.pfc_egress.paused_until > 0 for h in hosts[:2]
        )
        assert paused_any
