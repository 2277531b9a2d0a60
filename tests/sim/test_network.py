"""Tests for network wiring, routing, path utilities, and flow transfer."""

import pytest

from repro.cc.base import CCEnv, CongestionControl
from repro.sim import Flow, Network
from repro.sim.packet import ACK_BYTES, HEADER_BYTES
from repro.units import gbps, us


class FixedWindowCC(CongestionControl):
    """Minimal CC: fixed window, no pacing (test double)."""

    def __init__(self, env, window_bytes=1e12):
        super().__init__(env)
        self.window_bytes = window_bytes
        self.pacing_rate_bps = None
        self.acks = 0

    def on_ack(self, ctx):
        self.acks += 1


def two_host_net(rate=gbps(8.0), delay=us(1.0)):
    """host0 -- switch -- host1 at 1 byte/ns."""
    net = Network(seed=3)
    h0, h1 = net.add_host("h0"), net.add_host("h1")
    sw = net.add_switch("sw")
    net.connect(h0, sw, rate, delay)
    net.connect(h1, sw, rate, delay)
    net.build_routing()
    return net, h0, h1


def env_for(net, src, dst):
    host = net.nodes[src]
    return CCEnv(
        line_rate_bps=host.ports[0].spec.rate_bps,
        base_rtt_ns=net.path_rtt_ns(src, dst),
        hops=net.hop_count(src, dst),
        min_bdp_bytes=net.min_bdp_bytes(src, dst),
    )


class TestWiring:
    def test_connect_creates_paired_ports(self):
        net, h0, h1 = two_host_net()
        sw = net.switches[0]
        assert h0.port_to[sw.node_id].peer_node is sw
        assert sw.port_to[h0.node_id].peer_node is h0
        p = h0.port_to[sw.node_id]
        assert p.peer_port is sw.port_to[h0.node_id]

    def test_switch_ports_stamp_int_host_ports_do_not(self):
        net, h0, h1 = two_host_net()
        sw = net.switches[0]
        assert sw.port_to[h0.node_id].stamp_int
        assert not h0.port_to[sw.node_id].stamp_int

    def test_cannot_modify_after_routing(self):
        net, h0, h1 = two_host_net()
        with pytest.raises(RuntimeError):
            net.connect(h0, h1, gbps(1), 0.0)


class TestPathUtilities:
    def test_hop_count(self):
        net, h0, h1 = two_host_net()
        assert net.hop_count(h0.node_id, h1.node_id) == 2

    def test_path_rtt_matches_hand_computation(self):
        net, h0, h1 = two_host_net()  # 1 B/ns links, 1000 ns prop each
        pkt = 1000 + HEADER_BYTES
        expected = 2 * (pkt + 1000.0) + 2 * (ACK_BYTES + 1000.0)
        assert net.path_rtt_ns(h0.node_id, h1.node_id) == pytest.approx(expected)

    def test_min_bdp(self):
        net, h0, h1 = two_host_net()
        rtt = net.path_rtt_ns(h0.node_id, h1.node_id)
        assert net.min_bdp_bytes(h0.node_id, h1.node_id) == pytest.approx(
            gbps(8.0) / 8.0 * rtt / 1e9
        )

    def test_shortest_path_endpoints(self):
        net, h0, h1 = two_host_net()
        path = net._shortest_path(h0.node_id, h1.node_id)
        assert path[0] == h0.node_id and path[-1] == h1.node_id
        assert len(path) == 3

    def test_one_bfs_per_destination_shared_with_routing(self, monkeypatch):
        """Routing, paths, RTTs, hop counts and ideal FCTs read one search
        per destination, made again only after the topology changes."""
        from repro.metrics.fct import ideal_fct_ns
        from repro.sim import network as network_module

        searches = []
        bfs = network_module.bfs_distances
        monkeypatch.setattr(
            network_module,
            "bfs_distances",
            lambda adj, dst: searches.append(dst) or bfs(adj, dst),
        )
        net, h0, h1 = two_host_net()
        sw = net.switches[0]
        assert searches == [h0.node_id, h1.node_id]  # build_routing: one per host

        def lookups():
            return [
                (net.path_rtt_ns(a, b), ideal_fct_ns(net, a, b, 5000), net.hop_count(a, b))
                for a, b in ((h0.node_id, h1.node_id), (h1.node_id, h0.node_id))
            ]

        first = lookups()
        assert lookups() == first  # same operands in the same order: same bits
        assert searches == [h0.node_id, h1.node_id]  # toward a routed host: free
        assert net.hop_count(h0.node_id, sw.node_id) == 1
        assert net.hop_count(h1.node_id, sw.node_id) == 1
        assert searches[2:] == [sw.node_id]  # a switch destination: once, on demand
        del searches[:]
        net.set_link_state(h0.node_id, sw.node_id, False)
        net.set_link_state(h0.node_id, sw.node_id, True)
        assert searches == [h0.node_id, h1.node_id] * 2  # each flap: one per host
        assert lookups() == first
        assert searches == [h0.node_id, h1.node_id] * 2

    def test_link_flap_invalidates_remembered_paths(self):
        from repro.topology.fattree import build_fattree, scaled_fattree_params

        net = build_fattree(scaled_fattree_params(), seed=1).network
        src, dst = net.hosts[0].node_id, net.hosts[-1].node_id
        before = list(net._shortest_path(src, dst))
        rtt = net.path_rtt_ns(src, dst)
        a, b = before[2], before[3]  # an aggregation-to-spine hop: there are others
        net.set_link_state(a, b, False)
        detour = list(net._shortest_path(src, dst))
        assert detour != before and (a, b) not in zip(detour, detour[1:])
        assert len(detour) == len(before) and net.path_rtt_ns(src, dst) == rtt
        net.set_link_state(a, b, True)
        assert list(net._shortest_path(src, dst)) == before
        net.set_link_state(src, before[1], False)  # the only way out of src
        with pytest.raises(RuntimeError, match="no path"):
            net._shortest_path(src, dst)


class TestFlowTransfer:
    def test_single_flow_completes_with_correct_fct(self):
        net, h0, h1 = two_host_net()
        env = env_for(net, h0.node_id, h1.node_id)
        flow = Flow(0, h0.node_id, h1.node_id, size=5000, start_time=0.0)
        net.add_flow(flow, FixedWindowCC(env))
        assert net.run_until_flows_complete(timeout_ns=us(1000))
        assert flow.completed
        # 5 packets of 1048 B over two 1 B/ns hops with 1 us prop each,
        # cumulative-ACK return: FCT is first-packet pipeline latency plus
        # 4 more serializations at the bottleneck, plus the final ACK trip.
        first_leg = 2 * (1048 + 1000.0)
        stream = 4 * 1048
        ack = 2 * (ACK_BYTES + 1000.0)
        assert flow.fct == pytest.approx(first_leg + stream + ack)

    def test_flow_delivers_exact_bytes(self):
        net, h0, h1 = two_host_net()
        env = env_for(net, h0.node_id, h1.node_id)
        flow = Flow(0, h0.node_id, h1.node_id, size=12_345, start_time=0.0)
        net.add_flow(flow, FixedWindowCC(env))
        net.run_until_flows_complete(timeout_ns=us(1000))
        assert h1.receivers[0].received == 12_345

    def test_start_time_honoured(self):
        net, h0, h1 = two_host_net()
        env = env_for(net, h0.node_id, h1.node_id)
        flow = Flow(0, h0.node_id, h1.node_id, 1000, start_time=us(50))
        net.add_flow(flow, FixedWindowCC(env))
        net.run_until_flows_complete(timeout_ns=us(1000))
        assert flow.finish_time > us(50)
        assert flow.fct < us(50)  # FCT excludes the waiting-to-start time

    def test_bidirectional_flows(self):
        net, h0, h1 = two_host_net()
        f01 = Flow(0, h0.node_id, h1.node_id, 20_000, 0.0)
        f10 = Flow(1, h1.node_id, h0.node_id, 20_000, 0.0)
        net.add_flow(f01, FixedWindowCC(env_for(net, h0.node_id, h1.node_id)))
        net.add_flow(f10, FixedWindowCC(env_for(net, h1.node_id, h0.node_id)))
        assert net.run_until_flows_complete(timeout_ns=us(1000))

    def test_duplicate_flow_id_rejected(self):
        net, h0, h1 = two_host_net()
        env = env_for(net, h0.node_id, h1.node_id)
        net.add_flow(Flow(0, h0.node_id, h1.node_id, 1000, 0.0), FixedWindowCC(env))
        with pytest.raises(ValueError):
            net.add_flow(Flow(0, h0.node_id, h1.node_id, 1000, 0.0), FixedWindowCC(env))

    def test_flow_between_switches_rejected(self):
        net, h0, h1 = two_host_net()
        env = env_for(net, h0.node_id, h1.node_id)
        with pytest.raises(TypeError):
            net.add_flow(
                Flow(5, net.switches[0].node_id, h1.node_id, 1000, 0.0),
                FixedWindowCC(env),
            )

    def test_completion_callback_collects(self):
        net, h0, h1 = two_host_net()
        env = env_for(net, h0.node_id, h1.node_id)
        flow = Flow(0, h0.node_id, h1.node_id, 1000, 0.0)
        net.add_flow(flow, FixedWindowCC(env))
        net.run_until_flows_complete(timeout_ns=us(100))
        assert net.completed_flows == [flow]


class TestPacing:
    def test_pacing_spaces_packets(self):
        """With a pacing rate of half line rate, goodput halves."""

        class PacedCC(FixedWindowCC):
            def __init__(self, env):
                super().__init__(env)
                self.pacing_rate_bps = env.line_rate_bps / 2.0

        net, h0, h1 = two_host_net()
        env = env_for(net, h0.node_id, h1.node_id)
        flow = Flow(0, h0.node_id, h1.node_id, 50 * 1000, 0.0)
        net.add_flow(flow, PacedCC(env))
        net.run_until_flows_complete(timeout_ns=us(5000))
        # 50 packets at 2 ns/byte pacing: >= 49 * 2096 ns just for pacing.
        assert flow.fct >= 49 * 2 * 1048

    def test_window_limits_inflight(self):
        net, h0, h1 = two_host_net()
        env = env_for(net, h0.node_id, h1.node_id)
        flow = Flow(0, h0.node_id, h1.node_id, 100 * 1000, 0.0)
        cc = FixedWindowCC(env, window_bytes=2000.0)  # ~2 packets
        net.add_flow(flow, cc)
        net.run_until_flows_complete(timeout_ns=us(10_000))
        assert flow.completed
        # Sender can never have more than window + one packet outstanding.
        assert flow.packets_sent == 100
