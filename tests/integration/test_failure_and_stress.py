"""Failure-injection and stress tests for the substrate.

The figures all run in the lossless, well-buffered regime; these tests
deliberately leave it: tiny buffers that drop, heavy oversubscription,
pathological flow sizes, simultaneous (non-staggered) incast bursts, and
conservation checks that hold regardless.
"""


from repro.cc import CCEnv, make_cc
from repro.cc.base import CongestionControl
from repro.experiments.runner import make_env
from repro.sim import Flow, Network, PfcConfig
from repro.topology import build_fattree, build_star, scaled_fattree_params
from repro.units import gbps, kb, mb, us
from repro.workloads import simultaneous_incast


class Greedy(CongestionControl):
    """No congestion control at all — the stressor."""

    def __init__(self, env):
        super().__init__(env)
        self.window_bytes = 1e12
        self.pacing_rate_bps = None

    def on_ack(self, ctx):
        pass


class TestByteConservation:
    def test_delivered_bytes_equal_flow_sizes(self):
        """Lossless fabric: every payload byte sent is delivered exactly
        once, for every flow, under congestion."""
        topo = build_star(8)
        net = topo.network
        dst = topo.hosts[-1].node_id
        flows = []
        for i in range(8):
            src = topo.hosts[i].node_id
            f = Flow(i, src, dst, 200_000, 0.0)
            net.add_flow(f, make_cc("hpcc", make_env(net, src, dst)))
            flows.append(f)
        assert net.run_until_flows_complete(timeout_ns=us(20_000))
        receiver = net.nodes[dst]
        for f in flows:
            assert receiver.receivers[f.flow_id].received == f.size
        assert net.total_drops() == 0

    def test_switch_forwards_every_packet(self):
        topo = build_star(4)
        net = topo.network
        dst = topo.hosts[-1].node_id
        n_pkts = 0
        for i in range(4):
            src = topo.hosts[i].node_id
            net.add_flow(
                Flow(i, src, dst, 100_000, 0.0),
                make_cc("hpcc", make_env(net, src, dst)),
            )
            n_pkts += 100  # 100 KB / 1 KB MTU
        net.run_until_flows_complete(timeout_ns=us(20_000))
        # Forwarded = data + ACKs (one per data packet).
        assert net.switches[0].packets_forwarded == 2 * n_pkts


class TestTinyBuffers:
    def test_greedy_senders_overflow_small_buffers(self):
        """Without PFC and with small buffers, uncontrolled incast drops."""
        topo = build_star(4, max_queue_bytes=kb(20))
        net = topo.network
        dst = topo.hosts[-1].node_id
        for i in range(4):
            src = topo.hosts[i].node_id
            net.add_flow(Flow(i, src, dst, 200_000, 0.0), Greedy(make_env(net, src, dst)))
        net.run(until=us(500))
        assert net.total_drops() > 0

    def test_pfc_rescues_small_buffers(self):
        """Switch buffers too small for a 4-way greedy burst, PFC enabled:
        back-pressure reaches the sender NICs and nothing drops.

        Flows are sized to fit each sender's own NIC buffer — a greedy
        (windowless) sender dumps its whole flow into its NIC queue at
        once, and PFC cannot protect a host from itself.
        """
        topo = build_star(
            4, max_queue_bytes=kb(200), pfc=PfcConfig(xoff=kb(30), xon=kb(15))
        )
        net = topo.network
        dst = topo.hosts[-1].node_id
        flows = []
        for i in range(4):
            src = topo.hosts[i].node_id
            f = Flow(i, src, dst, 100_000, 0.0)
            net.add_flow(f, Greedy(make_env(net, src, dst)))
            flows.append(f)
        assert net.run_until_flows_complete(timeout_ns=us(50_000))
        assert net.total_drops() == 0

    def test_congestion_control_avoids_drops_where_greedy_cannot(self):
        """HPCC keeps the same tiny-buffer topology loss-free."""
        topo = build_star(4, max_queue_bytes=kb(120))
        net = topo.network
        dst = topo.hosts[-1].node_id
        for i in range(4):
            src = topo.hosts[i].node_id
            net.add_flow(
                Flow(i, src, dst, 200_000, i * us(5)),
                make_cc("hpcc", make_env(net, src, dst)),
            )
        assert net.run_until_flows_complete(timeout_ns=us(50_000))
        assert net.total_drops() == 0


class TestPathologicalFlows:
    def test_one_byte_flow(self):
        topo = build_star(1)
        net = topo.network
        src, dst = topo.hosts[0].node_id, topo.hosts[1].node_id
        f = Flow(0, src, dst, 1, 0.0)
        net.add_flow(f, make_cc("hpcc", make_env(net, src, dst)))
        assert net.run_until_flows_complete(timeout_ns=us(1000))
        assert f.fct > 0

    def test_non_mtu_multiple_flow(self):
        topo = build_star(1)
        net = topo.network
        src, dst = topo.hosts[0].node_id, topo.hosts[1].node_id
        f = Flow(0, src, dst, 12_345, 0.0)
        net.add_flow(f, make_cc("swift", make_env(net, src, dst)))
        assert net.run_until_flows_complete(timeout_ns=us(1000))
        assert net.nodes[dst].receivers[0].received == 12_345

    def test_greedy_2mb_flow_through_host_switch_host(self):
        """2,000 packets through the whole datapath, one event each way."""
        topo = build_star(1)
        net = topo.network
        src, dst = topo.hosts[0].node_id, topo.hosts[1].node_id
        env = CCEnv(line_rate_bps=gbps(100), base_rtt_ns=net.path_rtt_ns(src, dst))
        f = Flow(0, src, dst, 2_000_000, 0.0)
        net.add_flow(f, Greedy(env))
        assert net.run_until_flows_complete(timeout_ns=us(10_000))
        assert net.sim.events_executed > 10_000

    def test_huge_flow_under_every_paper_variant(self):
        for variant in ("hpcc", "swift", "hpcc-vai-sf", "swift-vai-sf"):
            topo = build_star(1)
            net = topo.network
            src, dst = topo.hosts[0].node_id, topo.hosts[1].node_id
            f = Flow(0, src, dst, mb(20), 0.0)
            net.add_flow(f, make_cc(variant, make_env(net, src, dst)))
            assert net.run_until_flows_complete(timeout_ns=us(100_000)), variant
            # 20 MB at 100 Gbps has an ideal of ~1.6 ms; an uncontended flow
            # must stay within 10% of it.
            assert f.fct < 1.1 * 1_800_000.0, variant


class TestSimultaneousIncast:
    def test_synchronized_burst_completes(self):
        """All 24 senders fire at t=0 (the classic incast catastrophe);
        the lossless fabric plus CC must deliver everything."""
        specs = simultaneous_incast(24, flow_size_bytes=100_000)
        topo = build_star(24)
        net = topo.network
        dst = topo.hosts[-1].node_id
        for s in specs:
            src = topo.hosts[s.sender_index].node_id
            net.add_flow(
                Flow(net.next_flow_id(), src, dst, s.size_bytes, s.start_time_ns),
                make_cc("hpcc-vai-sf", make_env(net, src, dst)),
            )
        assert net.run_until_flows_complete(timeout_ns=us(50_000))
        assert net.total_drops() == 0


class TestFatTreeStress:
    def test_cross_pod_all_to_all_sample(self):
        """A bidirectional cross-pod traffic sample on the scaled fat-tree
        completes with no drops and uses multiple spine paths."""
        topo = build_fattree(scaled_fattree_params())
        net = topo.network
        hosts = topo.hosts
        half = len(hosts) // 2
        fid = 0
        for i in range(half):
            a, b = hosts[i].node_id, hosts[half + i].node_id
            for src, dst in ((a, b), (b, a)):
                net.add_flow(
                    Flow(fid, src, dst, 100_000, 0.0),
                    make_cc("hpcc", make_env(net, src, dst)),
                )
                fid += 1
        assert net.run_until_flows_complete(timeout_ns=us(100_000))
        assert net.total_drops() == 0
        spines = [s for s in topo.switches if "spine" in s.name]
        used = [s for s in spines if s.packets_forwarded > 0]
        assert len(used) >= 2  # ECMP spread traffic across spine planes
