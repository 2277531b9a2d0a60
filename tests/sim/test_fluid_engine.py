"""Unit tests for the event-driven fluid (flow-level) engine."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.metrics.fct import ideal_fct_ns
from repro.sim.flow import Flow
from repro.sim.fluid import GOODPUT_FRACTION, FluidEngine, FluidFlowParams, drain_time_ns
from repro.topology.fattree import build_fattree, scaled_fattree_params
from repro.topology.star import build_star


def _star(n_senders=2, rate_bps=100e9, prop_delay_ns=1000.0):
    return build_star(
        n_senders, rate_bps=rate_bps, prop_delay_ns=prop_delay_ns, seed=0
    )


def _goodput(rate_bps=100e9):
    return rate_bps / 8e9 * GOODPUT_FRACTION  # bytes/ns


class TestFluidFlowParams:
    def test_negative_tau_rejected(self):
        with pytest.raises(ValueError, match="tau_ns"):
            FluidFlowParams(tau_ns=-1.0)

    def test_nonpositive_cap_rejected(self):
        with pytest.raises(ValueError, match="cap_bytes_per_ns"):
            FluidFlowParams(cap_bytes_per_ns=0.0)

    def test_start_fraction_bounds(self):
        with pytest.raises(ValueError, match="start_fraction"):
            FluidFlowParams(start_fraction=0.0)
        with pytest.raises(ValueError, match="start_fraction"):
            FluidFlowParams(start_fraction=1.5)


class TestCompletion:
    def test_uncontended_flow_has_ideal_fct(self):
        """The latency offset makes an uncontended slowdown exactly 1.0."""
        topo = _star()
        net = topo.network
        recv = topo.hosts[-1].node_id
        flow = Flow(net.next_flow_id(), topo.hosts[0].node_id, recv, 100_000, 0.0)
        engine = FluidEngine(net)
        engine.add_flow(flow, FluidFlowParams())
        status = engine.run(1e9)
        assert status.completed
        assert flow.fct == pytest.approx(
            ideal_fct_ns(net, flow.src, flow.dst, flow.size), rel=1e-12
        )

    def test_two_flows_share_then_cascade(self):
        """Fair sharing while both run; survivor takes the whole link."""
        topo = _star()
        net = topo.network
        recv = topo.hosts[-1].node_id
        big = Flow(net.next_flow_id(), topo.hosts[0].node_id, recv, 1_000_000, 0.0)
        small = Flow(net.next_flow_id(), topo.hosts[1].node_id, recv, 500_000, 0.0)
        engine = FluidEngine(net)
        engine.add_flow(big, FluidFlowParams())
        engine.add_flow(small, FluidFlowParams())
        assert engine.run(1e9).completed
        g = _goodput()
        offset = ideal_fct_ns(net, big.src, big.dst, big.size) - big.size / g
        # small: whole size at half goodput; big: shares until small leaves,
        # then drains the rest at full goodput.
        t_small = small.size / (g / 2)
        t_big = t_small + (big.size - (g / 2) * t_small) / g
        assert small.fct == pytest.approx(t_small + offset, rel=1e-9)
        assert big.fct == pytest.approx(t_big + offset, rel=1e-9)

    def test_duplicate_flow_id_rejected(self):
        topo = _star()
        net = topo.network
        recv = topo.hosts[-1].node_id
        flow = Flow(7, topo.hosts[0].node_id, recv, 1000, 0.0)
        engine = FluidEngine(net)
        engine.add_flow(flow, FluidFlowParams())
        with pytest.raises(ValueError, match="duplicate"):
            engine.add_flow(
                Flow(7, topo.hosts[1].node_id, recv, 1000, 0.0), FluidFlowParams()
            )

    def test_timeout_leaves_flow_incomplete(self):
        topo = _star()
        net = topo.network
        recv = topo.hosts[-1].node_id
        flow = Flow(net.next_flow_id(), topo.hosts[0].node_id, recv, 10_000_000, 0.0)
        engine = FluidEngine(net)
        engine.add_flow(flow, FluidFlowParams())
        status = engine.run(timeout_ns=100.0)
        assert not status.completed
        assert status.stop_reason == "timeout"
        assert status.incomplete_flows == (flow.flow_id,)
        assert not flow.completed

    def test_run_resumes_after_timeout(self):
        """Stopping the clock mid-flow and running on changes no FCT or sample."""

        def observed(tau_ns, *timeouts):
            topo = _star()
            net = topo.network
            recv = topo.hosts[-1].node_id
            engine = FluidEngine(
                net,
                monitored_ports=topo.bottleneck_ports,
                queue_sample_interval_ns=3_000.0,
                rate_sample_interval_ns=7_000.0,
                md_delay_ns=8_000.0,
            )
            flows = [
                Flow(net.next_flow_id(), topo.hosts[i].node_id, recv, size, 10_000.0 * i)
                for i, size in enumerate((1_000_000, 400_000))
            ]
            for f in flows:
                engine.add_flow(f, FluidFlowParams(tau_ns=tau_ns))
            for timeout_ns in timeouts:
                status = engine.run(timeout_ns)
            assert status.completed
            rates = [v for row in engine.rate_series()[1] for v in row]
            return [f.fct for f in flows] + list(engine.queue_series()[1]) + rates

        for tau_ns in (0.0, 60_000.0):
            assert observed(tau_ns, 30_000.0, 30_000.0, 90_000.0, 1e9) == pytest.approx(
                observed(tau_ns, 1e9), rel=1e-12, abs=1e-6
            )


class TestRelaxation:
    def test_zero_tau_snaps_instantly(self):
        topo = _star()
        net = topo.network
        recv = topo.hosts[-1].node_id
        engine = FluidEngine(net, rate_sample_interval_ns=100.0)
        flows = [
            Flow(net.next_flow_id(), topo.hosts[i].node_id, recv, 500_000, 0.0)
            for i in range(2)
        ]
        for f in flows:
            engine.add_flow(f, FluidFlowParams(tau_ns=0.0))
        engine.run(1e9)
        _, rows = engine.rate_series()
        g_bps = _goodput() * 8e9
        # Every sample while both run is exactly the fair share.
        both_active = [r for r in rows if all(v > 0 for v in r)]
        assert both_active
        for row in both_active:
            assert row[0] == pytest.approx(g_bps / 2, rel=1e-9)

    def test_slow_tau_converges_slower_than_fast(self):
        """A late joiner's above-fair share persists for O(tau).

        Two incumbents converge to half the link each; a third joins at
        line rate and is squeezed (with the incumbents) proportionally, so
        it holds twice an incumbent's rate right after joining.  The decay
        of that spread toward the fair third each is what tau controls.
        """

        def spread_after_join(tau_ns):
            t_join, t_probe = 100_000.0, 150_000.0
            topo = _star(3)
            net = topo.network
            recv = topo.hosts[-1].node_id
            engine = FluidEngine(net, rate_sample_interval_ns=t_probe)
            flows = []
            for i, start in enumerate((0.0, 0.0, t_join)):
                f = Flow(
                    net.next_flow_id(), topo.hosts[i].node_id, recv, 50_000_000, start
                )
                engine.add_flow(f, FluidFlowParams(tau_ns=tau_ns))
                flows.append(f)
            engine.run(timeout_ns=t_probe + 1.0)
            _, rows = engine.rate_series()
            last = rows[-1]  # sampled at t_probe, 50 us after the join
            return (last[2] - last[0]) / max(last)

        assert spread_after_join(200_000.0) > 4 * spread_after_join(20_000.0)

    def test_relaxation_reaches_fair_share(self):
        topo = _star()
        net = topo.network
        recv = topo.hosts[-1].node_id
        engine = FluidEngine(net, rate_sample_interval_ns=10_000.0)
        flows = [
            Flow(net.next_flow_id(), topo.hosts[i].node_id, recv, 30_000_000, 0.0)
            for i in range(2)
        ]
        for f in flows:
            engine.add_flow(f, FluidFlowParams(tau_ns=30_000.0))
        engine.run(1e9)
        _, rows = engine.rate_series()
        mid = [r for r in rows if all(v > 0 for v in r)]
        last_both = mid[-1]
        g_bps = _goodput() * 8e9
        assert last_both[0] == pytest.approx(g_bps / 2, rel=0.01)
        assert last_both[1] == pytest.approx(g_bps / 2, rel=0.01)

    def test_fct_independent_of_queue_sample_interval(self):
        """A sampler observes; how often it looks must not move any FCT."""

        def fcts(queue_sample_interval_ns):
            topo = _star(4)
            net = topo.network
            recv = topo.hosts[-1].node_id
            engine = FluidEngine(
                net,
                monitored_ports=topo.bottleneck_ports,
                queue_sample_interval_ns=queue_sample_interval_ns,
                md_delay_ns=8_000.0,
            )
            flows = [
                Flow(net.next_flow_id(), topo.hosts[i].node_id, recv, 1_000_000, 20_000.0 * i)
                for i in range(4)
            ]
            for f in flows:
                engine.add_flow(f, FluidFlowParams(tau_ns=500_000.0))
            assert engine.run(1e9).completed
            return [f.fct for f in flows]

        assert fcts(2_000.0) == pytest.approx(fcts(8_000.0), rel=1e-6)

    @given(
        sizes=st.lists(st.integers(50_000, 2_000_000), min_size=1, max_size=6),
        gap_ns=st.floats(0.0, 60_000.0),
        tau_ns=st.sampled_from([0.0, 7_000.0, 90_000.0, 1_500_000.0]),
        queue_ns=st.one_of(st.none(), st.floats(500.0, 50_000.0)),
        rate_ns=st.one_of(st.none(), st.floats(500.0, 50_000.0)),
        flap_at_ns=st.one_of(st.none(), st.floats(0.0, 400_000.0)),
    )
    def test_fcts_invariant_under_observation(
        self, sizes, gap_ns, tau_ns, queue_ns, rate_ns, flap_at_ns
    ):
        """Samplers at any interval and events that change no rate move no FCT.

        The no-op event is a flap of the idle sender's uplink: it wakes the
        loop, re-paths every flow onto the path it had and commits rates
        that are already feasible.
        """

        def fcts(queue_ns, rate_ns, flap_at_ns):
            topo = _star(len(sizes) + 1)
            net = topo.network
            recv = topo.hosts[-1].node_id
            engine = FluidEngine(
                net,
                monitored_ports=topo.bottleneck_ports,
                queue_sample_interval_ns=queue_ns,
                rate_sample_interval_ns=rate_ns,
                md_delay_ns=8_000.0,
            )
            flows = [
                Flow(net.next_flow_id(), topo.hosts[i].node_id, recv, size, gap_ns * i)
                for i, size in enumerate(sizes)
            ]
            for f in flows:
                engine.add_flow(f, FluidFlowParams(tau_ns=tau_ns))
            if flap_at_ns is not None:
                idle = topo.hosts[len(sizes)]
                engine.schedule_link_flap(
                    idle.node_id,
                    idle.ports[0].peer_node.node_id,
                    down_at_ns=flap_at_ns,
                    down_for_ns=25_000.0,
                )
            assert engine.run(1e12).completed
            return [f.fct for f in flows], engine

        alone, quiet = fcts(None, None, None)
        watched, busy = fcts(queue_ns, rate_ns, flap_at_ns)
        assert watched == pytest.approx(alone, rel=1e-9)
        # An irrational interval shares no instant with any event.
        assert fcts(1_000.0 * math.sqrt(2.0), 1_000.0 * math.pi, None)[0] == alone
        # Samples are counted as events but never as loop iterations.
        written = len(busy.rate_series()[0]) + len(busy.queue_series()[0])
        flaps = 0  # toggles the run lasted long enough to see
        if flap_at_ns is not None:
            flaps = sum(t <= busy.now for t in (flap_at_ns, flap_at_ns + 25_000.0))
        assert busy.events_executed == quiet.events_executed + written + flaps
        assert busy.wakeups <= quiet.wakeups + flaps


    def test_unequal_tau_on_one_link_is_sub_stepped_and_sampler_blind(self):
        """A fast riser beside a slow faller can overshoot: no closed form."""

        def run(**samplers):
            topo = _star(3)
            net = topo.network
            recv = topo.hosts[-1].node_id
            engine = FluidEngine(net, **samplers)
            flows = [
                Flow(net.next_flow_id(), topo.hosts[i].node_id, recv, 4_000_000, start)
                for i, start in enumerate((0.0, 0.0, 50_000.0))
            ]
            for f, tau_ns in zip(flows, (10_000.0, 10_000.0, 400_000.0)):
                engine.add_flow(f, FluidFlowParams(tau_ns=tau_ns))
            assert engine.run(1e9).completed
            return [f.fct for f in flows], engine

        alone, quiet = run()
        watched, busy = run(rate_sample_interval_ns=1_300.0, queue_sample_interval_ns=700.0)
        assert watched == alone  # the grid hangs off rate changes, not off `now`
        assert busy.wakeups == quiet.wakeups > 6  # 2 arrival instants + 3 departures + sub-steps
        times, rows = busy.rate_series()
        g_bps = _goodput() * 8e9
        # Scale factors are held across a sub-step, so served rates exceed
        # capacity by no more than the overshoot one sub-step builds.
        assert g_bps < max(sum(row) for row in rows) <= 1.05 * g_bps
        last = max(f + s for f, s in zip(alone, (0.0, 0.0, 50_000.0)))
        assert last >= 3 * 4_000_000 / _goodput()


class TestDepartureSolve:
    @pytest.mark.parametrize(
        "rate, target, tau, need",
        [
            (12.0, 3.0, 40_000.0, 200_000.0),  # falling onto its share
            (12.0, 3.0, 40_000.0, 5_000_000.0),  # ... and long converged when it leaves
            (0.5, 6.0, 300_000.0, 800_000.0),  # rising
            (0.0, 6.0, 300_000.0, 100_000.0),  # rising from a standstill
            (4.0, 0.0, 100_000.0, 399_000.0),  # decaying: leaves just before it stalls
            (5.0, 5.0, 1_000.0, 1_234.0),  # on target
        ],
    )
    def test_agrees_with_explicit_integration(self, rate, target, tau, need):
        """The solved time is where a tau/1000-step RK4 run of the model crosses."""
        solved = drain_time_ns(need, rate, target, tau)

        def slope(r):
            return (target - r) / tau

        h = tau / 1000.0
        t, r, moved = 0.0, rate, 0.0
        while True:  # RK4 on (dr/dt, d moved/dt) = ((target - r) / tau, r)
            k1 = slope(r)
            k2 = slope(r + 0.5 * h * k1)
            k3 = slope(r + 0.5 * h * k2)
            k4 = slope(r + h * k3)
            step = h * (r + (r + 0.5 * h * k1) * 2.0 + (r + 0.5 * h * k2) * 2.0 + r + h * k3) / 6.0
            if moved + step >= need:
                break
            t, r, moved = t + h, r + h * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0, moved + step
        stepped = t + h * (need - moved) / step
        assert solved == pytest.approx(stepped, rel=1e-6)

    def test_never_when_the_rate_decays_away_first(self):
        assert drain_time_ns(400_001.0, 4.0, 0.0, 100_000.0) == math.inf
        assert drain_time_ns(1.0, 0.0, 0.0, 100_000.0) == math.inf


class TestLinkFlaps:
    def test_flow_stalls_through_downtime_then_completes(self):
        topo = _star()
        net = topo.network
        recv = topo.hosts[-1].node_id
        flow = Flow(net.next_flow_id(), topo.hosts[0].node_id, recv, 1_000_000, 0.0)
        engine = FluidEngine(net)
        engine.add_flow(flow, FluidFlowParams())
        uplink_peer = net.nodes[flow.src].ports[0].peer_node.node_id
        engine.schedule_link_flap(
            flow.src, uplink_peer, down_at_ns=10_000.0, down_for_ns=40_000.0
        )
        status = engine.run(1e9)
        assert status.completed
        no_flap = ideal_fct_ns(net, flow.src, flow.dst, flow.size)
        assert flow.fct == pytest.approx(no_flap + 40_000.0, rel=1e-9)

    def test_down_link_gives_peer_full_capacity(self):
        """While one sender's uplink is down the other takes the bottleneck."""
        topo = _star()
        net = topo.network
        recv = topo.hosts[-1].node_id
        a = Flow(net.next_flow_id(), topo.hosts[0].node_id, recv, 2_000_000, 0.0)
        b = Flow(net.next_flow_id(), topo.hosts[1].node_id, recv, 2_000_000, 0.0)
        engine = FluidEngine(net, rate_sample_interval_ns=5_000.0)
        engine.add_flow(a, FluidFlowParams())
        engine.add_flow(b, FluidFlowParams())
        peer = net.nodes[a.src].ports[0].peer_node.node_id
        engine.schedule_link_flap(a.src, peer, down_at_ns=20_000.0, down_for_ns=60_000.0)
        assert engine.run(1e9).completed
        times, rows = engine.rate_series()
        g_bps = _goodput() * 8e9
        during = [
            r for t, r in zip(times, rows) if 25_000.0 <= t <= 75_000.0
        ]
        assert during
        for row in during:
            assert row[0] == 0.0  # flapped sender is parked
            assert row[1] == pytest.approx(g_bps, rel=1e-9)


class TestSamplingAndFatTree:
    def test_queue_series_tracks_oversubscription(self):
        """Relaxing (tau > 0) arrivals oversubscribe and grow a modeled queue."""
        topo = _star(4)
        net = topo.network
        recv = topo.hosts[-1].node_id
        engine = FluidEngine(
            net,
            monitored_ports=topo.bottleneck_ports,
            queue_sample_interval_ns=2_000.0,
            md_delay_ns=4_000.0,
        )
        for i in range(4):
            f = Flow(net.next_flow_id(), topo.hosts[i].node_id, recv, 2_000_000, 0.0)
            engine.add_flow(f, FluidFlowParams(tau_ns=100_000.0))
        engine.run(1e9)
        _, depths = engine.queue_series()
        assert max(depths) > 0.0

    def test_fattree_paths_follow_ecmp_tables(self):
        """Fluid flows occupy the exact links their ECMP hash selects."""
        topo = build_fattree(scaled_fattree_params(), seed=1)
        net = topo.network
        src = topo.hosts[0].node_id
        dst = topo.hosts[-1].node_id
        engine = FluidEngine(net)
        f1 = Flow(net.next_flow_id(), src, dst, 10_000, 0.0, ecmp_hash=0)
        f2 = Flow(net.next_flow_id(), src, dst, 10_000, 0.0, ecmp_hash=1)
        path1 = engine._path_links(src, dst, f1.ecmp_hash)
        path2 = engine._path_links(src, dst, f2.ecmp_hash)
        assert path1 is not None and path2 is not None
        assert path1[0] == (src, net.nodes[src].ports[0].peer_node.node_id)
        assert path1[-1][1] == dst and path2[-1][1] == dst
        engine.add_flow(f1, FluidFlowParams())
        engine.add_flow(f2, FluidFlowParams())
        assert engine.run(1e9).completed

    def test_events_executed_is_orders_below_packet_scale(self):
        """A 16-flow 1MB incast costs hundreds of events, not hundreds of thousands."""
        topo = _star(16)
        net = topo.network
        recv = topo.hosts[-1].node_id
        engine = FluidEngine(net, rate_sample_interval_ns=10_000.0)
        for i in range(16):
            f = Flow(
                net.next_flow_id(),
                topo.hosts[i].node_id,
                recv,
                1_000_000,
                i * 10_000.0,
            )
            engine.add_flow(f, FluidFlowParams(tau_ns=30_000.0))
        status = engine.run(1e9)
        assert status.completed
        assert status.events_executed < 5_000

    def test_link_utilization_is_bounded_and_positive(self):
        topo = _star()
        net = topo.network
        recv = topo.hosts[-1].node_id
        flow = Flow(net.next_flow_id(), topo.hosts[0].node_id, recv, 1_000_000, 0.0)
        engine = FluidEngine(net)
        engine.add_flow(flow, FluidFlowParams())
        engine.run(1e9)
        util = engine.link_utilization()
        assert util
        for value in util.values():
            assert 0.0 < value <= 1.0
        # The bottleneck (uplink into the switch) was saturated once running.
        peer = net.nodes[flow.src].ports[0].peer_node.node_id
        assert util[(flow.src, peer)] > 0.9

    def test_deterministic_across_runs(self):
        def run_once():
            topo = _star(8)
            net = topo.network
            recv = topo.hosts[-1].node_id
            engine = FluidEngine(net, rate_sample_interval_ns=7_000.0)
            flows = []
            for i in range(8):
                f = Flow(
                    net.next_flow_id(),
                    topo.hosts[i].node_id,
                    recv,
                    700_000,
                    i * 15_000.0,
                )
                engine.add_flow(f, FluidFlowParams(tau_ns=40_000.0))
                flows.append(f)
            engine.run(1e9)
            return [f.fct for f in flows]

        first = run_once()
        second = run_once()
        assert first == second
        assert all(math.isfinite(v) for v in first)
