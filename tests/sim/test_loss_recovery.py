"""Tests for sender-side go-back-N loss recovery (host RTO machinery)."""


from repro.cc.base import CCEnv, CongestionControl
from repro.sim import Flow, Network
from repro.sim.faults import PacketDropInjector
from repro.sim.packet import Packet
from repro.units import gbps, us


class NullCC(CongestionControl):
    def __init__(self, env, window=1e12):
        super().__init__(env)
        self.window_bytes = window
        self.timeouts = []

    def on_ack(self, ctx):
        pass

    def on_timeout(self, now):
        self.timeouts.append(now)


def env_for(net, src, dst):
    host = net.nodes[src]
    return CCEnv(
        line_rate_bps=host.ports[0].spec.rate_bps,
        base_rtt_ns=net.path_rtt_ns(src, dst),
        hops=net.hop_count(src, dst),
    )


def two_host_net():
    net = Network()
    h0, h1 = net.add_host(), net.add_host()
    sw = net.add_switch()
    net.connect(h0, sw, gbps(8), us(1))
    net.connect(h1, sw, gbps(8), us(1))
    net.build_routing()
    return net, h0, h1, sw


def run_flow(net, h0, h1, size=10_000, cc=None):
    cc = cc or NullCC(env_for(net, h0.node_id, h1.node_id))
    flow = Flow(0, h0.node_id, h1.node_id, size, 0.0)
    net.add_flow(flow, cc)
    return flow, cc


class TestGoBackN:
    def test_single_drop_recovered(self):
        """One dropped packet stalls the cumulative ACK; the RTO refills it."""
        net, h0, h1, sw = two_host_net()
        bottleneck = sw.port_to[h1.node_id]
        # Drop exactly the 3rd data packet.
        PacketDropInjector(ports=[bottleneck], every_nth=3, seed=0).install(net)
        net.enable_loss_recovery()
        flow, _ = run_flow(net, h0, h1, size=3000)
        status = net.run_until_flows_complete(timeout_ns=us(5000))
        assert status
        # The sender state is gone with the flow; its totals are on the flow.
        assert h0.senders[0] is None
        assert flow.retransmits >= 1
        assert flow.retransmitted_bytes >= 1000
        assert h1.receivers[0].received == 3000

    def test_heavy_random_loss_still_completes(self):
        net, h0, h1, sw = two_host_net()
        PacketDropInjector(
            ports=[sw.port_to[h1.node_id]], probability=0.2, seed=11
        ).install(net)
        net.enable_loss_recovery()
        flow, _ = run_flow(net, h0, h1, size=50_000)
        assert net.run_until_flows_complete(timeout_ns=us(50_000))
        assert flow.retransmits >= 1

    def test_without_recovery_a_drop_deadlocks(self):
        """Control: the same loss without recovery stalls forever."""
        net, h0, h1, sw = two_host_net()
        PacketDropInjector(
            ports=[sw.port_to[h1.node_id]], every_nth=3, seed=0
        ).install(net)
        flow, _ = run_flow(net, h0, h1, size=3000)
        status = net.run_until_flows_complete(timeout_ns=us(5000))
        assert not status
        assert status.stop_reason == "stalled"
        assert status.incomplete_flows == (0,)

    def test_backoff_doubles_and_caps(self):
        """With 100% loss the RTO backoff grows exponentially to the cap."""
        net, h0, h1, sw = two_host_net()
        PacketDropInjector(
            ports=[sw.port_to[h1.node_id]], probability=1.0, seed=0
        ).install(net)
        net.enable_loss_recovery(rto_ns=us(10), max_backoff=8.0)
        flow, cc = run_flow(net, h0, h1, size=2000)
        net.run(until=us(2000))
        state = h0.senders[0]  # still sending: nothing was ever delivered
        assert state.rto_backoff == 8.0  # capped
        assert flow.retransmits >= 4
        assert len(cc.timeouts) == flow.retransmits  # CC notified each time

    def test_backoff_resets_on_progress(self):
        net, h0, h1, sw = two_host_net()
        # Random loss forces repeated loss/recovery cycles (periodic drops
        # can align with the go-back-N burst and livelock — see faults.py).
        PacketDropInjector(
            ports=[sw.port_to[h1.node_id]], probability=0.25, seed=3
        ).install(net)
        net.enable_loss_recovery(rto_ns=us(20))
        flow, _ = run_flow(net, h0, h1, size=20_000)
        net.run(until=0.0)  # the start event builds the sender state
        state = h0.senders[0]
        assert net.run_until_flows_complete(timeout_ns=us(50_000))
        # Completion implies the backoff was reset between loss episodes;
        # the timer itself must be cancelled at completion.
        assert h0.senders[0] is None
        assert flow.retransmits >= 2
        assert state.rto_timer is None
        assert state.rto_backoff == 1.0

    def test_periodic_drop_phase_lock_broken_by_probe_mode(self):
        """An every-Nth dropper aligned with the resend burst drops the burst
        head every round, so plain go-back-N never makes progress.  After one
        unproductive RTO the sender degrades to a single-packet stop-and-wait
        probe, which a periodic dropper cannot hit every time — the flow must
        complete instead of livelocking until the timeout."""
        net, h0, h1, sw = two_host_net()
        PacketDropInjector(
            ports=[sw.port_to[h1.node_id]], every_nth=4, seed=0
        ).install(net)
        net.enable_loss_recovery(rto_ns=us(20))
        flow, _ = run_flow(net, h0, h1, size=20_000)
        net.run(until=0.0)  # the start event builds the sender state
        state = h0.senders[0]
        status = net.run_until_flows_complete(timeout_ns=us(20_000))
        assert status
        assert flow.completed
        assert flow.retransmits >= 2  # recovery did the work
        assert not state.probe_mode  # ...and normal sending resumed

    def test_probe_mode_engages_only_after_unproductive_rto(self):
        """A single drop (progress on the first RTO) must not trigger the
        stop-and-wait degradation — probe mode is for repeated stalls."""
        net, h0, h1, sw = two_host_net()
        PacketDropInjector(
            ports=[sw.port_to[h1.node_id]], every_nth=3, seed=0
        ).install(net)
        net.enable_loss_recovery()
        flow, _ = run_flow(net, h0, h1, size=3000)
        net.run(until=0.0)  # the start event builds the sender state
        state = h0.senders[0]
        assert net.run_until_flows_complete(timeout_ns=us(5000))
        assert state.last_rto_acked == -1  # reset on progress

    def test_corrupt_packets_discarded_and_recovered(self):
        net, h0, h1, sw = two_host_net()
        PacketDropInjector(
            ports=[sw.port_to[h1.node_id]], corrupt_probability=0.2, seed=5
        ).install(net)
        net.enable_loss_recovery()
        flow, _ = run_flow(net, h0, h1, size=30_000)
        assert net.run_until_flows_complete(timeout_ns=us(50_000))
        assert h1.corrupt_discards >= 1


class TestReceiverGapDiscipline:
    def test_out_of_order_beyond_gap_not_credited(self):
        """A packet past a loss gap must re-ACK the old cumulative edge."""
        net, h0, h1, sw = two_host_net()
        flow = Flow(0, h0.node_id, h1.node_id, 5000, 1e18)  # never starts
        h1.add_receiver_flow(flow)
        # Deliver packet [1000, 2000) with [0, 1000) missing.
        h1.receive(Packet.data(0, h0.node_id, h1.node_id, 1000, 1000, 0.0), None)
        assert h1.receivers[0].received == 0
        # The gap fill arrives: credited.
        h1.receive(Packet.data(0, h0.node_id, h1.node_id, 0, 1000, 0.0), None)
        assert h1.receivers[0].received == 1000

    def test_duplicate_retransmission_not_double_counted(self):
        net, h0, h1, sw = two_host_net()
        flow = Flow(0, h0.node_id, h1.node_id, 5000, 1e18)
        h1.add_receiver_flow(flow)
        pkt = Packet.data(0, h0.node_id, h1.node_id, 0, 1000, 0.0)
        h1.receive(pkt, None)
        h1.receive(Packet.data(0, h0.node_id, h1.node_id, 0, 1000, 0.0), None)
        assert h1.receivers[0].received == 1000


class TestLosslessEquivalence:
    def _finish_times(self, recovery: bool):
        net, h0, h1, sw = two_host_net()
        if recovery:
            net.enable_loss_recovery()
        flows = []
        for i, size in enumerate((30_000, 20_000)):
            f = Flow(i, h0.node_id, h1.node_id, size, i * 1000.0)
            net.add_flow(f, NullCC(env_for(net, h0.node_id, h1.node_id)))
            flows.append(f)
        assert net.run_until_flows_complete(timeout_ns=us(5000))
        return [f.finish_time for f in flows], net.sim.events_executed

    def test_recovery_is_invisible_on_a_lossless_run(self):
        """Arming RTOs must not change a healthy run at all.

        Cancelled timers never execute, so finish times AND the executed
        event count are byte-identical with recovery on or off.
        """
        base_times, base_events = self._finish_times(recovery=False)
        rec_times, rec_events = self._finish_times(recovery=True)
        assert rec_times == base_times
        assert rec_events == base_events
        # And no spurious retransmissions happened.

    def test_no_spurious_retransmits_under_congestion(self):
        """An incast (heavy queueing) with recovery on never fires the RTO."""
        net = Network()
        hosts = [net.add_host() for _ in range(5)]
        sw = net.add_switch()
        for h in hosts:
            net.connect(h, sw, gbps(8), us(1))
        net.build_routing()
        net.enable_loss_recovery()
        dst = hosts[-1].node_id
        for i, h in enumerate(hosts[:4]):
            net.add_flow(
                Flow(i, h.node_id, dst, 100_000, 0.0),
                NullCC(env_for(net, h.node_id, dst)),
            )
        assert net.run_until_flows_complete(timeout_ns=us(50_000))
        assert all(f.retransmits == 0 for f in net.flows.values())
        assert net.total_retransmitted_bytes() == 0


class TestRtoConfiguration:
    def test_rto_from_scale_and_floor(self):
        net, h0, h1, sw = two_host_net()
        net.enable_loss_recovery(rto_scale=4.0, rto_min_ns=1e6)
        flow, _ = run_flow(net, h0, h1)
        net.run(until=0.0)  # the RTO is worked out when the flow starts
        assert h0.senders[0].rto_ns == 1e6  # floor dominates (base RTT is ~6.2 us)

    def test_rto_override(self):
        net, h0, h1, sw = two_host_net()
        flow, _ = run_flow(net, h0, h1)
        # Enabling after registration reaches a flow that has yet to start...
        net.enable_loss_recovery(rto_ns=us(123))
        net.run(until=0.0)
        assert h0.senders[0].rto_ns == us(123)
        # ...and one that is already sending.
        net.enable_loss_recovery(rto_ns=us(77))
        assert h0.senders[0].rto_ns == us(77)

    def test_invalid_retry_knobs(self):
        net, h0, h1, sw = two_host_net()
        net.enable_loss_recovery()
        assert all(h.loss_recovery for h in net.hosts)
