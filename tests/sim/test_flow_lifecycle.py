"""Per-flow sender state exists from the start event to the completing ACK.

Three things are held here (DESIGN "Flow lifecycle"):

* **Streamed starts are invisible.**  ``Simulator.schedule_stream`` reserves
  the key ``schedule_at`` would have given the start event and keeps only
  the earliest reservation of a stream on the calendar.  The oracle below
  does what the code did before -- every start ``schedule_at``-ed when it is
  registered -- and Hypothesis draws start times with ties, descending
  order and registration from inside ``run()``: same ``(time, seq)``
  callback sequence, same ``sim._seq``, same completion times.
* **A retired flow reads as it always did.**  Counters live on the ``Flow``;
  the values pinned for the fig-8 pair and for the ``hpcc+drop401`` golden
  were taken from the commit before this one (82067d6).
* **A late packet is counted and dropped; an unknown one still raises.**

``tests/sim/test_on_stdlib_calendar.py`` collects this module a second time
on the stdlib calendar, and CI's ``sanitize`` job runs it under the
sanitizer (conservation invariants must hold across retirement).
"""

from __future__ import annotations

import gc
import weakref
from dataclasses import astuple, replace
from unittest import mock

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.cc import make_cc
from repro.check import invariants
from repro.experiments import scaled_incast, with_seed
from repro.experiments.config import FaultConfig
from repro.experiments.parallel import run_config
from repro.experiments.runner import make_env
from repro.obs import flightrec, registry, tracer
from repro.sim import Flow, Network, network
from repro.sim.engine import Simulator
from repro.sim.host import Host
from repro.sim.monitor import GoodputMonitor
from repro.sim.packet import Packet
from repro.sim.trace import FlowTracer
from repro.units import gbps, us



@pytest.fixture
def sanitized():
    """Every class below runs under the sanitizer: its go-back-N, queue and
    conservation invariants must hold on both sides of a retirement."""
    with invariants.capture() as checker:
        yield checker


# ---------------------------------------------------------------------------
# Engine: schedule_stream against schedule_at
# ---------------------------------------------------------------------------

#: Few distinct values, so equal start times are the common case.
TIMES = st.sampled_from([0.0, 1.0, 1.0, 2.5, 4.0, 4.0, 9.0])
#: (virtual time it is registered at, or None for "before run()"; start time).
ARRIVALS = st.lists(st.tuples(st.none() | TIMES, TIMES), min_size=1, max_size=12)


def _drive(streamed: bool, arrivals, noise):
    """Register ``arrivals`` one way or the other; log every callback."""
    sim = Simulator()
    stream: list = []
    log = []

    def start(tag):
        if streamed:
            sim.stream_next(stream)
        log.append((sim.now(), sim._cur_seq, tag))
        # A start event schedules (packets, timers): draws must line up too.
        sim.schedule_detached(0.5, log.append, ("child", tag))

    def register(tag, time):
        time = max(time, sim.now())
        if streamed:
            sim.schedule_stream(stream, time, start, tag)
        else:
            sim.schedule_at(time, start, tag)

    for tag, (register_at, time) in enumerate(arrivals):
        if register_at is None:
            register(tag, time)
        else:
            sim.schedule_at(register_at, register, tag, time)
    for time in noise:
        sim.schedule_at(time, log.append, ("noise", time))
    sim.run()
    assert not stream and sim.pending_events == 0
    return log, sim._seq, sim.events_executed


@pytest.mark.usefixtures("sanitized")
class TestStreamKeepsTheKey:
    @given(arrivals=ARRIVALS, noise=st.lists(TIMES, max_size=4))
    @example(arrivals=[(None, 9.0), (None, 4.0), (None, 2.5), (None, 0.0)], noise=[])
    @example(arrivals=[(None, 4.0)] * 5 + [(1.0, 4.0), (4.0, 4.0), (4.0, 0.0)], noise=[4.0])
    @example(arrivals=[(None, 4.0), (1.0, 2.5), (2.5, 2.5), (None, 9.0)], noise=[2.5])
    def test_same_callbacks_same_seq_as_eager_scheduling(self, arrivals, noise):
        assert _drive(True, arrivals, noise) == _drive(False, arrivals, noise)

    def test_in_order_registration_keeps_one_entry_on_the_calendar(self):
        sim = Simulator()
        stream: list = []
        fired = []

        def start(tag):
            sim.stream_next(stream)
            fired.append((tag, sim.heap_size))

        for tag in range(50):
            sim.schedule_stream(stream, float(tag // 2), start, tag)  # pairs tie
        assert sim.heap_size == 1 and len(stream) == 50 and sim._seq == 50
        sim.run()
        # When a start fires its successor is the only entry out there.
        assert fired == [(tag, 1) for tag in range(49)] + [(49, 0)]

    def test_an_earlier_latecomer_goes_out_beside_the_head(self):
        sim = Simulator()
        stream: list = []
        order = []

        def start(tag):
            sim.stream_next(stream)
            order.append(tag)

        sim.schedule_stream(stream, 5.0, start, "five")
        sim.schedule_stream(stream, 7.0, start, "seven")
        sim.schedule_stream(stream, 3.0, start, "three")
        assert sim.heap_size == 2 and len(stream) == 2  # three, five | five, seven
        sim.run()
        assert order == ["three", "five", "seven"]

    def test_the_past_is_refused_and_draws_nothing(self):
        sim = Simulator()
        sim.schedule_detached(2.0, lambda: None)
        sim.run()
        with pytest.raises(Exception, match="past"):
            sim.schedule_stream([], 1.0, print)
        assert sim._seq == 1


# ---------------------------------------------------------------------------
# Network: the streamed hosts against hosts that schedule every start eagerly
# ---------------------------------------------------------------------------


class EagerHost(Host):
    """The oracle: every start on the calendar from registration, as it
    was before streaming (``stream_next`` on the empty list is a no-op)."""

    def add_sender_flow(self, flow, cc):
        if flow.flow_id in self.senders:
            raise ValueError(flow.flow_id)
        self.senders[flow.flow_id] = None
        self.sim.schedule_at(max(flow.start_time, self.sim.now()), self._start_flow, flow, cc)


def _star(host_cls, n_senders=2):
    net = Network(seed=5)
    with mock.patch.object(network, "Host", host_cls):
        hosts = [net.add_host() for _ in range(n_senders + 1)]
    sw = net.add_switch()
    for host in hosts:
        net.connect(host, sw, gbps(8), us(1))
    net.build_routing()
    assert all(type(h) is host_cls for h in net.hosts)
    return net, hosts


#: (sender, size in packets, start in us, registered at us or None = up front)
FLOWS = st.lists(
    st.tuples(
        st.integers(0, 1),
        st.integers(1, 12),
        st.sampled_from([0.0, 0.0, 3.0, 3.0, 10.0, 20.0]),
        st.none() | st.sampled_from([0.0, 3.0, 5.0, 10.0]),
    ),
    min_size=1,
    max_size=8,
)


def _run_star(host_cls, flows, observers=False):
    net, hosts = _star(host_cls)
    sim = net.sim
    dst = hosts[-1].node_id
    starts = []
    for host in hosts:
        original = host._start_flow

        def logged(flow, cc, original=original):
            starts.append((sim.now(), sim._cur_seq, flow.flow_id))
            original(flow, cc)

        logged.__qualname__ = "Host._start_flow"
        host._start_flow = logged

    def register(fid, sender, packets, start_us):
        src = hosts[sender].node_id
        flow = Flow(fid, src, dst, packets * 1000, us(start_us))
        # A CC object and a factory for one are both accepted.
        env = make_env(net, src, dst)
        cc = make_cc("hpcc", env) if fid % 2 else (lambda: make_cc("hpcc", env))
        net.add_flow(flow, cc)

    for fid, (sender, packets, start_us, register_us) in enumerate(flows):
        if register_us is None:
            register(fid, sender, packets, start_us)
        else:
            sim.schedule_at(us(register_us), register, fid, sender, packets, start_us)
    seen = None
    if observers:
        ftr = FlowTracer(sim, net.hosts, snapshot_interval_ns=us(2)).start()
        sim.run(until=us(25))  # every registration has happened
        gmon = GoodputMonitor(sim, list(net.flows.values()), net.nodes, us(5)).start()
    else:
        sim.run(until=us(25))
    status = net.run_until_flows_complete(timeout_ns=us(5000))
    assert status and len(net.flows) == len(flows)
    if observers:
        ftr.stop()
        gmon.stop()
        seen = (
            [astuple(snap) for snap in ftr.snapshots],
            ftr.completion_rows(),
            [a.tolist() for a in gmon.rates_bps()],
        )
    return (
        starts,
        {fid: (f.start_time, f.finish_time, f.packets_sent) for fid, f in net.flows.items()},
        sim._seq,
        sim.events_executed,
        status,
        seen,
    )


@pytest.mark.usefixtures("sanitized")
class TestStreamedHostsMatchEagerHosts:
    @given(flows=FLOWS)
    @example(flows=[(0, 3, 20.0, None), (0, 3, 10.0, None), (0, 3, 3.0, None), (1, 2, 3.0, 3.0)])
    @example(flows=[(0, 2, 3.0, None)] * 4 + [(0, 2, 0.0, 5.0), (1, 12, 0.0, None)])
    def test_same_starts_seq_events_and_fcts(self, flows):
        assert _run_star(Host, flows) == _run_star(EagerHost, flows)

    def test_tracer_and_goodput_monitor_see_the_same(self):
        flows = [(0, 12, 0.0, None), (1, 8, 3.0, None), (0, 4, 3.0, None), (1, 6, 10.0, 5.0)]
        streamed = _run_star(Host, flows, observers=True)
        assert streamed == _run_star(EagerHost, flows, observers=True)
        snapshots, completions, _ = streamed[-1]
        assert snapshots and len(completions) == len(flows)
        # A flow is sampled while it sends and at no other time.
        finish = {row["flow_id"]: row["finish_ns"] for row in completions}
        start = {row["flow_id"]: row["start_ns"] for row in completions}
        assert all(start[s[1]] <= s[0] < finish[s[1]] for s in snapshots)


# ---------------------------------------------------------------------------
# Retirement
# ---------------------------------------------------------------------------


def _two_hosts():
    net = Network(seed=3)
    h0, h1 = net.add_host(), net.add_host()
    sw = net.add_switch()
    net.connect(h0, sw, gbps(8), us(1))
    net.connect(h1, sw, gbps(8), us(1))
    net.build_routing()
    return net, h0, h1


def _add(net, src, dst, fid=0, size=5000, start=0.0, variant="hpcc"):
    flow = Flow(fid, src.node_id, dst.node_id, size, start)
    env = make_env(net, src.node_id, dst.node_id)
    made = []

    def factory():
        made.append(make_cc(variant, env))
        return made[-1]

    net.add_flow(flow, factory)
    return flow, made


@pytest.mark.usefixtures("sanitized")
class TestSenderStateLifetime:
    def test_nothing_is_built_before_the_start_event(self):
        net, h0, h1 = _two_hosts()
        flow, made = _add(net, h0, h1, start=us(50))
        net.run(until=us(49))
        assert not made and h0.senders == {0: None} and not flow.started
        net.run(until=us(50))
        assert len(made) == 1 and h0.senders[0].cc is made[0] and flow.started

    def test_completion_frees_state_and_cc_by_refcount(self):
        net, h0, h1 = _two_hosts()
        flow, made = _add(net, h0, h1)
        net.run(until=0.0)
        # The sender state holds the CC, so the CC outlives it (slotted
        # SenderState takes no weak reference itself).
        cc = weakref.ref(made.pop())
        assert h0.senders[0].cc is cc()
        gc.disable()
        try:
            assert net.run_until_flows_complete(timeout_ns=us(1000))
            assert h0.senders == {0: None}
            assert cc() is None
        finally:
            gc.enable()
        assert (flow.packets_sent, flow.retransmits, flow.retransmitted_bytes) == (5, 0, 0)
        assert h1.receivers[0].received == flow.size  # the receiver's side stays

    def test_duplicate_registration_is_refused_at_every_stage(self):
        net, h0, h1 = _two_hosts()
        flow, _ = _add(net, h0, h1, start=us(5))
        for until in (0.0, us(5), us(1000)):  # waiting, sending, retired
            net.run(until=until)
            with pytest.raises(ValueError):
                h0.add_sender_flow(flow, lambda: None)
        assert flow.completed


@pytest.mark.usefixtures("sanitized")
class TestLatePackets:
    def _retired(self, variant="hpcc"):
        net, h0, h1 = _two_hosts()
        flow, _ = _add(net, h0, h1, variant=variant)
        flow.use_cnp = variant == "dcqcn"
        assert net.run_until_flows_complete(timeout_ns=us(1000))
        return net, h0, h1, flow

    def _ack(self, flow, seq):
        data = Packet.data(flow.flow_id, flow.src, flow.dst, seq - 1000, 1000, 0.0)
        return Packet.ack(data, seq, 0.0)

    def test_late_ack_and_cnp_are_counted_and_change_nothing(self):
        net, h0, h1, flow = self._retired("dcqcn")
        before = (net.sim._seq, net.sim.pending_events, net.sim.cancellations, flow.finish_time)
        with registry.capture() as reg:
            h0.receive(self._ack(flow, flow.size), None)
            h0.receive(Packet.cnp(flow.flow_id, flow.dst, flow.src), None)
            assert reg.snapshot()["counters"] == {"host.late_packets": 2.0}
        assert h0.late_packets == 2
        assert before == (
            net.sim._seq, net.sim.pending_events, net.sim.cancellations, flow.finish_time
        )
        assert len(net.completed_flows) == 1

    def test_a_flow_still_waiting_drops_them_too(self):
        net, h0, h1 = _two_hosts()
        flow, made = _add(net, h0, h1, start=us(50))
        h0.receive(self._ack(flow, 1000), None)
        assert h0.late_packets == 1 and not made

    def test_unknown_flow_still_raises(self):
        net, h0, h1, flow = self._retired()
        stranger = Flow(99, flow.src, flow.dst, 1000, 0.0)
        with pytest.raises(RuntimeError, match="ACK for unknown flow 99"):
            h0.receive(self._ack(stranger, 1000), None)
        with pytest.raises(RuntimeError, match="CNP for unknown flow 99"):
            h0.receive(Packet.cnp(99, flow.dst, flow.src), None)
        with pytest.raises(RuntimeError, match="unknown flow 0"):
            h1.receive(self._ack(flow, 1000), None)  # h1 never sent flow 0
        assert h0.late_packets == h1.late_packets == 0

    def test_late_duplicate_data_is_acked_with_the_final_edge(self):
        net, h0, h1, flow = self._retired()
        h1.receive(Packet.data(0, flow.src, flow.dst, 2000, 1000, 0.0), None)
        net.run(until=us(2000))
        assert h1.receivers[0].received == flow.size
        assert h0.late_packets == 1  # the ACK it triggered came home to nobody


# ---------------------------------------------------------------------------
# What the parent commit read, on the goldens
# ---------------------------------------------------------------------------

DROP401 = replace(
    with_seed(scaled_incast("hpcc", 16), 42),
    faults=FaultConfig(drop_every_nth=401, target="bottleneck"),
)


@pytest.mark.usefixtures("sanitized")
class TestParentValues:
    @pytest.mark.parametrize(
        "variant, scheduled, executed",
        [("hpcc", 81272, 113288), ("hpcc-vai-sf", 80159, 112175)],
    )
    def test_fig8_pair_engine_counters(self, variant, scheduled, executed):
        with registry.capture() as reg:
            result = run_config(scaled_incast(variant, 16))
            counters = reg.snapshot()["counters"]
        assert counters["engine.events_scheduled"] == scheduled
        assert counters["engine.events_executed"] == executed == result.events_executed
        assert "host.late_packets" not in counters

    def test_drop401_every_plane_reads_the_retired_flows(self):
        tracer.enable(capacity=2_000_000)
        flightrec.enable()
        try:
            with registry.capture() as reg, invariants.capture() as chk:
                result = run_config(DROP401)
                counters = reg.snapshot()["counters"]
                checks = dict(chk.checks)
            spans = [e for e in tracer.get().events() if e[0] == "X" and e[2] == "flow"]
        finally:
            flightrec.disable()
            tracer.disable()
        assert result.all_completed and result.events_executed == 115488
        assert result.retransmitted_bytes == 362000
        assert sum(f.retransmitted_bytes for f in result.flows) == 362000
        assert sum(f.retransmits for f in result.flows) == 40
        assert counters["engine.events_scheduled"] == 98844
        assert counters["engine.events_executed"] == 115488
        assert counters["host.retransmissions"] == 40
        assert counters["host.retransmitted_bytes"] == 362000
        assert "host.late_packets" not in counters
        assert checks == {
            "event-time-monotonic": 115488,
            "fifo-order": 65328,
            "flightrec-conserve": 16,
            "gbn-sequence": 49006,
            "pfc-lossless": 40,
            "queue-bytes-nonneg": 65328,
            "queue-conservation": 130656,
            "switch-forward": 32684,
        }
        assert len(spans) == 16 and sum(e[6]["retransmits"] for e in spans) == 40
        section = result.flightrec
        assert section["flows_completed"] == 16 and section["conservation_failures"] == 0
        assert sum(d["retransmits"] for d in section["decompositions"]) == 40
