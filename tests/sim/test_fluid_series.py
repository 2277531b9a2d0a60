"""The fluid engine's sampled series: segments recorded per wake-up,
evaluated in whole-array operations, equal to the scalar closed forms."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.flow import Flow
from repro.sim.fluid import FluidEngine, FluidFlowParams
from repro.topology.star import build_star


class ScalarOracle(FluidEngine):
    """Also writes every due sample the scalar way, from the live state at
    the wake-up that writes it: one expression per flow and per link."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.oracle_rates = []
        self.oracle_queues = []

    def _rates_at(self, dt):
        decay = {}
        row = []
        for st_ in self._flows.values():
            rate = 0.0
            if st_.active:
                rate = target = st_.target
                delta = st_.r_int - target
                if delta != 0.0:
                    if st_.tau not in decay:
                        decay[st_.tau] = math.exp(-dt / st_.tau)
                    rate += delta * decay[st_.tau]
                rate *= st_.factor * 8e9
            row.append(rate)
        return row

    def _write_samples(self, until, inclusive=False):
        stop = math.nextafter(until, math.inf) if inclusive else until
        due = self._rates.due
        while due < stop:
            self.oracle_rates.append(self._rates_at(due - self.now))
            due += self._rates.interval
        due = self._queues.due
        while due < stop:
            self.oracle_queues.append(sum([link.depth(due - self.now) for link in self._monitored]))
            due += self._queues.interval
        super()._write_samples(until, inclusive)


def _incast(n=4, taus=(30_000.0,), rate_ns=3_000.0, queue_ns=1_000.0):
    topo = build_star(n, rate_bps=100e9, prop_delay_ns=1000.0, seed=0)
    net = topo.network
    recv = topo.hosts[-1].node_id
    engine = FluidEngine(
        net,
        monitored_ports=topo.bottleneck_ports,
        rate_sample_interval_ns=rate_ns,
        queue_sample_interval_ns=queue_ns,
        md_delay_ns=8_000.0,
    )
    for i in range(n):
        flow = Flow(net.next_flow_id(), topo.hosts[i].node_id, recv, 600_000, 15_000.0 * i)
        engine.add_flow(flow, FluidFlowParams(tau_ns=taus[i % len(taus)]))
    return engine


class TestSegments:
    def test_second_call_returns_identical_values(self):
        engine = _incast(taus=(20_000.0, 90_000.0))
        assert engine.run(1e9).completed
        (t1, rows1), (t2, rows2) = engine.rate_series(), engine.rate_series()
        (qt1, q1), (qt2, q2) = engine.queue_series(), engine.queue_series()
        assert rows1.shape == (len(t1), 4) and len(t1) > 0 and len(qt1) > 0
        for a, b in ((t1, t2), (rows1, rows2), (qt1, qt2), (q1, q2)):
            assert a.tobytes() == b.tobytes()

    def test_segments_never_outnumber_samples(self):
        for rate_ns, queue_ns in ((500.0, 700.0), (40_000.0, 90_000.0)):
            engine = _incast(rate_ns=rate_ns, queue_ns=queue_ns)
            assert engine.run(1e9).completed
            for sampler in (engine._rates, engine._queues):
                assert 0 < len(sampler.segments) <= len(sampler.times)
            # Every active flow contributes one term per rate segment.
            assert len(engine._rates.forms[0]) <= len(engine._rates.times) * 4
            assert len(engine._queues.forms) == len(engine._queues.segments)

    def test_samplers_off_record_nothing(self):
        engine = _incast(rate_ns=None, queue_ns=None)
        assert engine.run(1e9).completed
        for sampler in (engine._rates, engine._queues):
            assert sampler.times == [] and sampler.segments == []
        assert all(column == [] for column in engine._rates.forms)
        assert engine._queues.forms == []
        times, rows = engine.rate_series()
        assert times.shape == (0,) and rows.shape == (0, 4)
        assert engine.queue_series()[1].shape == (0,)

    @given(
        sizes=st.lists(st.integers(20_000, 2_000_000), min_size=1, max_size=6),
        gap_ns=st.floats(0.0, 60_000.0),
        taus=st.lists(st.sampled_from([0.0, 7_000.0, 30_000.0, 400_000.0]), min_size=1, max_size=3),
        rate_ns=st.one_of(st.none(), st.floats(300.0, 20_000.0)),
        queue_ns=st.one_of(st.none(), st.floats(300.0, 20_000.0)),
        watch_uplink=st.booleans(),
        flap_at_ns=st.one_of(st.none(), st.floats(0.0, 200_000.0)),
        stops=st.lists(st.floats(1_000.0, 400_000.0), max_size=3),
    )
    @settings(max_examples=40, deadline=None)
    def test_series_equal_the_scalar_closed_forms(
        self, sizes, gap_ns, taus, rate_ns, queue_ns, watch_uplink, flap_at_ns, stops
    ):
        """Bit for bit, with mixed tau, sub-steps, flaps, two monitored
        links and the clock stopped and restarted."""
        n = len(sizes)
        topo = build_star(n + 1, rate_bps=100e9, prop_delay_ns=1000.0, seed=0)
        net = topo.network
        recv = topo.hosts[-1].node_id
        monitored = list(topo.bottleneck_ports)
        if watch_uplink:
            monitored.append(topo.hosts[0].ports[0])
        engine = ScalarOracle(
            net,
            monitored_ports=monitored,
            rate_sample_interval_ns=rate_ns,
            queue_sample_interval_ns=queue_ns,
            md_delay_ns=8_000.0,
        )
        for i, size in enumerate(sizes):
            flow = Flow(net.next_flow_id(), topo.hosts[i].node_id, recv, size, gap_ns * i)
            engine.add_flow(flow, FluidFlowParams(tau_ns=taus[i % len(taus)]))
        if flap_at_ns is not None:
            host = topo.hosts[0]
            engine.schedule_link_flap(
                host.node_id,
                host.ports[0].peer_node.node_id,
                down_at_ns=flap_at_ns,
                down_for_ns=20_000.0,
            )
        for stop in sorted(stops) + [1e12]:
            engine.run(stop)
        times, rows = engine.rate_series()
        assert rows.tolist() == engine.oracle_rates
        assert len(times) == len(engine.oracle_rates)
        qtimes, depths = engine.queue_series()
        assert depths.tolist() == engine.oracle_queues
        assert len(qtimes) == len(engine.oracle_queues)
        assert np.all(depths >= 0.0)
