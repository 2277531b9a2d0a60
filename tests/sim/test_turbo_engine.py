"""Turbo engine: drop-in scheduler semantics and output identity.

The turbo core is gated CI-side by the full engine identity matrix
(``check differential --engines``); these tests pin the cheap, local half of
that contract — the scheduler is a drop-in for the reference ``Simulator``
(same callback order, same clock semantics, same introspection), a small
network run is byte-identical across engines, and the numpy gate fails
loudly instead of silently falling back.

Without numpy installed the turbo engine must be *unavailable*, not broken:
everything here skips (see ``_numpy`` below) except the gate test, which
asserts the actionable ImportError.
"""

import pytest

from repro.sim import engine as engine_mod
from repro.sim import turbo
from repro.sim.engine import Simulator
from repro.sim.network import Network

np = None
try:  # tests skip, not fail, when the [perf] extra is absent
    import numpy as np  # noqa: F401
except ImportError:
    pass

needs_numpy = pytest.mark.skipif(np is None, reason="numpy not installed")


def _trace_run(sim_cls, script):
    """Run ``script(sim, log)`` and return (log, now, events_executed)."""
    sim = sim_cls()
    log = []
    script(sim, log)
    return log, sim.now(), sim.events_executed


def _parity(script):
    """Assert reference and turbo produce identical traces for ``script``."""
    ref = _trace_run(Simulator, script)
    tur = _trace_run(turbo.TurboSimulator, script)
    assert tur == ref
    return ref


class TestDropInScheduler:
    def test_mixed_schedule_orders_identically(self):
        def script(sim, log):
            sim.schedule(50.0, log.append, "c")
            sim.schedule(10.0, log.append, "a")
            sim.schedule_at(30.0, log.append, "b")
            sim.schedule(50.0, log.append, "d")  # same tick, later stamp
            sim.run()

        log, now, _ = _parity(script)
        assert log == ["a", "b", "c", "d"]
        assert now == 50.0

    def test_callbacks_can_schedule_further(self):
        def script(sim, log):
            def tick(n):
                log.append(n)
                if n < 20:
                    sim.schedule(7.0, tick, n + 1)

            sim.schedule(0.0, tick, 0)
            sim.run()

        log, now, events = _parity(script)
        assert log == list(range(21))
        assert now == 7.0 * 20
        assert events == 21

    def test_cancel_then_reschedule(self):
        def script(sim, log):
            doomed = sim.schedule(40.0, log.append, "doomed")
            doomed.cancel()
            sim.schedule(40.0, log.append, "kept")
            again = sim.schedule(5.0, log.append, "early")
            again.cancel()
            sim.run()

        log, _, events = _parity(script)
        assert log == ["kept"]
        assert events == 1  # cancelled corpses are discarded, not executed

    def test_run_until_advances_clock_exactly(self):
        def script(sim, log):
            sim.schedule(10.0, log.append, "in")
            sim.schedule(100.0, log.append, "out")
            sim.run(until=60.0)
            log.append(sim.now())
            sim.run()  # drain the rest

        log, now, _ = _parity(script)
        assert log == ["in", 60.0, "out"]
        assert now == 100.0

    def test_run_until_with_nothing_pending(self):
        def script(sim, log):
            sim.run(until=123.0)
            log.append(sim.now())

        log, now, _ = _parity(script)
        assert now == 123.0

    def test_max_events_stops_without_overshooting_clock(self):
        """After a max_events exit the clock must NOT jump to ``until`` when
        unexecuted events remain before it — the reference compares the heap
        head; turbo must reproduce that via its calendar scan."""

        def script(sim, log):
            for i in range(5):
                sim.schedule(float(10 * (i + 1)), log.append, i)
            sim.run(until=1000.0, max_events=2)
            log.append(("now", sim.now()))
            log.append(("pending", sim.pending_events))
            sim.run()

        log, now, _ = _parity(script)
        assert log[:2] == [0, 1]
        assert ("now", 20.0) in log
        assert ("pending", 3) in log
        assert now == 50.0  # the final unbounded run stops at the last event

    def test_zero_max_events_executes_nothing(self):
        """The loops test the limit after a callback; a budget that is
        already spent must not buy one more event (or move the clock)."""

        def script(sim, log):
            sim.schedule(10.0, log.append, "a")
            sim.schedule_detached(20.0, log.append, "b")
            sim.run(max_events=0)
            sim.run(until=50.0, max_events=-3)
            log.append(("now", sim.now(), sim.events_executed, sim.pending_events))
            sim.run(max_events=1)
            log.append(("now", sim.now(), sim.events_executed, sim.pending_events))

        log, _, _ = _parity(script)
        assert log == [("now", 0.0, 0, 2), "a", ("now", 10.0, 1, 1)]

    def test_peek_time_skips_cancelled(self):
        def script(sim, log):
            a = sim.schedule(10.0, log.append, "a")
            sim.schedule(30.0, log.append, "b")
            a.cancel()
            log.append(("peek", sim.peek_time()))
            sim.run()
            log.append(("peek-after", sim.peek_time()))

        log, _, _ = _parity(script)
        assert ("peek", 30.0) in log
        assert ("peek-after", None) in log

    def test_peek_time_between_runs_does_not_reorder(self):
        """Introspection must not advance the wheel cursor: a near-past
        schedule made after a far-future peek still fires first."""

        def script(sim, log):
            sim.schedule(100_000.0, log.append, "far")
            log.append(("peek", sim.peek_time()))
            sim.schedule(5.0, log.append, "near")
            sim.run()

        log, _, _ = _parity(script)
        assert log == [("peek", 100_000.0), "near", "far"]

    def test_pending_events_counts_cancelled_like_reference(self):
        def script(sim, log):
            evs = [sim.schedule(float(i + 1), log.append, i) for i in range(6)]
            evs[0].cancel()
            evs[3].cancel()
            log.append(("pending", sim.pending_events))
            sim.run()

        log, _, _ = _parity(script)
        assert ("pending", 4) in log

    def test_exception_in_callback_leaves_consistent_state(self):
        """A raising callback must not corrupt the turbo wheel's deferred
        counters: the simulator stays usable and drains the remainder."""

        def script(sim, log):
            def boom():
                raise RuntimeError("boom")

            sim.schedule(1.0, log.append, "a")
            sim.schedule(2.0, boom)
            sim.schedule(3.0, log.append, "b")
            try:
                sim.run()
            except RuntimeError:
                log.append("raised")
            log.append(("pending", sim.pending_events))
            sim.run()

        log, _, _ = _parity(script)
        assert log == ["a", "raised", ("pending", 1), "b"]

    def test_far_future_timer_spills_through_overflow(self):
        """A timer beyond the wheel horizon (RTO-like) fires at the right
        time among a stream of near-future events."""

        def script(sim, log):
            horizon = turbo.TurboSimulator().wheel.bucket_ns * 4096

            def tick(n):
                if n < 50:
                    sim.schedule(horizon / 25.0, tick, n + 1)

            sim.schedule(0.0, tick, 0)
            sim.schedule(horizon * 1.5, log.append, "rto")
            sim.run()
            log.append(sim.now())

        _parity(script)


class _FlowStub:
    def __init__(self, flow_id):
        self.flow_id = flow_id


@needs_numpy
class TestTurboCore:
    def test_flow_columns_grow_and_track(self):
        core = turbo.TurboCore(initial_capacity=4)
        flows = [_FlowStub(fid) for fid in range(100)]  # forces growth
        for f in flows:
            core.register_flow(f)
        assert core.active == 100
        assert core.n_flows == 100
        assert len(core.flow_received) >= 100
        core.flow_received[7] = 1234
        core.mark_done(flows[7])
        assert core.active == 99
        assert not core.all_done()
        for f in flows:
            if f.flow_id != 7:
                core.mark_done(f)
        assert core.all_done()
        assert core.flow_received[7] == 1234  # growth preserved writes

    def test_negative_flow_id_rejected(self):
        core = turbo.TurboCore()
        with pytest.raises(ValueError):
            core.register_flow(_FlowStub(-1))


class TestNumpyGate:
    def test_require_numpy_error_is_actionable(self, monkeypatch):
        monkeypatch.setattr(turbo, "_np", None)
        with pytest.raises(ImportError, match=r"repro\[perf\]"):
            turbo.require_numpy()

    def test_network_rejects_unknown_engine(self):
        with pytest.raises(ValueError, match="unknown engine"):
            Network(engine="warp")

    def test_reference_engine_needs_no_turbo_import(self):
        """repro.sim must not import the turbo module as a side effect —
        the reference engine works on numpy-free installs."""
        import importlib
        import sys

        saved = {
            name: sys.modules.pop(name)
            for name in list(sys.modules)
            if name.startswith("repro.sim.turbo")
        }
        try:
            import repro.sim

            importlib.reload(repro.sim)
            assert not any(n.startswith("repro.sim.turbo") for n in sys.modules)
        finally:
            sys.modules.update(saved)


@needs_numpy
class TestNetworkIdentity:
    def test_small_incast_byte_identical(self):
        """A 4-sender incast produces identical FCTs, fairness series, and
        event counts on both engines (the CI matrix runs the full presets)."""
        from repro.experiments.config import scaled_incast, with_engine
        from repro.experiments.runner import clear_caches, run_incast

        cfg = scaled_incast("hpcc-vai-sf", 4)
        clear_caches()
        ref = run_incast(cfg)
        clear_caches()
        tur = run_incast(with_engine(cfg, "turbo"))
        clear_caches()

        assert [(f.start_time, f.finish_time, f.size) for f in ref.flows] == [
            (f.start_time, f.finish_time, f.size) for f in tur.flows
        ]
        assert np.array_equal(ref.jain_times_ns, tur.jain_times_ns)
        assert np.array_equal(ref.jain_values, tur.jain_values)
        assert np.array_equal(ref.queue_times_ns, tur.queue_times_ns)
        assert np.array_equal(ref.queue_values_bytes, tur.queue_values_bytes)
        assert ref.events_executed == tur.events_executed

    def test_turbo_network_uses_turbo_classes(self):
        from repro.topology.star import build_star

        topo = build_star(2, engine="turbo")
        net = topo.network
        assert isinstance(net.sim, turbo.TurboSimulator)
        assert isinstance(net.core, turbo.TurboCore)
        assert all(isinstance(h, turbo.TurboHost) for h in net.hosts)
        assert all(isinstance(s, turbo.TurboSwitch) for s in net.switches)
        assert net.engine == "turbo"

    def test_turbo_core_mirrors_receiver_progress(self):
        """The SoA received/acked columns are write-through mirrors of the
        per-flow scalar state (what TurboGoodputMonitor samples)."""
        from repro.experiments.config import scaled_incast, with_engine
        from repro.experiments.runner import clear_caches, run_incast

        cfg = scaled_incast("hpcc", 4)
        clear_caches()
        result = run_incast(with_engine(cfg, "turbo"))
        clear_caches()
        assert result.all_completed
        assert result.events_executed > 0
        # The fairness series exists and is sampled from the SoA columns.
        assert len(result.jain_values) > 0
