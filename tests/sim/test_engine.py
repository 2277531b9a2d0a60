"""Unit and property tests for the discrete-event engine."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import SimulationError, Simulator


class TestScheduling:
    def test_initial_time_is_zero(self):
        assert Simulator().now() == 0.0

    def test_events_run_in_time_order(self):
        sim = Simulator()
        out = []
        sim.schedule(30.0, out.append, "c")
        sim.schedule(10.0, out.append, "a")
        sim.schedule(20.0, out.append, "b")
        sim.run()
        assert out == ["a", "b", "c"]

    def test_ties_run_in_fifo_order(self):
        sim = Simulator()
        out = []
        for i in range(10):
            sim.schedule(5.0, out.append, i)
        sim.run()
        assert out == list(range(10))

    def test_now_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(42.5, lambda: seen.append(sim.now()))
        sim.run()
        assert seen == [42.5]
        assert sim.now() == 42.5

    def test_schedule_at_absolute_time(self):
        sim = Simulator()
        seen = []
        sim.schedule_at(100.0, lambda: seen.append(sim.now()))
        sim.run()
        assert seen == [100.0]

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().schedule(-1.0, lambda: None)

    def test_scheduling_into_past_rejected(self):
        sim = Simulator()
        sim.schedule(10.0, lambda: sim.schedule_at(5.0, lambda: None))
        with pytest.raises(SimulationError):
            sim.run()

    def test_events_scheduled_during_run_execute(self):
        sim = Simulator()
        out = []

        def first():
            out.append("first")
            sim.schedule(1.0, out.append, "second")

        sim.schedule(0.0, first)
        sim.run()
        assert out == ["first", "second"]

    def test_zero_delay_event_from_callback_runs_same_time(self):
        sim = Simulator()
        times = []
        sim.schedule(5.0, lambda: sim.schedule(0.0, lambda: times.append(sim.now())))
        sim.run()
        assert times == [5.0]


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        out = []
        ev = sim.schedule(10.0, out.append, "x")
        sim.cancel(ev)
        sim.run()
        assert out == []

    def test_cancel_none_is_noop(self):
        Simulator().cancel(None)

    def test_cancel_during_run(self):
        sim = Simulator()
        out = []
        later = sim.schedule(20.0, out.append, "later")
        sim.schedule(10.0, lambda: sim.cancel(later))
        sim.run()
        assert out == []

    def test_cancelled_events_do_not_count_as_executed(self):
        sim = Simulator()
        ev = sim.schedule(1.0, lambda: None)
        ev.cancel()
        sim.run()
        assert sim.events_executed == 0


class TestRunControl:
    def test_run_until_executes_inclusive(self):
        sim = Simulator()
        out = []
        sim.schedule(10.0, out.append, "a")
        sim.schedule(20.0, out.append, "b")
        sim.schedule(30.0, out.append, "c")
        sim.run(until=20.0)
        assert out == ["a", "b"]
        assert sim.now() == 20.0

    def test_run_until_advances_clock_when_idle(self):
        sim = Simulator()
        sim.run(until=500.0)
        assert sim.now() == 500.0

    def test_remaining_events_run_on_second_call(self):
        sim = Simulator()
        out = []
        sim.schedule(10.0, out.append, "a")
        sim.schedule(30.0, out.append, "b")
        sim.run(until=20.0)
        assert sim.now() == 20.0  # exactly ``until``, not the last event's 10.0
        sim.run()
        assert out == ["a", "b"]
        assert sim.now() == 30.0

    def test_max_events_limits_execution(self):
        sim = Simulator()
        out = []
        for i in range(10):
            sim.schedule(float(i), out.append, i)
        sim.run(max_events=3)
        assert out == [0, 1, 2]

    def test_stop_terminates_run(self):
        sim = Simulator()
        out = []
        sim.schedule(1.0, out.append, "a")
        sim.schedule(2.0, sim.stop)
        sim.schedule(3.0, out.append, "b")
        sim.run()
        assert out == ["a"]
        sim.run()
        assert out == ["a", "b"]

    def test_run_not_reentrant(self):
        sim = Simulator()
        errors = []

        def reenter():
            try:
                sim.run()
            except SimulationError as exc:
                errors.append(exc)

        sim.schedule(1.0, reenter)
        sim.run()
        assert len(errors) == 1

    def test_peek_time_skips_cancelled(self):
        sim = Simulator()
        ev = sim.schedule(5.0, lambda: None)
        sim.schedule(9.0, lambda: None)
        ev.cancel()
        assert sim.peek_time() == 9.0

    def test_peek_time_empty(self):
        assert Simulator().peek_time() is None

    def test_events_executed_counter(self):
        sim = Simulator()
        for i in range(7):
            sim.schedule(float(i), lambda: None)
        sim.run()
        assert sim.events_executed == 7

    def test_max_events_exit_does_not_advance_clock_past_pending_head(self):
        sim = Simulator()
        log = []
        for i in range(5):
            sim.schedule(float(10 * (i + 1)), log.append, i)
        sim.run(until=1000.0, max_events=2)
        log.append(("now", sim.now()))
        log.append(("pending", sim.pending_events))
        sim.run()
        assert log == [0, 1, ("now", 20.0), ("pending", 3), 2, 3, 4]
        assert sim.now() == 50.0  # the unbounded run stops at the last event

    def test_zero_or_negative_max_events_executes_nothing(self):
        """The loops test the limit after a callback; a budget that is
        already spent must not buy one more event (or move the clock)."""
        sim = Simulator()
        log = []
        sim.schedule(10.0, log.append, "a")
        sim.schedule_detached(20.0, log.append, "b")
        sim.run(max_events=0)
        sim.run(until=50.0, max_events=-3)
        log.append(("now", sim.now(), sim.events_executed, sim.pending_events))
        sim.run(max_events=1)
        log.append(("now", sim.now(), sim.events_executed, sim.pending_events))
        assert log == [("now", 0.0, 0, 2), "a", ("now", 10.0, 1, 1)]

    def test_peek_time_between_runs_does_not_reorder(self):
        sim = Simulator()
        log = []
        sim.schedule(100_000.0, log.append, "far")
        log.append(("peek", sim.peek_time()))
        sim.schedule(5.0, log.append, "near")
        sim.run()
        assert log == [("peek", 100_000.0), "near", "far"]

    def test_exception_in_callback_leaves_simulator_usable(self):
        def boom():
            raise RuntimeError("boom")

        sim = Simulator()
        log = []
        sim.schedule(1.0, log.append, "a")
        sim.schedule(2.0, boom)
        sim.schedule(3.0, log.append, "b")
        try:
            sim.run()
        except RuntimeError:
            log.append("raised")
        log.append(("pending", sim.pending_events))
        sim.run()
        assert log == ["a", "raised", ("pending", 1), "b"]


class TestEngineProperties:
    @given(
        delays=st.lists(
            st.floats(min_value=0.0, max_value=1e9, allow_nan=False), min_size=1, max_size=50
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_execution_order_is_sorted_and_stable(self, delays):
        """Events always execute in nondecreasing time; ties stay FIFO."""
        sim = Simulator()
        order = []
        for i, d in enumerate(delays):
            sim.schedule(d, order.append, (d, i))
        sim.run()
        assert len(order) == len(delays)
        for (t1, i1), (t2, i2) in zip(order, order[1:]):
            assert t1 <= t2
            if t1 == t2:
                assert i1 < i2

    @given(
        delays=st.lists(
            st.floats(min_value=0.0, max_value=1e6, allow_nan=False), min_size=1, max_size=30
        ),
        cutoff=st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
    )
    @settings(max_examples=100, deadline=None)
    def test_run_until_partition(self, delays, cutoff):
        """Splitting a run at any cutoff executes the same event sequence."""
        sim_a = Simulator()
        out_a = []
        sim_b = Simulator()
        out_b = []
        for i, d in enumerate(delays):
            sim_a.schedule(d, out_a.append, i)
            sim_b.schedule(d, out_b.append, i)
        sim_a.run()
        sim_b.run(until=cutoff)
        sim_b.run()
        assert out_a == out_b
