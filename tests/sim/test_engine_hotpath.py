"""Engine hot-path tests: lazy-cancel accounting, compaction, Event-free
detached entries, and the ordering contract of ``schedule_delivery``."""

from pathlib import Path

import pytest

from repro.sim.engine import Simulator


def _noop():
    pass


class TestCancelledAccounting:
    def test_peek_time_skips_cancelled_head(self):
        sim = Simulator()
        first = sim.schedule(1.0, _noop)
        sim.schedule(2.0, _noop)
        first.cancel()
        assert sim.peek_time() == 2.0
        assert sim.pending_events == 1

    def test_cancelled_events_do_not_inflate_pending(self):
        sim = Simulator()
        events = [sim.schedule(10.0 + i, _noop) for i in range(100)]
        for ev in events[:90]:
            ev.cancel()
        assert sim.pending_events == 10
        assert sim.heap_size == 100  # graveyard still heaped (lazy cancel)

    def test_double_cancel_counts_once(self):
        sim = Simulator()
        ev = sim.schedule(1.0, _noop)
        ev.cancel()
        ev.cancel()
        assert sim.pending_events == 0

    def test_compaction_sweeps_a_dominating_graveyard(self):
        sim = Simulator()
        fired = []
        for i in range(10):
            sim.schedule(100.0 + i, fired.append, i)
        dead = [sim.schedule(200.0 + i, _noop) for i in range(200)]
        for ev in dead:
            ev.cancel()
        assert sim.heap_size == 210 and sim.pending_events == 10
        sim.run(until=1.0)  # executes nothing, but triggers the sweep
        assert sim.heap_size == 10 and sim.pending_events == 10
        sim.run()
        assert fired == list(range(10))  # live events unharmed, in order

    def test_small_graveyards_are_left_alone(self):
        # Below the threshold, compaction would cost more than it saves.
        sim = Simulator()
        sim.schedule(100.0, _noop)
        dead = [sim.schedule(200.0 + i, _noop) for i in range(10)]
        for ev in dead:
            ev.cancel()
        sim.run(until=1.0)
        assert sim.heap_size == 11  # untouched
        assert sim.pending_events == 1


class TestDeadHandles:
    """A handle is dead once its entry has left the calendar: ``cancel()`` on
    it must move no counter, or ``pending_events`` under-reports to watchdogs
    and ``_maybe_compact`` sweeps for nothing."""

    @staticmethod
    def _settled(sim, pending):
        assert (sim.pending_events, sim._cancelled, sim.cancellations) == (pending, 0, 0)

    @pytest.mark.parametrize("profiled", [False, True], ids=["fast", "profiled"])
    def test_cancel_after_the_event_fired(self, profiled):
        from repro.obs import profiler

        sim = Simulator()
        ev = sim.schedule(1.0, _noop)
        sim.schedule(5.0, _noop)
        if profiled:
            profiler.enable("phase")
        try:
            sim.run(until=2.0)
        finally:
            if profiled:
                profiler.disable()
        ev.cancel()  # one live entry left, none cancelled
        assert ev.sim is None
        self._settled(sim, pending=1)

    def test_cancel_from_inside_its_own_callback(self):
        sim = Simulator()
        handle = []
        handle.append(sim.schedule(1.0, lambda: handle[0].cancel()))
        sim.schedule(5.0, _noop)
        sim.run(until=2.0)
        self._settled(sim, pending=1)

    def test_cancel_after_discard(self):
        sim = Simulator()
        ev = sim.schedule(1.0, _noop)
        sim.schedule(5.0, _noop)
        ev.cancel()
        sim.run(until=2.0)  # pops the corpse
        assert ev.sim is None and sim.cancellations == 1 and sim._cancelled == 0
        ev.cancelled = False  # even a handle someone revived stays detached
        ev.cancel()
        assert (sim.pending_events, sim._cancelled, sim.cancellations) == (1, 0, 1)

    def test_cancel_after_peek_time_discard(self):
        sim = Simulator()
        ev = sim.schedule(1.0, _noop)
        sim.schedule(5.0, _noop)
        ev.cancel()
        assert sim.peek_time() == 5.0
        assert ev.sim is None and (sim.pending_events, sim._cancelled) == (1, 0)

    def test_cancel_after_compaction(self):
        sim = Simulator()
        keep = sim.schedule(100.0, _noop)
        dead = [sim.schedule(200.0 + i, _noop) for i in range(200)]
        for ev in dead:
            ev.cancel()
        sim.run(until=1.0)
        assert sim.compactions == 1 and sim.heap_size == 1
        assert all(ev.sim is None for ev in dead) and keep.sim is sim
        for ev in dead:
            ev.cancelled = False
            ev.cancel()
        assert (sim.pending_events, sim._cancelled, sim.cancellations) == (1, 0, 200)
        keep.cancel()  # the live handle still counts
        assert (sim.pending_events, sim._cancelled, sim.cancellations) == (0, 1, 201)


class TestDetachedEntries:
    """A fire-and-forget event is its calendar tuple: no ``Event``, no pool."""

    def test_detached_entries_carry_no_event(self):
        sim = Simulator()
        sim.schedule_detached(1.0, _noop)
        sim.schedule_delivery(1.0, 2.0, None, _noop)
        handle = sim.schedule(5.0, _noop)
        by_seq = sorted(sim._heap, key=lambda entry: entry[2])
        assert [entry[3] for entry in by_seq] == [None, None, handle]
        assert by_seq[0] == (1.0, 0.0, 0, None, _noop, ())
        assert by_seq[1] == (3.0, 2.0, 1, None, _noop, ())
        # Not even the name: an allocation cannot creep back unnoticed.
        assert "Event" not in Simulator.schedule_detached.__code__.co_names
        assert "Event" not in Simulator.schedule_delivery.__code__.co_names

    def test_compaction_keeps_exactly_the_live_set_in_pop_order(self):
        def build():
            sim = Simulator()
            fired = []
            doomed = []
            for i in range(200):
                t = 10.0 + (i * 37) % 101  # repeated fire times, shuffled
                if i % 5 == 0:
                    sim.schedule_detached(t, fired.append, i)
                elif i % 5 == 1:
                    sim.schedule_delivery(t, 0.5, None, fired.append, i)
                else:
                    doomed.append(sim.schedule(t, fired.append, i))
            for ev in doomed[:-2]:
                ev.cancel()
            return sim, fired, doomed

        swept, swept_fired, doomed = build()
        swept.run(until=1.0)  # fires nothing; cancelled entries dominate -> sweep
        assert swept.compactions == 1
        assert swept.heap_size == swept.pending_events == 200 - len(doomed) + 2
        assert all(e[3] is None or not e[3].cancelled for e in swept._heap)
        swept.run()

        lazy, lazy_fired, _ = build()
        lazy.run()  # same calendar, corpses discarded one by one as popped
        assert lazy.compactions == 0
        assert swept_fired == lazy_fired
        assert len(swept_fired) == 200 - len(doomed) + 2


class TestEventsExecutedIsSettledPerRun:
    """The loops count locally and add once when ``run()`` exits — any exit."""

    def test_exact_after_run_until(self):
        sim = Simulator()
        for i in range(10):
            sim.schedule_detached(float(i), _noop)
        sim.run(until=4.0)
        assert sim.events_executed == 5
        sim.run()
        assert sim.events_executed == 10

    def test_exact_after_stop_from_a_callback(self):
        sim = Simulator()
        sim.schedule_detached(1.0, _noop)
        sim.schedule_detached(2.0, sim.stop)
        sim.schedule_detached(3.0, _noop)
        sim.run()
        assert sim.events_executed == 2
        assert sim.pending_events == 1

    def test_exact_after_an_exception_escapes_a_callback(self):
        def boom():
            raise RuntimeError("boom")

        sim = Simulator()
        sim.schedule_detached(1.0, _noop)
        sim.schedule(2.0, _noop)
        sim.schedule_detached(3.0, boom)
        sim.schedule_detached(4.0, _noop)
        with pytest.raises(RuntimeError):
            sim.run()
        # The raising callback did not complete, so it is not counted.
        assert sim.events_executed == 2
        sim.run()
        assert sim.events_executed == 3


class TestScheduleDelivery:
    def test_fire_time_is_exactly_t_end_plus_delay(self):
        # Float addition is not associative; the delivery must compute
        # t_end + delay (not now + (ser + delay)) to land on the same ULP
        # as a receive scheduled from inside a tx-done event at t_end.
        sim = Simulator()
        t_end = 83.84 + 1000.0
        sim.schedule_delivery(83.84, t_end, None, _noop)
        assert sim.peek_time() == t_end + 83.84

    def test_orders_as_if_scheduled_at_t_end(self):
        sim = Simulator()
        order = []
        sim.schedule(10.0, order.append, "early-sched")
        sim.schedule_delivery(5.0, 5.0, None, order.append, "delivery")
        sim.schedule(10.0, order.append, "late-sched")
        sim.run()
        # Same fire time: events scheduled at t=0 precede one entered with
        # schedule-time 5, regardless of push order.
        assert order == ["early-sched", "late-sched", "delivery"]

    def test_tx_seq_orders_deliveries_within_a_moment(self):
        # Two transmissions end at the same t_end; their deliveries fire at
        # the same instant and must preserve transmission order (tx_seq),
        # not push order.
        sim = Simulator()
        order = []
        sim.schedule_delivery(5.0, 5.0, 7, order.append, "second")
        sim.schedule_delivery(5.0, 5.0, 3, order.append, "first")
        sim.run()
        assert order == ["first", "second"]

    def test_fresh_seq_is_drawn_when_tx_seq_is_none(self):
        # The fused path has no tx-done event; schedule_delivery consumes
        # the sequence number that event would have drawn, keeping later
        # schedules ordered after it.
        sim = Simulator()
        sim.schedule_delivery(1.0, 0.0, None, _noop)
        ev = sim.schedule(1.0, _noop)
        assert ev.seq == 1


class TestOneInstrumentationSeam:
    """The hot paths know ``probe.PROBE`` and no plane.

    Bytecode guards (the timing halves are in
    ``tests/integration/test_speed_floors.py``): a plane's name, or a profiler symbol in the fast loop,
    showing up in ``co_names`` means a second hook crept back in beside the
    seam.  The C-side twin is in ``tests/sim/test_calendar.py``.
    """

    #: The module globals the planes used to be reached through.
    OLD_GLOBALS = {"STATS", "TRACER", "CHECKER", "RECORDER", "PHASE_HOOKS", "PROFILER"}
    #: What would name the profiler in a run loop.
    PROFILER_NAMES = {"phase_push", "phase_pop", "phase_of", "classify_callback", "push", "pop"}

    def test_per_packet_paths_reference_no_plane_global(self):
        from repro.sim.host import Host
        from repro.sim.port import Port

        for fn in (
            Simulator._run_fast,
            Port.enqueue,
            Port.try_drain,
            Port._tx_done,
            Host._try_send,
            Host._receive_ack,
            Host._receive_data,
        ):
            leaked = set(fn.__code__.co_names) & self.OLD_GLOBALS
            assert not leaked, f"{fn.__qualname__} references {sorted(leaked)}"

    def test_fast_loop_is_profiler_free_and_its_twin_is_not(self):
        fast = set(Simulator._run_fast.__code__.co_names)
        assert not fast & self.PROFILER_NAMES, sorted(fast & self.PROFILER_NAMES)
        # run() picks the loop once per call; the twin is the one that pays.
        assert "handles" in Simulator.run.__code__.co_names
        assert {"phase_push", "phase_pop", "phase_of"} <= set(
            Simulator._run_profiled.__code__.co_names
        )

    def test_probe_is_the_only_instrumentation_global_under_sim_cc_core(self):
        import repro

        def walk(code):
            yield code
            for const in code.co_consts:
                if hasattr(const, "co_names"):
                    yield from walk(const)

        root = Path(repro.__file__).parent
        sources = [p for pkg in ("sim", "cc", "core") for p in sorted((root / pkg).glob("*.py"))]
        assert len(sources) > 20
        probed = 0
        for path in sources:
            for code in walk(compile(path.read_text(), str(path), "exec")):
                names = set(code.co_names)
                leaked = names & (self.OLD_GLOBALS | {"obs", "check", "check_invariants"})
                leaked |= {n for n in names if n.startswith("obs_")}
                assert not leaked, f"{path.name}:{code.co_name} references {sorted(leaked)}"
                probed += "PROBE" in names
        assert probed >= 20  # the instrumented functions are still instrumented

    def test_every_plane_handler_takes_its_events_arguments(self):
        import inspect

        from repro import probe
        from repro.check.invariants import InvariantChecker
        from repro.obs.flightrec import FlightRecorder
        from repro.obs.profiler import PhaseProfiler
        from repro.obs.registry import Registry
        from repro.obs.tracer import EventTracer

        subscribed = set()
        for plane in (InvariantChecker, Registry, EventTracer, FlightRecorder, PhaseProfiler):
            for name, handler in inspect.getmembers(plane(), callable):
                if not name.startswith("on_"):
                    continue
                event = name[3:]
                if event == "flow_decomposition":  # recorder -> sanitizer, not a probe event
                    continue
                assert event in probe.EVENTS, f"{plane.__name__}.{name} handles no probe event"
                want = [a for a in probe.EVENTS[event].split(", ") if a]
                params = list(inspect.signature(handler).parameters)
                # Named as the event names them, unless it is an alias of
                # push / pop / classify_callback or ignores them all (*args).
                if params != ["args"] and not event.startswith("phase_"):
                    assert params == want, (plane, name)
                inspect.signature(handler).bind(*want)
                subscribed.add(event)
        assert subscribed == set(probe.EVENTS)  # no event without a subscriber
        # ... and with no subscriber attached, every event is callable as raised.
        nobody = probe.Probe([])
        for event, args in probe.EVENTS.items():
            assert not nobody.handles(event)
            getattr(nobody, event)(*(a for a in args.split(", ") if a))
