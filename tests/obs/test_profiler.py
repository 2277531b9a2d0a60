"""Unit tests for the hot-path phase profiler (repro.obs.profiler)."""

import pytest

from repro import probe
from repro.obs import profiler


@pytest.fixture(autouse=True)
def _no_leak():
    yield
    profiler.disable()
    assert profiler.get() is None and probe.PROBE is None


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def advance(self, dt):
        self.t += dt

    def __call__(self):
        return self.t


class TestExclusiveAttribution:
    def test_nested_pushes_charge_self_time(self):
        clock = FakeClock()
        prof = profiler.PhaseProfiler(clock=clock)
        prof.push("outer")
        clock.advance(1.0)
        prof.push("inner")
        clock.advance(2.0)
        prof.pop()
        clock.advance(0.5)
        prof.pop()
        flat = prof.flat()
        assert flat["outer"]["wall_s"] == pytest.approx(1.5)
        assert flat["inner"]["wall_s"] == pytest.approx(2.0)
        assert flat["outer"]["count"] == 1
        assert flat["inner"]["count"] == 1

    def test_collapsed_stacks_nest(self):
        clock = FakeClock()
        prof = profiler.PhaseProfiler(clock=clock)
        prof.push("a")
        clock.advance(0.001)
        prof.push("b")
        clock.advance(0.002)
        prof.pop()
        prof.pop()
        lines = dict(
            line.rsplit(" ", 1) for line in prof.collapsed().strip().split("\n")
        )
        assert int(lines["a"]) == 1000
        assert int(lines["a;b"]) == 2000

    def test_section_shape(self):
        clock = FakeClock()
        prof = profiler.PhaseProfiler(clock=clock)
        prof.push("x")
        clock.advance(1.0)
        prof.pop()
        section = prof.section()
        assert section["mode"] == "phase"
        assert section["wall_s"] == pytest.approx(1.0)
        assert section["phases"]["x"] == {"wall_s": 1.0, "count": 1}
        assert section["stacks"] == [{"stack": "x", "wall_s": 1.0}]

    def test_unbalanced_pop_is_harmless(self):
        prof = profiler.PhaseProfiler()
        prof.pop()  # nothing pushed; must not raise
        assert prof.flat() == {}


class TestClassification:
    def test_known_callbacks_map_to_phases(self):
        from repro.sim.host import Host
        from repro.sim.port import Port
        from repro.sim.switch import Switch

        assert profiler.classify_callback(Port._tx_done) == "port.serialize"
        assert profiler.classify_callback(Switch.receive) == "port.propagate"
        assert profiler.classify_callback(Host.receive) == "cc.decision"

    def test_unknown_callback_falls_back(self):
        def stray():
            pass

        assert profiler.classify_callback(stray) == "engine.other"

    def test_classification_is_memoized(self):
        def probe():
            pass

        first = profiler.classify_callback(probe)
        assert profiler.classify_callback(probe) is first


class TestLifecycle:
    def test_phase_mode_sets_both_globals(self):
        # What lifecycle owners ask and what the hot paths call are one object.
        prof = profiler.enable("phase")
        assert profiler.get() is prof
        assert probe.PROBE.phase_push == prof.push and probe.PROBE.phase_pop == prof.pop

    def test_capture_restores_disabled_state(self):
        with profiler.capture() as prof:
            assert profiler.get() is prof
        assert profiler.get() is None

    def test_enable_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            profiler.enable("bogus")


class TestEngineIntegration:
    def test_engine_attributes_event_phases(self):
        from repro.experiments.config import scaled_incast
        from repro.experiments.runner import run_incast

        with profiler.capture("phase") as prof:
            run_incast(scaled_incast("hpcc", 4))
        flat = prof.flat()
        for phase in ("engine.loop", "cc.decision", "port.serialize", "port.propagate"):
            assert flat[phase]["wall_s"] >= 0.0
            assert flat[phase]["count"] > 0
        # Collapsed stacks frame engine phases under the runner's phases.
        assert "runner.simulate;engine.loop" in prof.collapsed()

