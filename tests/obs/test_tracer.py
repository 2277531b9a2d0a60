"""Unit tests for the structured event tracer (repro.obs.tracer)."""

import json

import pytest

from repro.obs import registry, tracer
from repro.obs.tracer import EventTracer


class TestRingBuffer:
    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            EventTracer(0)

    def test_drops_oldest_when_full(self):
        tr = EventTracer(capacity=3)
        for i in range(5):
            tr.instant(f"e{i}", float(i))
        assert len(tr) == 3
        assert tr.emitted == 5
        assert tr.dropped == 2
        names = [rec[1] for rec in tr.events()]
        assert names == ["e2", "e3", "e4"]  # oldest evicted first

    def test_clear_empties_ring_but_keeps_counters(self):
        tr = EventTracer(capacity=4)
        tr.instant("a", 1.0)
        tr.clear()
        assert len(tr) == 0
        assert tr.emitted == 1


class TestRingOverflowCounter:
    """Regression: ring overflow must surface as a registry counter so
    manifests carry it and ``obs report`` can warn about truncation."""

    @pytest.fixture(autouse=True)
    def _registry_off(self):
        yield
        registry.disable()

    def test_overflow_increments_registry_counter(self):
        reg = registry.enable()
        tr = EventTracer(capacity=2)
        for i in range(5):
            tr.instant(f"e{i}", float(i))
        assert tr.dropped == 3
        assert reg.counter("tracer.ring_dropped").value == 3

    def test_no_counter_created_before_overflow(self):
        reg = registry.enable()
        tr = EventTracer(capacity=8)
        tr.instant("a", 0.0)
        assert "tracer.ring_dropped" not in reg.snapshot()["counters"]

    def test_overflow_without_registry_is_silent(self):
        registry.disable()
        tr = EventTracer(capacity=1)
        tr.instant("a", 0.0)
        tr.instant("b", 1.0)  # must not raise with no registry attached
        assert tr.dropped == 1

    def test_drain_resets_per_shard_loss_accounting(self):
        tr = EventTracer(capacity=1)
        tr.instant("a", 0.0)
        tr.instant("b", 1.0)
        shard = tr.drain_chrome()
        assert shard["otherData"] == {"emitted": 2, "dropped": 1}
        tr.instant("c", 2.0)
        assert tr.to_chrome()["otherData"] == {"emitted": 1, "dropped": 0}


class TestChromeExport:
    def test_complete_span_converts_ns_to_us(self):
        tr = EventTracer()
        tr.complete("flow 1", 2_000.0, 10_000.0, cat="flow", tid=1, args={"k": 1})
        doc = tr.to_chrome()
        (ev,) = doc["traceEvents"]
        assert ev["ph"] == "X"
        assert ev["ts"] == 2.0  # µs
        assert ev["dur"] == 10.0  # µs
        assert ev["pid"] == 0
        assert ev["tid"] == 1
        assert ev["cat"] == "flow"
        assert ev["args"] == {"k": 1}

    def test_instant_is_thread_scoped(self):
        tr = EventTracer()
        tr.instant("mark", 500.0)
        (ev,) = tr.to_chrome()["traceEvents"]
        assert ev["ph"] == "i"
        assert ev["s"] == "t"
        assert "dur" not in ev

    def test_counter_track_keeps_values_dict(self):
        tr = EventTracer()
        tr.counter("qmax", 1_000.0, {"bytes": 42.0}, cat="queue")
        (ev,) = tr.to_chrome()["traceEvents"]
        assert ev["ph"] == "C"
        assert ev["args"] == {"bytes": 42.0}

    def test_json_is_valid_and_carries_loss_accounting(self):
        tr = EventTracer(capacity=1)
        tr.instant("a", 0.0)
        tr.instant("b", 1.0)
        doc = json.loads(tr.to_chrome_json())
        assert doc["displayTimeUnit"] == "ns"
        assert doc["otherData"] == {"emitted": 2, "dropped": 1}
        assert len(doc["traceEvents"]) == 1


class TestCsvExport:
    def test_header_and_args_encoding(self):
        tr = EventTracer()
        tr.instant("a", 1.5, args={"z": 1, "a": 2})
        text = tr.to_csv()
        lines = text.strip().split("\n")
        assert lines[0] == "ph,name,cat,ts_ns,dur_ns,tid,args"
        assert len(lines) == 2
        # args JSON uses sorted keys for determinism.
        assert '""a"": 2' in lines[1] and lines[1].index('""a""') < lines[1].index('""z""')

    def test_deterministic_output(self):
        def build():
            tr = EventTracer()
            tr.complete("s", 0.1, 0.2)
            tr.instant("i", 0.3)
            return tr.to_csv()

        assert build() == build()


class TestModuleGlobals:
    def test_disabled_by_default(self):
        assert tracer.get() is None
        assert not tracer.enabled()

    def test_enable_disable_roundtrip(self):
        tr = tracer.enable(capacity=16)
        try:
            assert tracer.get() is tr
            assert tracer.get() is tr
            assert tr.capacity == 16
        finally:
            tracer.disable()
        assert tracer.get() is None


@pytest.fixture(autouse=True)
def _no_leak():
    yield
    assert tracer.get() is None, "a test leaked an enabled tracer"
