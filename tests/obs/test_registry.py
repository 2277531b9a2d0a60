"""Unit tests for the instrumentation registry (repro.obs.registry)."""

import pytest

from repro.obs import registry
from repro.obs.registry import Counter, Gauge, Histogram, Registry


class TestCounter:
    def test_starts_at_zero_and_increments(self):
        c = Counter("x")
        assert c.value == 0.0
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5


class TestGauge:
    def test_set_overwrites(self):
        g = Gauge("x")
        g.set(5.0)
        g.set(2.0)
        assert g.value == 2.0

    def test_update_max_keeps_peak(self):
        g = Gauge("x")
        g.update_max(3.0)
        g.update_max(1.0)
        g.update_max(7.0)
        assert g.value == 7.0


class TestHistogram:
    def test_summary_tracks_count_total_min_max_mean(self):
        h = Histogram("x")
        for v in (2.0, 8.0, 5.0):
            h.observe(v)
        s = h.summary()
        assert s["count"] == 3
        assert s["total"] == 15.0
        assert s["min"] == 2.0
        assert s["max"] == 8.0
        assert s["mean"] == 5.0

    def test_empty_summary_is_all_zero(self):
        s = Histogram("x").summary()
        assert s == {
            "count": 0, "total": 0.0, "min": 0.0, "max": 0.0, "mean": 0.0,
            "p50": 0.0, "p95": 0.0, "p99": 0.0,
        }

    def test_summary_percentiles_from_p2_estimators(self):
        np = pytest.importorskip("numpy")
        rng = np.random.default_rng(3)
        data = rng.uniform(0.0, 1000.0, 2000)
        h = Histogram("x")
        for v in data:
            h.observe(float(v))
        s = h.summary()
        for p in (50, 95, 99):
            exact = float(np.percentile(data, p))
            assert s[f"p{p}"] == pytest.approx(exact, rel=0.05)
            assert h.percentile(float(p)) == s[f"p{p}"]

    def test_percentile_rejects_untracked(self):
        with pytest.raises(KeyError):
            Histogram("x").percentile(42.0)


class TestRegistry:
    def test_metric_objects_are_stable_per_name(self):
        reg = Registry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.gauge("g") is reg.gauge("g")
        assert reg.histogram("h") is reg.histogram("h")
        assert len(reg) == 3

    def test_snapshot_is_sorted_and_plain(self):
        reg = Registry()
        reg.counter("b.z").inc(2)
        reg.counter("a.a").inc()
        reg.gauge("g").set(4.0)
        reg.histogram("h").observe(1.0)
        snap = reg.snapshot()
        assert list(snap["counters"]) == ["a.a", "b.z"]
        assert snap["counters"]["b.z"] == 2.0
        assert snap["gauges"] == {"g": 4.0}
        assert snap["histograms"]["h"]["count"] == 1


class TestModuleGlobals:
    def test_disabled_by_default(self):
        assert registry.get() is None
        assert not registry.enabled()

    def test_enable_disable_roundtrip(self):
        reg = registry.enable()
        try:
            assert registry.get() is reg
            assert registry.get() is reg
            assert registry.enabled()
        finally:
            registry.disable()
        assert registry.get() is None

    def test_capture_restores_previous(self):
        assert registry.get() is None
        with registry.capture() as reg:
            assert registry.get() is reg
            reg.counter("x").inc()
        assert registry.get() is None

    def test_capture_nested(self):
        with registry.capture() as outer:
            with registry.capture() as inner:
                assert registry.get() is inner
            assert registry.get() is outer

    def test_enable_accepts_existing_registry(self):
        mine = Registry()
        try:
            assert registry.enable(mine) is mine
        finally:
            registry.disable()


def test_counter_rejects_nothing_but_histogram_capacity_errors():
    # EventTracer capacity validation lives in tracer tests; registry metrics
    # have no invalid constructions, but Registry() must start empty.
    assert len(Registry()) == 0


@pytest.fixture(autouse=True)
def _no_leak():
    yield
    assert registry.get() is None, "a test leaked an enabled registry"
