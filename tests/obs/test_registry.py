"""Unit tests for the instrumentation registry (repro.obs.registry)."""

import numpy as np
import pytest

from repro.metrics.fct import percentile_key
from repro.obs import registry
from repro.obs.registry import Counter, Gauge, Histogram, P2Quantile, Registry


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


# ---------------------------------------------------------------------------
# P² streaming quantiles (the Histogram's percentiles and ``obs top``'s
# tail estimates): exact below five samples, measured error after
# ---------------------------------------------------------------------------


def test_percentile_key():
    assert percentile_key(50.0) == "p50"
    assert percentile_key(95.0) == "p95"
    assert percentile_key(99.0) == "p99"
    assert percentile_key(99.9) == "p999"


def test_p2_rejects_bad_quantile():
    for bad in (0.0, 1.0, -0.5, 2.0):
        with pytest.raises(ValueError):
            P2Quantile(bad)


def test_p2_empty_is_nan():
    assert np.isnan(P2Quantile(0.5).value())


def test_p2_exact_below_five_samples():
    # The buffered small-sample path must match numpy's linear method bit
    # for bit, including a single sample and extreme quantiles.
    rng = np.random.default_rng(7)
    for n in (1, 2, 3, 4):
        data = rng.uniform(0, 100, size=n)
        for p in (0.01, 0.25, 0.5, 0.9, 0.999):
            est = P2Quantile(p)
            for x in data:
                est.observe(float(x))
            exact = float(np.percentile(data, p * 100, method="linear"))
            assert est.value() == pytest.approx(exact, rel=1e-12)


@pytest.mark.parametrize(
    "make,label",
    [
        (lambda rng, n: rng.uniform(0.0, 1.0, n), "uniform"),
        (lambda rng, n: rng.exponential(1.0, n), "exponential"),
        (lambda rng, n: rng.lognormal(0.0, 1.0, n), "lognormal"),
    ],
)
def test_p2_mid_quantiles_within_documented_tolerance(make, label):
    # Documented bound: mid-quantiles within ~2% after a few hundred
    # samples on smooth distributions (we allow 5% across seeds).
    for seed in (1, 2, 3):
        rng = np.random.default_rng(seed)
        data = make(rng, 5000)
        for p in (0.5, 0.9):
            est = P2Quantile(p)
            for x in data:
                est.observe(float(x))
            exact = float(np.percentile(data, p * 100))
            assert est.value() == pytest.approx(exact, rel=0.05), (label, p, seed)


def test_p2_extreme_tail_within_documented_tolerance():
    # Documented bound: p99.9 on a heavy tail can be off by ~25% relative
    # at a few thousand samples, and must stay at or below the running max.
    for seed in (1, 2, 3):
        rng = np.random.default_rng(seed)
        data = rng.lognormal(0.0, 1.5, 5000)
        est = P2Quantile(0.999)
        for x in data:
            est.observe(float(x))
        exact = float(np.percentile(data, 99.9))
        assert est.value() == pytest.approx(exact, rel=0.25), seed
        assert est.value() <= data.max() + 1e-9


def test_p2_small_sample_extreme_quantile_tracks_near_max():
    # p99.9 of a few dozen samples: the desired rank sits between the two
    # top markers, so the estimate must stay in the top of the data range
    # rather than collapse to the premature middle marker.
    rng = np.random.default_rng(11)
    data = rng.uniform(0.0, 100.0, 40)
    est = P2Quantile(0.999)
    for x in data:
        est.observe(float(x))
    exact = float(np.percentile(data, 99.9))
    assert est.value() == pytest.approx(exact, rel=0.10)


def test_p2_constant_input():
    est = P2Quantile(0.99)
    for _ in range(100):
        est.observe(3.5)
    assert est.value() == pytest.approx(3.5)
