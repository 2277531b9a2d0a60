"""Near-zero-overhead instrumentation registry: named counters/gauges/histograms.

Design goals, in priority order:

1. **Disabled costs (almost) nothing.**  The registry is one of the planes
   of :mod:`repro.probe`: with no plane attached an instrumented site reads
   one global and tests it against ``None`` — no objects are allocated, no
   dict is touched, no callback fires.  ``tests/sim/test_obs_disabled.py``
   locks in that simulation outputs are byte-identical with instrumentation
   on or off; the overhead budget for the *disabled* path is documented in
   DESIGN.md §9.
2. **Enabled is passive.**  Metrics record what happened; they never
   schedule events, draw random numbers, or touch simulation state, so a
   fully instrumented run is also byte-identical to a bare one.
3. **Names are free-form dotted strings** (``"port.fused_deliveries"``).
   The registry creates metrics on first use, so layers never coordinate.

The simulator's metric names are all spelled in one place: the ``on_<event>``
methods of :class:`Registry`, each subscribing to the probe event of that
name.  Code outside the simulator (the supervisor, the tracer's overflow
counter) asks :func:`get` and counts directly.
"""

from __future__ import annotations

from typing import Any, ContextManager, Dict, List, Optional

from .. import probe
from ..metrics.fct import percentile_key

#: Percentiles every histogram summary reports (P² streaming estimates).
HISTOGRAM_PERCENTILES = (50.0, 95.0, 99.0)


class P2Quantile:
    """One streaming quantile via the P² algorithm (Jain & Chlamtac, 1985).

    Maintains five markers whose heights approximate the quantile without
    storing observations.  Until five observations exist the estimate is
    *exact*: the buffered values are interpolated the same way
    ``numpy.percentile(..., method='linear')`` interpolates.  After that,
    mid quantiles land within ~2% of exact on smooth distributions after a
    few hundred samples; an extreme tail (p99.9) needs ~10x more samples
    than ``1/(1-p)`` to settle and until then leans on the max marker
    (``tests/obs/test_registry.py`` measures both).
    """

    __slots__ = ("p", "count", "_q", "_n", "_np", "_dn")

    def __init__(self, p: float):
        if not 0.0 < p < 1.0:
            raise ValueError(f"quantile must be in (0, 1), got {p}")
        self.p = p
        self.count = 0
        self._q: List[float] = []  # marker heights (or the first <5 samples)
        self._n: Optional[List[float]] = None  # marker positions, 1-based
        self._np: Optional[List[float]] = None  # desired positions
        self._dn: Optional[List[float]] = None  # desired-position increments

    def observe(self, x: float) -> None:
        self.count += 1
        q = self._q
        if self._n is None:
            q.append(x)
            if len(q) == 5:
                q.sort()
                p = self.p
                self._n = [1.0, 2.0, 3.0, 4.0, 5.0]
                self._np = [1.0, 1.0 + 2.0 * p, 1.0 + 4.0 * p, 3.0 + 2.0 * p, 5.0]
                self._dn = [0.0, p / 2.0, p, (1.0 + p) / 2.0, 1.0]
            return
        n = self._n
        # Locate the cell k with q[k] <= x < q[k+1], clamping the extremes.
        if x < q[0]:
            q[0] = x
            k = 0
        elif x >= q[4]:
            q[4] = x
            k = 3
        else:
            k = 0
            while x >= q[k + 1]:
                k += 1
        for i in range(k + 1, 5):
            n[i] += 1.0
        np_ = self._np
        dn = self._dn
        for i in range(5):
            np_[i] += dn[i]
        # Nudge the three middle markers toward their desired positions.
        for i in (1, 2, 3):
            d = np_[i] - n[i]
            if (d >= 1.0 and n[i + 1] - n[i] > 1.0) or (
                d <= -1.0 and n[i - 1] - n[i] < -1.0
            ):
                d = 1.0 if d >= 0.0 else -1.0
                qp = self._parabolic(i, d)
                if not q[i - 1] < qp < q[i + 1]:
                    qp = self._linear(i, d)
                q[i] = qp
                n[i] += d

    def _parabolic(self, i: int, d: float) -> float:
        q, n = self._q, self._n
        return q[i] + d / (n[i + 1] - n[i - 1]) * (
            (n[i] - n[i - 1] + d) * (q[i + 1] - q[i]) / (n[i + 1] - n[i])
            + (n[i + 1] - n[i] - d) * (q[i] - q[i - 1]) / (n[i] - n[i - 1])
        )

    def _linear(self, i: int, d: float) -> float:
        q, n = self._q, self._n
        j = i + int(d)
        return q[i] + d * (q[j] - q[i]) / (n[j] - n[i])

    def value(self) -> float:
        """Current estimate (NaN with no observations).

        Rather than returning the raw middle marker (whose desired position
        only reaches rank ``p*(n-1)`` asymptotically), the query
        interpolates the five (position, height) markers at the exact
        desired rank.  For large counts this converges to the classic
        ``q[2]``; for extreme quantiles at small counts (p99.9 of tens of
        samples) the rank lands between the two top markers and the
        estimate tracks ``numpy.percentile``'s near-max answer instead of
        the badly premature median marker.
        """
        if self.count == 0:
            return float("nan")
        if self._n is None:
            # Exact small-sample path: numpy's 'linear' interpolation.
            vals = sorted(self._q)
            rank = self.p * (len(vals) - 1)
            lo = int(rank)
            hi = min(lo + 1, len(vals) - 1)
            frac = rank - lo
            return vals[lo] * (1.0 - frac) + vals[hi] * frac
        q, n = self._q, self._n
        r = 1.0 + self.p * (self.count - 1)  # desired rank, 1-based
        if r <= n[0]:
            return q[0]
        for i in range(4):
            if r <= n[i + 1]:
                span = n[i + 1] - n[i]
                if span <= 0.0:
                    return q[i + 1]
                frac = (r - n[i]) / span
                return q[i] + frac * (q[i + 1] - q[i])
        return q[4]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<P2Quantile p={self.p} n={self.count} est={self.value():.4g}>"


class Counter:
    """A monotonically increasing value (float so token fractions count too)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def inc(self, n: float = 1.0) -> None:
        self.value += n

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Counter {self.name}={self.value}>"


class Gauge:
    """A point-in-time value (last write wins; ``update_max`` keeps peaks)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def set(self, v: float) -> None:
        self.value = v

    def update_max(self, v: float) -> None:
        if v > self.value:
            self.value = v

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Gauge {self.name}={self.value}>"


class Histogram:
    """Streaming summary of observations: count/total/min/max + percentiles.

    Percentiles come from O(1)-memory P² estimators
    (:class:`P2Quantile`) — exact below five
    observations, approximate after — so no bucket boundaries need
    negotiating between layers.  The trace layer (:mod:`repro.obs.tracer`)
    remains the tool for full distributions.
    """

    __slots__ = ("name", "count", "total", "min", "max", "_quantiles")

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self._quantiles = tuple(
            (p, P2Quantile(p / 100.0)) for p in HISTOGRAM_PERCENTILES
        )

    def observe(self, v: float) -> None:
        self.count += 1
        self.total += v
        if v < self.min:
            self.min = v
        if v > self.max:
            self.max = v
        for _, est in self._quantiles:
            est.observe(v)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, p: float) -> float:
        """Streaming estimate of percentile ``p`` (NaN with no data)."""
        for q, est in self._quantiles:
            if q == p:
                return est.value()
        raise KeyError(f"histogram tracks {HISTOGRAM_PERCENTILES}, not {p}")

    def summary(self) -> Dict[str, float]:
        if not self.count:
            out = {"count": 0, "total": 0.0, "min": 0.0, "max": 0.0, "mean": 0.0}
            out.update({percentile_key(p): 0.0 for p, _ in self._quantiles})
            return out
        out = {
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
        }
        out.update(
            {percentile_key(p): est.value() for p, est in self._quantiles}
        )
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Histogram {self.name} n={self.count} mean={self.mean:.3g}>"


def _counts(name: str):
    """An ``on_<event>`` that counts one of ``name``, whatever the event carries."""

    def handler(self: "Registry", *args: Any) -> None:
        self.counter(name).inc()

    return handler


#: A family counts ``cc.<family>.decreases`` / ``.increases`` unless named
#: here: HPCC's are updates of its *reference* window and keep that name.
_CC_DECREASES = {"hpcc": "cc.hpcc.reference_decreases"}
_CC_INCREASES = {"hpcc": "cc.hpcc.reference_increases"}


class Registry:
    """Create-on-first-use store of named metrics."""

    __slots__ = ("_counters", "_gauges", "_histograms")

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        c = self._counters.get(name)
        if c is None:
            c = self._counters[name] = Counter(name)
        return c

    def gauge(self, name: str) -> Gauge:
        g = self._gauges.get(name)
        if g is None:
            g = self._gauges[name] = Gauge(name)
        return g

    def histogram(self, name: str) -> Histogram:
        h = self._histograms.get(name)
        if h is None:
            h = self._histograms[name] = Histogram(name)
        return h

    def snapshot(self) -> Dict[str, Dict]:
        """Plain-dict rendering with sorted names (JSON- and diff-friendly)."""
        return {
            "counters": {n: self._counters[n].value for n in sorted(self._counters)},
            "gauges": {n: self._gauges[n].value for n in sorted(self._gauges)},
            "histograms": {
                n: self._histograms[n].summary() for n in sorted(self._histograms)
            },
        }

    def __len__(self) -> int:
        return len(self._counters) + len(self._gauges) + len(self._histograms)

    # -- probe events (the simulator's metric names) -----------------------

    def on_run_end(
        self,
        now: float,
        executed: int,
        scheduled: int,
        cancelled: int,
        compactions: int,
        heap_len: int,
    ) -> None:
        self.counter("engine.events_executed").inc(executed)
        self.counter("engine.events_scheduled").inc(scheduled)
        self.counter("engine.events_cancelled").inc(cancelled)
        self.counter("engine.heap_compactions").inc(compactions)
        self.gauge("engine.heap_peak").update_max(heap_len)

    def on_dequeue(self, port: Any, pkt: Any, now: float, ser_ns: float, fused: bool) -> None:
        self.counter("port.fused_deliveries" if fused else "port.unfused_deliveries").inc()

    def on_drop(self, port: Any, pkt: Any, ingress: Any, reason: str) -> None:
        if reason == "tail":
            self.counter("port.tail_drops").inc()
        elif reason == "fault":
            self.counter("faults.drops").inc()

    def on_pause(self, port: Any, now: float, duration_ns: float) -> None:
        self.counter("pfc.pauses_applied").inc()
        self.histogram("pfc.pause_duration_ns").observe(duration_ns)

    def on_pfc_xoff(self, occupancy: float) -> None:
        self.counter("pfc.xoff_triggered").inc()
        self.histogram("pfc.xoff_occupancy_bytes").observe(occupancy)

    def on_retx(self, state: Any, now: float) -> None:
        self.counter("host.retransmissions").inc()
        self.counter("host.retransmitted_bytes").inc(state.next_seq - state.acked)

    def on_cc_decrease(self, family: str, flow_id: int, now: float, detail: dict) -> None:
        self.counter(_CC_DECREASES.get(family) or f"cc.{family}.decreases").inc()

    def on_cc_increase(self, family: str, flow_id: int, now: float) -> None:
        self.counter(_CC_INCREASES.get(family) or f"cc.{family}.increases").inc()

    def on_vai(self, vai: Any, banked: Optional[float], spent: float, multiplier: Any) -> None:
        if banked is not None:
            self.counter("vai.tokens_banked").inc(banked)
        if spent > 0.0:
            self.counter("vai.tokens_spent").inc(spent)

    def on_sf_ack(self, sf: Any, granted: bool) -> None:
        if granted:
            self.counter("sf.decreases_granted").inc()

    on_resume = _counts("pfc.resumes_applied")
    on_pfc_xon = _counts("pfc.xon_triggered")
    on_flow_complete = _counts("host.flows_completed")
    on_late_packet = _counts("host.late_packets")
    on_corrupt_discard = _counts("host.corrupt_discards")
    on_fault_corrupt = _counts("faults.corruptions")
    on_link_state = _counts("faults.link_transitions")
    on_switch_state = _counts("faults.switch_transitions")


_SLOT = probe.Slot("registry")
#: Remove the registry / whether one is attached / the attached one or None.
disable, enabled, get = _SLOT.detach, _SLOT.enabled, _SLOT.get


def enable(registry: Optional[Registry] = None) -> Registry:
    """Attach (and return) the process-wide registry, creating one if needed."""
    return _SLOT.attach(registry if registry is not None else Registry())


def capture() -> ContextManager[Registry]:
    """Attach a fresh registry for the scope of a ``with`` block (tests).

    The previous registry (usually none) is restored on exit, so tests
    never leak instrumentation into each other.
    """
    return _SLOT.capture(Registry())
