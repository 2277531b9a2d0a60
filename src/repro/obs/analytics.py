"""Live convergence / tail-latency analytics: O(1)-memory streaming estimators.

The paper's headline numbers — *time to fairness convergence* (Figs. 1, 5, 6)
and *p99/p99.9 FCT slowdown* (Figs. 10-13) — are computed post-hoc by
:mod:`repro.metrics` over full recorded traces.  During a long run or a
campaign, the operator is blind.  This module produces the same quantities
*while the simulation runs*, with constant memory per flow and no stored
series, in the spirit of Zhao et al.'s scalable tail-latency estimation
(PAPERS.md): cheap streaming estimates now, exact numbers later.

Building blocks (pure Python, importable from anywhere — this module
deliberately has **no** repro imports, so the registry can use
:class:`P2Quantile` and the simulator layers never risk an import cycle):

* :class:`P2Quantile` — the Jain & Chlamtac P² algorithm: one quantile,
  five markers, O(1) update.  Exact (matching ``numpy.percentile``'s
  linear interpolation) until the 5th observation, approximate after.
* :class:`FlowRateEstimator` — time-windowed EWMA over a sampled
  delivered-bytes counter; the streaming stand-in for
  :meth:`~repro.sim.monitor.GoodputMonitor.rates_bps` interval rates.
* :func:`jain_of` — Jain fairness index of an iterable of rates
  (the streaming twin of :func:`repro.metrics.fairness.jain_index`).
* :class:`ConvergenceDetector` — online dwell detector mirroring
  :func:`repro.metrics.fairness.convergence_time_ns` semantics: stamps the
  first sample of the first run of ``sustain_samples`` consecutive
  at/above-threshold samples after ``after_ns``.
* :class:`StreamingSlowdown` — P² percentiles over FCT slowdowns, updated
  as flows complete.
* :class:`LiveAnalyzer` — composes all of the above over one run's flow
  set; the runner drives it with a :class:`repro.sim.monitor.PeriodicSampler`
  at the monitor cadence.

Error bounds (validated by ``tests/obs/test_analytics.py`` and documented
in DESIGN.md §10): P² mid-quantiles are within ~2% of exact on smooth
distributions after a few hundred samples; extreme tails (p99.9) need
~10x more samples than ``1/(1-q)`` to stabilise, and until then lean on
the max marker (conservative, biased toward the exact value from below on
heavy tails).  The convergence stamp is quantised to the sampling interval
and smoothed by the rate EWMA, so it can differ from the post-hoc value by
a few sampling intervals.

Unlike everything else in :mod:`repro.obs`, the analyzer's *driver* is
active — sampling schedules simulator events.  Recording remains passive
(no RNG, no simulation-state writes), so flow times, series, and
convergence points are byte-identical with analytics on or off; only
``events_executed`` grows by the sampler's own wakeups
(``tests/sim/test_obs_disabled.py`` locks both halves in).
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence

from ..metrics.fct import SLOWDOWN_PERCENTILES, percentile_key


class P2Quantile:
    """One streaming quantile via the P² algorithm (Jain & Chlamtac, 1985).

    Maintains five markers whose heights approximate the quantile without
    storing observations.  Until five observations exist the estimate is
    *exact*: the buffered values are interpolated the same way
    ``numpy.percentile(..., method='linear')`` interpolates.
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


class FlowRateEstimator:
    """Windowed EWMA of one flow's goodput from a sampled byte counter.

    ``update(t_ns, delivered_bytes)`` folds the instantaneous rate over the
    last sampling interval into an exponential average with time constant
    ``tau_ns`` — so irregular sampling intervals weight correctly and a
    stalled flow's rate decays instead of freezing.
    """

    __slots__ = ("tau_ns", "rate_bps", "_last_t", "_last_bytes")

    def __init__(self, tau_ns: float):
        if tau_ns <= 0:
            raise ValueError("tau_ns must be positive")
        self.tau_ns = tau_ns
        self.rate_bps = 0.0
        self._last_t: Optional[float] = None
        self._last_bytes = 0

    def update(self, t_ns: float, delivered_bytes: int) -> float:
        last_t = self._last_t
        if last_t is None:
            self._last_t = t_ns
            self._last_bytes = delivered_bytes
            return self.rate_bps
        dt = t_ns - last_t
        if dt <= 0.0:
            return self.rate_bps
        delta = delivered_bytes - self._last_bytes
        inst_bps = (delta * 8.0 / dt) * 1e9 if delta > 0 else 0.0
        alpha = 1.0 - math.exp(-dt / self.tau_ns)
        self.rate_bps += alpha * (inst_bps - self.rate_bps)
        self._last_t = t_ns
        self._last_bytes = delivered_bytes
        return self.rate_bps


def jain_of(rates: Iterable[float]) -> float:
    """Jain index of an iterable of rates (1.0 for empty/degenerate input).

    Streaming twin of :func:`repro.metrics.fairness.jain_index`: only
    positive rates count, ``(sum r)^2 / (n * sum r^2)``.
    """
    s = 0.0
    sq = 0.0
    n = 0
    for r in rates:
        if r > 0.0:
            s += r
            sq += r * r
            n += 1
    if n == 0 or sq == 0.0:
        return 1.0
    return s * s / (n * sq)


class ConvergenceDetector:
    """Online dwell detector for the fairness index.

    Mirrors :func:`repro.metrics.fairness.convergence_time_ns`: the stamp is
    the time of the *first* sample of the first run of ``sustain_samples``
    consecutive samples at/above ``threshold`` with ``t >= after_ns``.
    """

    __slots__ = ("threshold", "after_ns", "sustain_samples", "convergence_ns",
                 "_run", "_run_start")

    def __init__(
        self,
        *,
        threshold: float = 0.9,
        after_ns: float = 0.0,
        sustain_samples: int = 3,
    ):
        if sustain_samples < 1:
            raise ValueError("sustain_samples must be >= 1")
        self.threshold = threshold
        self.after_ns = after_ns
        self.sustain_samples = sustain_samples
        self.convergence_ns: Optional[float] = None
        self._run = 0
        self._run_start = 0.0

    def observe(self, t_ns: float, index: float) -> Optional[float]:
        """Feed one (time, index) sample; returns the stamp once known."""
        if self.convergence_ns is not None:
            return self.convergence_ns
        if index >= self.threshold and t_ns >= self.after_ns:
            if self._run == 0:
                self._run_start = t_ns
            self._run += 1
            if self._run >= self.sustain_samples:
                self.convergence_ns = self._run_start
        else:
            self._run = 0
        return self.convergence_ns


class StreamingSlowdown:
    """P² percentiles over FCT slowdowns, updated as flows complete."""

    __slots__ = ("count", "max", "_estimators")

    def __init__(self, percentiles: Sequence[float] = SLOWDOWN_PERCENTILES):
        self.count = 0
        self.max = 0.0
        self._estimators = {p: P2Quantile(p / 100.0) for p in percentiles}

    def observe(self, slowdown: float) -> None:
        self.count += 1
        if slowdown > self.max:
            self.max = slowdown
        for est in self._estimators.values():
            est.observe(slowdown)

    def summary(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"count": self.count}
        for p, est in self._estimators.items():
            out[f"{percentile_key(p)}_slowdown"] = (
                est.value() if self.count else None
            )
        out["max_slowdown"] = self.max if self.count else None
        return out


class LiveAnalyzer:
    """Streaming fairness + tail-latency view of one run's flow set.

    Drive :meth:`sample` at a fixed cadence (the runner uses a
    :class:`repro.sim.monitor.PeriodicSampler` at the goodput-monitor
    interval) and call :meth:`finalize` once the run stops.  All inputs are
    callables so this module needs no simulator imports:

    ``now_fn``
        current virtual time in ns (``sim.now``);
    ``delivered_fn``
        flow -> delivered bytes at the destination (the goodput monitor's
        receiver lookup);
    ``ideal_ns_fn``
        flow -> theoretical minimum FCT, for slowdown on completion
        (``None`` disables slowdown tracking).
    """

    def __init__(
        self,
        flows: Sequence[Any],
        *,
        now_fn: Callable[[], float],
        delivered_fn: Callable[[Any], int],
        ideal_ns_fn: Optional[Callable[[Any], float]] = None,
        threshold: float = 0.9,
        sustain_samples: int = 3,
        interval_ns: float,
        rate_tau_intervals: float = 2.0,
        heartbeat: Optional[Callable[[str], None]] = None,
        heartbeat_every: int = 0,
    ):
        if interval_ns <= 0:
            raise ValueError("interval_ns must be positive")
        self.flows = list(flows)
        self.now_fn = now_fn
        self.delivered_fn = delivered_fn
        self.ideal_ns_fn = ideal_ns_fn
        self.interval_ns = interval_ns
        self.samples = 0
        self.jain = 1.0
        self.active_flows = 0
        self.last_start_ns = max(
            (f.start_time for f in self.flows), default=0.0
        )
        self.detector = ConvergenceDetector(
            threshold=threshold,
            after_ns=self.last_start_ns,
            sustain_samples=sustain_samples,
        )
        self.slowdown = StreamingSlowdown() if ideal_ns_fn is not None else None
        self._rates: Dict[int, FlowRateEstimator] = {}
        self._tau_ns = rate_tau_intervals * interval_ns
        self._completed: set = set()
        self._heartbeat = heartbeat
        self._heartbeat_every = heartbeat_every

    # -- sampling ----------------------------------------------------------

    def sample(self) -> None:
        """One analytics tick: update rates, fairness, and completions."""
        t = self.now_fn()
        rates: List[float] = []
        active = 0
        for f in self.flows:
            fid = f.flow_id
            done = f.finish_time is not None
            if done and fid in self._completed:
                continue
            if done:
                self._completed.add(fid)
                self._observe_completion(f)
            if f.start_time > t:
                continue
            est = self._rates.get(fid)
            if est is None:
                est = self._rates[fid] = FlowRateEstimator(self._tau_ns)
            rate = est.update(t, self.delivered_fn(f))
            # Same activity convention as metrics.fairness.active_mask:
            # a flow counts from its start through its finish time.
            if not done or f.finish_time >= t:
                active += 1
                rates.append(rate)
        self.samples += 1
        self.active_flows = active
        self.jain = jain_of(rates)
        self.detector.observe(t, self.jain)
        if (
            self._heartbeat is not None
            and self._heartbeat_every > 0
            and self.samples % self._heartbeat_every == 0
        ):
            self._heartbeat(self.describe_live())

    def _observe_completion(self, flow: Any) -> None:
        if self.slowdown is not None:
            ideal = self.ideal_ns_fn(flow)
            if ideal > 0:
                self.slowdown.observe(flow.fct / ideal)

    def finalize(self) -> Dict[str, Any]:
        """Sweep completions the sampler has not seen yet; return the summary.

        The run loop stops the moment the last flow completes, which is
        usually *between* sampler ticks — without this sweep the streaming
        slowdown percentiles would silently miss the final flows.
        """
        for f in self.flows:
            if f.finish_time is not None and f.flow_id not in self._completed:
                self._completed.add(f.flow_id)
                self._observe_completion(f)
        return self.summary()

    # -- reporting ---------------------------------------------------------

    def summary(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "samples": self.samples,
            "flows": len(self.flows),
            "flows_completed": len(self._completed),
            "jain": self.jain,
            "active_flows": self.active_flows,
            "convergence_ns": self.detector.convergence_ns,
        }
        if self.slowdown is not None:
            out["slowdown"] = self.slowdown.summary()
        return out

    def describe_live(self) -> str:
        """One heartbeat line: where the run is on the paper's two axes."""
        t_ms = self.now_fn() / 1e6
        conv = self.detector.convergence_ns
        conv_txt = f"{conv / 1e6:.3f}ms" if conv is not None else "-"
        parts = [
            f"analytics t={t_ms:.3f}ms",
            f"jain={self.jain:.3f}",
            f"active={self.active_flows}",
            f"conv={conv_txt}",
        ]
        sd = self.slowdown
        if sd is not None and sd.count:
            s = sd.summary()
            parts.append(
                f"slowdown p50={s['p50_slowdown']:.2f} "
                f"p999={s['p999_slowdown']:.2f} (n={sd.count})"
            )
        return " ".join(parts)


# ---------------------------------------------------------------------------
# Process-wide switch + per-run summary aggregation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AnalyticsConfig:
    """Knobs for the live analyzer the runner attaches to each run.

    ``interval_ns=None`` reuses the run's own monitor cadence (the incast
    goodput interval; datacenter runs fall back to ``fallback_interval_ns``).
    ``heartbeat_every`` emits a live heartbeat line every N samples through
    the telemetry collector (0 = only the end-of-run line).
    """

    interval_ns: Optional[float] = None
    fallback_interval_ns: float = 10_000.0  # 10 us
    threshold: float = 0.9
    sustain_samples: int = 3
    rate_tau_intervals: float = 2.0
    heartbeat_every: int = 0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "interval_ns": self.interval_ns,
            "fallback_interval_ns": self.fallback_interval_ns,
            "threshold": self.threshold,
            "sustain_samples": self.sustain_samples,
            "rate_tau_intervals": self.rate_tau_intervals,
            "heartbeat_every": self.heartbeat_every,
        }


#: Current version of the manifest's ``analytics`` section (independent of
#: the enclosing telemetry schema version so the two can evolve apart).
ANALYTICS_SECTION_VERSION = 1


class AnalyticsAggregator:
    """Collects per-run analyzer summaries for the telemetry manifest.

    The runner records one entry per simulated run; campaign workers run in
    other processes, so the parent re-records from the summaries riding on
    the returned result objects (see :mod:`repro.experiments.parallel`).
    """

    def __init__(self, config: Optional[AnalyticsConfig] = None):
        self.config = config if config is not None else AnalyticsConfig()
        self.runs: List[Dict[str, Any]] = []

    def record(self, kind: str, desc: str, summary: Dict[str, Any]) -> None:
        self.runs.append({"kind": kind, "desc": desc, **summary})

    def section(self) -> Dict[str, Any]:
        """The manifest's ``analytics`` section."""
        return {
            "section_version": ANALYTICS_SECTION_VERSION,
            "config": self.config.to_dict(),
            "runs": list(self.runs),
        }


#: The process-wide aggregator; ``None`` (the default) disables live
#: analytics entirely — the runner attaches no sampler and simulations are
#: byte-identical to bare runs, including event counts.
ANALYTICS: Optional[AnalyticsAggregator] = None


def enable(config: Optional[AnalyticsConfig] = None) -> AnalyticsAggregator:
    """Install (and return) the process-wide analytics aggregator."""
    global ANALYTICS
    ANALYTICS = AnalyticsAggregator(config)
    return ANALYTICS


def disable() -> None:
    global ANALYTICS
    ANALYTICS = None


def get() -> Optional[AnalyticsAggregator]:
    return ANALYTICS


def enabled() -> bool:
    return ANALYTICS is not None


@contextmanager
def capture(config: Optional[AnalyticsConfig] = None) -> Iterator[AnalyticsAggregator]:
    """Enable a fresh aggregator for a ``with`` block (tests)."""
    global ANALYTICS
    prev = ANALYTICS
    agg = AnalyticsAggregator(config)
    ANALYTICS = agg
    try:
        yield agg
    finally:
        ANALYTICS = prev
