"""repro.obs — the unified observability layer.

Eight facilities.  The six that record are each switched through one
module-level ``None``-able global, so disabled instrumentation costs a
single attribute read on hot paths (the ``Port.fault_hook`` idiom); the
last two, ``live`` and ``stitch``, only read a campaign's journal:

* :mod:`repro.obs.registry` — named counters/gauges/histograms registered
  by the engine, port, host, PFC, fault, and congestion-control layers
  (histograms carry P² streaming percentiles);
* :mod:`repro.obs.tracer` — typed spans/instants in a bounded ring buffer,
  exportable as Chrome ``trace_event`` JSON (Perfetto) or CSV;
* :mod:`repro.obs.telemetry` — run/campaign manifests (wall time, event
  counts, phase timings, store hit rates, heartbeats) validated against a
  checked-in JSON schema, rendered by :mod:`repro.obs.report` (which also
  holds ``obs diff``: two ``ledger/run.py --json`` reports, layer by layer);
* :mod:`repro.obs.analytics` — **live** convergence/tail-latency
  estimates: O(1)-memory streaming quantiles, per-flow rate EWMAs, an
  online Jain-index convergence detector, and FCT-slowdown percentiles
  updated as flows complete;
* :mod:`repro.obs.profiler` — opt-in hot-path phase profiler attributing
  simulator wall time to named phases (event loop, port serialize, CC
  decision, PFC, fluid relax) with collapsed-stack flamegraph export;
* :mod:`repro.obs.flightrec` — the flow flight recorder: exact per-flow
  FCT decomposition (queueing / serialization / propagation / PFC pause /
  retransmission recovery / CC throttle), per-link utilization and
  queue-depth series for the packet backend, and the convergence timeline
  behind ``obs why`` / ``obs flows``;
* :mod:`repro.obs.live` — the ``obs top`` live campaign dashboard,
  tailing a supervised campaign's journal read-only from any process;
* :mod:`repro.obs.stitch` — ``obs stitch``, merging per-worker trace
  shards and the campaign journal into one Perfetto timeline.

The registry, tracer, and telemetry layers are **passive**: enabling them
never schedules events, draws random numbers, or perturbs simulation
state, so instrumented runs are byte-identical to bare ones
(``tests/sim/test_obs_disabled.py``).  Analytics is the one *active*
member — its periodic sampler schedules its own wakeup events (recording
itself stays read-only, so flow times and series are still byte-identical;
only ``events_executed`` grows) — which is why :func:`enable_all` leaves
it off and it must be enabled explicitly.
"""

from . import (
    analytics,
    flightrec,
    live,
    profiler,
    registry,
    stitch,
    telemetry,
    tracer,
)
from .profiler import PhaseProfiler
from .registry import Counter, Gauge, Histogram, Registry
from .telemetry import TelemetryCollector, build_manifest, validate_manifest
from .tracer import EventTracer

__all__ = [
    "analytics",
    "flightrec",
    "live",
    "profiler",
    "registry",
    "stitch",
    "tracer",
    "telemetry",
    "Counter",
    "Gauge",
    "Histogram",
    "PhaseProfiler",
    "Registry",
    "EventTracer",
    "TelemetryCollector",
    "build_manifest",
    "validate_manifest",
]


def enable_all(*, trace_capacity: int = tracer.DEFAULT_CAPACITY) -> None:
    """Turn on registry, tracer, and telemetry together (CLI convenience).

    Deliberately does *not* enable :mod:`repro.obs.analytics` — the live
    sampler schedules events, so it stays a separate, explicit switch
    (``repro-experiments --analytics`` / ``analytics.enable()``).  The
    flight recorder is passive (byte-identical output, events included)
    but retains per-flow decomposition payloads with a per-run lifecycle,
    so it too stays an explicit switch (``--flightrec`` /
    ``flightrec.enable()``).
    """
    registry.enable()
    tracer.enable(capacity=trace_capacity)
    telemetry.enable()


def disable_all() -> None:
    registry.disable()
    tracer.disable()
    telemetry.disable()
