"""repro.obs — the unified observability layer.

Seven facilities.  The five that record are each switched through one
module-level ``None``-able global, so disabled instrumentation costs a
single attribute read on hot paths (the ``Port.fault_hook`` idiom); the
last two, ``live`` and ``stitch``, only read a campaign's journal:

* :mod:`repro.obs.registry` — named counters/gauges/histograms registered
  by the engine, port, host, PFC, fault, and congestion-control layers
  (histograms carry P² streaming percentiles, :class:`~.registry.P2Quantile`);
* :mod:`repro.obs.tracer` — typed spans/instants in a bounded ring buffer,
  exportable as Chrome ``trace_event`` JSON (Perfetto) or CSV;
* :mod:`repro.obs.telemetry` — run/campaign manifests (wall time, event
  counts, phase timings, store hit rates, heartbeats) validated against a
  checked-in JSON schema, rendered by :mod:`repro.obs.report` (which also
  holds ``obs diff``: two ``ledger/run.py --json`` reports, layer by layer);
  each run's exact Jain / convergence / slowdown summary, a result's
  ``summary()``, fills the manifest's ``analytics`` section;
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

Every facility is **passive**: enabling one never schedules events, draws
random numbers, or perturbs simulation state, so instrumented runs are
byte-identical to bare ones, event counts included
(``tests/sim/test_obs_disabled.py``).
"""

from . import (
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

    The flight recorder is passive too (byte-identical output, events
    included) but retains per-flow decomposition payloads with a per-run
    lifecycle, so it stays an explicit switch (``--flightrec`` /
    ``flightrec.enable()``).
    """
    registry.enable()
    tracer.enable(capacity=trace_capacity)
    telemetry.enable()


def disable_all() -> None:
    registry.disable()
    tracer.disable()
    telemetry.disable()
