"""Run- and campaign-level telemetry: manifests, phase timers, heartbeats.

While the registry (:mod:`repro.obs.registry`) answers *what did the
simulator do* and the tracer (:mod:`repro.obs.tracer`) *when did it do it*,
this module answers *where did the wall-clock go*: per-run wall time and
event counts, per-phase timings inside the experiment runner, campaign
dedup/cache effectiveness, store hit rates, and live worker heartbeats.

The collector follows the same ``None``-global pattern as the other two
layers — :data:`TELEMETRY` is consulted by the runner and campaign code and
costs one identity test when disabled.

The end product is a **telemetry manifest**: a JSON document validated
against the checked-in schema (``telemetry_schema.json`` next to this
module).  ``repro-experiments --telemetry out.json`` writes one per
invocation; ``repro-experiments obs report`` renders any number of them
as a text dashboard.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional

#: Manifest schema revisions this codebase understands.  Older manifests
#: remain valid, and every reader sees them through :func:`upgrade`.
KNOWN_SCHEMA_VERSIONS = (1, 2, 3, 4, 5)
SCHEMA_VERSION = 5
MANIFEST_KIND = "repro-telemetry"

#: The schema version that introduced each section of the current schema:
#: ``analytics`` (per-run Jain, convergence and slowdown summaries) in v2,
#: ``supervisor`` (per-config statuses, quarantines, worker kills/losses)
#: in v3, ``profile`` (hot-path phase attribution) in v4, and
#: ``flightrec`` (per-flow FCT decompositions, link series, convergence
#: timeline) in v5.  v4 also added an ``export`` section, which the
#: current schema no longer defines; old manifests that carry it still
#: validate and nothing reads it.
SECTION_SINCE: Dict[str, int] = {
    **dict.fromkeys(
        ("argv", "runs", "phases", "campaign", "store", "counters", "trace", "heartbeats"), 1
    ),
    "analytics": 2,
    "supervisor": 3,
    "profile": 4,
    "flightrec": 5,
}

#: Version of the ``analytics`` section, which evolves apart from the schema.
ANALYTICS_SECTION_VERSION = 1

_SCHEMA_PATH = Path(__file__).with_name("telemetry_schema.json")


class TelemetryCollector:
    """Accumulates run records, phase timings, and heartbeat lines."""

    def __init__(
        self,
        *,
        clock: Callable[[], float] = time.perf_counter,
        heartbeat_sink: Optional[Callable[[str], None]] = None,
    ):
        self.clock = clock
        self.runs: List[Dict[str, Any]] = []
        self.phases: Dict[str, Dict[str, float]] = {}
        self.heartbeats: List[str] = []
        self.campaign: Optional[Dict[str, Any]] = None
        self.supervisor: Optional[Dict[str, Any]] = None
        self.summaries: List[Dict[str, Any]] = []
        self._heartbeat_sink = heartbeat_sink

    # -- phases ------------------------------------------------------------

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Accumulate wall time under ``name`` (re-entrant across calls)."""
        start = self.clock()
        try:
            yield
        finally:
            elapsed = self.clock() - start
            entry = self.phases.get(name)
            if entry is None:
                entry = self.phases[name] = {"wall_s": 0.0, "count": 0}
            entry["wall_s"] += elapsed
            entry["count"] += 1

    # -- runs --------------------------------------------------------------

    def record_run(
        self,
        kind: str,
        desc: str,
        *,
        wall_s: float,
        events: int,
        completed: bool = True,
        pid: Optional[int] = None,
    ) -> None:
        self.runs.append(
            {
                "kind": kind,
                "desc": desc,
                "wall_s": wall_s,
                "events": events,
                "completed": completed,
                "pid": pid,
            }
        )

    def record_summary(self, kind: str, desc: str, summary: Dict[str, Any]) -> None:
        """One run's exact summary (a result's ``summary()``) for the
        manifest's ``analytics`` section."""
        self.summaries.append({"kind": kind, "desc": desc, **summary})

    def record_campaign(
        self,
        *,
        requested: int,
        unique: int,
        cached: int,
        executed: int,
        jobs: int,
        wall_s: float,
        failures: int,
    ) -> None:
        self.campaign = {
            "requested": requested,
            "unique": unique,
            "cached": cached,
            "executed": executed,
            "jobs": jobs,
            "wall_s": wall_s,
            "failures": failures,
        }

    def record_supervisor(
        self,
        *,
        statuses: Dict[str, str],
        quarantines: List[Dict[str, Any]],
        workers_killed: int,
        workers_lost: int,
        retried: int,
        salvaged: int,
        journal: Optional[str] = None,
    ) -> None:
        """Attach the supervised campaign's fault-tolerance summary.

        ``statuses`` maps config key to final per-config state
        (``ok``/``retried``/``salvaged``/``quarantined``/``lost``);
        ``quarantines`` carries the replayable poison-config reports.
        """
        counts: Dict[str, int] = {}
        for status in statuses.values():
            counts[status] = counts.get(status, 0) + 1
        self.supervisor = {
            "statuses": dict(statuses),
            "status_counts": counts,
            "quarantines": list(quarantines),
            "workers_killed": workers_killed,
            "workers_lost": workers_lost,
            "retried": retried,
            "salvaged": salvaged,
            "journal": journal,
        }

    # -- heartbeats --------------------------------------------------------

    def heartbeat(self, message: str) -> None:
        """Record a live progress line (and forward it to the sink, if any)."""
        self.heartbeats.append(message)
        if self._heartbeat_sink is not None:
            self._heartbeat_sink(message)


#: The process-wide collector (``None`` = telemetry off).
TELEMETRY: Optional[TelemetryCollector] = None


def enable(collector: Optional[TelemetryCollector] = None, **kwargs: Any) -> TelemetryCollector:
    """Install (and return) the process-wide collector."""
    global TELEMETRY
    TELEMETRY = collector if collector is not None else TelemetryCollector(**kwargs)
    return TELEMETRY


def disable() -> None:
    global TELEMETRY
    TELEMETRY = None


def get() -> Optional[TelemetryCollector]:
    return TELEMETRY


@contextmanager
def collecting(**kwargs: Any) -> Iterator[TelemetryCollector]:
    """Enable a fresh collector for a ``with`` block, restoring on exit."""
    global TELEMETRY
    prev = TELEMETRY
    collector = TelemetryCollector(**kwargs)
    TELEMETRY = collector
    try:
        yield collector
    finally:
        TELEMETRY = prev


# ---------------------------------------------------------------------------
# Manifest assembly and validation
# ---------------------------------------------------------------------------


def build_manifest(
    collector: Optional[TelemetryCollector],
    *,
    wall_s: float,
    events_executed: int,
    argv: Optional[List[str]] = None,
    store_stats: Optional[Any] = None,
    counters: Optional[Dict[str, Any]] = None,
    trace: Optional[Any] = None,
    profile: Optional[Dict[str, Any]] = None,
    flightrec: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Assemble a schema-conformant manifest dict.

    ``store_stats`` is a :class:`repro.experiments.store.StoreStats` (duck-
    typed), ``counters`` a :meth:`Registry.snapshot` dict, ``trace`` an
    :class:`repro.obs.tracer.EventTracer`,
    ``profile`` a :meth:`repro.obs.profiler.PhaseProfiler.section` dict,
    ``flightrec`` a :meth:`repro.obs.flightrec.FlightRecorder.section` dict.
    """
    store = None
    if store_stats is not None:
        store = {
            "hits": store_stats.hits,
            "misses": store_stats.misses,
            "puts": store_stats.puts,
            "bytes_read": store_stats.bytes_read,
            "bytes_written": store_stats.bytes_written,
        }
    trace_info = None
    if trace is not None:
        trace_info = {
            "emitted": trace.emitted,
            "dropped": trace.dropped,
            "capacity": trace.capacity,
        }
    runs = list(collector.runs) if collector is not None else []
    analytics = None
    if collector is not None:
        analytics = {
            "section_version": ANALYTICS_SECTION_VERSION,
            "config": {},
            "runs": list(collector.summaries),
        }
    phases = {
        name: {"wall_s": entry["wall_s"], "count": int(entry["count"])}
        for name, entry in (collector.phases.items() if collector else ())
    }
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": MANIFEST_KIND,
        "argv": list(argv) if argv is not None else [],
        "wall_s": wall_s,
        "events_executed": events_executed,
        "events_per_s": events_executed / wall_s if wall_s > 0 else 0.0,
        "runs": runs,
        "phases": phases,
        "campaign": collector.campaign if collector is not None else None,
        "supervisor": collector.supervisor if collector is not None else None,
        "store": store,
        "counters": counters,
        "trace": trace_info,
        "analytics": analytics,
        "profile": profile,
        "flightrec": flightrec,
        "heartbeats": list(collector.heartbeats) if collector is not None else [],
    }


def upgrade(manifest: Dict[str, Any]) -> Dict[str, Any]:
    """Read a manifest of any schema version as the current schema.

    Every section of :data:`SECTION_SINCE` is present in the result, and a
    section that the manifest's declared version did not define is
    ``None``: a v1 manifest carrying an ``analytics``-shaped key is not
    mistaken for a v2 one.  ``schema_version`` keeps the declared version
    (v1 when absent or not an integer), so a manifest newer than
    :data:`SCHEMA_VERSION` still says so and its reader can flag it.
    """
    version = manifest.get("schema_version")
    if not isinstance(version, int) or isinstance(version, bool):
        version = 1
    upgraded = dict(manifest, schema_version=version)
    for name, since in SECTION_SINCE.items():
        upgraded[name] = manifest.get(name) if since <= version else None
    return upgraded


def load_schema() -> Dict[str, Any]:
    """The checked-in JSON schema for telemetry manifests."""
    return json.loads(_SCHEMA_PATH.read_text())


def _validate_minimal(manifest: Dict[str, Any]) -> List[str]:
    """Dependency-free structural check (fallback when jsonschema is absent).

    Covers the required top-level shape only — enough to catch a manifest
    that would fail the real schema on structure, not every constraint.
    """
    errors: List[str] = []
    required = {
        "schema_version": int,
        "kind": str,
        "wall_s": (int, float),
        "events_executed": int,
        "events_per_s": (int, float),
        "runs": list,
        "phases": dict,
    }
    for key, typ in required.items():
        if key not in manifest:
            errors.append(f"missing required key {key!r}")
        elif not isinstance(manifest[key], typ) or isinstance(manifest[key], bool):
            errors.append(f"{key!r} has wrong type {type(manifest[key]).__name__}")
    if manifest.get("schema_version") not in (None, *KNOWN_SCHEMA_VERSIONS):
        errors.append(f"schema_version must be one of {KNOWN_SCHEMA_VERSIONS}")
    if manifest.get("kind") not in (None, MANIFEST_KIND):
        errors.append(f"kind must be {MANIFEST_KIND!r}")
    for i, run in enumerate(manifest.get("runs") or []):
        if not isinstance(run, dict):
            errors.append(f"runs[{i}] is not an object")
            continue
        for key in ("kind", "desc", "wall_s", "events", "completed"):
            if key not in run:
                errors.append(f"runs[{i}] missing required key {key!r}")
    return errors


def validate_manifest(manifest: Dict[str, Any]) -> List[str]:
    """Validate against the checked-in schema; [] means valid.

    Uses ``jsonschema`` when importable (a dev dependency; CI installs it)
    and falls back to a minimal structural check otherwise, so the library
    itself gains no hard dependency.
    """
    try:
        import jsonschema
    except ImportError:  # pragma: no cover - exercised where jsonschema absent
        return _validate_minimal(manifest)
    validator_cls = jsonschema.validators.validator_for(load_schema())
    validator = validator_cls(load_schema())
    return [
        f"{'/'.join(str(p) for p in err.absolute_path) or '<root>'}: {err.message}"
        for err in sorted(validator.iter_errors(manifest), key=lambda e: str(e.absolute_path))
    ]


def write_manifest(path: Any, manifest: Dict[str, Any]) -> Path:
    """Write a manifest as stable, human-diffable JSON."""
    out = Path(path)
    out.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return out
