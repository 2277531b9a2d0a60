"""OpenMetrics/Prometheus text exposition for the obs registry.

Three consumption modes, all dependency-free (hand-rolled renderer and
parser; ``prometheus_client`` is deliberately not required):

* **snapshot to file** — ``write_snapshot(path)`` (CLI ``--metrics-out``)
  renders the current registry, campaign gauges included, as an
  OpenMetrics text file CI can archive and scrapers can file-discover;
* **live HTTP endpoint** — :class:`MetricsServer` serves ``GET /metrics``
  from a background :mod:`http.server` thread (CLI ``--metrics-port``),
  rendering a fresh snapshot per scrape;
* **manifest re-export** — ``manifest_families(manifest)`` converts any
  v1–v4 telemetry manifest's counters/gauges/histograms (+ run totals)
  back into metric families, so ``obs export telemetry.json`` can feed a
  past run into the same pipeline.

Exposition follows the OpenMetrics text format: one ``# TYPE`` line per
family, counter samples carry the ``_total`` suffix, histograms export as
``summary`` (P² quantiles + ``_count``/``_sum``), and the body terminates
with ``# EOF``.  :func:`parse_openmetrics` is a strict validating parser
used by tests and the CI obs-plane job to prove exports stay well-formed.
"""

from __future__ import annotations

import json
import re
import threading
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

from . import registry as obs_registry

if TYPE_CHECKING:
    from http.server import ThreadingHTTPServer

#: Content type OpenMetrics scrapers negotiate.
CONTENT_TYPE = "application/openmetrics-text; version=1.0.0; charset=utf-8"

#: Every exported metric is namespaced under this prefix.
PREFIX = "repro_"

_NAME_SANITIZE = re.compile(r"[^a-zA-Z0-9_:]")
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r" (?P<value>\S+)(?: (?P<ts>\S+))?$"
)
_LABEL_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')

#: Sample-name suffixes each family type may legally emit.
_TYPE_SUFFIXES = {
    "counter": ("_total", "_created"),
    "gauge": ("",),
    "summary": ("", "_count", "_sum", "_created"),
    "histogram": ("_bucket", "_count", "_sum", "_created"),
    "info": ("_info",),
    "unknown": ("",),
}


class MetricFamily:
    """One exposition family: ``# TYPE`` line plus its samples."""

    __slots__ = ("name", "type", "help", "samples")

    def __init__(self, name: str, type_: str, help_: str = ""):
        self.name = name
        self.type = type_
        self.help = help_
        #: list of (suffix, labels dict, value)
        self.samples: List[Tuple[str, Dict[str, str], float]] = []

    def add(self, suffix: str, value: float, labels: Optional[Dict[str, str]] = None):
        self.samples.append((suffix, labels or {}, value))
        return self


def metric_name(raw: str) -> str:
    """Map a registry metric name to a legal prefixed OpenMetrics name."""
    return PREFIX + _NAME_SANITIZE.sub("_", raw)


def _fmt_value(v: Any) -> str:
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, int):
        return str(v)
    f = float(v)
    if f != f:
        return "NaN"
    if f in (float("inf"), float("-inf")):
        return "+Inf" if f > 0 else "-Inf"
    return repr(f)


def render(families: List[MetricFamily]) -> str:
    """Render families as OpenMetrics text (``# EOF``-terminated)."""
    lines: List[str] = []
    for fam in families:
        if fam.help:
            lines.append(f"# HELP {fam.name} {fam.help}")
        lines.append(f"# TYPE {fam.name} {fam.type}")
        for suffix, labels, value in fam.samples:
            label_str = ""
            if labels:
                inner = ",".join(
                    f'{k}="{str(v).replace(chr(92), chr(92) * 2).replace(chr(34), chr(92) + chr(34))}"'
                    for k, v in sorted(labels.items())
                )
                label_str = "{" + inner + "}"
            lines.append(f"{fam.name}{suffix}{label_str} {_fmt_value(value)}")
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


# -- family construction -----------------------------------------------------


def snapshot_families(snapshot: Dict[str, Any]) -> List[MetricFamily]:
    """Families from a :meth:`Registry.snapshot` dict."""
    families: List[MetricFamily] = []
    for name, value in sorted((snapshot.get("counters") or {}).items()):
        fam = MetricFamily(metric_name(name), "counter", f"registry counter {name}")
        fam.add("_total", value)
        families.append(fam)
    for name, value in sorted((snapshot.get("gauges") or {}).items()):
        fam = MetricFamily(metric_name(name), "gauge", f"registry gauge {name}")
        fam.add("", value)
        families.append(fam)
    for name, summary in sorted((snapshot.get("histograms") or {}).items()):
        fam = MetricFamily(metric_name(name), "summary", f"registry histogram {name}")
        for q in ("0.5", "0.95", "0.99"):
            key = "p" + q[2:].ljust(2, "0") if q != "0.5" else "p50"
            val = summary.get(key)
            if isinstance(val, (int, float)):
                fam.add("", val, {"quantile": q})
        fam.add("_count", int(summary.get("count", 0)))
        fam.add("_sum", summary.get("total", 0.0))
        families.append(fam)
    return families


def registry_families() -> List[MetricFamily]:
    """Families for the live registry (empty list when obs is off)."""
    reg = obs_registry.get()
    if reg is None:
        return []
    return snapshot_families(reg.snapshot())


def manifest_families(manifest: Dict[str, Any]) -> List[MetricFamily]:
    """Families from a telemetry manifest (any known schema version)."""
    families: List[MetricFamily] = []
    for key in ("wall_s", "events_executed", "events_per_s", "schema_version"):
        val = manifest.get(key)
        if isinstance(val, (int, float)):
            fam = MetricFamily(
                PREFIX + "manifest_" + _NAME_SANITIZE.sub("_", key),
                "gauge",
                f"manifest {key}",
            )
            fam.add("", val)
            families.append(fam)
    families.extend(snapshot_families(manifest.get("counters") or {}))
    campaign = manifest.get("campaign") or {}
    for key in ("requested", "unique", "cached", "executed", "failures"):
        if isinstance(campaign.get(key), (int, float)):
            fam = MetricFamily(
                PREFIX + "campaign_" + key, "gauge", f"campaign {key}"
            )
            fam.add("", campaign[key])
            families.append(fam)
    sup = manifest.get("supervisor") or {}
    counts = sup.get("status_counts") or {}
    if counts:
        fam = MetricFamily(
            PREFIX + "campaign_status_runs", "gauge", "supervised run statuses"
        )
        for status in sorted(counts):
            fam.add("", counts[status], {"status": status})
        families.append(fam)
    return families


# -- snapshot / endpoint ------------------------------------------------------


def render_registry() -> str:
    """The live registry as OpenMetrics text."""
    return render(registry_families())


def write_snapshot(path: Any, families: Optional[List[MetricFamily]] = None) -> Path:
    """Write an OpenMetrics snapshot file (defaults to the live registry)."""
    out = Path(path)
    out.write_text(render(registry_families() if families is None else families))
    return out


class MetricsServer:
    """Background OpenMetrics endpoint on stdlib ``http.server``.

    ``producer`` returns the exposition body per request (defaults to the
    live registry); ``port=0`` binds an ephemeral port, readable from
    ``server.port`` after :meth:`start`.  Read-only and daemonized: never
    blocks interpreter exit, never touches simulation state.
    """

    def __init__(
        self,
        port: int = 0,
        host: str = "127.0.0.1",
        producer: Optional[Callable[[], str]] = None,
    ):
        self._host = host
        self._requested_port = port
        self._producer = producer or render_registry
        self._httpd: Optional[ThreadingHTTPServer] = None
        self._thread: Optional[threading.Thread] = None
        self.port: Optional[int] = None

    def start(self) -> int:
        # Only ``--metrics-port`` runs start a server; nothing else should
        # pay for loading http.server (and the email/socketserver it pulls).
        from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

        producer = self._producer

        class Handler(BaseHTTPRequestHandler):
            def do_GET(self):  # noqa: N802 - http.server API
                if self.path not in ("/", "/metrics"):
                    self.send_error(404)
                    return
                body = producer().encode("utf-8")
                self.send_response(200)
                self.send_header("Content-Type", CONTENT_TYPE)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args):  # silence per-request stderr spam
                pass

        self._httpd = ThreadingHTTPServer((self._host, self._requested_port), Handler)
        self._httpd.daemon_threads = True
        self.port = self._httpd.server_address[1]
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, name="repro-metrics", daemon=True
        )
        self._thread.start()
        return self.port

    def stop(self) -> None:
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
            self._httpd = None
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None


# -- validating parser --------------------------------------------------------


def parse_openmetrics(text: str) -> Dict[str, Dict[str, Any]]:
    """Strictly parse OpenMetrics text; raises ``ValueError`` on violations.

    Returns ``{family: {"type": str, "samples": [(name, labels, value)]}}``.
    Checks the invariants our exports rely on: a terminal ``# EOF``, a
    ``# TYPE`` declared before any of a family's samples, sample names
    using only that type's legal suffixes, and float-parseable values.
    """
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines or lines[-1] != "# EOF":
        raise ValueError("exposition must terminate with '# EOF'")
    families: Dict[str, Dict[str, Any]] = {}
    for lineno, line in enumerate(lines[:-1], 1):
        if not line:
            raise ValueError(f"line {lineno}: blank lines are not allowed")
        if line.startswith("#"):
            parts = line.split(" ", 3)
            if len(parts) < 3 or parts[0] != "#":
                raise ValueError(f"line {lineno}: malformed comment {line!r}")
            keyword = parts[1]
            if keyword == "TYPE":
                name, type_ = parts[2], (parts[3] if len(parts) > 3 else "")
                if type_ not in _TYPE_SUFFIXES:
                    raise ValueError(f"line {lineno}: unknown type {type_!r}")
                if name in families:
                    raise ValueError(f"line {lineno}: duplicate TYPE for {name}")
                families[name] = {"type": type_, "samples": []}
            elif keyword not in ("HELP", "UNIT", "EOF"):
                raise ValueError(f"line {lineno}: unknown keyword {keyword!r}")
            continue
        m = _SAMPLE_RE.match(line)
        if m is None:
            raise ValueError(f"line {lineno}: unparseable sample {line!r}")
        sample_name = m.group("name")
        fam_name, fam = _resolve_family(sample_name, families)
        if fam is None:
            raise ValueError(
                f"line {lineno}: sample {sample_name!r} has no preceding # TYPE"
            )
        suffix = sample_name[len(fam_name):]
        if suffix not in _TYPE_SUFFIXES[fam["type"]]:
            raise ValueError(
                f"line {lineno}: suffix {suffix!r} illegal for {fam['type']} "
                f"family {fam_name}"
            )
        raw = m.group("value")
        try:
            value = float(raw)
        except ValueError:
            raise ValueError(f"line {lineno}: bad value {raw!r}") from None
        labels = dict(_LABEL_RE.findall(m.group("labels") or ""))
        fam["samples"].append((sample_name, labels, value))
    empty = sorted(n for n, f in families.items() if not f["samples"])
    if empty:
        raise ValueError(f"families with no samples: {', '.join(empty)}")
    return families


def _resolve_family(
    sample_name: str, families: Dict[str, Dict[str, Any]]
) -> Tuple[str, Optional[Dict[str, Any]]]:
    """Longest-prefix match of a sample name to a declared family."""
    best: Tuple[str, Optional[Dict[str, Any]]] = ("", None)
    for name, fam in families.items():
        if sample_name.startswith(name) and len(name) > len(best[0]):
            if sample_name[len(name):] in _TYPE_SUFFIXES[fam["type"]]:
                best = (name, fam)
    return best


def load_snapshot(path: Any) -> Dict[str, Dict[str, Any]]:
    """Parse an on-disk snapshot (convenience for tests/CI)."""
    return parse_openmetrics(Path(path).read_text())


def export_section(families: List[MetricFamily]) -> Dict[str, Any]:
    """Manifest ``export`` section: where/what the exporter published."""
    return {
        "families": len(families),
        "samples": sum(len(f.samples) for f in families),
    }


def _self_check() -> None:  # pragma: no cover - debugging aid
    print(json.dumps(sorted(f.name for f in registry_families()), indent=2))
