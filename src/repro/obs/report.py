"""Text dashboards over telemetry manifests and perf-ledger reports.

``repro-experiments obs report m1.json m2.json`` renders everything the
observability layer knows about past runs as aligned text tables:
per-manifest totals, aggregated phase timings, individual run records and
campaign/cache effectiveness.  ``repro-experiments obs diff A.json B.json``
(:func:`render_layer_diff`) reads two ``ledger/run.py --json`` reports and
names the layer that moved between them.

Rendering is deterministic for given inputs (sorted keys, fixed float
formats) — the golden test in ``tests/experiments/test_obs_report.py``
asserts the exact output for fixture manifests.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .telemetry import SCHEMA_VERSION


def _fmt_s(v: Any) -> str:
    return f"{float(v):.2f}"


def _fmt_rate(v: Any) -> str:
    return f"{float(v):,.0f}"


def _hit_pct(hits: int, misses: int) -> str:
    total = hits + misses
    return f"{100.0 * hits / total:.0f}%" if total else "-"


def _fmt_opt(v: Any, fmt: str = "{:.2f}") -> str:
    return fmt.format(v) if isinstance(v, (int, float)) else "-"


def _fmt_conv(conv_ns: Any) -> str:
    return f"{conv_ns / 1e6:.3f}" if isinstance(conv_ns, (int, float)) else "never"


def render_report(manifests: Sequence[Tuple[str, Dict[str, Any]]]) -> str:
    """Render ``(label, manifest)`` pairs as text.

    Each manifest is read as :func:`repro.obs.telemetry.upgrade` returns
    it: every current section present, ``None`` where its version had none.
    """
    # Local import: obs must stay importable from the simulator layers
    # without dragging in the experiments stack at module-import time.
    from ..experiments.reporting import format_table

    out: List[str] = ["=== repro observability report ==="]

    rows = []
    for label, m in manifests:
        store = m.get("store") or {}
        campaign = m.get("campaign") or {}
        rows.append(
            (
                label,
                f"v{m['schema_version']}",
                _fmt_s(m.get("wall_s", 0.0)),
                m.get("events_executed", 0),
                _fmt_rate(m.get("events_per_s", 0.0)),
                len(m.get("runs") or ()),
                campaign.get("cached", "-"),
                campaign.get("executed", "-"),
                campaign.get("jobs", "-"),
                _hit_pct(store.get("hits", 0), store.get("misses", 0)),
            )
        )
    out.append(f"\n-- manifests ({len(rows)})")
    out.append(
        format_table(
            (
                "manifest",
                "schema",
                "wall_s",
                "events",
                "events/s",
                "runs",
                "cached",
                "simulated",
                "jobs",
                "store-hit",
            ),
            rows,
        )
    )

    phases: Dict[str, Dict[str, float]] = {}
    for _, m in manifests:
        for name, entry in (m.get("phases") or {}).items():
            agg = phases.setdefault(name, {"wall_s": 0.0, "count": 0})
            agg["wall_s"] += entry.get("wall_s", 0.0)
            agg["count"] += entry.get("count", 0)
    if phases:
        out.append("\n-- phases (aggregated)")
        out.append(
            format_table(
                ("phase", "wall_s", "count"),
                [
                    (name, _fmt_s(phases[name]["wall_s"]), int(phases[name]["count"]))
                    for name in sorted(phases)
                ],
            )
        )

    runs = [
        (label, r)
        for label, m in manifests
        for r in (m.get("runs") or ())
    ]
    if runs:
        out.append(f"\n-- runs ({len(runs)})")
        out.append(
            format_table(
                ("manifest", "kind", "desc", "wall_s", "events", "completed"),
                [
                    (
                        label,
                        r.get("kind", "?"),
                        r.get("desc", "?"),
                        _fmt_s(r.get("wall_s", 0.0)),
                        r.get("events", 0),
                        "yes" if r.get("completed") else "NO",
                    )
                    for label, r in runs
                ],
            )
        )

    # -- histograms (P² percentiles from the instrumentation registry) ----
    hist_rows = []
    for label, m in manifests:
        histograms = (m.get("counters") or {}).get("histograms") or {}
        for name in sorted(histograms):
            h = histograms[name]
            hist_rows.append(
                (
                    label,
                    name,
                    int(h.get("count", 0)),
                    _fmt_opt(h.get("mean"), "{:.3g}"),
                    _fmt_opt(h.get("p50"), "{:.3g}"),
                    _fmt_opt(h.get("p95"), "{:.3g}"),
                    _fmt_opt(h.get("p99"), "{:.3g}"),
                )
            )
    if hist_rows:
        out.append(f"\n-- histograms ({len(hist_rows)})")
        out.append(
            format_table(
                ("manifest", "histogram", "count", "mean", "p50", "p95", "p99"),
                hist_rows,
            )
        )

    # -- per-run summaries (schema v2) -------------------------------------
    analytics_rows = []
    missing_analytics = []
    for label, m in manifests:
        section = m.get("analytics")
        if not section:
            missing_analytics.append((label, m.get("schema_version", "?")))
            continue
        for run in section.get("runs") or ():
            slowdown = run.get("slowdown") or {}
            analytics_rows.append(
                (
                    label,
                    run.get("desc", "?"),
                    run.get("samples", 0),
                    f"{run.get('flows_completed', 0)}/{run.get('flows', 0)}",
                    _fmt_opt(run.get("jain"), "{:.3f}"),
                    _fmt_conv(run.get("convergence_ns")),
                    _fmt_opt(slowdown.get("p50_slowdown")),
                    _fmt_opt(slowdown.get("p99_slowdown")),
                    _fmt_opt(slowdown.get("p999_slowdown")),
                )
            )
    if analytics_rows:
        out.append(f"\n-- live analytics ({len(analytics_rows)} run(s))")
        out.append(
            format_table(
                (
                    "manifest",
                    "run",
                    "samples",
                    "flows",
                    "jain",
                    "conv_ms",
                    "p50-slow",
                    "p99-slow",
                    "p999-slow",
                ),
                analytics_rows,
            )
        )
    if missing_analytics:
        labels = ", ".join(label for label, _ in missing_analytics)
        out.append(
            f"\n(note: no live-analytics section in {labels} — pre-v2 manifest "
            "or analytics disabled; re-run with --telemetry to collect it)"
        )

    # -- supervision (schema v3) -------------------------------------------
    sup_rows = []
    quarantine_lines: List[str] = []
    for label, m in manifests:
        section = m.get("supervisor")
        if not section:
            continue
        counts = section.get("status_counts") or {}
        sup_rows.append(
            (
                label,
                counts.get("ok", 0),
                counts.get("retried", 0),
                counts.get("salvaged", 0),
                counts.get("quarantined", 0),
                counts.get("lost", 0),
                section.get("workers_killed", 0),
                section.get("workers_lost", 0),
            )
        )
        for q in section.get("quarantines") or ():
            quarantine_lines.append(
                f"  {label}: {q.get('desc', '?')} [{q.get('classification', '?')}] "
                f"after {q.get('attempts', '?')} attempt(s): {q.get('error', '?')}"
            )
    if sup_rows:
        out.append(f"\n-- supervision ({len(sup_rows)} campaign(s))")
        out.append(
            format_table(
                (
                    "manifest",
                    "ok",
                    "retried",
                    "salvaged",
                    "quarantined",
                    "lost",
                    "kills",
                    "losses",
                ),
                sup_rows,
            )
        )
    if quarantine_lines:
        out.append(f"\n-- quarantined configs ({len(quarantine_lines)})")
        out.extend(quarantine_lines)

    # -- hot-path profile (schema v4) --------------------------------------
    profile_rows = []
    for label, m in manifests:
        section = m.get("profile")
        if not section:
            continue
        total_s = section.get("wall_s") or 0.0
        prof_phases = section.get("phases") or {}
        for name in sorted(prof_phases, key=lambda n: -prof_phases[n].get("wall_s", 0.0)):
            entry = prof_phases[name]
            wall_s = entry.get("wall_s", 0.0)
            share = f"{100.0 * wall_s / total_s:.1f}%" if total_s > 0 else "-"
            profile_rows.append(
                (
                    label,
                    section.get("mode", "?"),
                    name,
                    f"{wall_s:.4f}",
                    int(entry.get("count", 0)),
                    share,
                )
            )
    if profile_rows:
        out.append(f"\n-- hot-path profile ({len(profile_rows)} phase row(s))")
        out.append(
            format_table(
                ("manifest", "mode", "phase", "wall_s", "count", "share"),
                profile_rows,
            )
        )

    # -- fct decomposition (schema v5) -------------------------------------
    fr_rows = []
    decomp_rows = []
    for label, m in manifests:
        section = m.get("flightrec")
        if not section:
            continue
        for run in section.get("runs") or ():
            totals = run.get("components_total") or {}
            run_dominant = max(totals, key=lambda k: totals[k]) if totals else "-"
            failures = run.get("conservation_failures", 0)
            fr_rows.append(
                (
                    label,
                    run.get("desc", "?"),
                    f"{run.get('flows_completed', 0)}/{run.get('flows_tracked', 0)}",
                    "OK" if not failures else f"{failures} FAIL",
                    _fmt_opt(run.get("max_residual_ns"), "{:.3g}"),
                    run_dominant,
                    len(run.get("links") or ()),
                    _fmt_conv((run.get("timeline") or {}).get("convergence_ns")),
                )
            )
            for d in (run.get("decompositions") or ())[:5]:
                comps = d.get("components") or {}
                dominant = d.get("dominant", "?")
                fct_ns = d.get("fct_ns") or 0.0
                share = (
                    f"{100.0 * comps.get(dominant, 0.0) / fct_ns:.0f}%"
                    if fct_ns > 0
                    else "-"
                )
                decomp_rows.append(
                    (
                        label,
                        run.get("desc", "?"),
                        d.get("flow_id", "?"),
                        f"{fct_ns / 1e6:.3f}",
                        _fmt_opt(d.get("slowdown")),
                        dominant,
                        share,
                        d.get("retransmits", 0),
                    )
                )
    if fr_rows:
        out.append(f"\n-- fct decomposition ({len(fr_rows)} run(s))")
        out.append(
            format_table(
                (
                    "manifest",
                    "run",
                    "flows",
                    "conserved",
                    "max-resid-ns",
                    "dominant",
                    "links",
                    "conv_ms",
                ),
                fr_rows,
            )
        )
    if decomp_rows:
        out.append(f"\n-- slowest flows ({len(decomp_rows)} flow(s))")
        out.append(
            format_table(
                (
                    "manifest",
                    "run",
                    "flow",
                    "fct_ms",
                    "slowdown",
                    "dominant",
                    "share",
                    "retx",
                ),
                decomp_rows,
            )
        )

    # A manifest from a *newer* schema than this build knows about still
    # renders (every known section degrades gracefully), but sections the
    # future version introduced are silently invisible — shout so nobody
    # mistakes the partial render for the whole story.
    for label, m in manifests:
        declared = m["schema_version"]
        if declared > SCHEMA_VERSION:
            out.append(
                f"\n!! unknown schema version: {label} declares v{declared} but "
                f"this build only understands up to v{SCHEMA_VERSION} — sections "
                "introduced after that version are NOT shown; upgrade repro "
                "to render them"
            )

    # Truncated traces are worse than missing ones — they look complete in
    # the viewer while silently omitting the oldest events.  Shout.
    for label, m in manifests:
        trace = m.get("trace") or {}
        dropped = trace.get("dropped", 0)
        if not dropped:
            counters = (m.get("counters") or {}).get("counters") or {}
            dropped = counters.get("tracer.ring_dropped", 0)
        if dropped:
            emitted = trace.get("emitted", 0)
            capacity = trace.get("capacity", "?")
            out.append(
                f"\n!! trace truncated: {label} dropped {int(dropped)} of "
                f"{max(int(emitted), int(dropped))} trace event(s) (ring capacity "
                f"{capacity}) — oldest events are missing; re-run with a larger "
                "--trace-capacity"
            )

    failures = sum(
        (m.get("campaign") or {}).get("failures", 0)
        for _, m in manifests
    )
    incomplete = sum(
        1 for _, r in runs if not r.get("completed", True)
    )
    if failures or incomplete:
        out.append(
            f"\n!! attention: {failures} campaign failure(s), "
            f"{incomplete} incomplete run(s)"
        )

    return "\n".join(out)


def render_layer_diff(path_a: str, path_b: str) -> str:
    """``obs diff A.json B.json``: which layer moved between two ledger reports.

    Both files are ``python ledger/run.py --json OUT`` reports.  Per workload
    present in both, every ``per_layer`` metric is listed with both sides'
    ``median [q1, q3] n``, largest relative move of the median first; a row
    is starred when the two [q1, q3] intervals do not overlap (a side with
    ``n = 1`` has no interval, so its row is never starred).  Verdicts on the
    end-to-end metrics are ``ledger/compare.py``'s, not this function's: it
    only reads the JSON.  Raises ``OSError`` / ``ValueError`` on a file that
    cannot be read or is not such a report.
    """
    from ..experiments.reporting import format_table

    workloads = []
    for path in (path_a, path_b):
        doc = json.loads(Path(path).read_text())
        found = doc.get("workloads") if isinstance(doc, dict) else None
        if not isinstance(found, dict) or not all(
            isinstance(w, dict) and isinstance(w.get("per_layer"), dict)
            for w in found.values()
        ):
            raise ValueError(f"{path} is not a perf-ledger report (no workloads / per_layer)")
        workloads.append(found)
    a_wls, b_wls = workloads

    def cell(seen: Dict[str, Any]) -> str:
        return f"{seen['median']:.5g} [{seen['q1']:.5g}, {seen['q3']:.5g}] n={seen['n']}"

    out = [f"=== obs diff: per-layer medians, A = {path_a}, B = {path_b} ==="]
    for name in {**a_wls, **b_wls}:
        if name not in a_wls or name not in b_wls:
            only = path_a if name in a_wls else path_b
            out.append(f"\n-- {name}: only in {only}, skipped")
            continue
        a_layers, b_layers = a_wls[name]["per_layer"], b_wls[name]["per_layer"]
        rows = []
        for metric in a_layers.keys() & b_layers.keys():
            a, b = a_layers[metric], b_layers[metric]
            if a["median"]:
                change = (b["median"] - a["median"]) / abs(a["median"])
            else:
                change = float("inf") if b["median"] else 0.0
            moved = min(a["n"], b["n"]) > 1 and (a["q3"] < b["q1"] or b["q3"] < a["q1"])
            star = "*" if moved else ""
            rows.append((-abs(change), metric, (star, metric, cell(a), cell(b), f"{change:+.1%}")))
        table = [row for _, _, row in sorted(rows)]
        starred = sum(1 for row in table if row[0])
        out.append(f"\n-- {name} ({len(table)} metric(s), {starred} starred)")
        out.append(
            format_table(
                ("", "metric", "A median [q1, q3] n", "B median [q1, q3] n", "change"), table
            )
        )
        one_sided = sorted(a_layers.keys() ^ b_layers.keys())
        if one_sided:
            out.append(f"(on one side only, not compared: {', '.join(one_sided)})")
    out.append(
        "\n* = the two [q1, q3] intervals do not overlap (never for n=1: one "
        "sample has no interval)\nend-to-end verdicts and exit status: "
        f"python ledger/compare.py {path_a} {path_b}"
    )
    return "\n".join(out)


# ---------------------------------------------------------------------------
# Flight-recorder verbs: ``obs why FLOW`` and ``obs flows --top-tail``
# ---------------------------------------------------------------------------


def flightrec_runs(manifest: Dict[str, Any]) -> List[Dict[str, Any]]:
    """The manifest's flight-recorder run sections ([] when absent)."""
    return list((manifest.get("flightrec") or {}).get("runs") or ())


def _fmt_ms(ns: Any) -> str:
    return f"{float(ns) / 1e6:.3f}" if isinstance(ns, (int, float)) else "-"


def render_why(
    manifest: Dict[str, Any],
    flow_id: int,
    run_index: Optional[int] = None,
) -> Optional[str]:
    """Explain one flow's FCT as its component decomposition, or None.

    Searches every flight-recorder run (or just ``run_index``) for the
    flow; the first match wins.  Returns ``None`` when the manifest has
    no flightrec section or the flow is not among the retained
    decompositions (the section caps them — see ``flows_truncated``).
    """
    from ..experiments.reporting import format_table

    runs = flightrec_runs(manifest)
    candidates = (
        list(enumerate(runs))
        if run_index is None
        else [(run_index, runs[run_index])]
        if 0 <= run_index < len(runs)
        else []
    )
    for idx, run in candidates:
        for d in run.get("decompositions") or ():
            if d.get("flow_id") != flow_id:
                continue
            fct_ns = d.get("fct_ns") or 0.0
            comps = d.get("components") or {}
            out = [
                f"=== obs why: flow {flow_id} "
                f"(run {idx}: {run.get('kind', '?')}/{run.get('desc', '?')}) ===",
                f"path {d.get('src', '?')} -> {d.get('dst', '?')}, "
                f"{d.get('size_bytes', '?')} bytes, "
                f"started {_fmt_ms(d.get('start_ns'))} ms",
            ]
            line = f"fct {_fmt_ms(fct_ns)} ms"
            slowdown = d.get("slowdown")
            if isinstance(slowdown, (int, float)):
                line += (
                    f" (ideal {_fmt_ms(d.get('ideal_ns'))} ms, "
                    f"slowdown {slowdown:.2f})"
                )
            line += (
                f", {d.get('retransmits', 0)} retransmit(s), "
                f"{d.get('acks', 0)} ack(s)"
            )
            out.append(line)
            rows = []
            for name in sorted(comps, key=lambda n: -comps[n]):
                value = comps[name]
                share = f"{100.0 * value / fct_ns:.1f}%" if fct_ns > 0 else "-"
                rows.append((name, f"{value:,.1f}", share))
            out.append(format_table(("component", "ns", "share"), rows))
            dominant = d.get("dominant", "?")
            dom_share = (
                f"{100.0 * comps.get(dominant, 0.0) / fct_ns:.1f}%"
                if fct_ns > 0
                else "-"
            )
            out.append(
                f"dominant component: {dominant} ({dom_share} of FCT)"
            )
            residual = d.get("residual_ns", 0.0)
            status = "OK" if abs(residual) <= 1.0 else "VIOLATED (> 1 ns)"
            out.append(
                f"conservation: components sum to FCT, residual "
                f"{residual:.3g} ns [{status}]"
            )
            return "\n".join(out)
    return None


def render_flows(manifest: Dict[str, Any], top: int = 10) -> Optional[str]:
    """The top-``top`` tail flows across every flight-recorder run.

    Ranked by slowdown when the runs carried the ideal-FCT oracle,
    falling back to raw FCT.  Returns ``None`` when the manifest has no
    flightrec section.
    """
    from ..experiments.reporting import format_table

    runs = flightrec_runs(manifest)
    if not runs:
        return None
    entries = [
        (idx, run, d)
        for idx, run in enumerate(runs)
        for d in run.get("decompositions") or ()
    ]
    entries.sort(
        key=lambda e: (
            e[2].get("slowdown") or 0.0,
            e[2].get("fct_ns") or 0.0,
        ),
        reverse=True,
    )
    truncated = sum(run.get("flows_truncated", 0) for run in runs)
    rows = []
    for idx, run, d in entries[:top]:
        comps = d.get("components") or {}
        dominant = d.get("dominant", "?")
        fct_ns = d.get("fct_ns") or 0.0
        share = (
            f"{100.0 * comps.get(dominant, 0.0) / fct_ns:.0f}%"
            if fct_ns > 0
            else "-"
        )
        rows.append(
            (
                f"{idx}:{run.get('desc', '?')}",
                d.get("flow_id", "?"),
                _fmt_ms(fct_ns),
                _fmt_opt(d.get("slowdown")),
                dominant,
                share,
                d.get("retransmits", 0),
            )
        )
    out = [f"=== obs flows: top {len(rows)} tail flow(s) ==="]
    out.append(
        format_table(
            ("run", "flow", "fct_ms", "slowdown", "dominant", "share", "retx"),
            rows,
        )
    )
    if truncated:
        out.append(
            f"(note: {truncated} additional flow(s) not retained in the "
            "manifest — the flightrec section caps decompositions per run)"
        )
    return "\n".join(out)
