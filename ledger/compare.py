#!/usr/bin/env python3
"""Compare two ledger reports: ``python ledger/compare.py A.json B.json``.

One row per (workload, end-to-end metric): both medians with their
quartiles, B's change relative to A (positive = worse), the metric's bound,
and a verdict:

``better``      B beats A by more than the runs' own spread
``same``        neither of the others
``worse``       B is worse than A by more than the bound
``unresolved``  the spread of the samples (both reports' rounds, each as a
                share of its own median) is wider than the bound, so a
                regression of the size the bound forbids could hide in it
                (unless every B sample beats, or loses to, every A sample)

Exit status is non-zero if any row is ``worse``.
"""

from __future__ import annotations

import json
import statistics
import sys
from typing import Any, Dict, List, Optional, Sequence, Tuple

import catalogue

BETTER, SAME, WORSE, UNRESOLVED = "better", "same", "worse", "unresolved"


def _spread(a: Dict[str, Any], b: Dict[str, Any]) -> float:
    """Quartile distance of both reports' samples, each as a share of its
    own median: one estimate from all the rounds there are (0 when the
    metric is exact, or has a single sample a side)."""
    pooled = [v / seen["median"] for seen in (a, b) if seen["median"] for v in seen["values"]]
    if len(pooled) < 4:
        return 0.0
    q1, _, q3 = statistics.quantiles(pooled, n=4)
    return q3 - q1


def _all_beat(winners: Sequence[float], losers: Sequence[float], better: str) -> bool:
    if better == "lower":
        return max(winners) < min(losers)
    return min(winners) > max(losers)


def verdict(a: Dict[str, Any], b: Dict[str, Any], better: str, bound: float) -> Tuple[float, float, str]:
    """``(relative change, spread, verdict)``; a positive change is worse."""
    if a["median"] == 0:
        change = 0.0 if b["median"] == 0 else float("inf")
    else:
        change = (b["median"] - a["median"]) / abs(a["median"])
    if better == "higher":
        change = -change
    spread = _spread(a, b)
    if spread > bound:
        if _all_beat(b["values"], a["values"], better):
            return change, spread, BETTER
        if _all_beat(a["values"], b["values"], better) and change > bound:
            return change, spread, WORSE
        return change, spread, UNRESOLVED
    if change > bound:
        return change, spread, WORSE
    # One sample a side says nothing about spread: only the bound is left.
    margin = spread if min(a["n"], b["n"]) > 1 else bound
    if change < -margin and change < 0:
        return change, spread, BETTER
    return change, spread, SAME


def compare(report_a: Dict[str, Any], report_b: Dict[str, Any]) -> List[Dict[str, Any]]:
    rows = []
    for name in catalogue.WORKLOADS:
        a_wl = report_a["workloads"].get(name)
        b_wl = report_b["workloads"].get(name)
        if a_wl is None or b_wl is None:
            continue
        for metric in catalogue.END_TO_END:
            a, b = a_wl["end_to_end"].get(metric.name), b_wl["end_to_end"].get(metric.name)
            if a is None or b is None:
                continue
            change, spread, result = verdict(a, b, metric.better, metric.bound)
            rows.append(
                {
                    "workload": name, "metric": metric.name, "unit": metric.unit,
                    "a": a, "b": b, "change": change, "spread": spread,
                    "bound": metric.bound, "verdict": result,
                }
            )
    return rows


def _cell(seen: Dict[str, Any]) -> str:
    return f"{seen['median']:.5g} [{seen['q1']:.5g}, {seen['q3']:.5g}] n={seen['n']}"


def render(rows: List[Dict[str, Any]]) -> str:
    lines = [
        f"{'workload':<15} {'metric':<26} {'A median [q1, q3]':<40} {'B median [q1, q3]':<40} "
        f"{'change':>8} {'spread':>7} {'bound':>6}  verdict"
    ]
    for row in rows:
        lines.append(
            f"{row['workload']:<15} {row['metric']:<26} {_cell(row['a']):<40} {_cell(row['b']):<40} "
            f"{row['change']:>+8.2%} {row['spread']:>7.2%} {row['bound']:>6.2f}  {row['verdict']}"
        )
    counts = {v: sum(r["verdict"] == v for r in rows) for v in (BETTER, SAME, WORSE, UNRESOLVED)}
    lines.append("  ".join(f"{k}: {n}" for k, n in counts.items()) + "  (change > 0 is worse)")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        sys.exit(__doc__.split("\n\n")[0])
    reports = []
    for path in argv:
        with open(path) as fh:
            reports.append(json.load(fh))
    rows = compare(*reports)
    print(render(rows))
    return 1 if any(r["verdict"] == WORSE for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
