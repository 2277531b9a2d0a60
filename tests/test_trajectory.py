"""``BENCH_trajectory.jsonl``: the committed perf series, one line per PR."""

import json
from pathlib import Path

ROOT = Path(__file__).parents[1]
LINES = [
    json.loads(line)
    for line in (ROOT / "BENCH_trajectory.jsonl").read_text().splitlines()
]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
METRICS = [m["name"] for m in BENCHMARK["end_to_end"]]


def test_one_line_per_pr_in_order():
    prs = [line["pr"] for line in LINES]
    assert prs == sorted(set(prs)) and prs[0] >= 12
    for line in LINES:
        assert set(line) <= {"pr", "commit", "workloads", "source"}
        assert isinstance(line.get("source"), str) and line["source"]
    # A PR writes its own line before its commit exists; the next PR fills
    # the hash in from ``git log``, so only the last line may lack one.
    for line in LINES[:-1]:
        assert isinstance(line["commit"], str) and len(line["commit"]) >= 7


def test_values_are_named_as_in_benchmark_json():
    for line in LINES:
        assert line["workloads"] and set(line["workloads"]) <= set(WORKLOADS)
        for name, seen in line["workloads"].items():
            assert seen and set(seen) <= set(METRICS), (line["pr"], name)
            assert all(
                isinstance(v, (int, float)) and not isinstance(v, bool) and v > 0
                for v in seen.values()
            ), (line["pr"], name)
        if line["pr"] >= 21:  # before that: only what CHANGES.md states
            assert list(line["workloads"]) == WORKLOADS
            assert all(list(seen) == METRICS for seen in line["workloads"].values())

