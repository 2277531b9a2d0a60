"""Names, units and counts stay inside what a driver accepts, and
``BENCHMARK.json`` says what the catalogue says."""

import json
import os
import re

import catalogue

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_names_and_units_are_well_formed_and_unique():
    metrics = catalogue.END_TO_END + catalogue.PER_LAYER
    everything = list(catalogue.WORKLOADS) + [m.name for m in metrics]
    assert len(everything) == len(set(everything))
    for name in everything:
        assert NAME.match(name), name
    for metric in metrics:
        assert UNIT.match(metric.unit), metric
        assert metric.better in ("lower", "higher")
    for why in catalogue.WORKLOADS.values():
        assert "\n" not in why and len(why) <= 200


def test_counts_stay_within_the_limits():
    assert 2 <= len(catalogue.WORKLOADS) <= 8
    assert 1 <= len(catalogue.END_TO_END) <= 16
    assert 1 <= len(catalogue.DRIVER_PER_LAYER) <= 128
    assert 1 <= len(catalogue.UNIVERSAL) <= 16


def test_end_to_end_bounds():
    by_name = {m.name: m for m in catalogue.END_TO_END}
    universal = [by_name[name] for name in catalogue.UNIVERSAL]
    assert all(m.workloads == catalogue.ALL for m in universal)
    assert all(0 < m.bound <= 0.25 for m in universal)
    assert by_name["setup_s"].bound == max(m.bound for m in universal)
    assert by_name["setup_s"].unit == "s" and by_name["setup_s"].better == "lower"
    for metric in catalogue.END_TO_END:
        assert set(metric.workloads) <= set(catalogue.WORKLOADS)


def test_benchmark_json_mirrors_the_catalogue():
    bench = benchmark()
    assert set(bench) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert bench["command"] == ["python3", "ledger/run.py"]
    assert bench["paths"] == ["ledger"]
    assert isinstance(bench["run_seconds"], int) and 1 <= bench["run_seconds"] <= 60
    assert bench["workloads"] == [
        {"name": name, "why": why} for name, why in catalogue.WORKLOADS.items()
    ]
    by_name = {m.name: m for m in catalogue.END_TO_END}
    assert bench["end_to_end"] == [
        {"name": n, "unit": by_name[n].unit, "better": by_name[n].better, "bound": by_name[n].bound}
        for n in catalogue.UNIVERSAL
    ]
    assert bench["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in catalogue.DRIVER_PER_LAYER
    ]


def test_summarize_reports_median_quartiles_and_count():
    assert catalogue.summarize([3.0]) == {"median": 3.0, "q1": 3.0, "q3": 3.0, "n": 1}
    seen = catalogue.summarize([1.0, 2.0, 3.0, 4.0, 100.0])
    assert seen["median"] == 3.0 and seen["n"] == 5
    assert seen["q1"] < seen["median"] < seen["q3"]
