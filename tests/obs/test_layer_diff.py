"""``obs diff``: two ``ledger/run.py --json`` reports, layer by layer."""

import copy
import json
from pathlib import Path

from repro.experiments.cli import main, obs_main

DATA = Path(__file__).parents[1] / "experiments" / "data"


def seen(median, q1=None, q3=None, n=5, unit="s"):
    """One metric as the ledger summarises it (``values`` is not read)."""
    q1 = median if q1 is None else q1
    q3 = median if q3 is None else q3
    return {"median": median, "q1": q1, "q3": q3, "n": n, "unit": unit}


#: The shape of a report, cut down to two workloads and a few layers.
REPORT = {
    "seed": 42,
    "seconds": 24.0,
    "workloads": {
        "incast_packet": {
            "end_to_end": {"setup_s": seen(0.51, 0.50, 0.52)},
            "per_layer": {
                "sim.engine.loop_s": seen(0.61, 0.60, 0.62),
                "sim.port.serialize_s": seen(0.78, 0.77, 0.80),
                "cc.decision_s": seen(1.05, 1.04, 1.07),
                "cc.make_cc_calls": seen(80.0, unit="count"),
            },
        },
        "campaign": {
            "end_to_end": {"setup_s": seen(0.35, 0.34, 0.36)},
            "per_layer": {
                "experiments.store.get_s": seen(0.012, 0.011, 0.013),
                "warm_runs_per_s": seen(410.0, 400.0, 420.0, unit="1/s"),
            },
        },
    },
}


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def diff(capsys, a, b):
    rc = obs_main(["diff", a, b])
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def table_rows(out, workload):
    """The table lines under ``-- workload`` as (starred, metric, line)."""
    block = out.split(f"-- {workload} (")[1].split("\n\n")[0].splitlines()[3:]
    lines = [line for line in block if not line.startswith("(")]
    return [(line.startswith("*"), line.lstrip("* ").split()[0], line) for line in lines]


def test_identical_pair_has_no_stars_and_lists_every_layer(tmp_path, capsys):
    a = write(tmp_path, "a.json", REPORT)
    rc, out, err = diff(capsys, a, a)
    assert rc == 0 and err == ""
    for name, workload in REPORT["workloads"].items():
        rows = table_rows(out, name)
        assert sorted(metric for _, metric, _ in rows) == sorted(workload["per_layer"])
        assert not any(starred for starred, _, _ in rows)
        assert f"-- {name} ({len(rows)} metric(s), 0 starred)" in out
    assert "0.61 [0.6, 0.62] n=5" in out
    # Dispatch from the top-level entry point, and the hand-over to the ledger.
    assert main(["obs", "diff", a, a]) == 0
    assert f"python ledger/compare.py {a} {a}" in capsys.readouterr().out


def test_moved_layer_is_starred_and_sorted_first(tmp_path, capsys):
    moved = copy.deepcopy(REPORT)
    layers = moved["workloads"]["incast_packet"]["per_layer"]
    layers["cc.decision_s"] = seen(2.10, 2.08, 2.14)
    # Moves less, and its quartiles still overlap the parent's: no star.
    layers["sim.engine.loop_s"] = seen(0.615, 0.60, 0.63)
    rc, out, _ = diff(capsys, write(tmp_path, "a.json", REPORT), write(tmp_path, "b.json", moved))
    assert rc == 0  # the exit status never carries a verdict
    rows = table_rows(out, "incast_packet")
    assert [metric for _, metric, _ in rows[:2]] == ["cc.decision_s", "sim.engine.loop_s"]
    assert [starred for starred, _, _ in rows] == [True, False, False, False]
    assert rows[0][2].endswith("+100.0%")
    assert "(4 metric(s), 1 starred)" in out
    assert not any(starred for starred, _, _ in table_rows(out, "campaign"))


def test_workload_on_one_side_is_skipped_and_said_so(tmp_path, capsys):
    fewer = copy.deepcopy(REPORT)
    del fewer["workloads"]["campaign"]
    fewer["workloads"]["incast_packet"]["per_layer"]["sim.pfc_s"] = seen(0.01)
    a, b = write(tmp_path, "a.json", REPORT), write(tmp_path, "b.json", fewer)
    rc, out, _ = diff(capsys, a, b)
    assert rc == 0
    assert f"-- campaign: only in {a}, skipped" in out
    assert "warm_runs_per_s" not in out
    assert "(on one side only, not compared: sim.pfc_s)" in out
    assert len(table_rows(out, "incast_packet")) == 4


def test_single_sample_rows_are_listed_but_never_starred(tmp_path, capsys):
    # A 6 s smoke has one traced round: q1 == q3 == the reading, which is
    # not an interval, so two honest runs of one tree must not light up.
    once, again = copy.deepcopy(REPORT), copy.deepcopy(REPORT)
    for doc, factor in ((once, 1.0), (again, 1.03)):
        layers = doc["workloads"]["incast_packet"]["per_layer"]
        for metric, value in layers.items():
            layers[metric] = seen(value["median"] * factor, n=1, unit=value["unit"])
    rc, out, _ = diff(capsys, write(tmp_path, "a.json", once), write(tmp_path, "b.json", again))
    rows = table_rows(out, "incast_packet")
    assert rc == 0 and len(rows) == 4
    assert not any(starred for starred, _, _ in rows)
    assert all("n=1" in line and line.endswith("+3.0%") for _, _, line in rows)


def test_zero_median_does_not_divide(tmp_path, capsys):
    was_zero = copy.deepcopy(REPORT)
    layers = was_zero["workloads"]["incast_packet"]["per_layer"]
    layers["cc.make_cc_calls"] = seen(0.0, unit="count")
    a, b = write(tmp_path, "a.json", was_zero), write(tmp_path, "b.json", REPORT)
    rc, out, _ = diff(capsys, a, b)
    first = table_rows(out, "incast_packet")[0]
    assert rc == 0 and first[:2] == (True, "cc.make_cc_calls") and first[2].endswith("+inf%")
    assert diff(capsys, a, a)[0] == 0


def test_unreadable_and_foreign_files_exit_2_naming_the_ledger(tmp_path, capsys):
    good = write(tmp_path, "a.json", REPORT)
    torn = tmp_path / "torn.json"
    torn.write_text('{"workloads": ')
    foreign = [
        str(DATA / "manifest_serial.json"),  # a telemetry manifest
        # what a benchmarks/ session used to write
        write(tmp_path, "bench.json", {"benchmarks": {"fig8": {"wall_s": 0.4}}, "total": {}}),
        write(tmp_path, "flat.json", {"workloads": {"incast_packet": {"end_to_end": {}}}}),
        write(tmp_path, "list.json", []),
    ]
    for bad in (str(tmp_path / "absent.json"), str(torn)):
        rc, out, err = diff(capsys, good, bad)
        assert rc == 2 and out == ""
        assert err.startswith("error: ") and "python ledger/run.py --json" in err
    for bad in foreign:
        for pair in ((good, bad), (bad, good)):
            rc, out, err = diff(capsys, *pair)
            assert rc == 2 and out == ""
            assert f"{bad} is not a perf-ledger report" in err
            assert "python ledger/run.py --json" in err
