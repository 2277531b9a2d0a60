"""compare.py's verdicts."""

import compare


def seen(values):
    import catalogue

    return dict(catalogue.summarize(values), values=list(values))


def test_verdicts_for_a_lower_is_better_metric():
    base = seen([1.00, 1.01, 0.99, 1.00])
    assert compare.verdict(base, seen([1.00, 1.01, 1.00, 0.99]), "lower", 0.10)[2] == compare.SAME
    assert compare.verdict(base, seen([1.20, 1.21, 1.19, 1.20]), "lower", 0.10)[2] == compare.WORSE
    assert compare.verdict(base, seen([0.90, 0.91, 0.89, 0.90]), "lower", 0.10)[2] == compare.BETTER
    # Worse, but by less than the bound.
    assert compare.verdict(base, seen([1.05, 1.06, 1.04, 1.05]), "lower", 0.10)[2] == compare.SAME


def test_direction_flips_for_higher_is_better():
    base = seen([100.0, 101.0, 99.0, 100.0])
    change, _, result = compare.verdict(base, seen([80.0, 81.0, 79.0, 80.0]), "higher", 0.10)
    assert result == compare.WORSE and change > 0
    assert compare.verdict(base, seen([120.0, 121.0, 119.0]), "higher", 0.10)[2] == compare.BETTER


def test_wide_spread_is_unresolved_unless_the_samples_separate():
    noisy = seen([0.8, 1.0, 1.2, 1.4])
    assert compare.verdict(noisy, seen([0.9, 1.0, 1.3, 1.5]), "lower", 0.10)[2] == compare.UNRESOLVED
    assert compare.verdict(noisy, seen([0.5, 0.6, 0.7]), "lower", 0.10)[2] == compare.BETTER
    assert compare.verdict(noisy, seen([2.0, 2.5, 3.0]), "lower", 0.10)[2] == compare.WORSE


def test_exact_metrics_with_a_zero_bound():
    zero = seen([0.0])
    assert compare.verdict(zero, seen([0.0]), "lower", 0.0)[2] == compare.SAME
    assert compare.verdict(zero, seen([0.01]), "lower", 0.0)[2] == compare.WORSE
    exact = seen([195.0, 195.0, 195.0])
    assert compare.verdict(exact, seen([195.0, 195.0]), "lower", 0.01)[2] == compare.SAME


def test_a_single_sample_a_side_is_only_held_to_the_bound():
    assert compare.verdict(seen([100.0]), seen([99.9]), "lower", 0.10)[2] == compare.SAME
    assert compare.verdict(seen([100.0]), seen([85.0]), "lower", 0.10)[2] == compare.BETTER
    assert compare.verdict(seen([100.0]), seen([115.0]), "lower", 0.10)[2] == compare.WORSE


def test_spread_pools_both_reports_rounds():
    tight = seen([1.00, 1.01, 0.99, 1.00, 1.00, 1.01])
    loose = seen([0.93, 1.00, 1.07, 0.95, 1.05, 1.00])
    _, spread, result = compare.verdict(tight, loose, "lower", 0.10)
    assert 0.0 < spread < 0.10 and result == compare.SAME


def test_compare_rows_use_the_catalogue_bounds_and_skip_missing_workloads():
    metric = {"end_to_end": {"sim_events_per_s": seen([100.0, 100.0, 100.0])}}
    slower = {"end_to_end": {"sim_events_per_s": seen([93.0, 93.0, 93.0])}}
    slowest = {"end_to_end": {"sim_events_per_s": seen([88.0, 88.0, 88.0])}}
    a = {"workloads": {"incast_packet": metric, "fattree_packet": metric}}
    b = {"workloads": {"incast_packet": slower, "fattree_packet": slowest, "campaign": slower}}
    rows = {r["workload"]: r for r in compare.compare(a, b)}
    assert set(rows) == {"incast_packet", "fattree_packet"}
    assert rows["incast_packet"]["verdict"] == compare.SAME  # -7% is inside 0.10
    assert rows["fattree_packet"]["verdict"] == compare.WORSE
