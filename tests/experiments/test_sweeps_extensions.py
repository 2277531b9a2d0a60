"""Tests for sweeps, extension experiments, and their CLI integration."""

import math

import pytest

from repro.experiments import (
    ALL_EXTENSIONS,
    Aggregate,
    IncastConfig,
    incast_seed_sweep,
    scaled_datacenter,
)
from repro.experiments.cli import main as cli_main
from repro.experiments.extensions import GENERALITY_PAIRS, ext_generality
from repro.experiments.sweeps import datacenter_seed_sweep, load_sweep
from repro.units import ms


class TestAggregate:
    def test_of_values(self):
        agg = Aggregate.of([1.0, 2.0, 3.0])
        assert agg.mean == pytest.approx(2.0)
        assert agg.n == 3

    def test_drops_nan(self):
        agg = Aggregate.of([1.0, float("nan"), 3.0])
        assert agg.n == 2
        assert agg.mean == pytest.approx(2.0)

    def test_empty(self):
        agg = Aggregate.of([])
        assert agg.n == 0
        assert math.isnan(agg.mean)

    def test_str(self):
        assert "n=2" in str(Aggregate.of([1.0, 2.0]))


class TestIncastSeedSweep:
    def test_sweep_aggregates(self):
        base = IncastConfig(variant="hpcc", n_senders=4, flow_size_bytes=200_000)
        aggs = incast_seed_sweep(base, seeds=[1, 2, 3])
        assert aggs["finish_spread_ns"].n == 3
        assert aggs["mean_queue_bytes"].mean > 0

    def test_incast_deterministic_across_seeds(self):
        """HPCC incast has no stochastic elements (no RED), so all seeds
        agree exactly — a strong determinism check."""
        base = IncastConfig(variant="hpcc", n_senders=4, flow_size_bytes=200_000)
        aggs = incast_seed_sweep(base, seeds=[5, 6, 7])
        assert aggs["finish_spread_ns"].std == pytest.approx(0.0)


class TestDatacenterSweeps:
    CFG = None

    @classmethod
    def _cfg(cls):
        if cls.CFG is None:
            cls.CFG = scaled_datacenter("hpcc", "hadoop", duration_ns=ms(1.0))
        return cls.CFG

    def test_seed_sweep(self):
        aggs = datacenter_seed_sweep(self._cfg(), seeds=[42, 43])
        assert aggs["p50_slowdown"].n == 2
        assert aggs["p50_slowdown"].mean >= 1.0
        assert aggs["completion_fraction"].mean > 0.9

    def test_load_sweep_monotone_pressure(self):
        rows = load_sweep(self._cfg(), loads=[0.2, 0.6])
        assert len(rows) == 2
        low, high = rows[0][1], rows[1][1]
        # More load -> at least as much median slowdown.
        assert high["p50_slowdown"].mean >= low["p50_slowdown"].mean * 0.95


class TestExtensions:
    def test_registry(self):
        assert set(ALL_EXTENSIONS) == {
            "generality",
            "seed-variance",
            "load-sweep",
            "failure-sweep",
        }

    def test_generality_pairs_cover_four_families(self):
        bases = {b.split("-")[0] for b, _ in GENERALITY_PAIRS}
        assert bases == {"hpcc", "swift", "dctcp", "timely"}

    def test_ext_generality_improves_every_family(self):
        fig = ext_generality()
        rows = fig.tables["families"]
        assert len(rows) == 4
        for row in rows:
            protocol, spread_default, spread_ext, gain = row[0], row[1], row[2], row[3]
            assert gain > 1.0, f"{protocol}: VAI+SF did not shrink the spread"

    def test_cli_ext(self, capsys):
        assert cli_main(["--ext", "generality"]) == 0
        out = capsys.readouterr().out
        assert "ext-generality" in out

    def test_cli_unknown_ext(self):
        assert cli_main(["--ext", "nope"]) == 2

    def test_cli_refuses_paper_scale_extensions(self, capsys, tmp_path):
        """Extensions have scaled presets only: ``--scale paper`` is a usage
        error before anything runs, not a silently scaled run."""
        store = tmp_path / "store"
        rc = cli_main(["--ext", "generality", "--scale", "paper", "--store", str(store)])
        assert rc == 2
        assert "scaled presets only" in capsys.readouterr().err
        assert not store.exists()

    @pytest.mark.parametrize("backend", ["flow", "hybrid"])
    def test_cli_refuses_failure_sweep_off_the_packet_backend(self, backend, capsys, tmp_path):
        """The failure sweep's drop-rate configs carry packet-level faults
        that no fluid backend models: a usage error before anything runs."""
        store = tmp_path / "store"
        rc = cli_main(["--ext", "failure-sweep", "--backend", backend, "--store", str(store)])
        assert rc == 2
        assert "packet-level faults" in capsys.readouterr().err
        assert not store.exists()

    def test_cli_ext_runs_its_configs_in_the_campaign(self, capsys):
        """An extension's configs go through the CLI's campaign (here across
        two workers) like a figure's; its reduce then simulates nothing."""
        from repro.experiments import runner

        runner.clear_caches()
        try:
            rc = cli_main(
                ["--backend", "flow", "--no-store", "--ext", "generality", "--jobs", "2"]
            )
        finally:
            runner.clear_caches()
        out = capsys.readouterr().out
        assert rc == 0
        assert "[campaign] 8 config(s), 8 unique: 0 cached, 8 simulated (jobs=2" in out
        assert "[supervisor] per-config statuses: 8 ok" in out
        assert "ext-generality" in out
