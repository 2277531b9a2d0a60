"""Tests for experiment configs, the runner, figures, reporting, and CLI."""

import numpy as np
import pytest

from repro.experiments import (
    ALL_FIGURES,
    IncastConfig,
    clear_caches,
    format_table,
    paper_datacenter,
    paper_incast,
    red_for_rate,
    render,
    run_incast_cached,
    scaled_datacenter,
    scaled_incast,
    with_seed,
)
from repro.experiments.cli import main as cli_main
from repro.experiments.figures import FigureResult, fig4, fig7
from repro.units import gbps, mb, ms, us


class TestConfigs:
    def test_paper_incast_parameters(self):
        cfg = paper_incast("hpcc")
        assert cfg.n_senders == 16
        assert cfg.flow_size_bytes == mb(1)
        assert cfg.flows_per_batch == 2
        assert cfg.batch_interval_ns == us(20)
        assert cfg.rate_bps == gbps(100)

    def test_paper_datacenter_parameters(self):
        cfg = paper_datacenter("hpcc")
        assert cfg.fattree.n_hosts == 320
        assert cfg.load == 0.5
        assert cfg.duration_ns == ms(50)
        assert cfg.size_scale == 1.0

    def test_scaled_datacenter_shrinks(self):
        cfg = scaled_datacenter("hpcc")
        assert cfg.fattree.n_hosts < 320
        assert cfg.size_scale < 1.0

    def test_red_scales_with_rate(self):
        r100 = red_for_rate(gbps(100))
        r10 = red_for_rate(gbps(10))
        assert r10.kmin_bytes == pytest.approx(r100.kmin_bytes / 10)
        assert r10.pmax == r100.pmax == 0.01  # Sec. III-C's 1% maximum

    def test_with_seed(self):
        cfg = scaled_incast("hpcc")
        cfg2 = with_seed(cfg, 99)
        assert cfg2.seed == 99 and cfg2.variant == cfg.variant

    def test_configs_hashable_for_cache(self):
        assert hash(scaled_incast("hpcc")) == hash(scaled_incast("hpcc"))
        assert hash(scaled_datacenter("hpcc")) == hash(scaled_datacenter("hpcc"))

    def test_describe(self):
        assert "16-1" in scaled_incast("hpcc").describe()
        assert "hadoop" in scaled_datacenter("hpcc").describe()


class TestRunnerCaching:
    def test_cache_returns_same_object(self):
        cfg = IncastConfig(variant="hpcc", n_senders=2, flow_size_bytes=50_000)
        a = run_incast_cached(cfg)
        b = run_incast_cached(cfg)
        assert a is b

    def test_clear_caches(self):
        cfg = IncastConfig(variant="hpcc", n_senders=2, flow_size_bytes=50_000)
        a = run_incast_cached(cfg)
        clear_caches()
        b = run_incast_cached(cfg)
        assert a is not b

    def test_determinism_across_cold_runs(self):
        """Identical configs reproduce identical flow completion times."""
        cfg = IncastConfig(variant="swift", n_senders=4, flow_size_bytes=100_000)
        clear_caches()
        a = run_incast_cached(cfg)
        clear_caches()
        b = run_incast_cached(cfg)
        assert [f.fct for f in a.flows] == [f.fct for f in b.flows]
        clear_caches()


class TestIncastResultApi:
    @pytest.fixture(scope="class")
    def result(self):
        return run_incast_cached(
            IncastConfig(variant="hpcc", n_senders=4, flow_size_bytes=200_000)
        )

    def test_series_shapes(self, result):
        assert result.jain_times_ns.shape == result.jain_values.shape
        assert result.queue_times_ns.shape == result.queue_values_bytes.shape
        assert np.all(result.jain_values <= 1.0 + 1e-9)

    def test_start_finish_pairs_sorted(self, result):
        pairs = result.start_finish_pairs()
        starts = [s for s, _ in pairs]
        assert starts == sorted(starts)
        assert len(pairs) == 4

    def test_queue_stats_populated(self, result):
        assert result.queue.max_bytes > 0


class TestFigures:
    def test_fig4_tables(self):
        fig = fig4()
        assert "fairness-difference" in fig.tables
        props = dict(fig.tables["properties"])
        assert props["initial slope condition (1/r < (C1+C0)/(s*MTU))"] is True
        assert props["peak difference (bytes/ns)"] > 0

    def test_fig7_structure_table(self):
        fig = fig7()
        table = dict(fig.tables["structure"])
        assert table["hosts"] == 320
        assert table["spine switches"] == 16
        assert table["links cross-pod pair"] == 6
        assert table["switch hops cross-pod (paper: max 5)"] == 5

    def test_all_figures_registered(self):
        assert sorted(ALL_FIGURES, key=int) == [str(i) for i in range(1, 14)]

    def test_figure_result_add_table(self):
        fig = FigureResult("x", "t")
        fig.add_table("a", ("c1",), [(1,)])
        assert fig.tables["a"] == [(1,)]
        assert fig.columns["a"] == ("c1",)


class TestReporting:
    def test_format_table_alignment(self):
        text = format_table(("name", "value"), [("a", 1), ("long-name", 22)])
        lines = text.splitlines()
        assert lines[0].startswith("name")
        assert len(lines) == 4
        assert "long-name" in lines[3]

    def test_format_table_handles_none(self):
        text = format_table(("a",), [(None,)])
        assert text  # renders empty cell without crashing

    def test_render_figure(self):
        fig = fig4()
        text = render(fig)
        assert "Figure 4" in text
        assert "Notes:" in text

    def test_render_truncates_series(self):
        fig = FigureResult("9", "t")
        fig.add_table("jain:x", ("t", "j"), [(i, 1.0) for i in range(100)])
        text = render(fig, max_series_rows=10)
        assert "showing every" in text


class TestCli:
    def test_fig4_runs(self, capsys):
        assert cli_main(["--fig", "4"]) == 0
        out = capsys.readouterr().out
        assert "Figure 4" in out
        assert "reproduced in" in out

    def test_fig7_runs(self, capsys):
        assert cli_main(["--fig", "7"]) == 0
        assert "320" in capsys.readouterr().out

    def test_profile_line_names_the_calendar(self, capsys, monkeypatch):
        from repro.sim import calendar

        # The campaign's line is the one [profile] line: reducing a figure
        # simulates nothing.
        argv = ["--fig", "8", "--backend", "flow", "--no-store", "--profile"]
        assert cli_main(argv) == 0
        (line,) = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("[profile]")]
        assert line.startswith("[profile] campaign: events=")
        assert line.endswith("calendar=native" if calendar.NATIVE else ")")
        monkeypatch.setattr(calendar, "NATIVE", False)
        monkeypatch.setattr(calendar, "FALLBACK_REASON", "FileNotFoundError: no cc")
        assert cli_main(argv) == 0
        assert "calendar=heapq (FileNotFoundError: no cc)" in capsys.readouterr().out

    def test_unknown_figure(self, capsys):
        assert cli_main(["--fig", "99"]) == 2

    def test_no_args_prints_help(self, capsys):
        assert cli_main([]) == 2
        assert "usage" in capsys.readouterr().out.lower()
