"""Structural tests for the incast figure entry points (1-3, 5, 6, 8, 9).

These share simulations with the integration suite through the runner's
process-wide cache, so they add little runtime.
"""

import pytest

from repro.experiments import run_incast_cached, scaled_incast
from repro.experiments.config import (
    FIG1_HPCC_VARIANTS,
    FIG1_SWIFT_VARIANTS,
    SCALED_LARGE_INCAST,
)
from repro.experiments.figures import fig1, fig2, fig3, fig5, fig6, fig8, fig9
from repro.experiments.reporting import render
from repro.units import ns_to_us


@pytest.fixture(scope="module")
def figures():
    return {
        "1": fig1(),
        "2": fig2(),
        "3": fig3(),
        "5": fig5(),
        "6": fig6(),
        "8": fig8(),
        "9": fig9(),
    }


class TestFigureStructure:
    def test_fig1_has_both_families(self, figures):
        fig = figures["1"]
        assert "hpcc/summary" in fig.tables
        assert "swift/summary" in fig.tables
        # Summary row per variant.
        assert len(fig.tables["hpcc/summary"]) == 3
        assert len(fig.tables["swift/summary"]) == 3

    def test_fig1_series_tables_present(self, figures):
        fig = figures["1"]
        for variant in ("hpcc", "hpcc-1gbps", "hpcc-prob"):
            assert f"hpcc/jain:{variant}" in fig.tables
            assert f"hpcc/queue:{variant}" in fig.tables

    def test_fig1_jain_values_bounded(self, figures):
        fig = figures["1"]
        for name, rows in fig.tables.items():
            if "/jain:" in name:
                assert all(0.0 <= j <= 1.0 for _, j in rows), name

    def test_start_finish_tables_have_16_rows(self, figures):
        for fig_id in ("2", "3", "8", "9"):
            for name, rows in figures[fig_id].tables.items():
                assert len(rows) == 16, (fig_id, name)
                starts = [s for s, _ in rows]
                assert starts == sorted(starts)

    def test_fig5_fig6_cover_both_degrees(self, figures):
        big = SCALED_LARGE_INCAST
        for fig_id in ("5", "6"):
            fig = figures[fig_id]
            assert "16-1/summary" in fig.tables
            assert f"{big}-1/summary" in fig.tables
            assert len(fig.tables["16-1/summary"]) == 4  # 4 variants

    def test_all_variants_completed(self, figures):
        """The 'completed' column must be True everywhere."""
        for fig_id in ("5", "6"):
            for name, rows in figures[fig_id].tables.items():
                if name.endswith("summary"):
                    assert all(row[-1] for row in rows), (fig_id, name)

    def test_convergence_column_counts_from_the_last_start(self, figures):
        """The summary's convergence column is what its header says: time
        past the last flow's start, not since t = 0."""
        for prefix, variants in (("hpcc", FIG1_HPCC_VARIANTS), ("swift", FIG1_SWIFT_VARIANTS)):
            for row, variant in zip(figures["1"].tables[f"{prefix}/summary"], variants):
                r = run_incast_cached(scaled_incast(variant))
                assert row[0] == variant
                assert row[1] == round(ns_to_us(r.convergence_ns - r.last_start_ns), 1)

    def test_render_every_figure(self, figures):
        for fig_id, fig in figures.items():
            text = render(fig)
            assert f"Figure {fig.figure}" in text
            assert len(text) > 200

    def test_notes_mention_scale(self, figures):
        assert any("incast" in n for n in figures["1"].notes)
