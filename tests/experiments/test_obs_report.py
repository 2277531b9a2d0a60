"""Golden test for ``obs report`` plus CLI observability flags."""

import json
from pathlib import Path

import pytest

from repro.experiments.cli import main, obs_main
from repro.experiments.runner import clear_caches
from repro.experiments.store import set_store
from repro.obs.report import (
    manifest_section,
    manifest_version,
    render_report,
    sections_for,
)
from repro.obs.telemetry import validate_manifest

DATA = Path(__file__).parent / "data"


def _load(name):
    return json.loads((DATA / name).read_text())


class TestRenderReport:
    # One fixture manifest per schema version the report must keep reading.
    FIXTURES = (
        "manifest_serial.json",  # v1, serial run
        "manifest_campaign.json",  # v1, campaign + store + truncated trace
        "manifest_analytics.json",  # v2, live analytics
        "manifest_supervisor.json",  # v3, supervised campaign
        "manifest_profile.json",  # v4, profiler + exporter sections
        "manifest_flightrec.json",  # v5, flight-recorder FCT decomposition
    )

    def test_fixture_manifests_are_schema_valid(self):
        for name in self.FIXTURES:
            assert validate_manifest(_load(name)) == [], name

    def test_report_matches_golden(self):
        pairs = [(name, _load(name)) for name in self.FIXTURES]
        text = render_report(pairs)
        golden = (DATA / "report_golden.txt").read_text()
        assert text + "\n" == golden

    def test_version_dispatch_is_cumulative(self):
        assert (
            sections_for(1) < sections_for(2) < sections_for(3)
            < sections_for(4) < sections_for(5)
        )
        assert "analytics" not in sections_for(1)
        assert "supervisor" in sections_for(3)
        assert {"profile", "export"} <= sections_for(4)
        assert "flightrec" in sections_for(5)
        # Unknown future versions degrade to everything we know how to read.
        assert sections_for(99) == sections_for(5)

    def test_manifest_version_defaults_and_rejects_junk(self):
        assert manifest_version({"schema_version": 3}) == 3
        assert manifest_version({}) == 1  # pre-versioned manifests are v1
        assert manifest_version({"schema_version": True}) == 1
        assert manifest_version({"schema_version": "4"}) == 1

    def test_sections_beyond_declared_version_are_ignored(self):
        # A v1 manifest carrying an analytics-shaped key must NOT render
        # the analytics section: the declared version gates dispatch.
        doc = _load("manifest_serial.json")
        doc["analytics"] = _load("manifest_analytics.json")["analytics"]
        assert manifest_section(doc, "analytics") is None
        text = render_report([("v1.json", doc)])
        assert "-- live analytics" not in text
        assert "no live-analytics section in v1.json" in text

    def test_each_version_renders_its_own_sections(self):
        for name, marker in (
            ("manifest_analytics.json", "-- live analytics"),
            ("manifest_supervisor.json", "-- supervision"),
            ("manifest_profile.json", "-- hot-path profile"),
            ("manifest_profile.json", "-- metrics export"),
            ("manifest_flightrec.json", "-- fct decomposition"),
            ("manifest_flightrec.json", "-- slowest flows"),
        ):
            assert marker in render_report([(name, _load(name))]), (name, marker)

    def test_future_schema_version_warns_loudly(self):
        # A manifest declaring a version newer than this build understands
        # must shout, not silently drop the sections it cannot dispatch.
        doc = _load("manifest_flightrec.json")
        doc["schema_version"] = 99
        text = render_report([("future.json", doc)])
        assert "!! unknown schema version" in text
        assert "future.json declares v99" in text
        assert "up to v5" in text
        # Known versions never trip the warning.
        clean = render_report(
            [(n, _load(n)) for n in self.FIXTURES]
        )
        assert "unknown schema version" not in clean

    def test_truncated_trace_warns_loudly(self):
        # manifest_campaign.json records 120 ring-dropped trace events.
        text = render_report([("camp.json", _load("manifest_campaign.json"))])
        assert "!! trace truncated: camp.json dropped 120 of 65656" in text
        assert "--trace-capacity" in text
        clean = render_report([("ok.json", _load("manifest_profile.json"))])
        assert "trace truncated" not in clean

    def test_pre_v2_manifests_degrade_with_note(self):
        # PR 3 (schema v1) manifests have no analytics section: the report
        # must render without crashing and say why the section is absent.
        text = render_report([("old.json", _load("manifest_serial.json"))])
        assert "live analytics" not in text
        assert "no live-analytics section in old.json" in text
        assert "--analytics" in text

    def test_analytics_sections_rendered(self):
        text = render_report([("m", _load("manifest_analytics.json"))])
        assert "-- live analytics (2 run(s))" in text
        assert "0.950" in text  # convergence in ms
        assert "never" in text  # null convergence renders as 'never'
        assert "-- histograms (1)" in text
        assert "port.queue_depth_bytes" in text
        assert "(note:" not in text

    def test_report_without_bench_omits_bench_section(self):
        text = render_report([("m", _load("manifest_serial.json"))])
        assert "benchmarks" not in text
        assert "manifests (1)" in text

    def test_attention_line_only_on_trouble(self):
        clean = render_report([("m", _load("manifest_serial.json"))])
        assert "!! attention" not in clean
        trouble = render_report([("m", _load("manifest_campaign.json"))])
        assert "!! attention" in trouble


class TestObsCli:
    def test_obs_report_subcommand(self, capsys):
        rc = obs_main(["report", str(DATA / "manifest_serial.json")])
        out = capsys.readouterr().out
        assert rc == 0
        assert "repro observability report" in out
        assert "manifest_serial.json" in out

    def test_obs_dispatch_from_main(self, capsys):
        rc = main(["obs", "report", str(DATA / "manifest_serial.json")])
        assert rc == 0
        assert "repro observability report" in capsys.readouterr().out

    def test_obs_report_missing_file_fails(self, capsys):
        rc = obs_main(["report", str(DATA / "nope.json")])
        assert rc == 2
        assert "cannot read manifest" in capsys.readouterr().err

    def test_obs_report_warns_on_invalid_manifest(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"kind": "wrong"}))
        rc = obs_main(["report", str(bad)])
        captured = capsys.readouterr()
        assert rc == 0  # still renders what it can
        assert "fails schema validation" in captured.err


class TestTelemetryEndToEnd:
    @pytest.fixture(autouse=True)
    def _cold_caches(self):
        # Earlier tests may have warmed the LRU for this figure's configs;
        # the manifest assertions below need the runs to actually execute.
        clear_caches()
        yield
        clear_caches()
        set_store(None)

    def test_cli_writes_valid_manifest_and_trace(self, tmp_path, capsys):
        manifest_path = tmp_path / "telemetry.json"
        trace_path = tmp_path / "trace.json"
        rc = main(
            [
                "--fig",
                "8",
                "--jobs",
                "1",
                "--store",
                str(tmp_path / "store"),
                "--telemetry",
                str(manifest_path),
                "--trace-out",
                str(trace_path),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "[campaign]" in out
        assert "[telemetry] manifest ->" in out

        manifest = json.loads(manifest_path.read_text())
        assert validate_manifest(manifest) == []
        assert manifest["events_executed"] > 0
        assert len(manifest["runs"]) == 2
        assert {p for p in manifest["phases"]} == {"build", "simulate", "collect"}
        assert manifest["heartbeats"]

        trace = json.loads(trace_path.read_text())
        assert trace["traceEvents"]
        phases = {ev["ph"] for ev in trace["traceEvents"]}
        assert phases <= {"X", "i", "C"}
        assert {"X", "C"} <= phases
