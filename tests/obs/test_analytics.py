"""The telemetry manifest's ``analytics`` section: each run's exact summary.

A result's ``summary()`` is read off the result itself, so its Jain index,
convergence instant and slowdown percentiles are the numbers the figures
use, not estimates of them.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.experiments.config import scaled_datacenter, scaled_incast, with_backend
from repro.experiments.runner import run_datacenter, run_incast
from repro.metrics.fct import summarize
from repro.units import ms


@pytest.mark.parametrize("backend", ["packet", "flow"])
def test_incast_summary_is_the_results_exact_series(backend):
    cfg = with_backend(scaled_incast("hpcc-vai-sf", 16), backend)
    result = run_incast(cfg)
    summary = result.summary()
    assert result.convergence_ns is not None
    assert summary["convergence_ns"] == result.convergence_ns
    assert summary["jain"] == float(result.jain_values[-1])
    assert summary["samples"] == len(result.jain_times_ns)
    assert summary["flows"] == summary["flows_completed"] == 16
    assert summary["slowdown"] is None  # an incast holds no ideal FCTs


def test_datacenter_summary_is_the_records_exact_slowdowns():
    result = run_datacenter(scaled_datacenter("hpcc", "hadoop", duration_ns=ms(0.5)))
    summary = result.summary()
    assert summary["slowdown"] == summarize(result.records)
    assert summary["slowdown"]["count"] > 0
    assert summary["flows"] == result.n_offered
    assert summary["flows_completed"] == result.n_completed
    assert summary["convergence_ns"] is None
    normalised = np.array([1.0 / r.slowdown for r in result.records])
    assert summary["jain"] == pytest.approx(
        normalised.sum() ** 2 / (len(normalised) * (normalised**2).sum())
    )


def test_analytics_section_validates_against_manifest_schema():
    jsonschema = pytest.importorskip("jsonschema")
    from repro.obs import telemetry

    incast = run_incast(scaled_incast("hpcc-vai-sf", 8))
    trace = run_datacenter(scaled_datacenter("hpcc", "hadoop", duration_ns=ms(0.5)))
    with telemetry.collecting() as collector:
        collector.record_summary("incast", "i", incast.summary())
        collector.record_summary("datacenter", "d", trace.summary())
        manifest = telemetry.build_manifest(
            collector, wall_s=0.1, events_executed=1, argv=["test"]
        )
    manifest = json.loads(json.dumps(manifest))  # disk round-trip
    schema = json.loads(
        (Path(telemetry.__file__).parent / "telemetry_schema.json").read_text()
    )
    jsonschema.Draft202012Validator(schema).validate(manifest)
    section = manifest["analytics"]
    assert section["section_version"] == telemetry.ANALYTICS_SECTION_VERSION
    assert [r["kind"] for r in section["runs"]] == ["incast", "datacenter"]
