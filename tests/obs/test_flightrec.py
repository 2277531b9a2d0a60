"""Flight recorder: FCT decomposition conservation, series, and verbs.

The recorder's contract is *exact* decomposition: every completed flow's
queueing + serialization + propagation + PFC-pause + retx-recovery +
CC-throttle components sum to its FCT within 1 ns, under clean runs and
under every fault class (drops with go-back-N recovery, link-flap
reroutes, PFC pause storms) — each fault landing in the *right*
component.  Plus the section plumbing: link utilization/queue series,
the convergence timeline, schema-valid manifests, the ``obs why`` /
``obs flows`` renderers, and the stitch-compatible rescale of the
series counters.
"""

import dataclasses
import json

from repro.cc import make_cc
from repro.check import invariants
from repro.experiments.config import FaultConfig, scaled_incast
from repro.experiments.runner import make_env, run_incast
from repro.obs import flightrec, tracer
from repro.obs.report import render_flows, render_why
from repro.obs.stitch import rescale_events
from repro.obs.telemetry import build_manifest, validate_manifest
from repro.sim.flow import Flow
from repro.sim.network import Network
from repro.sim.pfc import PfcConfig

CONSERVE_NS = flightrec.CONSERVATION_TOLERANCE_NS


def _assert_conserved(frun, n_flows):
    assert frun is not None
    assert frun["flows_completed"] == n_flows
    assert frun["conservation_failures"] == 0
    assert frun["max_residual_ns"] <= CONSERVE_NS
    for d in frun["decompositions"]:
        total = sum(d["components"].values())
        assert abs(total - d["fct_ns"]) <= CONSERVE_NS
        assert all(v >= 0.0 for v in d["components"].values())


def test_clean_incast_conserves_and_sanitizer_cross_validates():
    cfg = scaled_incast("hpcc", 8)
    with invariants.capture() as chk:
        with flightrec.capture():
            result = run_incast(cfg)
    assert result.all_completed
    _assert_conserved(result.flightrec, len(result.flows))
    # The sanitizer independently re-checked every decomposition against
    # its own shadow tallies (invariant ``flightrec-conserve``).
    assert chk.checks.get("flightrec-conserve", 0) >= len(result.flows)


def test_goback_n_drops_land_in_retx_recovery():
    cfg = dataclasses.replace(
        scaled_incast("hpcc", 8),
        faults=FaultConfig(drop_rate=0.01, seed=3),
    )
    with flightrec.capture():
        result = run_incast(cfg)
    assert result.all_completed
    assert result.fault_drops > 0
    frun = result.flightrec
    _assert_conserved(frun, len(result.flows))
    # Recovery time is attributed to the flows that actually retransmitted.
    retx_flows = [d for d in frun["decompositions"] if d["retransmits"] > 0]
    assert retx_flows
    assert all(d["components"]["retx_recovery"] > 0.0 for d in retx_flows)
    assert frun["components_total"]["retx_recovery"] > 0.0


def test_link_flap_reroute_conserves():
    cfg = dataclasses.replace(
        scaled_incast("hpcc", 8),
        faults=FaultConfig(link_flap=(50_000.0, 20_000.0)),
    )
    with flightrec.capture():
        result = run_incast(cfg)
    assert result.all_completed
    # The flap stalls in-flight packets; recovery (RTO) and the stall
    # itself must still decompose exactly, whatever mix of components
    # the reroute produces.
    _assert_conserved(result.flightrec, len(result.flows))


def test_pfc_pause_storm_lands_in_pfc_pause():
    # The selftest's dumbbell: a 10:1 rate mismatch across the switch
    # drives ingress accounting past XOFF almost immediately, so the
    # sender-side egress spends most of the run paused.
    net = Network(seed=1)
    sender = net.add_host("sender")
    receiver = net.add_host("receiver")
    sw = net.add_switch("sw")
    pfc = PfcConfig(xoff=4_000.0, xon=2_000.0)
    net.connect(sender, sw, 10e9, 1_000.0, pfc=pfc)
    net.connect(sw, receiver, 1e9, 1_000.0, pfc=pfc)
    net.build_routing()
    flow = Flow(0, sender.node_id, receiver.node_id, 200_000, 0.0)
    cc = make_cc("hpcc", make_env(net, sender.node_id, receiver.node_id))
    net.add_flow(flow, cc)

    with flightrec.capture() as rec:
        rec.begin_run("dumbbell", "pfc pause storm")
        status = net.run_until_flows_complete(timeout_ns=5_000_000.0)
        assert status.completed
        frun = rec.finalize_run()
    _assert_conserved(frun, 1)
    d = frun["decompositions"][0]
    assert d["components"]["pfc_pause"] > 0.0
    # The pause meter saw the storm on the link level too.
    paused_links = [l for l in frun["links"] if l["paused_ns"] > 0.0]
    assert paused_links
    assert all(l["pauses"] >= 1 for l in paused_links)


def test_section_links_series_and_timeline():
    cfg = scaled_incast("hpcc-vai-sf", 8)
    with flightrec.capture():
        result = run_incast(cfg)
    frun = result.flightrec
    _assert_conserved(frun, len(result.flows))
    assert frun["extent_ns"] > 0.0
    # Link parity with the fluid backend's track_link_utilization: every
    # traversed link reports bounded utilization and sampled queue depth.
    assert frun["links"]
    for link in frun["links"]:
        assert 0.0 <= link["utilization"] <= 1.0
        assert link["queue_samples"] > 0
    bottleneck = max(frun["links"], key=lambda l: l["utilization"])
    assert bottleneck["utilization"] > 0.05
    # Convergence timeline: the runner merged the Jain-series instant and
    # per-flow cumulative-bytes trajectories (monotone in t and bytes).
    timeline = frun["timeline"]
    assert timeline["convergence_ns"] == result.convergence_ns
    assert timeline["flows"]
    for entry in timeline["flows"]:
        points = entry["points"]
        assert len(points) >= 2
        assert points == sorted(points)
        assert all(b1 <= b2 for (_, b1), (_, b2) in zip(points, points[1:]))
    # Decompositions are slowdown-ranked (the runner supplies the oracle).
    slowdowns = [d["slowdown"] for d in frun["decompositions"]]
    assert all(s is not None for s in slowdowns)
    assert slowdowns == sorted(slowdowns, reverse=True)


def test_manifest_roundtrip_and_why_flows_renderers():
    cfg = scaled_incast("hpcc", 8)
    with flightrec.capture() as rec:
        result = run_incast(cfg)
        section = rec.section()
    manifest = build_manifest(
        None, wall_s=1.0, events_executed=result.events_executed,
        flightrec=section,
    )
    assert validate_manifest(manifest) == []
    manifest = json.loads(json.dumps(manifest))  # disk round-trip

    worst = result.flightrec["decompositions"][0]
    text = render_why(manifest, worst["flow_id"])
    assert text is not None
    assert f"flow {worst['flow_id']}" in text
    assert worst["dominant"] in text
    assert "residual" in text
    # The whole tail table, worst first.
    table = render_flows(manifest, top=3)
    assert table is not None
    assert table.index(f" {worst['flow_id']} ") < len(table)
    # Unknown flows and sections degrade to None, not KeyErrors.
    assert render_why(manifest, 10_000) is None
    bare = build_manifest(None, wall_s=1.0, events_executed=0)
    assert render_flows(bare) is None


def test_series_counters_ride_the_stitch_rescale():
    # finalize_run mirrors the queue/util series onto the tracer as
    # virtual-time counters; rescale_events (the stitch hook) must map
    # them into a wall-clock window order-preserved and in-bounds.
    cfg = scaled_incast("hpcc", 8)
    with flightrec.capture():
        tr = tracer.enable(capacity=500_000)
        try:
            run_incast(cfg)
            shard = json.loads(tr.to_chrome_json())
        finally:
            tracer.disable()
    counters = [
        ev for ev in shard["traceEvents"] if ev.get("cat") == "flightrec"
    ]
    assert any(ev["name"].startswith("queue ") for ev in counters)
    assert any(ev["name"].startswith("util ") for ev in counters)

    start_us, dur_us = 1_000.0, 500.0
    mapped = rescale_events(
        [ev for ev in shard["traceEvents"] if isinstance(ev, dict)],
        pid=42, start_us=start_us, dur_us=dur_us,
    )
    series = [
        ev for ev in mapped
        if ev.get("cat") == "flightrec" and ev["name"].startswith("queue ")
    ]
    assert series
    assert all(
        start_us <= ev["ts"] <= start_us + dur_us + 1e-6 for ev in series
    )
    by_name = {}
    for ev in series:
        by_name.setdefault(ev["name"], []).append(ev["ts"])
    for times in by_name.values():
        assert times == sorted(times)


def test_disabled_recorder_records_nothing():
    assert flightrec.get() is None
    result = run_incast(scaled_incast("hpcc", 8))
    assert result.flightrec is None
    assert flightrec.get() is None
