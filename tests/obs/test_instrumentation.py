"""Integration: instrumented layers populate the registry and tracer.

Each layer's counters are asserted from a real simulation, not from unit
pokes — a renamed or dead call site fails here.
"""

import dataclasses

import pytest

from repro.obs import registry, tracer
from repro.experiments.config import FaultConfig, scaled_incast
from repro.experiments.runner import run_incast


@pytest.fixture
def reg():
    with registry.capture() as r:
        yield r


def _counters(reg):
    return reg.snapshot()["counters"]


def test_engine_port_host_cc_counters(reg):
    result = run_incast(scaled_incast("hpcc-vai-sf", 8))
    assert result.all_completed
    c = _counters(reg)
    # Engine: per-run totals flushed at run() exit.
    assert c["engine.events_executed"] == result.events_executed
    assert c["engine.events_scheduled"] > 0
    # Port: the healthy star topology fuses host-side transmissions.
    assert c["port.fused_deliveries"] > 0
    assert c["port.unfused_deliveries"] > 0
    # Host: every flow completion counted.
    assert c["host.flows_completed"] == 8
    # CC + extension layers.
    assert c["cc.hpcc.reference_decreases"] > 0
    assert c["cc.hpcc.reference_increases"] > 0
    assert c["sf.decreases_granted"] > 0
    assert c["vai.tokens_banked"] > 0
    assert c["vai.tokens_spent"] > 0
    gauges = reg.snapshot()["gauges"]
    assert gauges["engine.heap_peak"] >= 0


def test_swift_decrease_counter(reg):
    run_incast(scaled_incast("swift", 8))
    assert _counters(reg)["cc.swift.decreases"] > 0


def test_fault_and_retransmission_counters(reg):
    cfg = dataclasses.replace(
        scaled_incast("hpcc", 8), faults=FaultConfig(drop_rate=0.001, seed=3)
    )
    run_incast(cfg)
    c = _counters(reg)
    assert c["faults.drops"] > 0
    assert c["host.retransmissions"] > 0
    assert c["host.retransmitted_bytes"] > 0


def test_link_flap_transition_counter(reg):
    cfg = dataclasses.replace(
        scaled_incast("hpcc", 8),
        faults=FaultConfig(link_flap=(50_000.0, 20_000.0)),
    )
    run_incast(cfg)
    assert _counters(reg)["faults.link_transitions"] == 2  # down + up


def test_tracer_records_flow_spans_and_cc_instants(reg):
    tr = tracer.enable(capacity=200_000)
    try:
        run_incast(scaled_incast("hpcc-vai-sf", 8))
    finally:
        tracer.disable()
    cats = {rec[2] for rec in tr.events()}
    assert "flow" in cats  # flow lifecycle spans
    assert "cc" in cats  # MD decision instants
    assert "queue" in cats  # queue high-watermark counter track
    flow_spans = [rec for rec in tr.events() if rec[2] == "flow" and rec[0] == "X"]
    assert len(flow_spans) == 8
    # Span duration equals the flow's FCT.
    for _, name, _, start_ns, dur_ns, tid, args in flow_spans:
        assert dur_ns > 0
        assert args["size_bytes"] > 0


def test_pfc_counters_fire_when_pfc_triggers(reg):
    # PFC rarely fires at default scale; use the dedicated pfc test's
    # mechanism instead: trigger the ingress state machine directly.
    from repro.sim.pfc import PfcConfig, PfcIngress

    ingress = PfcIngress(PfcConfig(xoff=100.0, xon=50.0))
    assert ingress.on_enqueue(150) is True
    assert ingress.on_release(120) is True
    c = _counters(reg)
    assert c["pfc.xoff_triggered"] == 1
    assert c["pfc.xon_triggered"] == 1
    h = reg.snapshot()["histograms"]["pfc.xoff_occupancy_bytes"]
    assert h["count"] == 1
    assert h["max"] == 150.0


def test_disabled_instrumentation_records_nothing():
    assert registry.get() is None
    result = run_incast(scaled_incast("hpcc", 8))
    assert result.all_completed
    assert registry.get() is None
