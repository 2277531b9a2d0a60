"""A one-round smoke run of shrunken workloads: every metric name in
``BENCHMARK.json`` is produced by some workload, none is misspelt, and the
result object has the shape a driver reads."""

import argparse
import json
import os

import pytest

import calibrate
import catalogue
import probes
import run
import workloads
from repro.units import ms

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


class TinyIncast(workloads.IncastPacket):
    VARIANTS = ("hpcc", "hpcc-vai-sf", "dcqcn")  # the fig-8 pair, and timers


class TinyFattree(workloads.FattreePacket):
    TRACE_NS = ms(0.5)
    WARMUP_NS = ms(0.2)


class TinyFlow(workloads.FattreeFlow):
    PAIR_REPEATS = 1
    BATCHES = 1
    FLOW_TRACE_NS = ms(0.5)
    HYBRID_TRACE_NS = ms(0.5)


class TinyCampaign(workloads.Campaign):
    SENDERS = (4,)
    WARM_PASSES = 2


TINY = (TinyIncast, TinyFattree, TinyFlow, TinyCampaign)


@pytest.fixture(scope="module")
def passes(tmp_path_factory):
    """A traced pass of every shrunken workload: one untraced round (whose
    end-to-end samples the pass keeps), one traced round, the probes."""
    cal = calibrate.Calibrator(pin=False)
    out = {}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(probes, "ON_ACK_COUNT", 2000)
        patch.setattr(probes, "ENGINE_EVENTS", 20_000)
        for cls in TINY:
            workload = cls(42, cal, str(tmp_path_factory.mktemp(cls.name)))
            workload.setup()
            args = argparse.Namespace(workload=cls.name, seed=42, seconds=0.0)
            out[cls.name] = (workload, run._traced_pass(workload, cal, args))
    return out


def test_every_name_is_produced_somewhere_and_none_is_unknown(passes):
    known = {m.name for m in catalogue.END_TO_END + catalogue.PER_LAYER}
    produced = set()
    for name, (workload, samples) in passes.items():
        unknown = set(samples) - known
        assert not unknown, f"{name} produced names the catalogue lacks: {unknown}"
        produced |= {metric for metric, values in samples.items() if any(values)}
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    listed = {m["name"] for m in bench["end_to_end"] + bench["per_layer"]}
    # setup_s and peak_rss_mb come from the untraced pass's wrapper (checked
    # below); no ledger config switches PFC on, so sim.pfc_s reads 0 today.
    missing = listed - produced - {"setup_s", "peak_rss_mb", "sim.pfc_s"}
    assert not missing, f"no workload produces {missing}"


def test_end_to_end_metrics_of_each_workload_are_sampled(passes):
    for name, (workload, samples) in passes.items():
        for metric in catalogue.END_TO_END:
            if name in metric.workloads and metric.name not in ("setup_s", "peak_rss_mb", "failed_frac"):
                assert samples[metric.name], (name, metric.name)
                assert all(v > 0 for v in samples[metric.name]), (name, metric.name)


def test_packet_workloads_pass_their_checks(passes):
    for name in (catalogue.INCAST_PACKET, catalogue.FATTREE_PACKET, catalogue.CAMPAIGN):
        workload = passes[name][0]
        assert workload.attempted > 0
        assert workload.failures == []


def test_interaction_table_holds_on_the_traced_pass(passes):
    def layer(name, metric):
        return catalogue.summarize(passes[name][1].get(metric) or [0.0])["median"]

    for packet in (catalogue.INCAST_PACKET, catalogue.FATTREE_PACKET):
        assert layer(packet, "cc.decision_s") > 0
        assert layer(packet, "sim.fluid.run_s") == 0 and layer(packet, "sim.fluid.relax_s") == 0
    assert layer(catalogue.FATTREE_FLOW, "sim.fluid.relax_s") > 0
    assert layer(catalogue.CAMPAIGN, "experiments.store.gets") > 0
    assert layer(catalogue.CAMPAIGN, "cc.decision_s") == 0


def test_result_object_has_the_driver_shape(passes, capsys):
    workload, traced = passes[catalogue.INCAST_PACKET]
    samples = dict(traced, setup_s=[1.0, 1.1, 1.2], peak_rss_mb=[100.0])
    emitted = [m for m in catalogue.END_TO_END if m.name in catalogue.UNIVERSAL]
    run._report_pass(workload, samples, emitted, argparse.Namespace(workload="incast_packet", seed=42, trace=0, detail=None), pinned_cpu=None)
    last = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert set(last["metrics"]) == set(catalogue.UNIVERSAL)
    assert all(v["value"] > 0 for v in last["metrics"].values())
    assert last["attempted"] >= 1 and isinstance(last["failed"], int)
