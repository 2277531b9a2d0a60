"""Backend selection: config field, cache keying, dispatch, determinism."""

import numpy as np
import pytest

from repro.experiments.config import (
    BACKENDS,
    DatacenterConfig,
    IncastConfig,
    apply_default_backend,
    get_default_backend,
    scaled_datacenter,
    scaled_incast,
    set_default_backend,
    with_backend,
)
from repro.experiments.runner import (
    DatacenterResult,
    IncastResult,
    clear_caches,
    run_datacenter,
    run_incast,
    run_incast_cached,
)
from repro.experiments.store import ResultStore


@pytest.fixture(autouse=True)
def _reset_backend_default():
    yield
    set_default_backend("packet")
    clear_caches()


def _small_incast(variant="hpcc-vai-sf", **kwargs):
    return scaled_incast(variant).__class__(
        variant=variant,
        n_senders=4,
        flow_size_bytes=100_000,
        timeout_ns=5e6,
        **kwargs,
    )


class TestBackendField:
    def test_default_is_packet(self):
        assert scaled_incast("hpcc").backend == "packet"
        assert scaled_datacenter("hpcc").backend == "packet"

    def test_invalid_backend_rejected(self):
        with pytest.raises(ValueError, match="backend"):
            IncastConfig(variant="hpcc", backend="quantum")
        with pytest.raises(ValueError, match="backend"):
            DatacenterConfig(variant="hpcc", backend="")
        with pytest.raises(ValueError, match="backend"):
            with_backend(scaled_incast("hpcc"), "nope")

    def test_with_backend_covers_all_backends(self):
        for backend in BACKENDS:
            cfg = with_backend(scaled_incast("hpcc"), backend)
            assert cfg.backend == backend

    def test_describe_tags_non_packet_backends_only(self):
        cfg = scaled_incast("hpcc")
        assert "[" not in cfg.describe()
        assert "[flow]" in with_backend(cfg, "flow").describe()
        assert "[hybrid]" in with_backend(scaled_datacenter("hpcc"), "hybrid").describe()


class TestCacheKeying:
    def test_backends_never_collide(self):
        """Satellite regression: packet and flow results key separately."""
        packet = scaled_incast("hpcc")
        flow = with_backend(packet, "flow")
        hybrid = with_backend(packet, "hybrid")
        keys = {packet.cache_key(), flow.cache_key(), hybrid.cache_key()}
        assert len(keys) == 3

    def test_packet_key_unchanged_by_field_addition(self):
        """backend='packet' is the default, so it never renders into the
        canonical repr — pre-existing packet store entries stay valid."""
        from repro.experiments.store import canonical_config_repr

        assert "backend" not in canonical_config_repr(scaled_incast("hpcc"))
        assert "backend='flow'" in canonical_config_repr(
            with_backend(scaled_incast("hpcc"), "flow")
        )

    def test_store_paths_distinct_and_named(self, tmp_path):
        store = ResultStore(tmp_path)
        packet = scaled_incast("hpcc")
        flow = with_backend(packet, "flow")
        p_path, f_path = store.path_for(packet), store.path_for(flow)
        assert p_path != f_path
        assert "packet" in p_path.name
        assert "flow" in f_path.name

    def test_store_entries_do_not_alias(self, tmp_path):
        store = ResultStore(tmp_path)
        packet = scaled_incast("hpcc")
        flow = with_backend(packet, "flow")
        store.put(packet, "packet-result")
        store.put(flow, "flow-result")
        assert store.get(packet) == "packet-result"
        assert store.get(flow) == "flow-result"


class TestDefaultBackend:
    def test_default_backend_roundtrip(self):
        assert get_default_backend() == "packet"
        set_default_backend("flow")
        assert get_default_backend() == "flow"

    def test_apply_rewrites_packet_default_only(self):
        cfg = scaled_incast("hpcc")
        hybrid = with_backend(cfg, "hybrid")
        set_default_backend("flow")
        assert apply_default_backend(cfg).backend == "flow"
        assert apply_default_backend(hybrid).backend == "hybrid"
        set_default_backend("packet")
        assert apply_default_backend(cfg) is cfg

    def test_cached_runner_honors_process_default(self):
        """A packet-spelled config runs (and caches) as flow under the
        process default — the CLI --backend path for figure functions."""
        set_default_backend("flow")
        cfg = _small_incast()
        result = run_incast_cached(cfg)
        assert result.config.backend == "flow"
        # The cache hit keys under the *flow* spelling.
        again = run_incast_cached(with_backend(cfg, "flow"))
        assert again is result


class TestDispatch:
    def test_flow_incast_returns_same_result_type(self):
        result = run_incast(with_backend(_small_incast(), "flow"))
        assert isinstance(result, IncastResult)
        assert result.all_completed
        assert result.events_executed > 0
        assert isinstance(result.jain_times_ns, np.ndarray)
        assert isinstance(result.jain_values, np.ndarray)
        assert isinstance(result.queue_values_bytes, np.ndarray)
        assert all(f.completed for f in result.flows)

    def test_flow_fcts_are_at_least_ideal(self):
        result = run_incast(with_backend(_small_incast(), "flow"))
        from repro.metrics.fct import ideal_fct_ns

        # Recompute ideals on a fresh identical topology.
        from repro.topology.star import build_star

        cfg = result.config
        topo = build_star(
            cfg.n_senders,
            rate_bps=cfg.rate_bps,
            prop_delay_ns=cfg.prop_delay_ns,
            seed=cfg.seed,
        )
        for f in result.flows:
            ideal = ideal_fct_ns(topo.network, f.src, f.dst, f.size)
            assert f.fct >= ideal * (1 - 1e-9)

    def test_flow_datacenter_returns_same_result_type(self):
        cfg = with_backend(scaled_datacenter("hpcc", duration_ns=5e5), "flow")
        result = run_datacenter(cfg)
        assert isinstance(result, DatacenterResult)
        assert result.n_offered > 0
        assert result.n_completed == result.n_offered
        assert result.drops == 0
        assert all(r.slowdown >= 1 - 1e-9 for r in result.records)

    def test_hybrid_datacenter_merges_both_halves(self):
        cfg = with_backend(scaled_datacenter("hpcc", duration_ns=5e5), "hybrid")
        result = run_datacenter(cfg)
        assert isinstance(result, DatacenterResult)
        assert result.n_offered > 0
        sizes = [r.size_bytes for r in result.records]
        assert any(s <= cfg.hybrid_packet_max_bytes for s in sizes)
        assert any(s > cfg.hybrid_packet_max_bytes for s in sizes)

    def test_flow_rejects_packet_faults(self):
        from repro.experiments.config import FaultConfig

        cfg = with_backend(
            _small_incast(faults=FaultConfig(drop_rate=0.01)), "flow"
        )
        with pytest.raises(ValueError, match="packet-level faults"):
            run_incast(cfg)

    def test_flow_supports_link_flaps(self):
        from repro.experiments.config import FaultConfig

        healthy = with_backend(_small_incast(), "flow")
        flapped = with_backend(
            _small_incast(faults=FaultConfig(link_flap=(5_000.0, 50_000.0))),
            "flow",
        )
        res_h = run_incast(healthy)
        res_f = run_incast(flapped)
        assert res_f.all_completed
        assert max(f.fct for f in res_f.flows) > max(f.fct for f in res_h.flows)

    def test_hybrid_rejects_faults(self):
        from repro.experiments.config import FaultConfig

        cfg = with_backend(
            scaled_datacenter("hpcc", duration_ns=5e5), "hybrid"
        )
        cfg = cfg.__class__(**{**cfg.__dict__, "faults": FaultConfig(drop_rate=0.01)})
        with pytest.raises(ValueError, match="hybrid"):
            run_datacenter(cfg)


class TestDeterminism:
    def test_flow_backend_is_deterministic(self):
        cfg = with_backend(_small_incast(), "flow")
        first = run_incast(cfg)
        second = run_incast(cfg)
        assert [f.fct for f in first.flows] == [f.fct for f in second.flows]
        assert np.array_equal(first.jain_values, second.jain_values)
        assert np.array_equal(first.queue_values_bytes, second.queue_values_bytes)

    def test_flow_datacenter_is_deterministic(self):
        cfg = with_backend(scaled_datacenter("hpcc", duration_ns=5e5), "flow")
        first = run_datacenter(cfg)
        second = run_datacenter(cfg)
        assert [(r.size_bytes, r.fct_ns) for r in first.records] == [
            (r.size_bytes, r.fct_ns) for r in second.records
        ]
