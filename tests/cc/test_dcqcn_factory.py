"""Tests for DCQCN, the probabilistic gate, and the variant factory."""

import dataclasses
import random

import pytest

from repro.cc import CCEnv, DcqcnCC, HpccCC, SwiftCC, make_cc, uses_cnp, needs_red
from repro.cc.dcqcn import DcqcnConfig
from repro.cc.factory import (
    hpcc_vai_config,
    scaled_ai_rate_bps,
    swift_vai_config,
    variant_names,
)
from repro.cc.probabilistic import ProbabilisticGate
from repro.cc.swift import SwiftConfig
from repro.sim import Flow, Network
from repro.sim.packet import AckContext
from repro.units import gbps, mbps, us


def env(line=gbps(100.0), rtt=5_000.0):
    return CCEnv(
        line_rate_bps=line,
        base_rtt_ns=rtt,
        mtu_bytes=1000,
        hops=2,
        min_bdp_bytes=line / 8.0 * rtt / 1e9,
        rng=random.Random(0),
    )


class FakeSim:
    """Minimal scheduler double for DCQCN timers."""

    def __init__(self):
        self.scheduled = []

    def schedule(self, delay, fn, *args):
        self.scheduled.append((delay, fn, args))

        class Ev:
            cancelled = False

            def cancel(self):
                self.cancelled = True

        return Ev()


class FakeHost:
    def __init__(self):
        self.sim = FakeSim()


class TestDcqcn:
    def _cc(self):
        cc = DcqcnCC(env())
        cc.bind(None, FakeHost())
        cc.on_flow_start(0.0)
        return cc

    def test_starts_at_line_rate(self):
        cc = self._cc()
        assert cc.current_rate_bps == gbps(100.0)
        assert cc.pacing_rate_bps == gbps(100.0)

    def test_cnp_halves_rate_with_alpha_one(self):
        cc = self._cc()
        cc.on_cnp(0.0)
        assert cc.current_rate_bps == pytest.approx(gbps(50.0))
        assert cc.target_rate_bps == pytest.approx(gbps(100.0))

    def test_alpha_updates_on_cnp(self):
        cc = self._cc()
        g = cc.config.g
        cc.on_cnp(0.0)
        assert cc.alpha == pytest.approx((1 - g) * 1.0 + g)

    def test_alpha_decays_without_cnp(self):
        cc = self._cc()
        a0 = cc.alpha
        cc._alpha_timer()
        assert cc.alpha == pytest.approx(a0 * (1 - cc.config.g))

    def test_fast_recovery_halves_gap(self):
        cc = self._cc()
        cc.on_cnp(0.0)
        rc, rt = cc.current_rate_bps, cc.target_rate_bps
        cc._increase_timer()  # first stage: fast recovery
        assert cc.current_rate_bps == pytest.approx((rc + rt) / 2)
        assert cc.target_rate_bps == rt

    def test_additive_after_fast_recovery(self):
        cc = self._cc()
        cc.on_cnp(0.0)
        cc.on_cnp(0.0)  # second CNP pulls the target below line rate
        assert cc.target_rate_bps < gbps(100.0)
        for _ in range(cc.config.fast_recovery_stages + 1):
            cc._increase_timer()
        rt_before = cc.target_rate_bps
        cc._increase_timer()
        assert cc.target_rate_bps == pytest.approx(
            rt_before + cc.config.ai_rate_bps
        )

    def test_hyper_increase_when_both_clocks_pass(self):
        cc = self._cc()
        cc.on_cnp(0.0)
        for _ in range(cc.config.fast_recovery_stages + 1):
            cc._increase_timer()
        # Now push the byte counter past F too.
        for _ in range(cc.config.fast_recovery_stages + 1):
            cc.byte_stage += 1
        rt_before = cc.target_rate_bps
        cc._increase_timer()
        assert cc.target_rate_bps == pytest.approx(
            min(rt_before + cc.config.hai_rate_bps, gbps(100.0))
        )

    def test_rate_floor(self):
        cc = self._cc()
        for _ in range(200):
            cc.on_cnp(0.0)
        assert cc.current_rate_bps >= cc.config.min_rate_bps

    def test_rate_never_exceeds_line(self):
        cc = self._cc()
        for _ in range(100):
            cc._increase_timer()
        assert cc.current_rate_bps <= gbps(100.0)

    def test_byte_counter_triggers_stage(self):
        cc = self._cc()
        cc.on_cnp(0.0)
        ctx = AckContext(0.0, 0, int(cc.config.byte_counter_bytes), False, None, 0.0, 2)
        rc = cc.current_rate_bps
        cc.on_ack(ctx)
        assert cc.byte_stage == 1
        assert cc.current_rate_bps > rc

    def test_config_validation(self):
        with pytest.raises(ValueError):
            DcqcnConfig(g=1.5)
        with pytest.raises(ValueError):
            DcqcnConfig(fast_recovery_stages=0)


class TestProbabilisticGate:
    def test_zero_window_never_allows(self):
        gate = ProbabilisticGate(random.Random(1))
        assert not any(gate.allow(0.0, 1000.0) for _ in range(200))

    def test_full_window_always_allows(self):
        gate = ProbabilisticGate(random.Random(1))
        assert all(gate.allow(1000.0, 1000.0) for _ in range(200))

    def test_half_window_allows_about_half(self):
        gate = ProbabilisticGate(random.Random(7))
        n = 4000
        allowed = sum(gate.allow(500.0, 1000.0) for _ in range(n))
        assert allowed / n == pytest.approx(0.5, abs=0.05)

    def test_counters(self):
        gate = ProbabilisticGate(random.Random(1))
        for _ in range(100):
            gate.allow(500.0, 1000.0)
        assert gate.accepted + gate.rejected == 100


class TestFactory:
    def test_all_variants_instantiate(self):
        for name in variant_names():
            cc = make_cc(name, env())
            assert cc.window_bytes > 0

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            make_cc("reno", env())

    def test_variant_types(self):
        assert isinstance(make_cc("hpcc", env()), HpccCC)
        assert isinstance(make_cc("swift-vai-sf", env()), SwiftCC)
        assert isinstance(make_cc("dcqcn", env()), DcqcnCC)

    def test_vai_sf_wiring(self):
        cc = make_cc("hpcc-vai-sf", env())
        assert cc.vai is not None and cc.sf is not None
        assert cc.sf.interval_acks == 30
        swift = make_cc("swift-vai-sf", env())
        assert swift.vai is not None and swift.sf is not None
        assert swift.config.use_fbs is False  # Sec. VI-B-1
        assert swift.config.always_ai is True

    def test_high_ai_variant_scales(self):
        base = make_cc("hpcc", env())
        high = make_cc("hpcc-1gbps", env())
        assert high.base_ai_bytes == pytest.approx(base.base_ai_bytes * 20)

    def test_ai_scales_with_line_rate(self):
        """Scaled presets keep AI/line-rate dimensionless."""
        e100 = env(line=gbps(100.0))
        e10 = env(line=gbps(10.0))
        assert scaled_ai_rate_bps(e100, mbps(50)) == pytest.approx(mbps(50))
        assert scaled_ai_rate_bps(e10, mbps(50)) == pytest.approx(mbps(5))

    def test_hpcc_vai_config_paper_values(self):
        """At paper scale (50 KB min BDP): thresh 50 KB, 1 token/KB."""
        e = dataclasses.replace(env(), min_bdp_bytes=50_000.0)
        cfg = hpcc_vai_config(e)
        assert cfg.token_thresh == 50_000.0
        assert cfg.ai_div == pytest.approx(1_000.0)
        assert cfg.bank_cap == 1000.0 and cfg.ai_cap == 100.0

    def test_swift_vai_config_paper_values(self):
        """At paper scale (4 us BDP delay): thresh target+4 us, 30 ns/token."""
        e = dataclasses.replace(env(), min_bdp_bytes=50_000.0)  # 4 us at 100 Gbps
        scfg = SwiftConfig(use_fbs=False)
        cfg = swift_vai_config(e, scfg)
        target = us(5) + us(2) * 2
        assert cfg.token_thresh == pytest.approx(target + us(4))
        assert cfg.ai_div == pytest.approx(30.0)

    def test_cnp_and_red_flags(self):
        assert uses_cnp("dcqcn") and needs_red("dcqcn")
        assert not uses_cnp("hpcc") and not needs_red("swift")


class TestDcqcnEndToEnd:
    def test_dcqcn_flow_completes_on_network(self):
        from repro.experiments.config import red_for_rate

        net = Network()
        h0, h1 = net.add_host(), net.add_host()
        sw = net.add_switch()
        red = red_for_rate(gbps(100.0))
        net.connect(h0, sw, gbps(100.0), us(1), red=red)
        net.connect(h1, sw, gbps(100.0), us(1), red=red)
        net.build_routing()
        e = CCEnv(
            line_rate_bps=gbps(100.0),
            base_rtt_ns=net.path_rtt_ns(h0.node_id, h1.node_id),
            rng=net.rng,
        )
        flow = Flow(0, h0.node_id, h1.node_id, 1_000_000, 0.0)
        flow.use_cnp = True
        net.add_flow(flow, make_cc("dcqcn", e))
        assert net.run_until_flows_complete(timeout_ns=us(10_000))
