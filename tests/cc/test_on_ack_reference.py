"""The per-ACK paths of HPCC, Swift and DCQCN against their helper-calling forms.

``HpccCC.on_ack`` and ``SwiftCC.on_ack`` write their one-expression helpers
out in place (``_clamp_window``, ``VariableAI.observe``, the non-spending
``ai_multiplier`` peek, Swift's ``target_delay_ns`` /
``flow_scaling_ns`` / ``base_target_total_ns`` and its additive increase).
The reference subclasses below are those methods as they read before that
(PR 13's parent), calling every helper; production and reference replay the
same seeded ACK stream and must agree bit for bit (``==``, never ``approx``)
after every ACK, in every field either of them writes.
"""

from __future__ import annotations

import dataclasses
import random
from types import SimpleNamespace
from typing import Any, Dict, List

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import probe
from repro.cc import CCEnv, make_cc
from repro.cc.dcqcn import DcqcnCC
from repro.cc.hpcc import HpccCC
from repro.cc.swift import SwiftCC
from repro.sim.packet import AckContext, HopRecord
from repro.units import gbps, us

LINE_RATE = gbps(100.0)
MTU = 1000
WIRE_BYTES = 1048.0
ACKS = 4000
PHASE_ACKS = 250


class ReferenceHpccCC(HpccCC):
    """``on_ack`` / ``_current_ai_bytes`` of the parent commit, helpers called."""

    def on_ack(self, ctx: AckContext) -> None:
        cfg = self.config
        rtt_boundary = ctx.ack_seq > self.last_update_seq
        if self.sf is not None and self.sf.on_ack():
            self._sf_credit = True

        u = self._measure_inflight(ctx)
        if u is None:
            if rtt_boundary:
                self._end_rtt(ctx)
            return

        if self.vai is not None and ctx.int_records:
            self.vai.observe(max(rec.qlen for rec in ctx.int_records))

        norm = u / cfg.eta
        if norm > self._max_c_in_rtt:
            self._max_c_in_rtt = norm

        if u >= cfg.eta or self.inc_stage >= cfg.max_stage:
            is_decrease = norm > 1.0
            if is_decrease:
                update_ref = self._sf_credit if self.sf is not None else rtt_boundary
            else:
                update_ref = rtt_boundary
            if (
                is_decrease
                and update_ref
                and self.gate is not None
                and not self.gate.allow(
                    self.reference_window, self.env.line_rate_window_bytes
                )
            ):
                if is_decrease and self.sf is not None:
                    self._sf_credit = False
                if rtt_boundary:
                    self._end_rtt(ctx)
                return
            w_ai = self._current_ai_bytes(spend=update_ref)
            w = self.reference_window / norm + w_ai
            if update_ref:
                self.inc_stage = 0
                self.reference_window = self._clamp_window(w)
                if is_decrease:
                    self.reference_decreases += 1
                    if self.sf is not None:
                        self._sf_credit = False
                    pr = probe.PROBE
                    if pr is not None:
                        pr.cc_decrease(
                            "hpcc",
                            self.flow_id,
                            ctx.now,
                            {"norm": norm, "ref_window": self.reference_window},
                        )
                else:
                    self.reference_increases += 1
                    pr = probe.PROBE
                    if pr is not None:
                        pr.cc_increase("hpcc", self.flow_id, ctx.now)
        else:
            update_ref = rtt_boundary
            w_ai = self._current_ai_bytes(spend=update_ref)
            w = self.reference_window + w_ai
            if update_ref:
                self.inc_stage += 1
                self.reference_window = self._clamp_window(w)
                self.reference_increases += 1
                pr = probe.PROBE
                if pr is not None:
                    pr.cc_increase("hpcc", self.flow_id, ctx.now)

        self.window_bytes = self._clamp_window(w)
        self.pacing_rate_bps = self.window_bytes * 8.0 / self.env.base_rtt_ns * 1e9
        if rtt_boundary:
            self._end_rtt(ctx)

    def _current_ai_bytes(self, spend: bool) -> float:
        if self.vai is None:
            return self.base_ai_bytes
        return self.vai.ai_multiplier(spend=spend) * self.base_ai_bytes


class ReferenceSwiftCC(SwiftCC):
    """``on_ack`` / ``_additive_increase`` of the parent commit."""

    def on_ack(self, ctx: AckContext) -> None:
        cfg = self.config
        delay = ctx.rtt
        target = self.target_delay_ns()
        congested = delay > target

        rtt_boundary = ctx.ack_seq > self.last_rtt_seq
        sf_grant = self.sf is not None and self.sf.on_ack()
        if sf_grant:
            self._sf_credit = True
        if self.vai is not None:
            self.vai.observe(delay)
        if delay > self.base_target_total_ns():
            self._saw_congestion_in_rtt = True
        if rtt_boundary:
            self._end_rtt(ctx)

        if cfg.sf_increase:
            if sf_grant and (not congested or cfg.always_ai):
                self.cwnd += self._ai_multiplier * self.base_ai_bytes
        elif not congested or cfg.always_ai:
            self._additive_increase(ctx.newly_acked)
        if congested:
            self._multiplicative_decrease(ctx, delay, target)

        self.window_bytes = self._clamp_window(self.cwnd)
        self.cwnd = self.window_bytes

    def _additive_increase(self, newly_acked: int) -> None:
        if newly_acked <= 0:
            return
        ai = self._ai_multiplier * self.base_ai_bytes
        denom = max(self.cwnd, float(self.env.mtu_bytes))
        delta = ai * newly_acked / denom
        self.cwnd += delta
        self.increase_bytes += delta


REFERENCE = {HpccCC: ReferenceHpccCC, SwiftCC: ReferenceSwiftCC}

VARIANTS = (
    "hpcc", "hpcc-vai-sf", "hpcc-vai", "hpcc-sf", "hpcc-prob",
    "swift", "swift-vai-sf", "swift-vai", "swift-sf", "swift-prob",
)


def _env(hops: int) -> CCEnv:
    base_rtt = us(2.0) * hops
    return CCEnv(
        line_rate_bps=LINE_RATE,
        base_rtt_ns=base_rtt,
        mtu_bytes=MTU,
        hops=hops,
        min_bdp_bytes=LINE_RATE / 8.0 / 1e9 * base_rtt,
        rng=random.Random(0),
    )


def _ack_stream(seed: int, hops: int, count: int) -> List[AckContext]:
    """Line-rate ACKs over per-hop queues that alternately build and drain.

    Every ``PHASE_ACKS`` ACKs the queues' random walk flips its drift, between
    empty and 4 BDP in total, so every variant sees uncongested stretches
    (increase branches, upper clamp) and deep queues (decrease branches,
    lower clamp); a few ACKs are duplicates (``newly_acked == 0``).
    """
    rng = random.Random(seed)
    base_rtt = us(2.0) * hops
    bytes_per_ns = LINE_RATE / 8.0 / 1e9
    bdp = bytes_per_ns * base_rtt
    cap = 4.0 * bdp / hops
    gap = WIRE_BYTES / bytes_per_ns
    qlens = [0.0] * hops
    tx = [0.0] * hops
    now = base_rtt
    seq = 0
    out = []
    for i in range(count):
        drift = 0.03 if (i // PHASE_ACKS) % 2 else -0.03
        now += gap * rng.uniform(0.8, 1.4)
        newly = 0 if rng.random() < 0.02 else MTU
        seq += newly
        records = []
        queueing = 0.0
        for h in range(hops):
            step = (drift + rng.uniform(-0.06, 0.06)) * cap
            qlens[h] = min(max(qlens[h] + step, 0.0), cap)
            tx[h] += WIRE_BYTES
            queueing += qlens[h] / bytes_per_ns
            records.append(HopRecord(qlens[h], tx[h], now - base_rtt / 2.0, LINE_RATE))
        out.append(AckContext(now, seq, newly, False, records, base_rtt + queueing, hops))
    return out


def _state(cc: Any) -> Dict[str, Any]:
    """Every scalar the CC (and its VAI / SF / gate RNG) holds."""
    seen = {
        k: v for k, v in vars(cc).items()
        if k not in ("env", "config", "_sender", "_host", "vai", "sf", "gate", "_last_int")
    }
    if cc.vai is not None:
        seen.update({f"vai.{slot}": getattr(cc.vai, slot) for slot in cc.vai.__slots__})
    if cc.sf is not None:
        seen.update({f"sf.{slot}": getattr(cc.sf, slot) for slot in cc.sf.__slots__})
    seen["rng"] = cc.env.rng.getstate()
    return seen


def _replay_both(variant: str, hops: int, *, bound: bool):
    """Feed one stream to production and reference; ``==`` after every ACK."""
    ours = make_cc(variant, _env(hops), fs_max_cwnd_pkts=50.0)
    reference = REFERENCE[type(ours)](_env(hops), ours.config)
    senders = []
    for cc in (ours, reference):
        sender = SimpleNamespace(next_seq=0, flow=SimpleNamespace(flow_id=0))
        if bound:
            cc.bind(sender, None)
        senders.append(sender)
    windows = set()
    for i, ctx in enumerate(_ack_stream(7, hops, ACKS)):
        for cc, sender in zip((ours, reference), senders):
            sender.next_seq = ctx.ack_seq + int(cc.window_bytes)
            cc.on_ack(ctx)
        assert _state(ours) == _state(reference), f"diverged at ACK {i}"
        windows.add(ours.window_bytes)
    return ours, windows


@pytest.mark.parametrize("hops", (1, 5))
@pytest.mark.parametrize("variant", VARIANTS)
def test_on_ack_matches_helper_calling_reference(variant: str, hops: int) -> None:
    ours, windows = _replay_both(variant, hops, bound=True)
    # The stream must take both directions and reach both clamp bounds
    # (Swift's FBS lifts the target under small windows, off the lower one).
    if isinstance(ours, HpccCC):
        assert ours.reference_decreases > 0 and ours.reference_increases > 0
    else:
        assert ours.decreases > 0 and ours.increase_bytes > 0.0
    assert ours.env.line_rate_window_bytes in windows
    if not getattr(ours.config, "use_fbs", False):
        assert ours.env.min_window_bytes in windows


@pytest.mark.parametrize("variant", ("hpcc-vai-sf", "swift-vai-sf"))
def test_unbound_cc_matches_reference(variant: str) -> None:
    """Unit tests and the ledger probe drive CCs that were never bound."""
    _replay_both(variant, 1, bound=False)


@given(
    timer_stage=st.integers(0, 12),
    byte_stage=st.integers(0, 12),
    target=st.floats(1e7, 1e11),
    current=st.floats(1e7, 1e11),
)
def test_dcqcn_stage_ordering_matches_sorted(timer_stage, byte_stage, target, current) -> None:
    cc = DcqcnCC(_env(1))
    cc.timer_stage, cc.byte_stage = timer_stage, byte_stage
    cc.target_rate_bps, cc.current_rate_bps = target, current
    cc._apply_increase()

    cfg, line = cc.config, cc.env.line_rate_bps
    lo, hi = sorted((timer_stage, byte_stage))
    if lo > cfg.fast_recovery_stages:
        target = min(target + cfg.hai_rate_bps, line)
    elif hi > cfg.fast_recovery_stages:
        target = min(target + cfg.ai_rate_bps, line)
    assert cc.target_rate_bps == target
    assert cc.current_rate_bps == min((target + current) / 2.0, line)
    assert cc.pacing_rate_bps == cc.current_rate_bps


def test_env_clamp_bounds_cannot_go_stale() -> None:
    """The cached bounds follow the fields: an env is frozen, a copy recomputes."""
    env = _env(1)
    with pytest.raises(dataclasses.FrozenInstanceError):
        env.base_rtt_ns = 2 * env.base_rtt_ns
    copy = dataclasses.replace(env, base_rtt_ns=2 * env.base_rtt_ns, mtu_bytes=1500)
    assert copy.line_rate_window_bytes == copy.line_rate_bps / 8.0 * copy.base_rtt_ns / 1e9
    assert copy.line_rate_window_bytes != env.line_rate_window_bytes
    assert copy.min_window_bytes == 1500.0
