"""Swift: delay-based congestion control (Kumar et al., SIGCOMM 2020), with
the paper's Variable AI, Sampling Frequency, and probabilistic-feedback
extensions.

Baseline (parameters from Sec. III-D here):

* **Delay target** — ``target = base + per_hop * hops`` ("topology-based
  scaling", 5 us base + 2 us/hop in the paper) plus the flow-based-scaling
  (FBS) term, which *raises* the target for flows with small windows:
  ``clamp(alpha / sqrt(cwnd_pkts) + beta_fs, 0, fs_range)`` with
  ``alpha = fs_range / (1/sqrt(fs_min) - 1/sqrt(fs_max))`` and
  ``beta_fs = -alpha / sqrt(fs_max)``.
* **Additive increase** — per ACK, ``cwnd += ai * acked_bytes / cwnd`` (so a
  full window of ACKs adds ``ai`` bytes per RTT), applied when delay is below
  target.
* **Multiplicative decrease** — at most once per RTT (Eq. 1):
  ``mdf = max(1 - beta * (delay - target)/delay, mdf_floor)`` and
  ``cwnd *= mdf``.  With the paper's numbers ``beta = 0.8`` and a floor of
  0.5 (its "maximum mdf"), the window at most halves per decrease.

Paper extensions (Sec. V):

* **Sampling Frequency** — decreases permitted every ``s`` ACKs instead of
  once per RTT; increases unchanged.
* **Reference-rate semantics** (enabled with SF, Sec. V-B) — per-ACK
  decreases are computed *from the reference window*, which itself updates
  only on the sampling schedule, so repeated per-ACK reactions within one
  period cannot compound.
* **Always-AI** (Sec. V-B) — the additive increase is applied on every ACK
  regardless of congestion, "like in HPCC", so Variable AI tokens are always
  spent.
* **Variable AI** — tokens minted from RTT samples above
  ``target + min-BDP delay``; the dampener resets after a fully
  congestion-free RTT with an empty bank.
* The paper's Swift VAI+SF variant disables FBS (Sec. VI-B-1); the factory
  encodes that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .. import probe
from ..core.sampling_frequency import SamplingFrequency
from ..core.variable_ai import VariableAI, VariableAIConfig
from ..sim.packet import AckContext
from ..units import mbps, us
from .base import CCEnv, CongestionControl
from .probabilistic import ProbabilisticGate


@dataclass
class SwiftConfig:
    """Swift knobs; defaults are the paper's Sec. III-D settings."""

    beta: float = 0.8
    mdf_floor: float = 0.5  # paper: "maximum mdf" of 0.5 -> multiplier >= 0.5
    ai_rate_bps: float = mbps(50.0)
    base_target_ns: float = us(5.0)
    per_hop_ns: float = us(2.0)
    use_fbs: bool = True
    fs_range_ns: Optional[float] = None  # None -> 3 x base_target_ns
    fs_min_cwnd_pkts: float = 0.1
    fs_max_cwnd_pkts: float = 100.0  # paper lowers to 50 on the small topology
    sampling_acks: Optional[int] = None
    vai: Optional[VariableAIConfig] = None
    probabilistic: bool = False
    use_reference_rate: bool = False  # auto-enabled when sampling_acks is set
    always_ai: bool = False
    #: Ablation only (Sec. IV-B argues AGAINST this): apply the additive
    #: increase on the sampling schedule instead of per-RTT-scaled.  Flows
    #: with more bandwidth then increase more often, hurting fairness.
    sf_increase: bool = False

    def __post_init__(self) -> None:
        if not 0 < self.beta < 1:
            raise ValueError(f"beta must be in (0, 1), got {self.beta}")
        if not 0 < self.mdf_floor < 1:
            raise ValueError(f"mdf_floor must be in (0, 1), got {self.mdf_floor}")
        if self.fs_min_cwnd_pkts <= 0 or self.fs_max_cwnd_pkts <= self.fs_min_cwnd_pkts:
            raise ValueError("need 0 < fs_min_cwnd < fs_max_cwnd")


class SwiftCC(CongestionControl):
    """One Swift sender instance (per flow)."""

    def __init__(self, env: CCEnv, config: Optional[SwiftConfig] = None):
        super().__init__(env)
        self.config = config or SwiftConfig()
        cfg = self.config
        init = env.line_rate_window_bytes  # flows start at line rate
        self.cwnd = init
        self.reference_cwnd = init
        self.window_bytes = init
        self.pacing_rate_bps = None  # Swift is window-limited
        self.base_ai_bytes = cfg.ai_rate_bps / 8.0 * env.base_rtt_ns / 1e9
        self.last_decrease_time = -float("inf")
        self.last_rtt_seq = 0
        self._use_reference = cfg.use_reference_rate or cfg.sampling_acks is not None
        self.sf = SamplingFrequency(cfg.sampling_acks) if cfg.sampling_acks else None
        self._sf_credit = False
        self.vai = VariableAI(cfg.vai) if cfg.vai else None
        self._saw_congestion_in_rtt = False
        self._ai_multiplier = 1.0
        self.gate = ProbabilisticGate(env.rng) if cfg.probabilistic else None
        fs_range = cfg.fs_range_ns if cfg.fs_range_ns is not None else 3.0 * cfg.base_target_ns
        self._fs_range = fs_range
        self._fs_alpha = fs_range / (
            1.0 / math.sqrt(cfg.fs_min_cwnd_pkts) - 1.0 / math.sqrt(cfg.fs_max_cwnd_pkts)
        )
        self._fs_beta = -self._fs_alpha / math.sqrt(cfg.fs_max_cwnd_pkts)
        # base_target_total_ns(), constant per flow; on_ack reads it per ACK.
        self._base_target_ns = cfg.base_target_ns + cfg.per_hop_ns * env.hops
        # Introspection counters.
        self.decreases = 0
        self.increase_bytes = 0.0

    # -- target delay ----------------------------------------------------------

    def flow_scaling_ns(self, cwnd_bytes: float) -> float:
        """FBS term: extra tolerated delay for small windows (0 if disabled)."""
        if not self.config.use_fbs:
            return 0.0
        cwnd_pkts = max(cwnd_bytes / self.env.mtu_bytes, 1e-9)
        term = self._fs_alpha / math.sqrt(cwnd_pkts) + self._fs_beta
        return min(max(term, 0.0), self._fs_range)

    def target_delay_ns(self) -> float:
        """Current delay target: base + topology scaling + flow scaling."""
        cfg = self.config
        return (
            cfg.base_target_ns
            + cfg.per_hop_ns * self.env.hops
            + self.flow_scaling_ns(self.cwnd)
        )

    def base_target_total_ns(self) -> float:
        """Target without FBS — the congestion yardstick used by Variable AI."""
        cfg = self.config
        return cfg.base_target_ns + cfg.per_hop_ns * self.env.hops

    # -- main reaction ------------------------------------------------------------

    def on_ack(self, ctx: AckContext) -> None:
        # ``target_delay_ns`` (with its FBS term), ``VariableAI.observe``,
        # the additive increase and ``_clamp_window`` are written out in
        # place, operand for operand; what is still called carries a hook
        # (``sf.on_ack``) or runs at most once per RTT.
        cfg = self.config
        env = self.env
        delay = ctx.rtt
        base_target = self._base_target_ns
        if cfg.use_fbs:
            cwnd_pkts = max(self.cwnd / env.mtu_bytes, 1e-9)
            term = self._fs_alpha / math.sqrt(cwnd_pkts) + self._fs_beta
            target = base_target + min(max(term, 0.0), self._fs_range)
        else:
            target = base_target
        congested = delay > target

        rtt_boundary = ctx.ack_seq > self.last_rtt_seq
        sf_grant = self.sf is not None and self.sf.on_ack()
        if sf_grant:
            self._sf_credit = True
        vai = self.vai
        if vai is not None and delay > vai._measured:
            vai._measured = delay  # vai.observe(delay)
        if delay > base_target:
            self._saw_congestion_in_rtt = True
        if rtt_boundary:
            self._end_rtt(ctx)

        if cfg.sf_increase:
            # Ablation: full AI quantum per sampling grant.  A flow's grant
            # rate is proportional to its ACK rate, so faster flows grow
            # faster — the anti-fairness schedule the paper warns about.
            if sf_grant and (not congested or cfg.always_ai):
                self.cwnd += self._ai_multiplier * self.base_ai_bytes
        elif (not congested or cfg.always_ai) and ctx.newly_acked > 0:
            # Per-ACK scaled increase: a full window of ACKs adds `ai` per RTT.
            ai = self._ai_multiplier * self.base_ai_bytes
            denom = max(self.cwnd, env.min_window_bytes)
            delta = ai * ctx.newly_acked / denom
            self.cwnd += delta
            self.increase_bytes += delta
        if congested:
            self._multiplicative_decrease(ctx, delay, target)

        w = self.cwnd
        lo = env.min_window_bytes
        hi = env.line_rate_window_bytes
        self.window_bytes = self.cwnd = lo if w < lo else hi if w > hi else w

    def _multiplicative_decrease(self, ctx: AckContext, delay: float, target: float) -> None:
        cfg = self.config
        mdf = max(1.0 - cfg.beta * (delay - target) / delay, cfg.mdf_floor)
        if self.sf is not None:
            can = self._sf_credit
        else:
            # Once per RTT: use the measured RTT as the spacing yardstick.
            can = ctx.now - self.last_decrease_time >= ctx.rtt
        if self._use_reference:
            # Per-ACK move computed from the reference window.
            candidate = self.reference_cwnd * mdf
            if candidate < self.cwnd:
                self.cwnd = candidate
            if can:
                if self.gate is None or self.gate.allow(
                    self.reference_cwnd, self.env.line_rate_window_bytes
                ):
                    self.reference_cwnd = self._clamp_window(self.cwnd)
                    self.last_decrease_time = ctx.now
                    self.decreases += 1
                    self._record_decrease(ctx.now, mdf)
                    self._spend_vai()
                self._sf_credit = False
        else:
            if can:
                if self.gate is None or self.gate.allow(
                    self.cwnd, self.env.line_rate_window_bytes
                ):
                    self.cwnd *= mdf
                    self.last_decrease_time = ctx.now
                    self.decreases += 1
                    self._record_decrease(ctx.now, mdf)
                    self._spend_vai()
                self._sf_credit = False

    def _record_decrease(self, now: float, mdf: float) -> None:
        """Observability for one taken multiplicative decrease."""
        pr = probe.PROBE
        if pr is not None:
            pr.cc_decrease("swift", self.flow_id, now, {"mdf": mdf, "cwnd": self.cwnd})

    def _end_rtt(self, ctx: AckContext) -> None:
        self.last_rtt_seq = max(self.snd_nxt, ctx.ack_seq)
        if self.vai is not None:
            self.vai.on_rtt_end(no_congestion=not self._saw_congestion_in_rtt)
        self._saw_congestion_in_rtt = False
        self._spend_vai()
        if self._use_reference and self.cwnd > self.reference_cwnd:
            # Increases fold into the reference once per RTT.
            self.reference_cwnd = self._clamp_window(self.cwnd)

    def _spend_vai(self) -> None:
        if self.vai is not None:
            self._ai_multiplier = self.vai.ai_multiplier(spend=True)
