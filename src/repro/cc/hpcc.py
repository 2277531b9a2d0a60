"""HPCC: High Precision Congestion Control (Li et al., SIGCOMM 2019),
with the paper's Variable AI, Sampling Frequency, and probabilistic-feedback
extensions.

Baseline algorithm (HPCC paper, Alg. 1; parameters from Sec. III-D here —
``eta = 0.95``, ``maxStage = 5``, AI = 50 Mb/s):

* Every ACK carries per-hop INT.  ``MeasureInflight`` estimates the most
  utilized hop: ``u = qlen / (B * T) + txRate / B`` per hop, EWMA-blended
  into ``U`` with weight ``tau / T`` (``tau`` = telemetry interval, ``T`` =
  base RTT).
* ``ComputeWind``: if ``U >= eta`` or the additive-increase probation ran out
  (``incStage >= maxStage``), the window moves *multiplicatively* toward
  ``Wc / (U / eta)`` plus the additive ``W_AI``; otherwise it probes
  additively ``Wc + W_AI``.
* The **reference window** ``Wc`` updates at most once per RTT (detected by
  ``ack.seq > lastUpdateSeq``); per-ACK recomputations always start from
  ``Wc``, so reacting to many ACKs in one RTT cannot compound.

Paper extensions (all optional, default off):

* **Sampling Frequency** — reference-window *decreases* are instead permitted
  every ``s`` ACKs (30 in the paper); increases stay per-RTT (Sec. V-B).
* **Variable AI** — ``W_AI`` is scaled by the token multiplier of
  :class:`repro.core.variable_ai.VariableAI`; tokens are minted from the
  maximum INT queue depth seen over an RTT (Token_Thresh = network min BDP)
  and the dampener resets only after an RTT whose every multiplicative
  factor ``C = U / eta`` stayed <= 1 (Sec. V-A).
* **Probabilistic feedback** — reference-updating decreases are gated by
  :class:`repro.cc.probabilistic.ProbabilisticGate` (Sec. III-D).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from .. import probe
from ..core.sampling_frequency import SamplingFrequency
from ..core.variable_ai import VariableAI, VariableAIConfig
from ..sim.packet import AckContext, HopRecord
from ..units import mbps
from .base import CCEnv, CongestionControl
from .probabilistic import ProbabilisticGate


@dataclass
class HpccConfig:
    """HPCC knobs; defaults are the paper's "default HPCC"."""

    eta: float = 0.95
    max_stage: int = 5
    ai_rate_bps: float = mbps(50.0)
    sampling_acks: Optional[int] = None  # Sampling Frequency interval (None = off)
    vai: Optional[VariableAIConfig] = None  # Variable AI (None = off)
    probabilistic: bool = False

    def __post_init__(self) -> None:
        if not 0 < self.eta <= 1:
            raise ValueError(f"eta must be in (0, 1], got {self.eta}")
        if self.max_stage < 1:
            raise ValueError(f"max_stage must be >= 1, got {self.max_stage}")
        if self.ai_rate_bps < 0:
            raise ValueError("ai_rate_bps must be non-negative")


class HpccCC(CongestionControl):
    """One HPCC sender instance (per flow)."""

    def __init__(self, env: CCEnv, config: Optional[HpccConfig] = None):
        super().__init__(env)
        self.config = config or HpccConfig()
        # Windows: start at line rate (RDMA convention; HPCC's Winit).
        init = env.line_rate_window_bytes
        self.reference_window = init
        self.window_bytes = init
        self.pacing_rate_bps = env.line_rate_bps
        # W_AI in bytes: the paper expresses AI as a rate over the base RTT.
        self.base_ai_bytes = self.config.ai_rate_bps / 8.0 * env.base_rtt_ns / 1e9
        self.utilization = 0.0  # EWMA'd U
        self.inc_stage = 0
        self.last_update_seq = 0
        self._last_int: Optional[List[HopRecord]] = None
        # Extensions.
        self.sf = (
            SamplingFrequency(self.config.sampling_acks)
            if self.config.sampling_acks
            else None
        )
        self._sf_credit = False
        self.vai = VariableAI(self.config.vai) if self.config.vai else None
        self._max_c_in_rtt = 0.0
        self.gate = ProbabilisticGate(env.rng) if self.config.probabilistic else None
        # Introspection counters.
        self.reference_decreases = 0
        self.reference_increases = 0

    # -- telemetry ----------------------------------------------------------------

    def _measure_inflight(self, ctx: AckContext) -> Optional[float]:
        """HPCC's MeasureInflight: EWMA utilization of the max-utilized hop.

        Returns the updated ``U`` or None when this ACK carries no usable
        telemetry (first ACK, or path-change transient).
        """
        records = ctx.int_records
        if not records:
            return None
        prev = self._last_int
        self._last_int = records
        if prev is None or len(prev) != len(records):
            return None
        T = self.env.base_rtt_ns
        u_max = 0.0
        tau = 0.0
        for last, cur in zip(prev, records):
            bytes_per_ns = cur.rate_bps / 8.0 / 1e9
            dt = cur.ts - last.ts
            if dt > 0:
                tx_rate = (cur.tx_bytes - last.tx_bytes) / dt  # bytes/ns
                u = min(cur.qlen, last.qlen) / (bytes_per_ns * T) + tx_rate / bytes_per_ns
            else:
                u = cur.qlen / (bytes_per_ns * T)
            if u > u_max:
                u_max = u
                tau = dt
        tau = min(max(tau, 0.0), T)
        alpha = tau / T
        self.utilization = (1.0 - alpha) * self.utilization + alpha * u_max
        return self.utilization

    # -- main reaction ------------------------------------------------------------

    def on_ack(self, ctx: AckContext) -> None:
        # The per-ACK path calls only what carries a hook (``sf.on_ack``, a
        # spending ``ai_multiplier``) or real work (``_measure_inflight``):
        # ``_clamp_window``, ``VariableAI.observe`` and the non-spending
        # ``ai_multiplier`` peek are written out in place.
        cfg = self.config
        env = self.env
        sf = self.sf
        vai = self.vai
        rtt_boundary = ctx.ack_seq > self.last_update_seq
        if sf is not None and sf.on_ack():
            self._sf_credit = True

        u = self._measure_inflight(ctx)
        if u is None:
            if rtt_boundary:
                self._end_rtt(ctx)
            return

        if vai is not None and ctx.int_records:
            # vai.observe(max queue depth over the hops).
            measured = vai._measured
            for rec in ctx.int_records:
                if rec.qlen > measured:
                    measured = rec.qlen
            vai._measured = measured

        norm = u / cfg.eta  # the paper's C: > 1 means decrease
        if norm > self._max_c_in_rtt:
            self._max_c_in_rtt = norm

        lo = env.min_window_bytes
        hi = env.line_rate_window_bytes
        base_ai = self.base_ai_bytes
        multiplicative = u >= cfg.eta or self.inc_stage >= cfg.max_stage
        is_decrease = multiplicative and norm > 1.0
        # SF moves only the decrease slot; increases stay on the RTT boundary.
        update_ref = self._sf_credit if is_decrease and sf is not None else rtt_boundary
        if (
            is_decrease
            and update_ref
            and self.gate is not None
            and not self.gate.allow(self.reference_window, hi)
        ):
            # Feedback disregarded: no reaction at all this update slot.
            if sf is not None:
                self._sf_credit = False
            if rtt_boundary:
                self._end_rtt(ctx)
            return
        if vai is None:
            w_ai = base_ai
        elif update_ref:
            w_ai = vai.ai_multiplier(spend=True) * base_ai
        else:  # ai_multiplier(spend=False): the last spent multiplier
            w_ai = vai._spent_multiplier * base_ai
        if multiplicative:
            w = self.reference_window / norm + w_ai
            if update_ref:
                self.inc_stage = 0
                self.reference_window = lo if w < lo else hi if w > hi else w
                if is_decrease:
                    self.reference_decreases += 1
                    if sf is not None:
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
            w = self.reference_window + w_ai
            if update_ref:
                self.inc_stage += 1
                self.reference_window = lo if w < lo else hi if w > hi else w
                self.reference_increases += 1
                pr = probe.PROBE
                if pr is not None:
                    pr.cc_increase("hpcc", self.flow_id, ctx.now)

        self.window_bytes = w = lo if w < lo else hi if w > hi else w
        self.pacing_rate_bps = w * 8.0 / env.base_rtt_ns * 1e9
        if rtt_boundary:
            self._end_rtt(ctx)

    def _end_rtt(self, ctx: AckContext) -> None:
        """Per-RTT bookkeeping: advance the boundary, run VAI Algorithm 1."""
        self.last_update_seq = max(self.snd_nxt, ctx.ack_seq)
        if self.vai is not None:
            self.vai.on_rtt_end(no_congestion=self._max_c_in_rtt <= 1.0)
        self._max_c_in_rtt = 0.0
