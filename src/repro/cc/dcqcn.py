"""DCQCN (Zhu et al., SIGCOMM 2015): the paper's fairness reference point.

DCQCN is rate-based.  Switches RED-mark packets (probabilistically, which is
exactly the "probabilistic feedback" property Sec. III-C credits for DCQCN's
fairness); receivers convert marks into at most one CNP per 50 us; senders
react:

* **On CNP** — ``target = current``; ``current *= (1 - alpha/2)``;
  ``alpha = (1 - g) * alpha + g``; all increase state resets.
* **Alpha decay** — every ``alpha_timer_ns`` without a CNP,
  ``alpha *= (1 - g)``.
* **Rate increase** — two independent clocks (a timer and a byte counter)
  each count stages since the last decrease; per increase event:
  fast recovery (``current = (target + current)/2``) while
  ``max(stages) < F``; additive (``target += R_AI``) while
  ``min(stages) <= F``; hyper (``target += R_HAI``) beyond that.

The byte counter is driven from acknowledged bytes (equal to sent bytes in
steady state; the sender-side simulator exposes ACKs, not NIC egress — noted
in DESIGN.md).  DCQCN uses no window: the flow is purely paced, and
``window_bytes`` is set effectively unbounded.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..sim.packet import AckContext
from ..units import mbps, us
from .base import CCEnv, CongestionControl


@dataclass
class DcqcnConfig:
    """DCQCN parameters (defaults follow the DCQCN paper / common practice)."""

    g: float = 1.0 / 16.0
    alpha_timer_ns: float = us(55.0)
    increase_timer_ns: float = us(55.0)
    byte_counter_bytes: float = 10_000_000.0
    fast_recovery_stages: int = 5  # F
    ai_rate_bps: float = mbps(40.0)
    hai_rate_bps: float = mbps(1000.0)
    min_rate_bps: float = mbps(10.0)

    def __post_init__(self) -> None:
        if not 0 < self.g < 1:
            raise ValueError(f"g must be in (0, 1), got {self.g}")
        if self.fast_recovery_stages < 1:
            raise ValueError("fast_recovery_stages must be >= 1")


class DcqcnCC(CongestionControl):
    """One DCQCN reaction-point instance (per flow)."""

    def __init__(self, env: CCEnv, config: Optional[DcqcnConfig] = None):
        super().__init__(env)
        self.config = config or DcqcnConfig()
        self.current_rate_bps = env.line_rate_bps  # RC: start at line rate
        self.target_rate_bps = env.line_rate_bps  # RT
        self.alpha = 1.0
        self.pacing_rate_bps = self.current_rate_bps
        self.window_bytes = float("inf")  # purely rate-based
        self.timer_stage = 0
        self.byte_stage = 0
        self._bytes_since_stage = 0.0
        self._cnp_since_alpha_timer = False
        self._alpha_event = None
        self._increase_event = None
        self._sim = None  # the host's Simulator, set by bind()
        self.cnps_received = 0

    # -- lifecycle ---------------------------------------------------------------

    def on_flow_start(self, now: float) -> None:
        self._arm_timers()

    def bind(self, sender_state, host) -> None:
        super().bind(sender_state, host)
        self._sim = host.sim if host is not None else None

    def _arm_timers(self) -> None:
        sim = self._sim
        if sim is None:
            raise RuntimeError("DCQCN needs bind() before timers can run")
        cfg = self.config
        self._cancel(self._alpha_event)
        self._cancel(self._increase_event)
        self._alpha_event = sim.schedule(cfg.alpha_timer_ns, self._alpha_timer)
        self._increase_event = sim.schedule(cfg.increase_timer_ns, self._increase_timer)

    @staticmethod
    def _cancel(event) -> None:
        if event is not None:
            event.cancel()

    # -- decrease ------------------------------------------------------------------

    def on_cnp(self, now: float) -> None:
        cfg = self.config
        self.cnps_received += 1
        self.target_rate_bps = self.current_rate_bps
        self.current_rate_bps = max(
            self.current_rate_bps * (1.0 - self.alpha / 2.0), cfg.min_rate_bps
        )
        self.alpha = (1.0 - cfg.g) * self.alpha + cfg.g
        self._cnp_since_alpha_timer = True
        self.timer_stage = 0
        self.byte_stage = 0
        self._bytes_since_stage = 0.0
        self.pacing_rate_bps = self.current_rate_bps
        self._arm_timers()

    # -- increase --------------------------------------------------------------------

    def _alpha_timer(self) -> None:
        cfg = self.config
        if not self._cnp_since_alpha_timer:
            self.alpha = (1.0 - cfg.g) * self.alpha
        self._cnp_since_alpha_timer = False
        self._alpha_event = self._sim.schedule(cfg.alpha_timer_ns, self._alpha_timer)

    def _increase_timer(self) -> None:
        self.timer_stage += 1
        self._increase_event = self._sim.schedule(
            self.config.increase_timer_ns, self._increase_timer
        )
        self._apply_increase()

    def on_ack(self, ctx: AckContext) -> None:
        self._bytes_since_stage += ctx.newly_acked
        if self._bytes_since_stage >= self.config.byte_counter_bytes:
            self._bytes_since_stage -= self.config.byte_counter_bytes
            self.byte_stage += 1
            self._apply_increase()

    def _apply_increase(self) -> None:
        cfg = self.config
        line = self.env.line_rate_bps
        lo, hi = self.timer_stage, self.byte_stage
        if hi < lo:
            lo, hi = hi, lo
        if lo > cfg.fast_recovery_stages:
            self.target_rate_bps = min(self.target_rate_bps + cfg.hai_rate_bps, line)
        elif hi > cfg.fast_recovery_stages:
            self.target_rate_bps = min(self.target_rate_bps + cfg.ai_rate_bps, line)
        # Fast recovery: target unchanged; current halves the gap each event.
        self.current_rate_bps = min(
            (self.target_rate_bps + self.current_rate_bps) / 2.0, line
        )
        self.pacing_rate_bps = self.current_rate_bps
