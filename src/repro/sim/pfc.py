"""Priority Flow Control (IEEE 802.1Qbb) state machines.

RDMA datacenter fabrics are lossless: when an ingress buffer fills past a
watermark the switch sends a PAUSE frame upstream, and the upstream egress
port stops transmitting until it receives a RESUME (or the pause quanta
expire).  The paper's simulations inherit this from the HPCC artifact; losses
never occur, so congestion control — not retransmission — fully determines
flow completion times.

Two small classes model the two halves:

* :class:`PfcIngress` — per-ingress-port byte accounting with XOFF/XON
  watermarks, deciding when to emit pause/resume toward the upstream node.
* :class:`PfcEgressState` — pause bookkeeping on the egress side, honoured by
  :class:`repro.sim.port.Port` when draining its queue.

The default experiment configurations size buffers so that PFC rarely fires
(matching the paper, which reports queue depths well below pause thresholds);
dedicated unit tests exercise the pause path directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .. import probe


@dataclass(frozen=True)
class PfcConfig:
    """Watermarks for PFC, in bytes of ingress occupancy.

    ``xoff`` — send PAUSE when ingress usage rises to/above this.
    ``xon`` — send RESUME when usage falls to/below this (must be < xoff).
    ``pause_quanta_ns`` — pause lifetime carried in the frame; the upstream
    port resumes on its own after this long even if no RESUME arrives
    (hardware behaviour; protects against lost control frames).
    """

    xoff: float
    xon: float
    pause_quanta_ns: float = 65_535 * 512.0  # max 802.3x quanta at 1 bit/ns

    def __post_init__(self) -> None:
        if self.xon >= self.xoff:
            raise ValueError(
                f"PFC xon ({self.xon}) must be below xoff ({self.xoff})"
            )
        if self.xoff <= 0:
            raise ValueError("PFC xoff must be positive")


class PfcIngress:
    """Ingress-side accounting for one (port, priority) pair."""

    __slots__ = ("config", "occupancy", "paused_upstream")

    def __init__(self, config: Optional[PfcConfig]):
        self.config = config
        self.occupancy = 0.0
        self.paused_upstream = False

    def on_enqueue(self, size: int) -> bool:
        """Record ``size`` bytes buffered; return True if PAUSE must be sent."""
        self.occupancy += size
        if (
            self.config is not None
            and not self.paused_upstream
            and self.occupancy >= self.config.xoff
        ):
            self.paused_upstream = True
            pr = probe.PROBE
            if pr is not None:
                pr.pfc_xoff(self.occupancy)
            return True
        return False

    def on_release(self, size: int) -> bool:
        """Record ``size`` bytes leaving the buffer; True if RESUME is due."""
        self.occupancy -= size
        if self.occupancy < 0:
            # Accounting must never go negative; clamp and surface in tests.
            # The sanitizer sees the pre-clamp value — a release exceeding
            # what was charged is a real bookkeeping bug even though the
            # clamp keeps the state machine serviceable.
            pr = probe.PROBE
            if pr is not None:
                pr.pfc_occupancy(self.occupancy)
            self.occupancy = 0.0
        if (
            self.config is not None
            and self.paused_upstream
            and self.occupancy <= self.config.xon
        ):
            self.paused_upstream = False
            pr = probe.PROBE
            if pr is not None:
                pr.pfc_xon()
            return True
        return False


class PfcEgressState:
    """Egress-side pause state honoured by the port drain loop."""

    __slots__ = ("paused_until",)

    def __init__(self) -> None:
        self.paused_until = 0.0

    def pause(self, now: float, duration_ns: float) -> None:
        """Apply a PAUSE frame received at ``now``."""
        self.paused_until = max(self.paused_until, now + duration_ns)

    def resume(self) -> None:
        """Apply a RESUME frame (clears any remaining pause)."""
        self.paused_until = 0.0

    def is_paused(self, now: float) -> bool:
        return now < self.paused_until

    def remaining(self, now: float) -> float:
        """Nanoseconds of pause left (0 if not paused)."""
        return max(0.0, self.paused_until - now)
