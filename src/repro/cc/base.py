"""Congestion-control interface and shared environment description.

A :class:`CongestionControl` instance is created per flow and attached to the
sender.  The substrate drives it through three callbacks (`on_flow_start`,
`on_ack`, `on_cnp`) and reads back two knobs:

* :attr:`window_bytes` — maximum bytes in flight;
* :attr:`pacing_rate_bps` — optional packet pacing rate (None = unpaced,
  window-limited only).

:class:`CCEnv` captures everything a protocol needs to know about where its
flow runs (line rate, base RTT, hop count, minimum BDP) — the experiment
runner computes it from the topology so protocol code never touches the
network objects.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Optional

from ..sim.packet import AckContext


@dataclass(frozen=True)
class CCEnv:
    """Per-flow environment facts used to parameterize protocols.

    Attributes
    ----------
    line_rate_bps:
        The sender NIC's line rate; new flows start at this rate (RDMA
        convention the paper builds on).
    base_rtt_ns:
        Unloaded round-trip estimate for the flow's path.
    mtu_bytes:
        Payload bytes per full packet.
    hops:
        Switch egress hops on the forward path (for Swift's topology-based
        target scaling).
    min_bdp_bytes:
        The network's minimum bandwidth-delay product — VAI's Token_Thresh
        for HPCC.
    rng:
        Seeded RNG (probabilistic feedback variants).

    An env is frozen (envs are shared between flows of one host pair; use
    :func:`dataclasses.replace` for a variant), which is what lets
    ``__post_init__`` derive the two window clamp bounds every per-ACK path
    reads:

    line_rate_window_bytes:
        Line-rate BDP: the window that fills the path at line rate.
    min_window_bytes:
        One packet, ``float(mtu_bytes)``.
    """

    line_rate_bps: float
    base_rtt_ns: float
    mtu_bytes: int = 1000
    hops: int = 2
    min_bdp_bytes: float = 0.0
    rng: random.Random = field(default_factory=lambda: random.Random(0))
    line_rate_window_bytes: float = field(init=False, repr=False, compare=False)
    min_window_bytes: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.line_rate_bps <= 0:
            raise ValueError("line_rate_bps must be positive")
        if self.base_rtt_ns <= 0:
            raise ValueError("base_rtt_ns must be positive")
        if self.mtu_bytes <= 0:
            raise ValueError("mtu_bytes must be positive")
        object.__setattr__(
            self,
            "line_rate_window_bytes",
            self.line_rate_bps / 8.0 * self.base_rtt_ns / 1e9,
        )
        object.__setattr__(self, "min_window_bytes", float(self.mtu_bytes))


class CongestionControl(ABC):
    """Sender-side congestion control for one flow."""

    def __init__(self, env: CCEnv):
        self.env = env
        self.window_bytes: float = env.line_rate_window_bytes
        self.pacing_rate_bps: Optional[float] = None
        self._sender = None  # SenderState, set by bind()
        self._host = None  # Host, set by bind()

    def bind(self, sender_state, host) -> None:
        """Attach the sender-side state and host (called by the substrate).

        Protocols use the sender's ``next_seq`` to detect per-RTT update
        boundaries exactly as the HPCC pseudocode does (``lastUpdateSeq =
        snd_nxt``), and the host's simulator for protocol timers (DCQCN).
        """
        self._sender = sender_state
        self._host = host

    def unbind(self) -> None:
        """The flow completed and the substrate dropped its sender state."""
        self._sender = None

    @property
    def snd_nxt(self) -> int:
        """The sender's next unsent sequence number (0 before binding)."""
        return self._sender.next_seq if self._sender is not None else 0

    @property
    def flow_id(self) -> int:
        """The bound flow's id (-1 before binding; used as a trace label)."""
        return self._sender.flow.flow_id if self._sender is not None else -1

    def on_flow_start(self, now: float) -> None:
        """Called when the flow begins transmitting (default: nothing)."""

    @abstractmethod
    def on_ack(self, ctx: AckContext) -> None:
        """React to one acknowledgement."""

    def on_cnp(self, now: float) -> None:
        """React to a DCQCN congestion-notification packet (default: no-op)."""

    def on_timeout(self, now: float) -> None:
        """React to a sender retransmission timeout (default: no-op).

        Only invoked when the host has loss recovery enabled (faulty-fabric
        experiments).  The substrate already applies go-back-N with
        exponential RTO backoff; protocols may additionally cut their
        window/rate here.  The default leaves the window untouched so that
        the paper's protocols behave identically on the lossless fabric.
        """

    # -- shared helpers ---------------------------------------------------------

    def _clamp_window(self, w: float) -> float:
        """Clamp a window to [one packet, line-rate BDP].

        HPCC and Swift repeat these two compares inline in ``on_ack``.
        """
        lo = self.env.min_window_bytes
        hi = self.env.line_rate_window_bytes
        if w < lo:
            return lo
        if w > hi:
            return hi
        return w

    @property
    def rate_estimate_bps(self) -> float:
        """Window expressed as a rate over the base RTT (for monitoring)."""
        return self.window_bytes * 8.0 / self.env.base_rtt_ns * 1e9
