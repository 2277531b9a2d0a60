"""Sampling Frequency (Sec. IV-B): ACK-counted multiplicative decreases.

Protocols like HPCC and Swift fully react to at most one congestion signal
per RTT, which destroys a natural fairness force: flows with more bandwidth
receive more ACKs and, if the protocol reacted per ACK, would decrease more
often.  Sampling Frequency restores a tunable fraction of that force: a
*decrease* of the reference rate is permitted every ``interval_acks``
acknowledgements (the paper uses 30), while *increases* remain once-per-RTT
(reacting to every ACK on increase would advantage big flows — the opposite
of the goal, Sec. IV-B).

This class is the schedule only; the reference-rate semantics (per-ACK rate
moves computed against a reference that updates per sampling period,
Sec. V-B) live in the protocol implementations.
"""

from __future__ import annotations

from .. import probe


class SamplingFrequency:
    """Counts ACKs and grants a decrease every ``interval_acks`` of them."""

    __slots__ = ("interval_acks", "_count", "decreases_granted")

    def __init__(self, interval_acks: int):
        if interval_acks < 1:
            raise ValueError(
                f"sampling interval must be >= 1 ACK, got {interval_acks}"
            )
        self.interval_acks = interval_acks
        self._count = 0
        self.decreases_granted = 0

    def on_ack(self) -> bool:
        """Record one ACK; True when a reference-rate decrease is permitted."""
        self._count += 1
        granted = self._count >= self.interval_acks
        if granted:
            self._count = 0
            self.decreases_granted += 1
        pr = probe.PROBE
        if pr is not None:
            pr.sf_ack(self, granted)
        return granted

    @property
    def acks_since_grant(self) -> int:
        return self._count

    def reset(self) -> None:
        self._count = 0
        pr = probe.PROBE
        if pr is not None:
            pr.sf_reset(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<SamplingFrequency every={self.interval_acks} acks "
            f"count={self._count} granted={self.decreases_granted}>"
        )
