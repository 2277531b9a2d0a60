"""Variable Additive Increase (Sec. IV-A, Algorithms 1 and 2).

The mechanism exploits the paper's two observations: (1) bandwidth
allocations are unfair right after a new flow joins, and (2) a new flow
joining produces a large congestion spike on the bottleneck.  It therefore
makes the additive-increase parameter *a function of congestion*:

* **Token generation (Algorithm 1)** — once per RTT, if the maximum measured
  congestion over the RTT exceeded ``token_thresh``, mint
  ``measured_congestion / ai_div`` tokens into a bank capped at ``bank_cap``.
* **Dampener (Algorithm 1)** — to prevent the feedback loop (elevated AI →
  queues → more tokens), a dampener grows with congestion
  (``+= measured/thresh`` per congested RTT) and divides the spent tokens.
  It decays by 1 per mildly-congested RTT once the bank is empty, and resets
  to zero only when the bank is empty *and* a full RTT saw no congestion —
  at that point there is no input left in the system, so no feedback.
* **Token spending (Algorithm 2)** — each rate-update period the protocol
  takes ``min(ai_cap, bank)`` tokens out of the bank, divides by
  ``dampener / dampener_constant + 1``, floors at one token, and multiplies
  its base AI by the result.

"Congestion" is in protocol-native units: bytes of queue for HPCC
(via INT), nanoseconds of RTT for Swift.  The class is unit-agnostic.
"""

from __future__ import annotations

from dataclasses import dataclass

from .. import probe


@dataclass(frozen=True)
class VariableAIConfig:
    """Parameters for Variable AI (Sec. VI-A gives the paper's values).

    Attributes
    ----------
    token_thresh:
        Congestion level above which tokens are minted and the dampener
        grows.  Paper: the network's minimum BDP (~50 KB of queue) for HPCC;
        target delay + min-BDP delay (~target + 4 us) for Swift.
    ai_div:
        Congestion units per minted token.  Paper: 1 KB/token (HPCC),
        30 ns/token (Swift).
    bank_cap:
        Maximum tokens the bank can hold.  Paper: 1000.
    ai_cap:
        Maximum tokens spent per rate-update period.  Paper: 100.
    dampener_constant:
        Divisor scale for the dampener.  Paper: 8.
    """

    token_thresh: float
    ai_div: float
    bank_cap: float = 1000.0
    ai_cap: float = 100.0
    dampener_constant: float = 8.0

    def __post_init__(self) -> None:
        if self.token_thresh <= 0:
            raise ValueError(f"token_thresh must be positive, got {self.token_thresh}")
        if self.ai_div <= 0:
            raise ValueError(f"ai_div must be positive, got {self.ai_div}")
        if self.bank_cap < 0 or self.ai_cap <= 0:
            raise ValueError("bank_cap must be >= 0 and ai_cap > 0")
        if self.dampener_constant <= 0:
            raise ValueError("dampener_constant must be positive")


class VariableAI:
    """Token bank + dampener state machine (Algorithms 1 and 2).

    Protocol integration contract:

    * call :meth:`observe` for every congestion measurement (per ACK);
    * call :meth:`on_rtt_end` exactly once per RTT, passing whether the whole
      RTT was congestion-free in the protocol's own terms (HPCC: the
      multiplicative factor ``C = U/eta`` stayed <= 1; Swift: no delay sample
      exceeded the target);
    * call :meth:`ai_multiplier` at each rate-update period with
      ``spend=True`` to debit the bank, or ``spend=False`` to peek.
    """

    __slots__ = ("config", "ai_bank", "dampener", "_measured", "_spent_multiplier")

    def __init__(self, config: VariableAIConfig):
        self.config = config
        self.ai_bank = 0.0
        self.dampener = 0.0
        self._measured = 0.0
        # Multiplier from the most recent spend; per-ACK peeks reuse it.
        self._spent_multiplier = 1.0

    # -- Algorithm 1: token generation & dampener ----------------------------

    def observe(self, congestion: float) -> None:
        """Record one congestion measurement (tracks the max over the RTT).

        ``HpccCC.on_ack`` and ``SwiftCC.on_ack`` write this max out in place
        (it carries no hook), as they do the ``spend=False`` peek of
        :meth:`ai_multiplier`; ``tests/cc/test_on_ack_reference.py`` holds
        them to these methods.
        """
        if congestion > self._measured:
            self._measured = congestion

    @property
    def measured_congestion(self) -> float:
        """Max congestion observed since the last RTT boundary."""
        return self._measured

    def on_rtt_end(self, no_congestion: bool) -> None:
        """Run Algorithm 1 at an RTT boundary.

        Parameters
        ----------
        no_congestion:
            True iff the protocol saw *no* congestion at all during the RTT
            (a stronger statement than ``measured < token_thresh``) — the
            only condition, together with an empty bank, that resets the
            dampener to zero.
        """
        cfg = self.config
        measured = self._measured
        banked = None  # no mint this RTT (a mint the cap truncates to 0.0 is one)
        if measured > cfg.token_thresh:
            before = self.ai_bank
            self.ai_bank = min(measured / cfg.ai_div + self.ai_bank, cfg.bank_cap)
            self.dampener += measured / cfg.token_thresh
            # Banked delta, not the raw mint: the cap truncation matters.
            banked = self.ai_bank - before
        elif self.ai_bank == 0.0:
            if no_congestion:
                self.dampener = 0.0
            elif measured < cfg.token_thresh:
                self.dampener = max(self.dampener - 1.0, 0.0)
        self._measured = 0.0
        pr = probe.PROBE
        if pr is not None:
            pr.vai(self, banked, 0.0, None)

    # -- Algorithm 2: token spending ------------------------------------------

    def ai_multiplier(self, spend: bool = True) -> float:
        """Number of effective tokens for this update (>= 1).

        The protocol multiplies its base AI by this value.  With
        ``spend=True`` (a real rate-update period) the undampened token count
        is debited from the bank; with ``spend=False`` the most recently spent
        multiplier is returned unchanged, so per-ACK window recomputations
        between update periods see a consistent AI.
        """
        if not spend:
            return self._spent_multiplier
        cfg = self.config
        tokens = min(cfg.ai_cap, self.ai_bank)
        self.ai_bank = max(self.ai_bank - tokens, 0.0)
        divisor = self.dampener / cfg.dampener_constant + 1.0
        self._spent_multiplier = max(tokens / divisor, 1.0)
        pr = probe.PROBE
        if pr is not None:
            pr.vai(self, None, tokens, self._spent_multiplier)
        return self._spent_multiplier

    def reset(self) -> None:
        """Return to the initial (no tokens, no dampener) state."""
        self.ai_bank = 0.0
        self.dampener = 0.0
        self._measured = 0.0
        self._spent_multiplier = 1.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<VariableAI bank={self.ai_bank:.1f} dampener={self.dampener:.2f} "
            f"measured={self._measured:.1f}>"
        )
