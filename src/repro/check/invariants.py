"""Runtime invariant checking for the simulator (the sanitizer core).

The paper's claims rest on the simulator honoring physical invariants that
unit tests only spot-check: a lossless fabric under PFC, conserved bytes in
every queue, FIFO service order, causal event ordering, and the bounded
state machines of the paper's own mechanisms (VAI token bank, SF decrease
cadence).  After the hot-path rewrites (fused delivery, lazy-cancel
compaction) a latent break in any of these would silently skew every
figure.  This module makes such breaks loud.

The checker is one of the planes of :mod:`repro.probe`: the simulator
raises typed events through ``probe.PROBE`` and every ``on_<event>`` method
below subscribes to the event of that name, with that event's arguments.
Disabled checking costs the site its one ``PROBE is None`` test, and an
enabled checker only *reads* simulation state — it never schedules events
or draws random numbers, so sanitized runs are byte-identical to bare ones
(``tests/check/test_sanitize_identity.py``).

A breach raises :class:`InvariantViolation` immediately, carrying the
invariant name, the simulated time, and the replay context (config
description, content digest, seed) installed by the experiment runner via
:meth:`InvariantChecker.begin_run`.

Invariant catalog (names appear in violation messages and summaries):

========================  ===================================================
``event-time-monotonic``  the engine never executes an event scheduled
                          before the current virtual time
``queue-bytes-nonneg``    per-port byte accounting never goes negative
``queue-conservation``    ``Port.queue_bytes`` equals the checker's own
                          enqueue-minus-dequeue tally at every transition
``fifo-order``            data packets leave each egress queue in arrival
                          order (control frames legitimately jump the queue)
``pfc-lossless``          no packet is dropped at a port whose upstream is
                          currently PFC-paused (the lossless-fabric promise)
``pfc-occupancy``         PFC ingress byte accounting never goes negative
``gbn-sequence``          go-back-N sanity: sequence numbers within the
                          flow, ACKs only for bytes actually sent, receiver
                          cumulative edge within bounds
``vai-bounds``            VAI token bank in ``[0, bank_cap]``, dampener
                          >= 0, spend multiplier >= 1
``sf-cadence``            SF grants a decrease exactly every
                          ``interval_acks`` acknowledgements
``switch-forward``        a switch only forwards out of its own ports, and
                          never routes control frames
``flightrec-conserve``    the flight recorder's six-way FCT decomposition
                          sums to the flow's FCT within 1 ns, and the flow
                          it explains really acknowledged every byte the
                          shadow high-water mark says was sent
========================  ===================================================

This module reads the simulator's objects and imports none of its modules.
"""

from __future__ import annotations

from collections import deque
from typing import Any, ContextManager, Dict, Optional

from .. import probe


class InvariantViolation(RuntimeError):
    """A simulator invariant was broken.

    Attributes
    ----------
    invariant:
        Catalog name of the broken invariant (e.g. ``"pfc-lossless"``).
    time_ns:
        Simulated time of the violation, when the hook site knows it.
    context:
        Replay context installed by :meth:`InvariantChecker.begin_run` —
        typically ``config`` (human description), ``cache_key`` (content
        digest prefix), and ``seed``.
    """

    def __init__(
        self,
        invariant: str,
        message: str,
        *,
        time_ns: Optional[float] = None,
        context: Optional[Dict[str, Any]] = None,
    ):
        self.invariant = invariant
        self.time_ns = time_ns
        self.context = dict(context or {})
        parts = [f"[{invariant}] {message}"]
        if time_ns is not None:
            parts.append(f"at t={time_ns:.1f}ns")
        if self.context:
            parts.append(
                "replay: "
                + " ".join(f"{k}={v}" for k, v in sorted(self.context.items()))
            )
        super().__init__(" | ".join(parts))


class InvariantChecker:
    """Holds per-run shadow state and performs the checks.

    The checker maintains its *own* parallel accounting (byte tallies, FIFO
    stamps, sent high-water marks, SF ACK counts) so that a bookkeeping bug
    in the simulator cannot hide itself — the check compares two
    independently maintained views.

    Shadow state adopts lazily: a port/flow first seen mid-stream is
    initialized from current simulator state, so enabling the checker at
    any point is safe (it simply cannot vouch for history it never saw).
    """

    __slots__ = (
        "context",
        "checks",
        "_port_tally",
        "_port_fifo",
        "_port_stamped",
        "_sf_counts",
        "_sent_hw",
    )

    def __init__(self) -> None:
        self.context: Dict[str, Any] = {}
        #: invariant name -> number of checks performed (summary/monitoring).
        self.checks: Dict[str, int] = {}
        # Shadow byte tally per port (independent of Port.queue_bytes).
        self._port_tally: Dict[Any, float] = {}
        # Expected dequeue order of data packets per port (object ids) and
        # the set of ids we stamped (packets enqueued before the checker was
        # enabled dequeue unstamped and are skipped, never misjudged).
        self._port_fifo: Dict[Any, deque] = {}
        self._port_stamped: Dict[Any, set] = {}
        # Shadow ACK count per SamplingFrequency instance.
        self._sf_counts: Dict[Any, int] = {}
        # Highest next_seq ever reached per flow (keyed by the Flow, which
        # outlives its SenderState): go-back-N rewinds next_seq, but an ACK
        # may never exceed what was actually sent.
        self._sent_hw: Dict[Any, int] = {}

    # -- lifecycle -----------------------------------------------------------

    def begin_run(self, **context: Any) -> None:
        """Reset per-run shadow state and install the replay context.

        The experiment runner raises ``run_begin`` at the top of every run,
        so that violations name the config that can reproduce them and shadow
        state from a previous run's (dead) ports cannot leak or accumulate.
        """
        self.context = context
        self._port_tally.clear()
        self._port_fifo.clear()
        self._port_stamped.clear()
        self._sf_counts.clear()
        self._sent_hw.clear()

    def on_run_begin(self, kind: str, cfg: Any) -> None:
        self.begin_run(config=cfg.describe(), cache_key=cfg.cache_key()[:16], seed=cfg.seed)

    def total_checks(self) -> int:
        return sum(self.checks.values())

    def summary(self) -> str:
        total = self.total_checks()
        return (
            f"{total:,} checks across {len(self.checks)} invariant(s), "
            "0 violations"
        )

    def _fail(
        self, invariant: str, message: str, *, time_ns: Optional[float] = None
    ) -> None:
        raise InvariantViolation(
            invariant, message, time_ns=time_ns, context=self.context
        )

    def _count(self, invariant: str) -> None:
        checks = self.checks
        checks[invariant] = checks.get(invariant, 0) + 1

    # -- engine --------------------------------------------------------------

    def on_event(self, fire_time: float, now: float) -> None:
        """Engine hook: about to execute an event at ``fire_time``."""
        self._count("event-time-monotonic")
        if fire_time < now:
            self._fail(
                "event-time-monotonic",
                f"event fires at {fire_time!r}ns, before current time {now!r}ns",
                time_ns=now,
            )

    # -- port ----------------------------------------------------------------

    def on_enqueue(self, port: Any, pkt: Any, now: float) -> None:
        """Port hook: ``pkt`` was appended and ``queue_bytes`` charged."""
        self._count("queue-conservation")
        tally = self._port_tally
        prev = tally.get(port)
        if prev is None:
            # First sight of this port: adopt its pre-enqueue occupancy.
            prev = port.queue_bytes - pkt.size
        cur = prev + pkt.size
        tally[port] = cur
        if cur != port.queue_bytes:
            self._fail(
                "queue-conservation",
                f"{port.name}: queue_bytes={port.queue_bytes!r} but shadow "
                f"tally says {cur!r} after enqueue of {pkt.size}B",
                time_ns=now,
            )
        if not pkt.is_control:
            pid = id(pkt)
            fifo = self._port_fifo.get(port)
            if fifo is None:
                fifo = self._port_fifo[port] = deque()
                self._port_stamped[port] = set()
            fifo.append(pid)
            self._port_stamped[port].add(pid)

    def on_dequeue(self, port: Any, pkt: Any, now: float, ser_ns: float, fused: bool) -> None:
        """Port hook: ``pkt`` was popped and ``queue_bytes`` released."""
        self._count("queue-bytes-nonneg")
        qb = port.queue_bytes
        if qb < 0:
            self._fail(
                "queue-bytes-nonneg",
                f"{port.name}: queue_bytes went negative ({qb!r})",
                time_ns=now,
            )
        tally = self._port_tally
        prev = tally.get(port)
        if prev is not None:
            self._count("queue-conservation")
            cur = prev - pkt.size
            tally[port] = cur
            if cur != qb:
                self._fail(
                    "queue-conservation",
                    f"{port.name}: queue_bytes={qb!r} but shadow tally says "
                    f"{cur!r} after dequeue of {pkt.size}B",
                    time_ns=now,
                )
        if not pkt.is_control:
            stamped = self._port_stamped.get(port)
            pid = id(pkt)
            if stamped and pid in stamped:
                # All data packets ahead of a stamped one are themselves
                # stamped (FIFO: older packets left first), so the head of
                # the shadow queue must be exactly this packet.
                self._count("fifo-order")
                stamped.discard(pid)
                expected = self._port_fifo[port].popleft()
                if expected != pid:
                    self._fail(
                        "fifo-order",
                        f"{port.name}: dequeued {pkt!r} out of FIFO order",
                        time_ns=now,
                    )

    def on_drop(self, port: Any, pkt: Any, ingress: Any, reason: str) -> None:
        """Port hook: ``pkt`` was dropped (tail, injected fault, link-down).

        The lossless-fabric promise: while an upstream is PFC-paused, the
        switch has asserted back-pressure precisely so it does not have to
        drop — a drop in that window means the pause machinery failed (or a
        fault injector deliberately broke it, which is how the CI self-test
        exercises this check).
        """
        self._count("pfc-lossless")
        if ingress is not None and ingress.pfc_ingress.paused_upstream:
            self._fail(
                "pfc-lossless",
                f"{port.name}: {reason} drop of {pkt!r} while the upstream "
                "is PFC-paused",
                time_ns=port.sim._now,
            )

    # -- PFC -----------------------------------------------------------------

    def on_pfc_occupancy(self, occupancy: float) -> None:
        """PFC hook: ingress occupancy after a release, before clamping."""
        self._count("pfc-occupancy")
        if occupancy < 0:
            self._fail(
                "pfc-occupancy",
                f"PFC ingress accounting went negative ({occupancy!r}B "
                "before clamp): released more bytes than were charged",
            )

    # -- host (go-back-N) ----------------------------------------------------

    def on_send(self, state: Any, pkt: Any, now: float) -> None:
        """Host hook: sender emitted a data packet; ``next_seq`` advanced."""
        self._count("gbn-sequence")
        next_seq = state.next_seq
        if next_seq > state.flow.size:
            self._fail(
                "gbn-sequence",
                f"flow {state.flow.flow_id}: sent past end of flow "
                f"(next_seq={next_seq} > size={state.flow.size})",
            )
        if next_seq > self._sent_hw.get(state.flow, 0):
            self._sent_hw[state.flow] = next_seq

    def on_ack(self, state: Any, pkt: Any, now: float) -> None:
        """Host hook: cumulative ACK processed; ``state.acked`` updated.

        ``acked > next_seq`` is legitimate after a go-back-N rewind (ACKs
        for pre-rewind data still in flight), so the bound that must hold
        is the high-water mark of bytes ever sent, not ``next_seq``.
        """
        self._count("gbn-sequence")
        flow = state.flow
        if pkt.seq > flow.size:
            self._fail(
                "gbn-sequence",
                f"flow {flow.flow_id}: ACK for byte {pkt.seq} beyond flow "
                f"size {flow.size}",
            )
        hw = self._sent_hw.get(flow)
        if hw is not None and pkt.seq > hw:
            self._fail(
                "gbn-sequence",
                f"flow {flow.flow_id}: ACK for byte {pkt.seq} but only "
                f"{hw} bytes were ever sent",
            )
        if state.acked > flow.size:
            self._fail(
                "gbn-sequence",
                f"flow {flow.flow_id}: cumulative ACK {state.acked} beyond "
                f"flow size {flow.size}",
            )

    def on_data(self, state: Any, pkt: Any) -> None:
        """Host hook: receiver processed a data packet."""
        self._count("gbn-sequence")
        flow = state.flow
        if pkt.end_seq() > flow.size:
            self._fail(
                "gbn-sequence",
                f"flow {flow.flow_id}: data [{pkt.seq}, {pkt.end_seq()}) "
                f"beyond flow size {flow.size}",
            )
        if state.received > flow.size:
            self._fail(
                "gbn-sequence",
                f"flow {flow.flow_id}: receiver cumulative edge "
                f"{state.received} beyond flow size {flow.size}",
            )

    # -- flight recorder (cross-layer validation) ----------------------------

    def on_flow_decomposition(
        self,
        state: Any,
        *,
        fct_ns: float,
        components_ns: float,
        residual_ns: float,
        tolerance_ns: float = 1.0,
    ) -> None:
        """Flight-recorder hook: a completed flow's FCT was decomposed.

        Called when both the sanitizer and :mod:`repro.obs.flightrec` are
        enabled, so the recorder's per-flow accounting is validated against
        this checker's *independent* shadow state: the decomposition must
        conserve (components sum to the FCT within ``tolerance_ns``) and
        the completed flow must be consistent with the go-back-N high-water
        mark — every acknowledged byte was actually sent.
        """
        self._count("flightrec-conserve")
        flow = state.flow
        if residual_ns > tolerance_ns or residual_ns < -tolerance_ns:
            self._fail(
                "flightrec-conserve",
                f"flow {flow.flow_id}: decomposition sums to "
                f"{components_ns!r}ns but FCT is {fct_ns!r}ns "
                f"(residual {residual_ns!r}ns exceeds {tolerance_ns}ns)",
            )
        hw = self._sent_hw.get(flow)
        if hw is not None and hw < flow.size:
            self._fail(
                "flightrec-conserve",
                f"flow {flow.flow_id}: decomposed as complete but only "
                f"{hw} of {flow.size} bytes were ever sent",
            )

    # -- VAI / SF (the paper's mechanisms) -----------------------------------

    def on_vai(self, vai: Any, banked: Any, spent: float, multiplier: Optional[float]) -> None:
        """VAI hook: after ``on_rtt_end`` or a spending ``ai_multiplier``
        (the only one that passes a ``multiplier``)."""
        self._count("vai-bounds")
        cfg = vai.config
        bank = vai.ai_bank
        if bank < 0 or bank > cfg.bank_cap:
            self._fail(
                "vai-bounds",
                f"VAI token bank {bank!r} outside [0, {cfg.bank_cap!r}]",
            )
        if vai.dampener < 0:
            self._fail("vai-bounds", f"VAI dampener went negative ({vai.dampener!r})")
        if multiplier is not None and multiplier < 1.0:
            self._fail(
                "vai-bounds",
                f"VAI spend multiplier {multiplier!r} below the floor of 1",
            )

    def on_sf_ack(self, sf: Any, granted: bool) -> None:
        """SF hook: one ACK counted; ``granted`` if a decrease was allowed.

        The checker counts ACKs independently; a grant must arrive exactly
        when the shadow count reaches ``interval_acks`` — neither early
        (more decreases than the paper's schedule permits) nor late (the
        fairness force the mechanism exists to restore would weaken).
        """
        self._count("sf-cadence")
        count = self._sf_counts.get(sf, 0) + 1
        if granted:
            if count != sf.interval_acks:
                self._fail(
                    "sf-cadence",
                    f"SF granted a decrease after {count} ACK(s); the "
                    f"schedule is exactly every {sf.interval_acks}",
                )
            count = 0
        elif count >= sf.interval_acks:
            self._fail(
                "sf-cadence",
                f"SF withheld a decrease at {count} ACK(s) with "
                f"interval {sf.interval_acks}",
            )
        self._sf_counts[sf] = count

    def on_sf_reset(self, sf: Any) -> None:
        """SF hook: the protocol reset the ACK counter."""
        self._sf_counts[sf] = 0

    # -- switch --------------------------------------------------------------

    def on_switch_forward(self, switch: Any, pkt: Any, out: Any) -> None:
        """Switch hook: ``pkt`` routed to egress ``out``."""
        self._count("switch-forward")
        if out.owner is not switch:
            self._fail(
                "switch-forward",
                f"{switch.name}: routed {pkt!r} to {out.name}, a port it "
                "does not own (corrupt ECMP table)",
                time_ns=switch.sim._now,
            )
        if pkt.is_control:
            self._fail(
                "switch-forward",
                f"{switch.name}: control frame {pkt!r} entered the routing "
                "path (PFC frames are link-local)",
                time_ns=switch.sim._now,
            )


_SLOT = probe.Slot("sanitizer")
#: Remove the checker / whether one is attached / the attached one or None.
disable, enabled, get = _SLOT.detach, _SLOT.enabled, _SLOT.get


def enable(checker: Optional[InvariantChecker] = None) -> InvariantChecker:
    """Attach (and return) the process-wide invariant checker."""
    return _SLOT.attach(checker if checker is not None else InvariantChecker())


def capture() -> ContextManager[InvariantChecker]:
    """Attach a fresh checker for a ``with`` block, restoring the old state.

    >>> from repro.check import invariants
    >>> with invariants.capture() as chk:
    ...     pass  # run a simulation
    >>> invariants.enabled()
    False
    """
    return _SLOT.capture(InvariantChecker())
