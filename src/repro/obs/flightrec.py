"""Flow flight recorder: exact per-flow FCT decomposition and link series.

The paper's claim is causal — fast convergence to fairness shrinks long-flow
tail FCT — so the reproduction needs to answer *why* a given flow was slow,
not just report slowdown percentiles.  This module decomposes every completed
flow's FCT into six mutually exclusive causes:

====================  ====================================================
component             time attributed to it
====================  ====================================================
``queueing``          packets waiting behind other traffic in port FIFOs
``serialization``     store-and-forward transmission time on each hop
``propagation``       link propagation plus receiver turnaround
``pfc_pause``         head-of-line time under a PFC pause on the egress
``retx_recovery``     sender stalls ended by a go-back-N timeout
``cc_throttle``       sender idle because congestion control paced it
====================  ====================================================

**Conservation invariant**: for every completed flow the six components sum
to its FCT within :data:`CONSERVATION_TOLERANCE_NS` (1 ns).  This is exact
by construction, not approximate: the recorder keeps a per-flow *cursor*
that starts at ``flow.start_time`` and is advanced to "now" by every
sender-side event (data emission, ACK arrival, go-back-N timeout, and
finally completion).  Each event closes the interval ``[cursor, now]`` and
charges its full length to components, so the intervals telescope to
exactly ``finish - start``:

* **data emission** charges the interval to ``cc_throttle`` — the only way
  a sender sits idle between events and then *sends* is a pacing gate;
* **go-back-N timeout** charges it to ``retx_recovery`` — the stall ended
  by the RTO is recovery time regardless of what first caused the loss;
* **ACK arrival** splits the interval proportionally using the round-trip
  breakdown stamped on the packet as it crossed each port (queueing /
  serialization / propagation / pause accumulate hop by hop on the data
  packet and keep accumulating on the echoed ACK).  The propagation share
  is computed as the *residue* of the interval after the scaled queueing,
  serialization, and pause shares, so each split sums to the interval
  length exactly rather than within float error.

The recorder is one of the planes of :mod:`repro.probe`: its ``on_<event>``
methods subscribe to the simulator's events, a bare run pays one ``PROBE is
None`` test per site and nothing per event in ``Simulator._run_fast``
(``tests/sim/test_engine_hotpath.py``), and simulation output is
byte-identical when enabled — it never schedules events, draws randomness,
or mutates simulation state beyond its own ``fr`` stamps.  Completion
additionally cross-validates against the sanitizer's shadow tallies when
both planes are on (see ``InvariantChecker.on_flow_decomposition``).

On top of the decomposition the recorder keeps, per run:

* per-link utilization and an event-driven queue-depth time-series for the
  packet backend (parity with ``fluid.py``'s ``track_link_utilization``);
* per-flow rate trajectories (bytes acked over time) merged with the
  run's Jain convergence instant into a **convergence timeline**;
* optional Perfetto hop spans and series counters through the existing
  tracer, stamped in virtual time so ``obs stitch`` rescales them together
  with every other shard event.
"""

from __future__ import annotations

from typing import Any, Callable, ContextManager, Dict, List, Optional, Tuple

from .. import probe
from ..check import invariants as check_invariants
from . import tracer as obs_tracer

#: Decomposition component names, in rendering order.
COMPONENTS: Tuple[str, ...] = (
    "queueing",
    "serialization",
    "propagation",
    "pfc_pause",
    "retx_recovery",
    "cc_throttle",
)

#: |fct - sum(components)| above this is a conservation failure.
CONSERVATION_TOLERANCE_NS = 1.0

#: Per-flow decompositions retained in a manifest run section (largest FCT
#: first); the rest are summarized by ``flows_truncated`` — never silently.
DECOMPOSITION_CAP = 64

#: Flows retained in the convergence timeline (largest FCT first).
TIMELINE_FLOWS_CAP = 16

#: Retained samples per series; when a series fills to twice this, every
#: other sample is dropped and the sampling stride doubles, so memory stays
#: bounded while coverage stays uniform over the whole run.
SERIES_CAP = 256

#: Retained (time, bytes_acked) points per flow trajectory.
TIMELINE_CAP = 128


class _Stamp:
    """Round-trip breakdown accumulated on a packet as it crosses ports.

    Allocated at data emission, carried in ``Packet.fr``, echoed onto the
    ACK so the return path keeps accumulating, and read back by the sender
    when the ACK arrives.  ``enq_ts`` / ``pause_base`` are scratch for the
    port currently holding the packet.
    """

    __slots__ = ("q", "ser", "prop", "pause", "enq_ts", "pause_base")

    def __init__(self) -> None:
        self.q = 0.0
        self.ser = 0.0
        self.prop = 0.0
        self.pause = 0.0
        self.enq_ts = -1.0
        self.pause_base = 0.0


class _PauseMeter:
    """Lazy integrator of one egress's cumulative PFC-paused nanoseconds.

    Mirrors ``PfcEgressState`` semantics (``pause`` extends ``paused_until``
    monotonically, ``resume`` cancels it) but integrates instead of testing:
    ``at(now)`` returns total paused time in ``[0, now]``.  All queries come
    from event callbacks, so ``now`` is nondecreasing and the integral is
    exact.
    """

    __slots__ = ("cum", "mark", "until", "pauses")

    def __init__(self) -> None:
        self.cum = 0.0
        self.mark = 0.0
        self.until = 0.0
        self.pauses = 0

    def at(self, now: float) -> float:
        until = self.until
        mark = self.mark
        if until > mark:
            edge = now if now < until else until
            if edge > mark:
                self.cum += edge - mark
        if now > mark:
            self.mark = now
        return self.cum

    def on_pause(self, now: float, duration_ns: float) -> None:
        self.at(now)
        self.pauses += 1
        end = now + duration_ns
        if end > self.until:
            self.until = end

    def on_resume(self, now: float) -> None:
        self.at(now)
        self.until = now


class _Series:
    """Bounded (time, value) series with stride-doubling decimation."""

    __slots__ = ("times", "values", "_stride", "_seen")

    def __init__(self) -> None:
        self.times: List[float] = []
        self.values: List[float] = []
        self._stride = 1
        self._seen = 0

    def sample(self, now: float, value: float) -> None:
        if self._seen % self._stride == 0:
            self.times.append(now)
            self.values.append(value)
            if len(self.times) >= 2 * SERIES_CAP:
                del self.times[::2]
                del self.values[::2]
                self._stride *= 2
        self._seen += 1


class _PortRec:
    """Per-egress-port state: identity, queue series, pause integral.

    ``meter`` is the *shared* integrator keyed by the port's
    ``PfcEgressState`` in the recorder's ``_meters`` map — PAUSE frames
    report through that state object (which may fire before the port is
    ever seen here), so both sides must resolve to the same meter for
    per-packet pause attribution to work.
    """

    __slots__ = ("port", "queue", "meter", "queue_max_bytes")

    def __init__(self, port: Any, meter: "_PauseMeter") -> None:
        self.port = port
        self.queue = _Series()
        self.meter = meter
        self.queue_max_bytes = 0.0

    def label(self) -> str:
        port = self.port
        peer = port.peer_node
        if peer is not None:
            return f"{port.owner.name}->{peer.name}"
        return f"{port.owner.name}.p{port.index}"


class _FlowTrack:
    """Per-flow cursor, component sums, and rate trajectory."""

    __slots__ = (
        "flow",
        "cursor",
        "queueing",
        "serialization",
        "propagation",
        "pfc_pause",
        "retx_recovery",
        "cc_throttle",
        "acks",
        "retransmits",
        "residual_ns",
        "done",
        "points",
        "_stride",
        "_seen",
    )

    def __init__(self, flow: Any) -> None:
        self.flow = flow
        self.cursor = flow.start_time
        self.queueing = 0.0
        self.serialization = 0.0
        self.propagation = 0.0
        self.pfc_pause = 0.0
        self.retx_recovery = 0.0
        self.cc_throttle = 0.0
        self.acks = 0
        self.retransmits = 0
        self.residual_ns = 0.0
        self.done = False
        self.points: List[Tuple[float, float]] = [(flow.start_time, 0.0)]
        self._stride = 1
        self._seen = 0

    def components(self) -> Dict[str, float]:
        return {
            "queueing": self.queueing,
            "serialization": self.serialization,
            "propagation": self.propagation,
            "pfc_pause": self.pfc_pause,
            "retx_recovery": self.retx_recovery,
            "cc_throttle": self.cc_throttle,
        }

    def total(self) -> float:
        return (
            self.queueing
            + self.serialization
            + self.propagation
            + self.pfc_pause
            + self.retx_recovery
            + self.cc_throttle
        )

    def point(self, now: float, acked: float) -> None:
        if self._seen % self._stride == 0:
            pts = self.points
            pts.append((now, acked))
            if len(pts) >= 2 * TIMELINE_CAP:
                del pts[::2]
                self._stride *= 2
        self._seen += 1


def dominant_component(components: Dict[str, float]) -> str:
    """The component holding the largest share (ties break in table order)."""
    best = COMPONENTS[0]
    best_value = components.get(best, 0.0)
    for name in COMPONENTS[1:]:
        value = components.get(name, 0.0)
        if value > best_value:
            best, best_value = name, value
    return best


class FlightRecorder:
    """Per-run flight data: flow decompositions, link series, timeline.

    The ``on_*`` methods are probe events, raised only while this recorder
    is attached.  One recorder instance accumulates finalized run sections
    across a campaign; per-run working state resets in ``begin_run``.
    """

    def __init__(self) -> None:
        self.runs: List[Dict[str, Any]] = []
        self._kind = "run"
        self._desc = ""
        self._tracks: List[_FlowTrack] = []
        self._ports: Dict[Any, _PortRec] = {}
        self._meters: Dict[Any, _PauseMeter] = {}
        self.extent_ns = 0.0
        self.conservation_failures = 0
        self.max_residual_ns = 0.0

    # -- run lifecycle -----------------------------------------------------

    def begin_run(self, kind: str = "run", desc: str = "") -> None:
        """Reset per-run working state; finalized sections are kept."""
        self._kind = kind
        self._desc = desc
        self._tracks = []
        self._ports = {}
        self._meters = {}
        self.extent_ns = 0.0
        self.conservation_failures = 0
        self.max_residual_ns = 0.0

    def on_run_begin(self, kind: str, cfg: Any) -> None:
        self.begin_run(kind, cfg.describe())

    # -- probe events (hot path) -------------------------------------------
    #
    # A flow that started before the recorder was attached has no track
    # (``state.fr is None``) and is passed over.

    def on_flow_start(self, state: Any) -> None:
        track = state.fr = _FlowTrack(state.flow)
        self._tracks.append(track)

    def on_send(self, state: Any, pkt: Any, now: float) -> None:
        track = state.fr
        if track is None:
            return
        # Closes [cursor, now] as CC-throttle (pacing idle) and stamps the
        # packet before the NIC enqueue sees it.
        gap = now - track.cursor
        if gap > 0.0:
            track.cc_throttle += gap
            track.cursor = now
        pkt.fr = _Stamp()

    def on_ack(self, state: Any, pkt: Any, now: float) -> None:
        track = state.fr
        if track is None:
            return
        # Every ACK (duplicates included) closes [cursor, now] using the
        # round-trip breakdown echoed on the packet's stamp.
        stamp = pkt.fr
        gap = now - track.cursor
        if gap > 0.0:
            if stamp is not None:
                network = stamp.q + stamp.ser + stamp.prop + stamp.pause
            else:
                network = 0.0
            if network > 0.0:
                # The arriving ACK's packet entered the network no later
                # than the cursor (every send advances the cursor), so the
                # interval is at most one stamped round trip and the scale
                # factor stays in [0, 1] up to float rounding.
                scale = gap / network
                if scale > 1.0:
                    scale = 1.0
                q_share = stamp.q * scale
                ser_share = stamp.ser * scale
                pause_share = stamp.pause * scale
                track.queueing += q_share
                track.serialization += ser_share
                track.pfc_pause += pause_share
                # Residue, not stamp.prop * scale: the split then sums to
                # the interval exactly, which is what makes the end-to-end
                # conservation check exact rather than approximate.
                track.propagation += gap - q_share - ser_share - pause_share
            else:
                # No round-trip breakdown (flow predates the recorder or a
                # zero-latency loop): conserve by charging wire time.
                track.propagation += gap
            track.cursor = now
        track.acks += 1
        track.point(now, state.acked)

    def on_retx(self, state: Any, now: float) -> None:
        track = state.fr
        if track is None:
            return
        # The stall this timeout ends is retransmission recovery.
        gap = now - track.cursor
        if gap > 0.0:
            track.retx_recovery += gap
            track.cursor = now

    def on_flow_complete(self, state: Any, now: float) -> None:
        track = state.fr
        if track is None:
            return
        # The final ACK just closed the last interval, so the six components
        # now telescope to exactly the FCT; this checks conservation.
        flow = track.flow
        fct = now - flow.start_time
        total = track.total()
        residual = fct - total
        track.residual_ns = residual
        track.retransmits = flow.retransmits
        track.done = True
        magnitude = residual if residual >= 0.0 else -residual
        if magnitude > self.max_residual_ns:
            self.max_residual_ns = magnitude
        if magnitude > CONSERVATION_TOLERANCE_NS:
            self.conservation_failures += 1
        chk = check_invariants.get()
        if chk is not None:
            chk.on_flow_decomposition(
                state, fct_ns=fct, components_ns=total, residual_ns=residual
            )

    def on_enqueue(self, port: Any, pkt: Any, now: float) -> None:
        rec = self._ports.get(port)
        if rec is None:
            rec = _PortRec(port, self._meter(port.pfc_egress))
            self._ports[port] = rec
        stamp = pkt.fr
        if stamp is not None:
            stamp.enq_ts = now
            stamp.pause_base = rec.meter.at(now)
        depth = port.queue_bytes
        if depth > rec.queue_max_bytes:
            rec.queue_max_bytes = depth
        rec.queue.sample(now, depth)

    def on_dequeue(self, port: Any, pkt: Any, now: float, ser_ns: float, fused: bool) -> None:
        # One event covers both delivery paths: the per-hop wait /
        # serialization / propagation / pause breakdown accumulates on the
        # packet's stamp here, at serialization start.
        rec = self._ports.get(port)
        if rec is None:
            rec = _PortRec(port, self._meter(port.pfc_egress))
            self._ports[port] = rec
        paused_cum = rec.meter.at(now)
        stamp = pkt.fr
        if stamp is not None and stamp.enq_ts >= 0.0:
            wait = now - stamp.enq_ts
            paused = paused_cum - stamp.pause_base
            stamp.pause += paused
            stamp.q += wait - paused
            stamp.ser += ser_ns
            stamp.prop += port.spec.prop_delay_ns
            tr = obs_tracer.get()
            if tr is not None:
                tr.complete(
                    f"hop {rec.label()}",
                    stamp.enq_ts,
                    wait + ser_ns,
                    cat="hop",
                    tid=pkt.flow_id,
                )
            stamp.enq_ts = -1.0
        rec.queue.sample(now, port.queue_bytes)

    def on_pause(self, port: Any, now: float, duration_ns: float) -> None:
        self._meter(port.pfc_egress).on_pause(now, duration_ns)

    def on_resume(self, port: Any, now: float) -> None:
        self._meter(port.pfc_egress).on_resume(now)

    def on_run_end(
        self,
        now: float,
        executed: int,
        scheduled: int,
        cancelled: int,
        compactions: int,
        heap_len: int,
    ) -> None:
        # Max virtual time reached: the denominator for link-utilization
        # parity with the fluid backend and the virtual-time extent that
        # `obs stitch` rescales against.
        if now > self.extent_ns:
            self.extent_ns = now

    def on_fluid_series(self, engine: Any, flow_ids: List[int]) -> None:
        """Mirror a fluid run's sampled series onto the tracer as counters.

        Parity with :meth:`finalize_run` on the packet backend: with the
        tracer on too, the queue / rate series land in the trace shard as
        virtual-time counters (``cat`` ``flightrec``), so ``obs stitch``
        rescales them with every other shard event.
        """
        tr = obs_tracer.get()
        if tr is None:
            return
        times, depths = engine.queue_series()
        for ts, depth in zip(times.tolist(), depths.tolist()):
            tr.counter("queue fluid", ts, {"bytes": depth}, cat="flightrec")
        # Per-flow rate lanes are capped like the timeline — a datacenter-
        # scale run would otherwise emit thousands of tracks.
        shown = flow_ids[:TIMELINE_FLOWS_CAP]
        times, rows = engine.rate_series()
        for ts, row in zip(times.tolist(), rows.tolist()):
            for fid, bps in zip(shown, row):
                tr.counter(f"rate flow {fid}", ts, {"bps": bps}, cat="flightrec")
        for (u, v), util in sorted(engine.link_utilization().items()):
            tr.counter(
                f"util {u}->{v}", engine.now, {"utilization": util}, cat="flightrec"
            )

    def _meter(self, egress: Any) -> _PauseMeter:
        meter = self._meters.get(egress)
        if meter is None:
            meter = _PauseMeter()
            self._meters[egress] = meter
        return meter

    # -- accessors (tests and in-process consumers) ------------------------

    def tracks(self) -> List[_FlowTrack]:
        return list(self._tracks)

    def track(self, flow_id: int) -> Optional[_FlowTrack]:
        for track in self._tracks:
            if track.flow.flow_id == flow_id:
                return track
        return None

    def queue_series(self, label: str) -> Tuple[List[float], List[float]]:
        """(times, queue-depth bytes) for one link, by finalize label."""
        for rec in self._ports.values():
            if rec.label() == label:
                return list(rec.queue.times), list(rec.queue.values)
        return [], []

    def link_utilization(self, elapsed_ns: Optional[float] = None) -> Dict[str, float]:
        """Time-averaged egress utilization per link label in [0, 1].

        Parity with ``FluidEngine.link_utilization``: transmitted bytes over
        link capacity times elapsed time, against the same default elapsed
        (the run extent the engine reported).
        """
        elapsed = self.extent_ns if elapsed_ns is None else elapsed_ns
        out: Dict[str, float] = {}
        if elapsed <= 0.0:
            return out
        for rec in self._ports.values():
            port = rec.port
            capacity_bits = port.spec.rate_bps * elapsed * 1e-9
            if capacity_bits > 0.0:
                out[rec.label()] = min(1.0, port.tx_bytes * 8.0 / capacity_bits)
        return out

    # -- finalize ----------------------------------------------------------

    def finalize_run(
        self,
        kind: Optional[str] = None,
        desc: Optional[str] = None,
        *,
        ideal_ns_fn: Optional[Callable[[Any], float]] = None,
        convergence_ns: Optional[float] = None,
        extent_ns: Optional[float] = None,
    ) -> Dict[str, Any]:
        """Freeze the current run into a manifest-shaped section entry.

        ``ideal_ns_fn`` (flow -> ideal FCT ns) enriches decompositions with
        slowdowns; ``convergence_ns`` is the run's Jain convergence instant
        (``None`` for a trace run), merged into the timeline.  The entry is appended to :attr:`runs`
        and per-run working state is reset.
        """
        if extent_ns is not None and extent_ns > self.extent_ns:
            self.extent_ns = extent_ns
        extent = self.extent_ns
        completed = [t for t in self._tracks if t.done]
        completed.sort(key=lambda t: t.flow.fct, reverse=True)

        totals = {name: 0.0 for name in COMPONENTS}
        decomps: List[Dict[str, Any]] = []
        for track in completed:
            flow = track.flow
            components = track.components()
            for name in COMPONENTS:
                totals[name] += components[name]
            entry: Dict[str, Any] = {
                "flow_id": flow.flow_id,
                "src": flow.src,
                "dst": flow.dst,
                "size_bytes": flow.size,
                "start_ns": flow.start_time,
                "fct_ns": flow.fct,
                "components": components,
                "residual_ns": track.residual_ns,
                "retransmits": track.retransmits,
                "acks": track.acks,
                "dominant": dominant_component(components),
            }
            if ideal_ns_fn is not None:
                ideal = ideal_ns_fn(flow)
                entry["ideal_ns"] = ideal
                entry["slowdown"] = flow.fct / ideal if ideal > 0.0 else None
            decomps.append(entry)
        if ideal_ns_fn is not None:
            decomps.sort(key=lambda e: e.get("slowdown") or 0.0, reverse=True)

        links: List[Dict[str, Any]] = []
        tr = obs_tracer.get()
        for rec in sorted(self._ports.values(), key=lambda r: r.label()):
            port = rec.port
            label = rec.label()
            rate_bps = port.spec.rate_bps
            capacity_bits = rate_bps * extent * 1e-9
            utilization = (
                min(1.0, port.tx_bytes * 8.0 / capacity_bits)
                if capacity_bits > 0.0
                else 0.0
            )
            meter = rec.meter
            links.append(
                {
                    "link": label,
                    "rate_bps": rate_bps,
                    "tx_bytes": port.tx_bytes,
                    "utilization": utilization,
                    "paused_ns": meter.at(extent),
                    "pauses": meter.pauses,
                    "queue_max_bytes": rec.queue_max_bytes,
                    "queue_samples": len(rec.queue.times),
                }
            )
            if tr is not None:
                # Series counters ride the trace shard in virtual time, so
                # `obs stitch` rescales them with every other shard event
                # and merged Perfetto timelines stay aligned (the fluid
                # backend emits its series the same way).
                for ts, depth in zip(rec.queue.times, rec.queue.values):
                    tr.counter(
                        f"queue {label}", ts, {"bytes": depth}, cat="flightrec"
                    )
                tr.counter(
                    f"util {label}",
                    extent,
                    {"utilization": utilization},
                    cat="flightrec",
                )

        timeline_flows = []
        for track in completed[:TIMELINE_FLOWS_CAP]:
            timeline_flows.append(
                {
                    "flow_id": track.flow.flow_id,
                    "points": [[t, b] for t, b in track.points],
                }
            )

        section = {
            "kind": self._kind if kind is None else kind,
            "desc": self._desc if desc is None else desc,
            "flows_tracked": len(self._tracks),
            "flows_completed": len(completed),
            "conservation_failures": self.conservation_failures,
            "max_residual_ns": self.max_residual_ns,
            "extent_ns": extent,
            "components_total": totals,
            "decompositions": decomps[:DECOMPOSITION_CAP],
            "flows_truncated": max(0, len(decomps) - DECOMPOSITION_CAP),
            "links": links,
            "timeline": {
                "convergence_ns": convergence_ns,
                "flows": timeline_flows,
            },
        }
        self.runs.append(section)
        self.begin_run(self._kind, self._desc)
        return section

    def adopt_run(self, section: Dict[str, Any]) -> None:
        """Record a run section finalized in a pool worker.

        Campaign workers are separate processes; their recorder dies with
        them, so the finalized section rides home on the result object and
        the parent re-records it here.
        """
        self.runs.append(section)

    def section(self) -> Dict[str, Any]:
        """The manifest ``flightrec`` section (schema v5)."""
        return {
            "section_version": 1,
            "runs": list(self.runs),
        }

    def summary(self) -> str:
        """One line for operators: scope and conservation status."""
        flows = sum(r.get("flows_completed", 0) for r in self.runs)
        failures = sum(r.get("conservation_failures", 0) for r in self.runs)
        worst = max(
            (r.get("max_residual_ns", 0.0) for r in self.runs), default=0.0
        )
        status = "conserved" if failures == 0 else f"{failures} FAILURE(S)"
        return (
            f"{len(self.runs)} run(s), {flows} flow(s) decomposed, "
            f"{status} (worst residual {worst:.3g} ns)"
        )


_SLOT = probe.Slot("recorder")
#: Remove the recorder / whether one is attached / the attached one or None.
disable, enabled, get = _SLOT.detach, _SLOT.enabled, _SLOT.get


def enable() -> FlightRecorder:
    """Attach (or return the already attached) process-wide flight recorder."""
    return get() or _SLOT.attach(FlightRecorder())


def capture() -> ContextManager[FlightRecorder]:
    """Enable for the duration of a block; restore the prior state after."""
    return _SLOT.capture(get() or FlightRecorder())
