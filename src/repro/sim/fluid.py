"""Event-driven flow-level (fluid) simulation engine.

The packet engine executes one event per packet per hop — exact, but
~3x10^5 events/s caps experiments far below paper scale.  This engine
models each flow as a *rate process* instead: between events every active
flow transfers bytes at a piecewise-constant rate, and events fire only
when the rate picture changes (a flow arrives, departs, a link flaps, a
relaxation tick) or a monitor samples.  The 16-flow fig-8 incast that costs
the packet engine ~110k events costs this engine ~900, of which 720 are
queue samples (see *Integration step* below).

Rate model
----------

* **Targets** come from max-min fair water-filling
  (:func:`repro.core.fluid_model.max_min_allocation`) over *goodput*
  capacities (line rate derated by the MTU header overhead), with
  per-flow caps modelling congestion-control window limits.  A
  topology change only recomputes the water level inside the affected
  bottleneck component: flows sharing no link (transitively) with the
  changed flows keep their targets untouched.
* **Convergence lag** makes the backend CC-aware: instead of snapping to
  the target, each flow's intrinsic rate relaxes toward it first-order,
  ``r(t + dt) = T + (r(t) - T) * exp(-dt / tau)``, with ``tau`` the
  variant's convergence time constant (fast for VAI+SF variants, slow
  for default HPCC/Swift — see :mod:`repro.experiments.flowsim`).
  ``tau = 0`` snaps instantly (ideal fair sharing).
* **Feasibility**: intrinsic rates may transiently oversubscribe a link
  (a newly arrived flow starts at line rate, exactly like a fresh CC
  window).  Served rates are intrinsic rates scaled down per link so no
  link exceeds capacity; the overhang feeds a modelled queue on the
  monitored bottleneck links (diagnostic only — queued bytes are not
  re-delivered, the paper's queue figures need depth, not payload).

Completion semantics mirror the packet engine: a flow finishes when its
payload has drained at the served rate, plus a constant per-flow latency
offset chosen so an *uncontended* flow's FCT equals
:func:`repro.metrics.fct.ideal_fct_ns` exactly (slowdown 1.0).

ECMP fidelity: paths are walked through the switches' real routing
tables using the same ``ecmp_hash % len(group)`` selection as
:meth:`repro.sim.switch.Switch.route`, so a fluid flow occupies exactly
the links its packet twin would.  Link flaps reuse
:meth:`repro.sim.network.Network.set_link_state`, so reroutes see the
same post-flap tables.

Integration step
----------------

Rates are piecewise constant between events, so the relaxation above is
integrated with a step equal to the gap between events.  A relaxation tick
is armed ``max(min(tau)/4, 500 ns)`` after *every* event (from ``now``, not
from the previous tick) while some flow is off its target, so it only
fires when nothing else happens for that long.  On runs without samplers
(the fat-tree traces) it does fire and bounds the step.  On the incast
configs it never does: their 2 us queue sampler is shorter than every
tick, 4132 of the 4184 event steps in the fig-8 pair at 16 and 32 senders
are queue samples, and the integration step *is* ``sample_interval_ns``.
FCTs therefore move with the sampling interval
(``test_fct_independent_of_queue_sample_interval`` is an expected failure),
and ``TAU_RTTS`` is calibrated at the default interval.  ROADMAP item 1
carries the fix (passive samplers, analytic byte integral between
rate-changing events, then re-calibration).

Cost
----

One event is two passes over the table of active flows
(:meth:`FluidEngine._drain_and_relax`: drain, relax, collect departures;
:meth:`FluidEngine._rescale`: per-link loads and scale factors, served
rates, next departure, relax-tick test), each O(active flows x path
length).  Arrivals, departures and flaps add one water-filling of the
touched component, linear in its (flow, link) incidences plus
O(rounds x links).

Everything is deterministic: no RNG, and every sum runs over
insertion-ordered tables (never a set, never ``id()`` order).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..core.fluid_model import max_min_allocation
from ..metrics.fct import ideal_fct_ns
from ..obs import flightrec as obs_flightrec
from ..obs import profiler as obs_profiler
from ..obs import tracer as obs_tracer
from .flow import Flow
from .network import CompletionStatus, Network
from .packet import HEADER_BYTES
from .port import Port
from .switch import Switch

__all__ = ["FluidEngine", "FluidFlowParams", "GOODPUT_FRACTION"]

#: MTU payload bytes (matches the packet engine's segmentation).
MTU_PAYLOAD = 1000

#: Fraction of line rate available to payload after per-packet headers.
GOODPUT_FRACTION = MTU_PAYLOAD / (MTU_PAYLOAD + HEADER_BYTES)

#: A flow with less than this many payload bytes left is complete.
_EPS_BYTES = 1e-6

#: Relative rate error below which relaxation is considered converged.
_RELAX_TOL = 1e-3

#: Floor for the relaxation tick interval (ns) — bounds event count.
_MIN_RELAX_TICK_NS = 500.0


@dataclass(frozen=True)
class FluidFlowParams:
    """Per-flow congestion-control abstraction for the fluid engine.

    ``tau_ns`` is the first-order convergence lag toward the max-min
    target (0 = instant).  ``cap_bytes_per_ns`` caps the intrinsic rate
    (window / base-RTT); None means only link capacities bind.
    ``start_fraction`` sets the arrival rate as a fraction of the path's
    goodput capacity (1.0 = line rate, like a fresh CC window).
    """

    tau_ns: float = 0.0
    cap_bytes_per_ns: Optional[float] = None
    start_fraction: float = 1.0

    def __post_init__(self) -> None:
        if self.tau_ns < 0:
            raise ValueError("tau_ns must be non-negative")
        if self.cap_bytes_per_ns is not None and self.cap_bytes_per_ns <= 0:
            raise ValueError("cap_bytes_per_ns must be positive")
        if not 0.0 < self.start_fraction <= 1.0:
            raise ValueError("start_fraction must be in (0, 1]")


#: A directed link: (upstream node id, downstream node id).
DLink = Tuple[int, int]


@dataclass(eq=False)
class _Link:
    """Per-link accumulators the event step reads and writes in place."""

    index: int  # position in creation order; the link's id in water-filling
    cap: float  # goodput capacity in bytes/ns, 0 while the link is down
    #: Active flows crossing the link, by flow id, in occupation order.
    users: Dict[int, "_FlowState"] = field(default_factory=dict)
    load: float = 0.0  # sum of the users' intrinsic rates after the last event
    served: float = 0.0  # sum of their served rates (current only while tracking utilization)
    factor: float = 1.0  # cap / load when oversubscribed, else 1
    queue: float = 0.0  # modelled backlog in bytes (monitored links only)
    bytes: float = 0.0  # served bytes so far (utilization tracking only)


@dataclass(eq=False)
class _FlowState:
    flow: Flow
    params: FluidFlowParams
    remaining: float
    latency_ns: float
    fid: int
    tau: float  # params.tau_ns, read once per flow per event
    active: bool = False
    links: Tuple[_Link, ...] = ()  # empty while inactive or unroutable
    link_ids: Tuple[int, ...] = ()  # the links' indexes: water-filling input
    r_int: float = 0.0  # intrinsic (demanded) rate, bytes/ns
    r_srv: float = 0.0  # served rate after per-link feasibility scaling
    target: float = 0.0


@dataclass
class _Samples:
    times: List[float] = field(default_factory=list)
    values: List = field(default_factory=list)


class FluidEngine:
    """Flow-level simulation over a built (but packet-idle) network.

    Parameters
    ----------
    net:
        A wired :class:`~repro.sim.network.Network` with routing built.
        The engine never schedules packet events on it; it only reads the
        topology/routing and (for link flaps) toggles link state.
    monitored_ports:
        Egress ports whose modelled queue depth is sampled (the
        topology's bottleneck ports).
    rate_sample_interval_ns / queue_sample_interval_ns:
        Enable periodic sampling of per-flow served rates (Jain series)
        and summed monitored-queue depth.  None disables a sampler.
    """

    def __init__(
        self,
        net: Network,
        *,
        monitored_ports: Sequence[Port] = (),
        rate_sample_interval_ns: Optional[float] = None,
        queue_sample_interval_ns: Optional[float] = None,
        md_delay_ns: float = 0.0,
        track_link_utilization: bool = False,
    ):
        self.net = net
        #: How long an oversubscription burst feeds the modeled queue before
        #: multiplicative decrease lands (typically one base RTT).
        self.md_delay_ns = md_delay_ns
        self.now = 0.0
        self.events_executed = 0
        self._flows: Dict[int, _FlowState] = {}
        self._order: List[_FlowState] = []  # registration order (sampling columns)
        #: The active flows in arrival order.  Every per-link sum runs over
        #: this table, so results never depend on hash or ``id()`` order.
        self._active: List[_FlowState] = []
        self._arrivals: List[Tuple[float, int]] = []
        self._arrival_idx = 0
        self._links: Dict[DLink, _Link] = {}
        self._busy: List[_Link] = []  # links with at least one user
        self._monitored: Tuple[_Link, ...] = tuple(
            self._link((p.owner.node_id, p.peer_node.node_id)) for p in monitored_ports
        )
        #: Served bytes per directed link feed hybrid-mode derating.  Only
        #: accumulated when requested: it costs a pass over every flow's
        #: path per event and only :meth:`link_utilization` reads it.
        self._track_utilization = track_link_utilization
        self._rate_interval = rate_sample_interval_ns
        self._queue_interval = queue_sample_interval_ns
        self._rate_samples = _Samples()
        self._queue_samples = _Samples()
        self._next_rate_sample = (
            rate_sample_interval_ns if rate_sample_interval_ns else math.inf
        )
        self._next_queue_sample = (
            queue_sample_interval_ns if queue_sample_interval_ns else math.inf
        )
        self._next_relax = math.inf
        self._next_departure = math.inf
        #: (time, a, b, up) link state toggles, sorted by time.
        self._flaps: List[Tuple[float, int, int, bool]] = []
        self._flap_idx = 0

    # -- setup -------------------------------------------------------------

    def add_flow(self, flow: Flow, params: FluidFlowParams) -> None:
        if flow.flow_id in self._flows:
            raise ValueError(f"duplicate flow id {flow.flow_id}")
        latency = ideal_fct_ns(self.net, flow.src, flow.dst, flow.size)
        path = self._path_links(flow.src, flow.dst, flow.ecmp_hash)
        if path:
            bottleneck = min(self._link(d).cap for d in path)
            if bottleneck > 0:
                latency -= flow.size / bottleneck
        st = _FlowState(
            flow=flow,
            params=params,
            remaining=float(flow.size),
            latency_ns=max(latency, 0.0),
            fid=flow.flow_id,
            tau=params.tau_ns,
        )
        self._flows[flow.flow_id] = st
        self._order.append(st)
        self._arrivals.append((flow.start_time, flow.flow_id))

    def schedule_link_flap(
        self,
        a: int,
        b: int,
        *,
        down_at_ns: float,
        down_for_ns: float,
        period_ns: Optional[float] = None,
        count: int = 1,
    ) -> None:
        """Register link down/up toggles (the fluid form of a link flap)."""
        for i in range(count):
            offset = (period_ns or 0.0) * i
            self._flaps.append((down_at_ns + offset, a, b, False))
            self._flaps.append((down_at_ns + offset + down_for_ns, a, b, True))

    # -- topology helpers --------------------------------------------------

    def _port_capacity(self, dlink: DLink) -> float:
        """Goodput capacity of a directed link in bytes/ns (0 when down)."""
        u, v = dlink
        port = self.net.nodes[u].port_to[v]
        return port.spec.rate_bps / 8e9 * GOODPUT_FRACTION if port.link_up else 0.0

    def _link(self, dlink: DLink) -> _Link:
        """The accumulator record of a directed link, created on first use.

        Capacities are read from the ports here and again after a link flap
        (port lookups are far too slow for the per-event loops).
        """
        link = self._links.get(dlink)
        if link is None:
            link = _Link(len(self._links), self._port_capacity(dlink))
            self._links[dlink] = link
        return link

    def _path_links(
        self, src: int, dst: int, ecmp_hash: int
    ) -> Optional[Tuple[DLink, ...]]:
        """The directed links a flow occupies, via real ECMP tables.

        Mirrors the packet path hop by hop: hosts forward on their single
        uplink; switches pick ``group[hash % len(group)]`` from their
        routing table.  Returns None when the destination is unreachable
        (down links, blackout) — the flow then idles at rate 0 until a
        reroute event restores a path.
        """
        node = self.net.nodes[src]
        links: List[DLink] = []
        for _ in range(len(self.net.nodes)):
            if node.node_id == dst:
                return tuple(links)
            if isinstance(node, Switch):
                group = node.routes.get(dst)
                if not group:
                    return None
                port = group[ecmp_hash % len(group)] if len(group) > 1 else group[0]
            else:
                if not node.ports:
                    return None
                port = node.ports[0]
            if not port.link_up:
                return None
            links.append((node.node_id, port.peer_node.node_id))
            node = port.peer_node
        return None  # pragma: no cover - routing loop (defensive)

    # -- rate bookkeeping --------------------------------------------------

    def _occupy(self, st: _FlowState) -> None:
        path = self._path_links(st.flow.src, st.flow.dst, st.flow.ecmp_hash)
        st.links = tuple(self._link(d) for d in path or ())
        st.link_ids = tuple(link.index for link in st.links)
        for link in st.links:
            link.users[st.fid] = st

    def _vacate(self, st: _FlowState) -> None:
        for link in st.links:
            link.users.pop(st.fid, None)
        st.links = st.link_ids = ()

    def _refresh_busy(self) -> None:
        """Re-list the links in use after flows occupied or vacated some."""
        busy = []
        for link in self._links.values():
            if link.users:
                busy.append(link)
            else:  # nothing crosses it: what the monitored-queue integral reads
                link.load = link.served = 0.0
        self._busy = busy

    def _recompute_targets(self, seeds: Iterable[_FlowState]) -> None:
        """Water-fill the bottleneck component(s) touched by ``seeds``.

        The component is every active flow sharing links (transitively)
        with a seed; each link's users are expanded once.
        """
        component = {st.fid: st for st in seeds if st.active}
        if not component:
            return
        capacities: Dict[int, float] = {}
        frontier = list(component.values())
        while frontier:
            for link in frontier.pop().links:
                if link.index not in capacities:
                    capacities[link.index] = link.cap
                    for fid, st in link.users.items():
                        if fid not in component:
                            component[fid] = st
                            frontier.append(st)
        flow_links: Dict[int, Tuple[int, ...]] = {}
        caps: Dict[int, float] = {}
        for fid, st in component.items():
            flow_links[fid] = st.link_ids
            if not st.links:
                caps[fid] = 0.0  # unroutable: park at zero
            elif st.params.cap_bytes_per_ns is not None:
                caps[fid] = st.params.cap_bytes_per_ns
        targets = max_min_allocation(capacities, flow_links, caps or None)
        for fid, target in targets.items():
            component[fid].target = target

    def _snap_new_flows(self, fresh: List[_FlowState]) -> None:
        """Arrivals start at line rate (or instantly at target for tau=0)."""
        for st in fresh:
            if st.tau == 0.0 or not st.links:
                st.r_int = st.target
                continue
            path_cap = min(link.cap for link in st.links)
            if st.params.cap_bytes_per_ns is not None:
                path_cap = min(path_cap, st.params.cap_bytes_per_ns)
            st.r_int = st.params.start_fraction * path_cap

    # -- the event step ----------------------------------------------------

    def _integrate_links(self, dt: float) -> None:
        """Queue depth and served bytes over ``dt`` at the cached link loads."""
        for link in self._monitored:
            depth = link.queue + (link.load - link.cap) * dt
            link.queue = depth if depth > 0.0 else 0.0
        if self._track_utilization:
            for link in self._busy:
                if link.served > 0.0:
                    link.bytes += link.served * dt

    def _drain_and_relax(self, dt: float) -> List[_FlowState]:
        """Pass A: move every active flow across ``dt``; return the drained.

        Bytes leave at the served rates in force during the interval, and
        intrinsic rates relax first-order toward the targets that were in
        force during it (the event's own state change is applied later).
        """
        self._integrate_links(dt)
        exp = math.exp
        drained = []
        for st in self._active:
            remaining = st.remaining
            r_srv = st.r_srv
            if r_srv > 0.0:
                remaining -= r_srv * dt
                st.remaining = remaining = remaining if remaining > 0.0 else 0.0
            if remaining <= _EPS_BYTES:
                drained.append(st)
            tau = st.tau
            if tau > 0.0:
                target = st.target
                delta = st.r_int - target
                if delta != 0.0:
                    decayed = delta * exp(-dt / tau)
                    # Land exactly on the target once the residual is far
                    # below any physical meaning.
                    if -1e-12 * target < decayed < 1e-12 * target:
                        st.r_int = target
                    else:
                        st.r_int = target + decayed
        return drained

    def _drain_to_timeout(self, timeout_ns: float) -> None:
        """Stop the clock at ``timeout_ns``: drain, but change no rate."""
        dt = timeout_ns - self.now
        self.now = timeout_ns
        if dt <= 0.0:
            return
        self._integrate_links(dt)
        eta = math.inf
        for st in self._active:
            if st.r_srv > 0.0:
                remaining = st.remaining - st.r_srv * dt
                st.remaining = remaining = remaining if remaining > 0.0 else 0.0
                eta = min(eta, timeout_ns + remaining / st.r_srv)
        self._next_departure = eta  # what a resumed run waits for

    def _rescale(self, commit: bool) -> None:
        """Pass B: link loads, served rates, next departure and relax tick.

        Served = intrinsic scaled so no link exceeds its capacity.

        ``commit`` is the multiplicative decrease, applied when congestion
        appears (an arrival oversubscribes a link, a flap reroutes flows
        onto fewer links): the scaled-down rates become *intrinsic*.  Real
        CC cuts rates within an RTT of congestion onset — much faster than
        it converges to fairness — so the squeeze is immediate while the
        squeezed vector relaxes toward the fair targets with lag ``tau``.
        This is what makes late arrivals (fresh window, full rate) hold
        more than their fair share while incumbents sit below it: the
        paper's unfairness signature, persisting for O(tau).

        The burst of excess demand between congestion onset and the cut —
        roughly one base RTT of (load - capacity) — is what a real switch
        buffers, so it is credited to the monitored queues
        (``md_delay_ns``); the queues then drain in
        :meth:`_integrate_links` whenever departures leave the links
        under-loaded.
        """
        active, busy = self._active, self._busy
        for link in busy:
            link.load = 0.0
        for st in active:
            if st.tau == 0.0:
                st.r_int = st.target  # no lag: track the target exactly
            r_int = st.r_int
            for link in st.links:
                link.load += r_int
        squeezed = False
        for link in busy:
            if link.load > link.cap:
                link.factor = link.cap / link.load
                squeezed = True
            else:
                link.factor = 1.0
        if commit and self.md_delay_ns > 0.0:
            for link in self._monitored:
                excess = link.load - link.cap
                if excess > 0.0:
                    link.queue += excess * self.md_delay_ns

        now = self.now
        eta = min_tau = math.inf
        for st in active:
            r_srv = r_int = st.r_int
            links = st.links
            if not links:
                r_srv = 0.0
            elif squeezed:
                factor = 1.0
                for link in links:
                    if link.factor < factor:
                        factor = link.factor
                r_srv = r_int * factor
            st.r_srv = r_srv
            if commit:
                st.r_int = r_int = r_srv
            if r_srv > 0.0:
                t = now + st.remaining / r_srv
                if t < eta:
                    eta = t
            # The relax tick follows the fastest flow still off its target.
            tau = st.tau
            if 0.0 < tau < min_tau:
                target = st.target
                scale = target if target > r_int else r_int
                if scale < 1e-9:
                    scale = 1e-9
                delta = r_int - target
                if (delta if delta >= 0.0 else -delta) > _RELAX_TOL * scale:
                    min_tau = tau
        self._next_departure = eta
        if min_tau < math.inf:
            tick = min_tau / 4.0
            if tick < _MIN_RELAX_TICK_NS:
                tick = _MIN_RELAX_TICK_NS
            self._next_relax = now + tick
        else:
            self._next_relax = math.inf

        # What the next event's link integration reads.  After a commit
        # intrinsic and served rates coincide, so one sum gives both loads.
        if commit or self._track_utilization:
            for link in busy:
                link.served = 0.0
            for st in active:
                r_srv = st.r_srv
                for link in st.links:
                    link.served += r_srv
            if commit:
                for link in busy:
                    link.load = link.served

    # -- sampling ----------------------------------------------------------

    def _take_rate_sample(self) -> None:
        # Served rates are zero before arrival and after departure.
        self._rate_samples.times.append(self.now)
        self._rate_samples.values.append([st.r_srv * 8e9 for st in self._order])

    def _take_queue_sample(self) -> None:
        self._queue_samples.times.append(self.now)
        self._queue_samples.values.append(sum(link.queue for link in self._monitored))

    def rate_series(self) -> Tuple[List[float], List[List[float]]]:
        """(times, rates_bps rows) in flow registration order."""
        return self._rate_samples.times, self._rate_samples.values

    def queue_series(self) -> Tuple[List[float], List[float]]:
        """(times, summed monitored queue depth in bytes)."""
        return self._queue_samples.times, self._queue_samples.values

    def link_utilization(self, elapsed_ns: Optional[float] = None) -> Dict[DLink, float]:
        """Time-averaged served utilization per directed link in [0, 1].

        ``elapsed_ns`` defaults to the current simulation time.  Hybrid
        mode uses this to derate packet-network link rates by the fluid
        background load.  Utilization is measured against the link's
        *goodput* capacity regardless of its current up/down state.
        """
        if not self._track_utilization:
            raise RuntimeError(
                "link utilization was not tracked; construct the engine "
                "with track_link_utilization=True"
            )
        elapsed = self.now if elapsed_ns is None else elapsed_ns
        if elapsed <= 0.0:
            return {}
        out: Dict[DLink, float] = {}
        for dlink, link in sorted(self._links.items()):
            if link.bytes <= 0.0:
                continue
            u, v = dlink
            spec = self.net.nodes[u].port_to[v].spec
            cap = spec.rate_bps / 8e9 * GOODPUT_FRACTION
            if cap > 0.0:
                out[dlink] = min(1.0, link.bytes / (cap * elapsed))
        return out

    def _emit_series_trace(self) -> None:
        """Mirror the sampled series onto the tracer as counter events.

        Parity with the packet backend's flight recorder: when both the
        recorder and the tracer are on, the fluid run's queue/rate series
        land in the trace shard as virtual-time counters (``cat``
        ``flightrec``), so ``obs stitch`` rescales them with every other
        shard event and merged Perfetto timelines stay aligned.
        """
        tr = obs_tracer.TRACER
        if tr is None or obs_flightrec.RECORDER is None:
            return
        for ts, depth in zip(self._queue_samples.times, self._queue_samples.values):
            tr.counter("queue fluid", ts, {"bytes": depth}, cat="flightrec")
        # Per-flow rate lanes are capped like the recorder's timeline —
        # a datacenter-scale run would otherwise emit thousands of tracks.
        shown = self._order[: obs_flightrec.TIMELINE_FLOWS_CAP]
        for row_idx, ts in enumerate(self._rate_samples.times):
            row = self._rate_samples.values[row_idx]
            for col, st in enumerate(shown):
                tr.counter(
                    f"rate flow {st.fid}", ts, {"bps": row[col]}, cat="flightrec"
                )
        if self._track_utilization and self.now > 0.0:
            for (u, v), util in sorted(self.link_utilization().items()):
                tr.counter(
                    f"util {u}->{v}", self.now, {"utilization": util},
                    cat="flightrec",
                )

    # -- main loop ---------------------------------------------------------

    def run(self, timeout_ns: float) -> CompletionStatus:
        """Advance the fluid simulation until done or ``timeout_ns``.

        One event costs two passes over the table of active flows
        (:meth:`_drain_and_relax` before the state change,
        :meth:`_rescale` after it) plus, when flows arrive, depart or are
        re-pathed, one water-filling of the component they touch.
        """
        events_start = self.events_executed
        self._arrivals.sort()
        self._flaps.sort()
        arrivals, flaps = self._arrivals, self._flaps
        stop_reason = "completed"
        # Hoisted once per run, same idiom as the packet engine's registry
        # hook: off costs one local None test per loop iteration.
        prof = obs_profiler.PHASE_HOOKS
        if prof is not None:
            prof.push("fluid.run")
        while True:
            have_arrival = self._arrival_idx < len(arrivals)
            if not self._active and not have_arrival:
                break
            t_next = min(
                arrivals[self._arrival_idx][0] if have_arrival else math.inf,
                self._next_departure,
                flaps[self._flap_idx][0] if self._flap_idx < len(flaps) else math.inf,
                self._next_relax,
                self._next_rate_sample,
                self._next_queue_sample,
            )
            if math.isinf(t_next):
                stop_reason = "stalled"
                break
            if t_next > timeout_ns:
                self._drain_to_timeout(timeout_ns)
                stop_reason = "timeout"
                break
            dt = t_next - self.now
            if dt <= 0.0:
                drained = [st for st in self._active if st.remaining <= _EPS_BYTES]
            elif prof is None:
                drained = self._drain_and_relax(dt)
            else:
                prof.push("fluid.relax")
                drained = self._drain_and_relax(dt)
                prof.pop()
            self.now = now = t_next
            # Flows whose bottleneck component must be water-filled again,
            # and the arrivals among them.
            changed: Dict[int, _FlowState] = {}
            fresh: List[_FlowState] = []

            # Departures: flows fully drained as of t_next.
            for st in drained:
                st.remaining = 0.0
                st.flow.finish_time = now + st.latency_ns
                st.active = False
                # Seed the water-fill with the survivors that shared a link
                # with the departing flow.
                for link in st.links:
                    changed.update(link.users)
                self._vacate(st)
                st.r_int = st.r_srv = 0.0
                self.events_executed += 1
            if drained:
                self._active = [st for st in self._active if st.active]

            # Arrivals due now.
            while (
                self._arrival_idx < len(arrivals)
                and arrivals[self._arrival_idx][0] <= now
            ):
                st = self._flows[arrivals[self._arrival_idx][1]]
                self._arrival_idx += 1
                st.flow.started = True
                st.active = True
                self._active.append(st)
                self._occupy(st)
                changed[st.fid] = st
                fresh.append(st)
                self.events_executed += 1

            # Link flaps due now: toggle state and re-path every active flow
            # (routing tables changed globally; flaps are rare).
            flapped = False
            while self._flap_idx < len(flaps) and flaps[self._flap_idx][0] <= now:
                _, a, b, up = flaps[self._flap_idx]
                self._flap_idx += 1
                self.net.set_link_state(a, b, up)
                flapped = True
                self.events_executed += 1
            if flapped:
                for dlink, link in self._links.items():
                    link.cap = self._port_capacity(dlink)
                for st in self._active:
                    self._vacate(st)
                for st in self._active:
                    self._occupy(st)
                    changed[st.fid] = st

            if changed:
                self._refresh_busy()
                if prof is None:
                    self._recompute_targets(changed.values())
                else:
                    prof.push("fluid.relax")
                    self._recompute_targets(changed.values())
                    prof.pop()
                self._snap_new_flows(fresh)
            if now >= self._next_relax:
                self.events_executed += 1
            self._rescale(commit=bool(fresh) or flapped)

            if now >= self._next_rate_sample:
                self._take_rate_sample()
                self._next_rate_sample += self._rate_interval
                self.events_executed += 1
            if now >= self._next_queue_sample:
                self._take_queue_sample()
                self._next_queue_sample += self._queue_interval
                self.events_executed += 1

        if prof is not None:
            prof.pop()
        self._emit_series_trace()
        incomplete = tuple(
            sorted(fid for fid, st in self._flows.items() if not st.flow.completed)
        )
        return CompletionStatus(
            completed=not incomplete,
            stop_reason="completed" if not incomplete else stop_reason,
            incomplete_flows=incomplete,
            events_executed=self.events_executed - events_start,
        )
