"""Event-driven flow-level (fluid) simulation engine.

The packet engine executes one event per packet per hop — exact, but the
16-flow fig-8 incast costs it ~110k events.  This engine models each flow
as a *rate process* and wakes only when the rate picture changes (a flow
arrives or departs, a link flaps); between wake-ups every rate follows a
closed form.  The same incast costs 16 loop iterations (*Integration step*).

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
  ``r(t) = T + (r(0) - T) * exp(-t / tau)``, with ``tau`` the
  variant's convergence time constant (fast for VAI+SF variants, slow
  for default HPCC/Swift — see :mod:`repro.experiments.flowsim`).
  ``tau = 0`` snaps instantly (ideal fair sharing).
* **Feasibility**: intrinsic rates may oversubscribe a link (a newly
  arrived flow starts at line rate, exactly like a fresh CC window).
  Served rates are intrinsic rates scaled down per link so no link
  exceeds capacity; the overhang feeds a modelled queue on the monitored
  bottleneck links (diagnostic only — queued bytes are not re-delivered,
  the paper's queue figures need depth, not payload).

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

Arrivals and flaps *commit* (:meth:`FluidEngine._rescale`): each link's
summed intrinsic rates end at or below capacity, where the summed targets
already are.  While every flow relaxes with one ``tau`` a link carries
``sum(T) + (load - sum(T)) * exp(-t / tau)``, under capacity until the
next wake-up, so served equals intrinsic: bytes drained, queue depth and
per-link served bytes are read off ``T t + (r(0) - T) tau (1 - exp(-t /
tau))``, and the next departure is that integral's root
(:func:`drain_time_ns`), solved rather than stepped to.  Every incast
interval takes this path; a fig-8 run wakes 16 times at 16 senders, 32 at
32.

With flows of *different* ``tau`` active (fat-tree traces: base RTT grows
with hop count) a fast riser beside a slow faller can push a shared link
over capacity mid-interval, and the per-link scaling has no closed form.
While some flow is off its target such an interval is cut every
``min(tau) / 4`` from the last wake-up: scale factors are refreshed at
each cut and held across the sub-step, inside which the integrals stay
exact (DESIGN.md sec 13).

Samplers are passive: each wake-up that finds samples due records their
instants and one *segment*, the closed form then in force (per active flow
its target, ``r_int - target``, ``tau`` and served scale; per monitored link
its backlog, drift and decays).  :meth:`FluidEngine.rate_series` and
:meth:`FluidEngine.queue_series` evaluate every segment at its instants in
whole-array operations, so no FCT depends on a sampling interval.
``events_executed`` counts arrivals, departures, flaps, sub-steps and
samples *written*; ``wakeups`` counts loop iterations.

Cost
----

One wake-up is two passes over the table of active flows
(:meth:`FluidEngine._advance`, :meth:`FluidEngine._rescale`), each
O(active flows x path length), plus one water-filling of the touched
component.  Newton runs only for flows whose bound ``remaining / max(r, T)``
beats the best departure so far.  A wake-up with samples due records one
segment, O(active flows + monitored links); reading a series back costs one
scalar ``exp`` per (sample, distinct ``tau``) -- numpy's ``exp`` is not
libm's to the last bit -- and numpy does only ``+`` and ``*``, in the
scalar closed form's operand order.  Everything is deterministic: no RNG,
and every sum runs over insertion-ordered tables (never a set, never
``id()`` order).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .. import probe
from ..core.fluid_model import max_min_allocation
from ..metrics.fct import ideal_fct_ns
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

#: A link is oversubscribed when its summed rates exceed capacity by more
#: than this factor.  A commit leaves the sum *at* capacity to within the
#: rounding of the sum itself; those few ulp per user are not an overload.
_FULL = 1.0 + 1e-12


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


def _libm(fn: Any, xs: np.ndarray) -> np.ndarray:
    """``fn`` (a ``math`` function) at every element, one scalar call each:
    numpy's own ``exp`` / ``expm1`` do not round like libm's."""
    return np.array(list(map(fn, xs.tolist())), dtype=float)


def _spread(first: np.ndarray, count: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """For each ``i``, the indexes ``first[i] .. first[i] + count[i] - 1``:
    (which ``i``, index), concatenated."""
    owner = np.repeat(np.arange(count.size), count)
    offset = np.arange(owner.size) - np.repeat(np.cumsum(count) - count, count)
    return owner, first[owner] + offset


def drain_time_ns(need: float, rate: float, target: float, tau: float) -> float:
    """When a flow relaxing from ``rate`` toward ``target`` has moved ``need`` bytes.

    The root of ``need = target t + (rate - target) tau (1 - exp(-t / tau))``
    by Newton's method, started on the side it converges from monotonically:
    a falling rate makes the integral concave (start at the lower bound
    ``need / rate``), a rising one convex (start where its asymptote crosses).
    """
    delta = rate - target
    if delta == 0.0:
        return need / rate if rate > 0.0 else math.inf
    if target <= 0.0 and delta * tau <= need:
        return math.inf  # decays to a standstill first
    t = need / rate if delta > 0.0 else (need - delta * tau) / target
    for _ in range(64):
        em = math.expm1(-t / tau)
        step = (target * t - delta * tau * em - need) / (target + delta * (1.0 + em))
        t -= step
        if -1e-13 * t <= step <= 1e-13 * t:
            break
    return t


#: A directed link: (upstream node id, downstream node id).
DLink = Tuple[int, int]


@dataclass(eq=False)
class _Link:
    """Per-link accumulators the wake-up passes read and write in place."""

    index: int  # position in creation order; the link's id in water-filling
    cap: float  # goodput capacity in bytes/ns, 0 while the link is down
    #: Active flows crossing the link, by flow id, in occupation order.
    users: Dict[int, "_FlowState"] = field(default_factory=dict)
    load: float = 0.0  # sum of the users' intrinsic rates at the last wake-up
    factor: float = 1.0  # cap / load when oversubscribed, else 1
    bytes: float = 0.0  # served bytes its users have been credited with (see _credit)
    # Monitored links only: the backlog at the last wake-up, and load minus
    # capacity since as ``drift + sum(d * exp(-t / tau))``.
    queue: float = 0.0
    drift: float = 0.0  # summed targets minus capacity
    decays: Tuple[Tuple[float, float], ...] = ()  # (tau, summed rate - target)

    def depth(self, t: float) -> float:
        """Backlog ``t`` ns after the last wake-up."""
        depth = self.queue + self.drift * t
        for tau, delta in self.decays:
            depth -= delta * tau * math.expm1(-t / tau)
        return depth if depth > 0.0 else 0.0


@dataclass(eq=False)
class _FlowState:
    flow: Flow
    params: FluidFlowParams
    remaining: float  # payload bytes left at the last wake-up
    latency_ns: float
    fid: int
    col: int  # registration index: the flow's column in the rate series
    tau: float  # params.tau_ns, read once per flow per wake-up
    active: bool = False
    links: Tuple[_Link, ...] = ()  # empty while inactive or unroutable
    link_ids: Tuple[int, ...] = ()  # the links' indexes: water-filling input
    r_int: float = 0.0  # intrinsic (demanded) rate at the last wake-up, bytes/ns
    target: float = 0.0
    factor: float = 0.0  # served / intrinsic rate until the next wake-up
    credited: float = 0.0  # ``remaining`` when the links' ``bytes`` last saw it


@dataclass
class _Sampler:
    interval: Optional[float]
    due: float  # the next instant to write (inf when off)
    times: List[float] = field(default_factory=list)
    #: (index of its first sample, wake-up time) per wake-up that wrote
    #: samples: a segment runs up to the next one's first sample.
    segments: List[Tuple[int, float]] = field(default_factory=list)
    #: The closed forms in force, appended with each segment (see
    #: :meth:`FluidEngine._write_samples` for what one holds).
    forms: List[Any] = field(default_factory=list)

    def record(self, until: float, now: float) -> int:
        """Append the instants due before ``until``; if there are any, open a
        segment at wake-up time ``now``.  Returns how many there were."""
        due = self.due
        if due >= until:
            return 0
        times = self.times
        first = len(times)
        while due < until:
            times.append(due)
            due += self.interval
        self.due = due
        self.segments.append((first, now))
        return len(times) - first

    def layout(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(times, each sample's offset from its wake-up, per segment its
        first sample and its sample count)."""
        times = np.array(self.times, dtype=float)
        first = np.array([seg[0] for seg in self.segments], dtype=np.intp)
        count = np.diff(np.append(first, times.size))
        now = np.array([seg[1] for seg in self.segments], dtype=float)
        return times, times - np.repeat(now, count), first, count


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
        Samplers only observe: they never wake the loop.
    """

    def __init__(
        self,
        net: Network,
        *,
        monitored_ports: Sequence[Port] = (),
        rate_sample_interval_ns: Optional[float] = None,
        queue_sample_interval_ns: Optional[float] = None,
        md_delay_ns: float = 0.0,
    ):
        self.net = net
        #: How long an oversubscription burst feeds the modeled queue before
        #: multiplicative decrease lands (typically one base RTT).
        self.md_delay_ns = md_delay_ns
        self.now = 0.0
        self.events_executed = 0
        self.wakeups = 0  # loop iterations: one per instant at which rates changed
        self._flows: Dict[int, _FlowState] = {}  # in registration order: sampling columns
        #: The active flows in arrival order.  Every per-link sum runs over
        #: this table, so results never depend on hash or ``id()`` order.
        self._active: List[_FlowState] = []
        self._arrivals: List[Tuple[float, int]] = []
        self._arrival_idx = 0
        self._links: Dict[DLink, _Link] = {}
        self._busy: List[_Link] = []  # links with at least one user
        self._mixed = False  # active flows relax with different tau: links can overshoot
        self._monitored: Tuple[_Link, ...] = tuple(
            self._link((p.owner.node_id, p.peer_node.node_id)) for p in monitored_ports
        )
        self._rates = _Sampler(
            rate_sample_interval_ns,
            rate_sample_interval_ns or math.inf,
            forms=[[] for _ in range(6)],
        )
        self._queues = _Sampler(queue_sample_interval_ns, queue_sample_interval_ns or math.inf)
        self._next_substep = math.inf
        self._next_departure = math.inf
        self._departing: Optional[_FlowState] = None  # whose time that is
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
            col=len(self._flows),
            tau=params.tau_ns,
        )
        self._flows[flow.flow_id] = st
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
        (port lookups are far too slow for the per-wake-up loops).
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
        st.credited = st.remaining
        for link in st.links:
            link.users[st.fid] = st

    def _credit(self, st: _FlowState) -> None:
        """Book the bytes ``st`` drained since the last call on its links."""
        moved = st.credited - st.remaining
        st.credited = st.remaining
        for link in st.links:
            link.bytes += moved

    def _vacate(self, st: _FlowState) -> None:
        self._credit(st)
        for link in st.links:
            link.users.pop(st.fid, None)
        st.links = st.link_ids = ()

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

    # -- the wake-up passes ------------------------------------------------

    def _advance(self, t: float) -> List[_FlowState]:
        """Pass A: move every flow to ``t`` by the closed form; return the drained."""
        dt = t - self.now
        self.now = t
        for link in self._monitored:
            link.queue = link.depth(dt)
        expm1 = math.expm1
        drained = []
        em = shared_tau = 0.0  # consecutive flows mostly share one tau
        for st in self._active:
            target = st.target
            moved = target * dt
            delta = st.r_int - target
            if delta != 0.0:
                tau = st.tau
                if tau != shared_tau:
                    em = expm1(-dt / tau)
                    shared_tau = tau
                moved -= delta * tau * em
                decayed = delta + delta * em
                # Land exactly on the target once the residual is far
                # below any physical meaning.
                if -1e-12 * target < decayed < 1e-12 * target:
                    st.r_int = target
                else:
                    st.r_int = target + decayed
            remaining = st.remaining - st.factor * moved
            st.remaining = remaining = remaining if remaining > 0.0 else 0.0
            if remaining <= _EPS_BYTES:
                drained.append(st)
        return drained

    def _rescale(self, commit: bool) -> None:
        """Pass B: link loads, served fractions, next departure and sub-step.

        Served = intrinsic scaled so no link exceeds its capacity.

        ``commit`` is the multiplicative decrease, applied when congestion
        appears (an arrival, a flap): the scaled-down rates become
        *intrinsic*.  Real CC cuts rates within an RTT of congestion onset,
        much faster than it converges to fairness, so the squeeze is
        immediate while the squeezed vector relaxes toward the fair targets
        with lag ``tau``.  Late arrivals (fresh window, full rate) thus hold
        more than their share while incumbents sit below it: the paper's
        unfairness signature, persisting for O(tau).  The excess demand of
        the ``md_delay_ns`` before the cut is what a switch buffers, so it
        is credited to the monitored queues, which drain
        (:meth:`_Link.depth`) once departures leave them under-loaded.
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
            if link.load > link.cap * _FULL:
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
        departing = None
        for st in active:
            links = st.links
            factor = routed = 1.0 if links else 0.0
            if squeezed:
                for link in links:
                    if link.factor < factor:
                        factor = link.factor
            r_int, target = st.r_int, st.target
            if commit and factor != 1.0 and st.tau > 0.0:
                st.r_int = r_int = r_int * factor  # the cut: served becomes intrinsic
                factor = routed
            st.factor = factor
            if r_int != target and st.tau < min_tau:
                min_tau = st.tau
            peak = r_int if r_int > target else target
            if factor > 0.0 and peak > 0.0:
                # A lower bound (exact for a flow on its target): solve only
                # for flows that could leave before the best so far.
                t = now + st.remaining / (factor * peak)
                if t < eta:
                    if r_int != target:
                        t = now + drain_time_ns(st.remaining / factor, r_int, target, st.tau)
                    if t < eta:
                        eta = t
                        departing = st
        self._next_departure = eta
        self._departing = departing
        self._next_substep = now + min_tau / 4.0 if self._mixed else math.inf
        self._aim_queues()

    def _aim_queues(self) -> None:
        """Give each monitored link the closed form of its load from now on."""
        for link in self._monitored:
            drift = -link.cap
            decays: Dict[float, float] = {}
            for st in link.users.values():
                drift += st.target
                if st.r_int != st.target:
                    decays[st.tau] = decays.get(st.tau, 0.0) + st.r_int - st.target
            link.drift = drift
            link.decays = tuple(decays.items())

    # -- sampling ----------------------------------------------------------

    def _write_samples(self, until: float, inclusive: bool = False) -> None:
        """Record the samples due before ``until`` (or at it, when ``inclusive``).

        A sample due exactly at a wake-up is written after it, so it sees
        the rates that wake-up set.  With the instants goes one segment:
        for rates a term per active flow, ``(segment, column, target,
        r_int - target, tau, bits/s scale)`` appended to six parallel
        lists; for queues ``(backlog, drift, decays)`` per monitored link.
        """
        if inclusive:
            until = math.nextafter(until, math.inf)
        rates, queues = self._rates, self._queues
        written = rates.record(until, self.now)
        if written:
            segment = len(rates.segments) - 1
            terms = [
                (segment, st.col, st.target, st.r_int - st.target, st.tau, st.factor * 8e9)
                for st in self._active
            ]
            for column, values in zip(rates.forms, zip(*terms)):
                column.extend(values)
        queued = queues.record(until, self.now)
        if queued:
            queues.forms.append([(link.queue, link.drift, link.decays) for link in self._monitored])
        self.events_executed += written + queued

    def rate_series(self) -> Tuple[np.ndarray, np.ndarray]:
        """(times, served rates in bits/s): one row per sample, one column per
        flow in registration order, zero before arrival and after departure.

        Each value is ``(target + delta * exp(-dt / tau)) * scale``, the
        scalar closed form's operations in its order.
        """
        times, dt, first, count = self._rates.layout()
        segment, col = (np.array(c, dtype=np.intp) for c in self._rates.forms[:2])
        target, delta, tau, scale = (np.array(c, dtype=float) for c in self._rates.forms[2:])
        # Pair every term with each sample of its segment.
        term, sample = _spread(first[segment], count[segment])
        # One exp per (sample, tau) that a decaying flow needs, in a table
        # that every flow decaying with that tau reads.
        taus, tau_id = np.unique(tau, return_inverse=True)
        key = sample * taus.size + tau_id[term]
        decays = delta[term] != 0.0
        needed = np.zeros(times.size * taus.size, dtype=bool)
        needed[key[decays]] = True
        (slot,) = np.nonzero(needed)
        exp = np.zeros(needed.size)
        exp[slot] = _libm(math.exp, -dt[slot // taus.size] / taus[slot % taus.size])
        rate = np.where(decays, target[term] + delta[term] * exp[key], target[term])
        rows = np.zeros((times.size, len(self._flows)))
        rows[sample, col[term]] = rate * scale[term]
        return times, rows

    def queue_series(self) -> Tuple[np.ndarray, np.ndarray]:
        """(times, summed monitored queue depth in bytes), as :meth:`_Link.depth`
        computes it: decays subtracted in order, links summed in order."""
        times, dt, _, count = self._queues.layout()
        total = np.zeros(times.size)
        forms = self._queues.forms
        for i in range(len(self._monitored)):
            links = [form[i] for form in forms]
            depth = np.repeat([q for q, _, _ in links], count) + (
                np.repeat([d for _, d, _ in links], count) * dt
            )
            for j in range(max((len(decays) for _, _, decays in links), default=0)):
                # Each segment's j-th decay; a segment with fewer subtracts 0.
                pairs = [decays[j] if j < len(decays) else (0.0, 0.0) for _, _, decays in links]
                tau = np.repeat([t for t, _ in pairs], count)
                weight = np.repeat([d * t for t, d in pairs], count)
                em = np.zeros(times.size)
                has = tau > 0.0
                em[has] = _libm(math.expm1, -dt[has] / tau[has])
                depth = depth - weight * em
            depth = np.where(depth > 0.0, depth, 0.0)
            total = depth if i == 0 else total + depth
        return times, total

    def link_utilization(self, elapsed_ns: Optional[float] = None) -> Dict[DLink, float]:
        """Time-averaged served utilization per directed link in [0, 1].

        ``elapsed_ns`` defaults to the current simulation time.  Hybrid
        mode uses this to derate packet-network link rates by the fluid
        background load.  Utilization is measured against the link's
        *goodput* capacity regardless of its current up/down state.
        """
        elapsed = self.now if elapsed_ns is None else elapsed_ns
        if elapsed <= 0.0:
            return {}
        for st in self._active:  # flows a timeout caught mid-transfer
            self._credit(st)
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

    # -- main loop ---------------------------------------------------------

    def run(self, timeout_ns: float) -> CompletionStatus:
        """Advance the fluid simulation until done or ``timeout_ns``."""
        events_start = self.events_executed
        self._arrivals.sort()
        self._flaps.sort()
        arrivals, flaps = self._arrivals, self._flaps
        stop_reason = "completed"
        # Hoisted once per run, as in the packet engine's loops: off costs
        # one local None test per loop iteration.
        pr = probe.PROBE
        if pr is not None:
            pr.phase_push("fluid.run")
        while True:
            have_arrival = self._arrival_idx < len(arrivals)
            if not self._active and not have_arrival:
                break
            t_next = min(
                arrivals[self._arrival_idx][0] if have_arrival else math.inf,
                self._next_departure,
                flaps[self._flap_idx][0] if self._flap_idx < len(flaps) else math.inf,
                self._next_substep,
            )
            if math.isinf(t_next):
                stop_reason = "stalled"
                break
            if t_next > timeout_ns:
                # Stop the clock: drain, but change no rate or deadline.
                if timeout_ns > self.now:
                    self._write_samples(timeout_ns, inclusive=True)
                    self._advance(timeout_ns)
                    self._aim_queues()
                stop_reason = "timeout"
                break
            self.wakeups += 1
            self._write_samples(t_next)
            if t_next >= self._next_substep:
                self.events_executed += 1
            if t_next >= self._next_departure:
                self._departing.remaining = 0.0  # solved for, whatever rounding left
            drained = self._advance(t_next)
            now = t_next
            # Flows whose bottleneck component must be water-filled again.
            changed: Dict[int, _FlowState] = {}
            fresh = False

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
                if st.links:  # a fresh window: line rate (tau = 0 snaps to target)
                    rate = min(link.cap for link in st.links)
                    if st.params.cap_bytes_per_ns is not None:
                        rate = min(rate, st.params.cap_bytes_per_ns)
                    st.r_int = st.params.start_fraction * rate
                changed[st.fid] = st
                fresh = True
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

            if pr is not None:
                pr.phase_push("fluid.relax")
            if changed:
                self._busy = [link for link in self._links.values() if link.users]
                self._mixed = len({st.tau for st in self._active if st.tau > 0.0}) > 1
                self._recompute_targets(changed.values())
            self._rescale(commit=fresh or flapped)
            if pr is not None:
                pr.phase_pop()

        self._write_samples(self.now, inclusive=True)
        if pr is not None:
            pr.phase_pop()
            # The sampled series, for whoever mirrors them onto a trace.
            pr.fluid_series(self, list(self._flows))
        incomplete = tuple(
            sorted(fid for fid, st in self._flows.items() if not st.flow.completed)
        )
        return CompletionStatus(
            completed=not incomplete,
            stop_reason="completed" if not incomplete else stop_reason,
            incomplete_flows=incomplete,
            events_executed=self.events_executed - events_start,
        )
