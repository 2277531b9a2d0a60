"""Network assembly and experiment orchestration.

:class:`Network` owns the simulator, the devices, and the wiring, and offers
the high-level operations experiments need:

* ``add_host`` / ``add_switch`` / ``connect`` — topology construction;
* ``build_routing`` — ECMP tables from shortest paths (call after wiring);
* ``add_flow`` — register a flow with a congestion-control instance;
* ``run`` — advance the event loop;
* path/RTT utilities used to configure protocols (base RTT, min BDP).

Determinism: a single seeded :class:`random.Random` drives every stochastic
choice (RED marking); workload generators take their own seeds.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from .engine import Simulator
from .flow import Flow
from .host import CCOrFactory, Host
from .link import LinkSpec
from .packet import ACK_BYTES, HEADER_BYTES
from .pfc import PfcConfig
from .port import Port, RedConfig
from .routing import bfs_distances, next_hops
from .switch import Switch


@dataclass(frozen=True)
class RunBudget:
    """Hard per-run safety limits for :meth:`Network.run_until_flows_complete`.

    ``wall_clock_s`` bounds real elapsed time; ``max_events`` bounds executed
    simulator events.  Either breach stops the run with the matching
    ``stop_reason`` so a single pathological simulation cannot wedge a sweep.
    Budgets never alter event ordering, so a run that finishes within budget
    is byte-identical to an unbudgeted one.
    """

    wall_clock_s: Optional[float] = None
    max_events: Optional[int] = None

    def __post_init__(self) -> None:
        if self.wall_clock_s is not None and self.wall_clock_s < 0:
            raise ValueError("wall_clock_s must be non-negative")
        if self.max_events is not None and self.max_events < 0:
            raise ValueError("max_events must be non-negative")


@dataclass
class CompletionStatus:
    """Outcome of :meth:`Network.run_until_flows_complete`.

    Truthiness preserves the old boolean contract (``bool(status)`` is "all
    flows completed"), while the fields make a partial run distinguishable
    downstream: which flows never finished and why the loop stopped
    (``"completed"``, ``"timeout"``, ``"stalled"``, ``"wall_clock"`` or
    ``"max_events"``).
    """

    completed: bool
    stop_reason: str
    incomplete_flows: Tuple[int, ...]
    events_executed: int

    def __bool__(self) -> bool:
        return self.completed

    @property
    def watchdog_expired(self) -> bool:
        """True when a :class:`RunBudget` limit (not simulated time) stopped us."""
        return self.stop_reason in ("wall_clock", "max_events")


class Network:
    """A wired topology plus its event loop and flow registry."""

    def __init__(self, seed: int = 1):
        self.sim = Simulator()
        self.rng = random.Random(seed)
        self.nodes: List = []
        self.hosts: List[Host] = []
        self.switches: List[Switch] = []
        self.flows: Dict[int, Flow] = {}
        self._adjacency: Dict[int, List[int]] = {}
        self._routing_built = False
        self._next_flow_id = 0
        self.completed_flows: List[Flow] = []
        #: Links currently administratively/physically down, as (lo, hi) pairs.
        self._down_links: Set[Tuple[int, int]] = set()
        #: (src, dst) -> node path, valid for the current effective adjacency.
        self._paths: Dict[Tuple[int, int], List[int]] = {}
        #: dst -> BFS hop distances toward it over the same adjacency; routing
        #: tables, paths and hop counts all read it (one search per dst).
        self._dist: Dict[int, Dict[int, int]] = {}

    # -- topology construction --------------------------------------------------

    def add_host(self, name: Optional[str] = None, **kwargs) -> Host:
        node_id = len(self.nodes)
        host = Host(self.sim, node_id, name or f"h{node_id}", **kwargs)
        host.completion_callbacks.append(self._on_flow_complete)
        self.nodes.append(host)
        self.hosts.append(host)
        self._adjacency[node_id] = []
        return host

    def add_switch(self, name: Optional[str] = None) -> Switch:
        node_id = len(self.nodes)
        sw = Switch(self.sim, node_id, name or f"s{node_id}")
        self.nodes.append(sw)
        self.switches.append(sw)
        self._adjacency[node_id] = []
        return sw

    def connect(
        self,
        a,
        b,
        rate_bps: float,
        prop_delay_ns: float,
        *,
        max_queue_bytes: Optional[float] = None,
        red: Optional[RedConfig] = None,
        pfc: Optional[PfcConfig] = None,
    ) -> Tuple[Port, Port]:
        """Create a bidirectional link between nodes ``a`` and ``b``.

        Returns the two egress ports ``(a->b, b->a)``.  Switch egress ports
        stamp INT; host NIC ports do not (telemetry comes from the fabric).
        """
        if self._routing_built:
            raise RuntimeError("cannot modify topology after build_routing()")
        spec = LinkSpec(rate_bps, prop_delay_ns)
        port_ab = Port(
            self.sim,
            a,
            spec,
            index=len(a.ports),
            max_queue_bytes=max_queue_bytes,
            red=red,
            rng=self.rng,
            stamp_int=isinstance(a, Switch),
            pfc=pfc,
        )
        port_ba = Port(
            self.sim,
            b,
            spec,
            index=len(b.ports),
            max_queue_bytes=max_queue_bytes,
            red=red,
            rng=self.rng,
            stamp_int=isinstance(b, Switch),
            pfc=pfc,
        )
        port_ab.attach_peer(b, port_ba)
        port_ba.attach_peer(a, port_ab)
        a.attach_port(port_ab, b.node_id)
        b.attach_port(port_ba, a.node_id)
        self._adjacency[a.node_id].append(b.node_id)
        self._adjacency[b.node_id].append(a.node_id)
        self._paths.clear()
        self._dist.clear()
        return port_ab, port_ba

    def build_routing(self) -> None:
        """Populate every switch's ECMP tables for every host destination."""
        self._rebuild_routing()
        self._routing_built = True

    def _effective_adjacency(self) -> Dict[int, List[int]]:
        """The adjacency map with failed links removed."""
        if not self._down_links:
            return self._adjacency
        down = self._down_links
        return {
            u: [v for v in nbrs if (min(u, v), max(u, v)) not in down]
            for u, nbrs in self._adjacency.items()
        }

    def _distances(
        self, dst: int, adjacency: Optional[Dict[int, List[int]]] = None
    ) -> Dict[int, int]:
        """Hop distances toward ``dst``, searched once per adjacency change."""
        dist = self._dist.get(dst)
        if dist is None:
            if adjacency is None:
                adjacency = self._effective_adjacency()
            dist = self._dist[dst] = bfs_distances(adjacency, dst)
        return dist

    def _rebuild_routing(self) -> None:
        adj = self._effective_adjacency()
        for sw in self.switches:
            sw.routes.clear()
        for host in self.hosts:
            dist = self._distances(host.node_id, adj)
            for sw in self.switches:
                if sw.node_id not in dist:
                    continue  # unreachable (disconnected test topologies)
                hops = next_hops(adj, dist, sw.node_id)
                sw.set_route(host.node_id, tuple(sw.port_to[h] for h in hops))

    # -- fault handling -----------------------------------------------------------

    def set_link_state(self, a: int, b: int, up: bool) -> None:
        """Mark the a<->b link up or down and reroute around it.

        Packets that finish serializing on a down link are lost (counted as
        ``fault_drops`` on the port); packets already propagating when the
        link fails still arrive, matching the cut-cable intuition.  Routing
        tables are rebuilt immediately, and switches move to
        drop-on-unroutable mode since transient unreachability is now
        legitimate.
        """
        port_ab = self.nodes[a].port_to.get(b)
        port_ba = self.nodes[b].port_to.get(a)
        if port_ab is None or port_ba is None:
            raise ValueError(f"no link between nodes {a} and {b}")
        # Link state is now dynamic: fused transmission (which commits
        # delivery at serialization start) must not be used from here on.
        self.disable_port_fusion()
        key = (min(a, b), max(a, b))
        if up:
            self._down_links.discard(key)
        else:
            self._down_links.add(key)
        self._paths.clear()
        self._dist.clear()
        changed = port_ab.link_up != up
        port_ab.link_up = up
        port_ba.link_up = up
        if self._routing_built and changed:
            for sw in self.switches:
                sw.drop_unroutable = True
            self._rebuild_routing()

    def set_switch_state(self, switch_id: int, up: bool) -> None:
        """Take every link of one switch down (or back up) — a blackout."""
        node = self.nodes[switch_id]
        if not isinstance(node, Switch):
            raise TypeError(f"node {switch_id} ({node.name}) is not a switch")
        for neighbour in self._adjacency[switch_id]:
            self.set_link_state(switch_id, neighbour, up)

    def link_is_up(self, a: int, b: int) -> bool:
        return (min(a, b), max(a, b)) not in self._down_links

    def enable_loss_recovery(self, **kwargs) -> None:
        """Enable go-back-N retransmission on every host (see ``Host``)."""
        for host in self.hosts:
            host.enable_loss_recovery(**kwargs)

    def disable_port_fusion(self) -> None:
        """Force every port onto the two-event transmit path.

        Called automatically the moment link-state faults become possible
        (:meth:`set_link_state`, link/switch fault injectors): the fused path
        decides delivery at serialization start, which is only equivalent
        when links cannot die mid-serialization.
        """
        for node in self.nodes:
            for port in node.ports:
                port.allow_fusion = False

    # -- path utilities -----------------------------------------------------------

    def hop_count(self, src: int, dst: int) -> int:
        """Links on a shortest path between two nodes (live links only)."""
        return self._distances(dst)[src]

    def path_rtt_ns(self, src: int, dst: int, mtu_payload: int = 1000) -> float:
        """Unloaded round-trip estimate for CC base-RTT configuration.

        Forward direction: per hop, one full-MTU serialization plus
        propagation (store-and-forward); reverse: ACK serialization plus
        propagation.  Assumes the (common) case of uniform link rates along
        the path; with heterogeneous rates this is the hop-wise sum using each
        hop's own rate, which is exact for an unloaded network.
        """
        path = self._shortest_path(src, dst)
        rtt = 0.0
        pkt_size = mtu_payload + HEADER_BYTES
        for u, v in zip(path, path[1:]):
            spec = self.nodes[u].port_to[v].spec
            rtt += spec.serialization_ns(pkt_size) + spec.prop_delay_ns
        for u, v in zip(path, path[1:]):
            spec = self.nodes[v].port_to[u].spec
            rtt += spec.serialization_ns(ACK_BYTES) + spec.prop_delay_ns
        return rtt

    def min_bdp_bytes(self, src: int, dst: int) -> float:
        """Line-rate-at-source x base-RTT product, the paper's Token_Thresh."""
        host = self.nodes[src]
        rate = host.ports[0].spec.rate_bps
        return rate / 8.0 * self.path_rtt_ns(src, dst) / 1e9

    def _shortest_path(self, src: int, dst: int) -> List[int]:
        """Node path, lowest distance first; remembered (do not mutate) until
        the effective adjacency changes."""
        path = self._paths.get((src, dst))
        if path is not None:
            return path
        adjacency = self._effective_adjacency()
        dist = self._distances(dst, adjacency)
        if src not in dist:
            raise RuntimeError(f"no path {src} -> {dst}")
        path = [src]
        node = src
        while node != dst:
            node = min(
                (v for v in adjacency[node] if v in dist),
                key=lambda v: dist[v],
            )
            path.append(node)
        self._paths[src, dst] = path
        return path

    # -- flows ---------------------------------------------------------------------

    def next_flow_id(self) -> int:
        fid = self._next_flow_id
        self._next_flow_id += 1
        return fid

    def add_flow(self, flow: Flow, cc: CCOrFactory) -> Flow:
        """Register a flow: receiver state at dst now, sender state at src
        from its start event on (``cc``: the CC, or a factory called then)."""
        if not self._routing_built:
            raise RuntimeError("call build_routing() before adding flows")
        if flow.flow_id in self.flows:
            raise ValueError(f"duplicate flow id {flow.flow_id}")
        src = self.nodes[flow.src]
        dst = self.nodes[flow.dst]
        if not isinstance(src, Host) or not isinstance(dst, Host):
            raise TypeError("flows must run between hosts")
        self.flows[flow.flow_id] = flow
        dst.add_receiver_flow(flow)
        src.add_sender_flow(flow, cc)
        if flow.flow_id >= self._next_flow_id:
            self._next_flow_id = flow.flow_id + 1
        return flow

    def _on_flow_complete(self, flow: Flow) -> None:
        self.completed_flows.append(flow)

    # -- execution ------------------------------------------------------------------

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        self.sim.run(until=until, max_events=max_events)

    def run_until_flows_complete(
        self,
        timeout_ns: float,
        check_interval_ns: float = 100_000.0,
        *,
        budget: Optional[RunBudget] = None,
    ) -> CompletionStatus:
        """Run until all registered flows complete or a limit is hit.

        Limits are the simulated-time ``timeout_ns`` and, optionally, a
        :class:`RunBudget` (wall-clock seconds and/or executed events).  The
        returned :class:`CompletionStatus` is truthy iff every flow
        completed, preserving the historical boolean contract, and records
        the incomplete flow ids and the stop reason otherwise.
        """
        deadline = self.sim.now() + timeout_ns
        events_start = self.sim.events_executed
        wall_start = time.monotonic()
        stop_reason = "timeout"
        while self.sim.now() < deadline:
            if len(self.completed_flows) == len(self.flows):
                break
            max_events = None
            if budget is not None:
                if (
                    budget.wall_clock_s is not None
                    and time.monotonic() - wall_start >= budget.wall_clock_s
                ):
                    stop_reason = "wall_clock"
                    break
                if budget.max_events is not None:
                    max_events = budget.max_events - (
                        self.sim.events_executed - events_start
                    )
                    if max_events <= 0:
                        stop_reason = "max_events"
                        break
            step_until = min(deadline, self.sim.now() + check_interval_ns)
            self.sim.run(until=step_until, max_events=max_events)
            if self.sim.peek_time() is None:
                # Event heap drained: either everything finished or the
                # simulation deadlocked (e.g. loss without recovery).
                stop_reason = "stalled"
                break
        completed = len(self.completed_flows) == len(self.flows)
        if completed:
            stop_reason = "completed"
        incomplete = tuple(
            sorted(fid for fid, f in self.flows.items() if not f.completed)
        )
        return CompletionStatus(
            completed=completed,
            stop_reason=stop_reason,
            incomplete_flows=incomplete,
            events_executed=self.sim.events_executed - events_start,
        )

    def close(self) -> None:
        """Take a finished network apart so reference counting frees it.

        Nodes, ports and simulator point at each other: left whole, each
        run's network would sit in memory until a full collection came by.
        Flows and counters stay readable; nothing can be run afterwards.
        """
        self.sim.close()
        for node in self.nodes:
            for port in node.ports:
                port.close()
        for host in self.hosts:
            host.completion_callbacks.clear()

    # -- monitoring helpers -------------------------------------------------------

    def total_fault_drops(self) -> int:
        """Packets lost to injected faults or down links (all ports)."""
        return sum(p.fault_drops for n in self.nodes for p in n.ports)

    def total_routing_drops(self) -> int:
        """Packets dropped for lack of a route (reroute transients)."""
        return sum(sw.routing_drops for sw in self.switches)

    def total_retransmitted_bytes(self) -> int:
        """Bytes resent by go-back-N recovery across all sender flows."""
        return sum(f.retransmitted_bytes for f in self.flows.values())

    def total_drops(self) -> int:
        return sum(p.drops for n in self.nodes for p in n.ports)
