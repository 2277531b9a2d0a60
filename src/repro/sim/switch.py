"""Output-queued switch with static ECMP routing.

Routing tables are dictionaries ``dst host id -> tuple of candidate egress
ports`` built by :mod:`repro.sim.routing`.  ECMP selection is by the packet's
flow-stable hash, so every flow follows a single path and packets never
reorder (matching RoCE deployments, which pin flows to paths).

PFC: ingress-side byte accounting is kept on the port *facing the upstream
neighbour*; crossing the XOFF watermark sends a PAUSE frame back through that
port, and the accounted bytes are released when the packet completes egress
serialization.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from .. import probe
from .engine import Simulator
from .node import Node
from .packet import PAUSE, Packet
from .port import Port


class RoutingError(RuntimeError):
    """Raised when a packet has no route to its destination."""


class Switch(Node):
    """An output-queued, INT-capable, ECN-capable switch."""

    def __init__(self, sim: Simulator, node_id: int, name: str):
        super().__init__(sim, node_id, name)
        #: dst host node_id -> candidate egress ports (ECMP group)
        self.routes: Dict[int, Tuple[Port, ...]] = {}
        self.packets_forwarded = 0
        #: When True, a missing route drops the packet (counted) instead of
        #: raising.  The network turns this on once link failures make
        #: transient unreachability legitimate; in a healthy topology a
        #: missing route stays a loud configuration error.
        self.drop_unroutable = False
        self.routing_drops = 0

    # -- routing -------------------------------------------------------------

    def set_route(self, dst: int, ports: Tuple[Port, ...]) -> None:
        if not ports:
            raise RoutingError(f"{self.name}: empty ECMP group for dst {dst}")
        self.routes[dst] = ports

    def route(self, pkt: Packet) -> Optional[Port]:
        """Select the egress port for a packet (flow-hash ECMP).

        Returns ``None`` (instead of raising) for an unroutable packet when
        :attr:`drop_unroutable` is set.
        """
        group = self.routes.get(pkt.dst)
        if group is None:
            if self.drop_unroutable:
                return None
            raise RoutingError(
                f"{self.name}: no route to node {pkt.dst} for {pkt!r}"
            )
        if len(group) == 1:
            return group[0]
        return group[pkt.ecmp_hash % len(group)]

    # -- datapath --------------------------------------------------------------

    def receive(self, pkt: Packet, in_port: Optional[Port]) -> None:
        if pkt.kind >= PAUSE:
            # A PFC frame from the neighbour: pause/resume our egress toward it.
            if in_port is not None:
                in_port.apply_pause(pkt)
            return
        if in_port is not None:
            pfc_in = in_port.pfc_ingress
            if pfc_in.config is None:
                # No watermarks to cross: on_enqueue's accounting, no call.
                pfc_in.occupancy += pkt.size
            elif pfc_in.on_enqueue(pkt.size):
                self.send_pfc(in_port, resume=False)
        group = self.routes.get(pkt.dst)
        if group is None:
            out = self.route(pkt)  # raises, or None under drop_unroutable
        elif len(group) == 1:
            out = group[0]
        else:
            out = group[pkt.ecmp_hash % len(group)]
        if out is None:
            # Destination unreachable (failed links): drop, and release the
            # ingress PFC accounting charged above so the pause cannot latch.
            self.routing_drops += 1
            if in_port is not None:
                if in_port.pfc_ingress.on_release(pkt.size):
                    self.send_pfc(in_port, resume=True)
            return
        self.packets_forwarded += 1
        pr = probe.PROBE
        if pr is not None:
            pr.switch_forward(self, pkt, out)
        out.enqueue(pkt, in_port)

    def on_forwarded(self, pkt: Packet, ingress: Port) -> None:
        if ingress.pfc_ingress.on_release(pkt.size):
            self.send_pfc(ingress, resume=True)

    # -- introspection -----------------------------------------------------------

    def total_queue_bytes(self) -> float:
        """Sum of all egress queue occupancies (monitoring)."""
        return sum(p.queue_bytes for p in self.ports)

    def total_drops(self) -> int:
        return sum(p.drops for p in self.ports)
