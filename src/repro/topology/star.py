"""Single-switch star topology (Sec. III-D's incast testbed).

"A single switch topology with 17 hosts and each host has a 100 Gbps link to
the switch, and 16 of the hosts have one flow to the 17th host.  Each link
has 1 us of propagation delay."

The builder generalizes to N senders + 1 receiver.  Host index ``n_senders``
(the last host) is the incast sink; the monitored bottleneck is the switch's
egress port toward it.
"""

from __future__ import annotations

from typing import Optional

from ..sim.network import Network
from ..sim.pfc import PfcConfig
from ..sim.port import RedConfig
from ..units import gbps, us
from .base import Topology


def build_star(
    n_senders: int = 16,
    *,
    rate_bps: float = gbps(100.0),
    prop_delay_ns: float = us(1.0),
    seed: int = 1,
    red: Optional[RedConfig] = None,
    pfc: Optional[PfcConfig] = None,
    max_queue_bytes: Optional[float] = None,
) -> Topology:
    """Build an ``n_senders``-to-1 star through one switch.

    Parameters mirror the paper's Sec. III-D defaults (100 Gbps links, 1 us
    propagation).  ``red``/``pfc``/``max_queue_bytes`` apply to every link.
    """
    if n_senders < 1:
        raise ValueError(f"need at least one sender, got {n_senders}")
    net = Network(seed=seed)
    switch = net.add_switch("sw0")
    hosts = [net.add_host(f"h{i}") for i in range(n_senders + 1)]
    for host in hosts:
        net.connect(
            host,
            switch,
            rate_bps,
            prop_delay_ns,
            red=red,
            pfc=pfc,
            max_queue_bytes=max_queue_bytes,
        )
    net.build_routing()
    receiver = hosts[-1]
    bottleneck = switch.port_to[receiver.node_id]
    return Topology(
        network=net,
        hosts=hosts,
        switches=[switch],
        bottleneck_ports=[bottleneck],
        meta={
            "kind": "star",
            "n_senders": n_senders,
            "rate_bps": rate_bps,
            "prop_delay_ns": prop_delay_ns,
            "receiver_id": receiver.node_id,
        },
    )
