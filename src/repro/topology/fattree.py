"""Three-layer fat-tree topology (Fig. 7).

The paper's datacenter simulations use the HPCC topology: 320 hosts, five
2-layer pods of 4 ToR + 4 Agg switches each, 16 spine switches; 100 Gbps
host links and 400 Gbps fabric links, 1 us propagation per link.

Wiring rules (standard folded-Clos):

* every host connects to exactly one ToR;
* within a pod, every ToR connects to every Agg (full bipartite);
* spine switches are partitioned into ``aggs_per_pod`` planes; Agg ``i`` of
  every pod connects to every spine in plane ``i``.

The builder is fully parameterized so benches can run scaled-down instances
(e.g. 2 pods x 2x2 switches x 4 hosts at 10/40 Gbps) while unit tests verify
the paper-scale instance's structure (Fig. 7 reproduction).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..sim.network import Network
from ..sim.pfc import PfcConfig
from ..sim.port import RedConfig
from ..units import gbps, us
from .base import Topology


@dataclass(frozen=True)
class FatTreeParams:
    """Shape and link-speed parameters; defaults are the paper's (Fig. 7)."""

    pods: int = 5
    tors_per_pod: int = 4
    aggs_per_pod: int = 4
    hosts_per_tor: int = 16
    spines: int = 16
    host_rate_bps: float = gbps(100.0)
    fabric_rate_bps: float = gbps(400.0)
    prop_delay_ns: float = us(1.0)

    def __post_init__(self) -> None:
        if min(self.pods, self.tors_per_pod, self.aggs_per_pod, self.hosts_per_tor) < 1:
            raise ValueError("all fat-tree dimensions must be >= 1")
        if self.spines % self.aggs_per_pod != 0:
            raise ValueError(
                f"spines ({self.spines}) must be divisible by aggs_per_pod "
                f"({self.aggs_per_pod}) to form planes"
            )

    @property
    def n_hosts(self) -> int:
        return self.pods * self.tors_per_pod * self.hosts_per_tor

    @property
    def n_tors(self) -> int:
        return self.pods * self.tors_per_pod

    @property
    def n_aggs(self) -> int:
        return self.pods * self.aggs_per_pod

    @property
    def spines_per_plane(self) -> int:
        return self.spines // self.aggs_per_pod


def scaled_fattree_params(
    *,
    pods: int = 2,
    tors_per_pod: int = 2,
    aggs_per_pod: int = 2,
    hosts_per_tor: int = 4,
    spines: int = 4,
    host_rate_bps: float = gbps(10.0),
    fabric_rate_bps: float = gbps(40.0),
    prop_delay_ns: float = us(1.0),
) -> FatTreeParams:
    """A laptop-scale instance preserving the 4:1 fabric/host rate ratio."""
    return FatTreeParams(
        pods=pods,
        tors_per_pod=tors_per_pod,
        aggs_per_pod=aggs_per_pod,
        hosts_per_tor=hosts_per_tor,
        spines=spines,
        host_rate_bps=host_rate_bps,
        fabric_rate_bps=fabric_rate_bps,
        prop_delay_ns=prop_delay_ns,
    )


def build_fattree(
    params: Optional[FatTreeParams] = None,
    *,
    seed: int = 1,
    red: Optional[RedConfig] = None,
    pfc: Optional[PfcConfig] = None,
    max_queue_bytes: Optional[float] = None,
) -> Topology:
    """Build the fat-tree and its routing tables.

    Host ordering in :attr:`Topology.hosts` is pod-major, then ToR, then
    host-within-ToR, which experiments use to pick same-pod or cross-pod
    pairs deterministically.
    """
    p = params or FatTreeParams()
    net = Network(seed=seed)
    link_kw = dict(red=red, pfc=pfc, max_queue_bytes=max_queue_bytes)

    spines = [net.add_switch(f"spine{i}") for i in range(p.spines)]
    tors = []
    aggs = []
    hosts = []
    for pod in range(p.pods):
        pod_aggs = [net.add_switch(f"p{pod}agg{a}") for a in range(p.aggs_per_pod)]
        pod_tors = [net.add_switch(f"p{pod}tor{t}") for t in range(p.tors_per_pod)]
        aggs.extend(pod_aggs)
        tors.extend(pod_tors)
        # ToR <-> Agg full bipartite within the pod.
        for tor in pod_tors:
            for agg in pod_aggs:
                net.connect(tor, agg, p.fabric_rate_bps, p.prop_delay_ns, **link_kw)
        # Agg i <-> its spine plane.
        per_plane = p.spines_per_plane
        for a, agg in enumerate(pod_aggs):
            for spine in spines[a * per_plane : (a + 1) * per_plane]:
                net.connect(agg, spine, p.fabric_rate_bps, p.prop_delay_ns, **link_kw)
        # Hosts under each ToR.
        for t, tor in enumerate(pod_tors):
            for h in range(p.hosts_per_tor):
                host = net.add_host(f"p{pod}t{t}h{h}")
                net.connect(host, tor, p.host_rate_bps, p.prop_delay_ns, **link_kw)
                hosts.append(host)

    net.build_routing()
    # Monitor every fabric-facing egress port plus ToR->host ports: that is
    # where datacenter congestion lives.
    bottlenecks = [port for sw in tors + aggs + spines for port in sw.ports]
    return Topology(
        network=net,
        hosts=hosts,
        switches=tors + aggs + spines,
        bottleneck_ports=bottlenecks,
        meta={
            "kind": "fattree",
            "params": p,
            "n_hosts": p.n_hosts,
            "n_switches": len(tors) + len(aggs) + len(spines),
        },
    )
