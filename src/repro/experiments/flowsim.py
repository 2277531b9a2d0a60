"""Flow-level (`backend="flow"`) and hybrid experiment runners.

The packet runners in :mod:`repro.experiments.runner` simulate every
packet of every flow; the runners here drive the same workloads through
:class:`repro.sim.fluid.FluidEngine` and return the *same result types*
(:class:`~repro.experiments.runner.IncastResult`,
:class:`~repro.experiments.runner.DatacenterResult`), so the metrics,
figure, analytics, and reporting layers work unchanged.

CC awareness
------------

The fluid engine reduces a congestion-control variant to two numbers:

* ``tau`` — the first-order lag with which a flow's rate converges to its
  max-min fair share, in units of the path base RTT.  The paper's whole
  point is that VAI+SF variants converge in a few RTTs where default
  HPCC/Swift take tens; :data:`TAU_RTTS` encodes exactly that ordering.
  The absolute values are calibrated against the packet engine on the
  fig 1/8/9 incasts (``check differential --backends``; scan in DESIGN.md
  sec 13), not derived from protocol equations; the engine integrates in
  closed form, so they carry no step-size or sampling-interval term.
* a rate cap — ``fs_max_cwnd_pkts`` MTUs per base RTT, the bounded-window
  ceiling all variants share in this reproduction.

What flow mode does **not** model: per-packet queueing/PFC dynamics, RED
marking noise, go-back-N retransmission, packet-level fault injection
(a config carrying drop/corrupt faults is rejected loudly; link flaps
*are* supported via :meth:`FluidEngine.schedule_link_flap`).  The modeled
queue series is a diagnostic overhang integral, not a FIFO depth, so
queue-depth figures from flow mode are indicative only.

Hybrid mode
-----------

``backend="hybrid"`` packetizes the latency-sensitive short flows
(``size <= hybrid_packet_max_bytes``) exactly while the long-flow
background stays fluid: the fluid phase runs first, its time-averaged
per-link utilization derates the packet network's link rates, and the
short flows then run packet-level on that residual-capacity network.
On the single-bottleneck incast star every flow is a designated victim,
so incast hybrid degenerates to the packet path (documented, not hidden).
"""

from __future__ import annotations

import time
from dataclasses import replace
from functools import partial
from typing import Dict, List, Optional, Tuple

from ..cc import make_cc, needs_red, uses_cnp
from ..metrics.fairness import convergence_time_ns, jain_series
from ..metrics.fct import FlowRecord, ideal_fct_ns
from ..metrics.queues import queue_stats
from ..sim.flow import Flow
from ..sim.fluid import MTU_PAYLOAD, FluidEngine, FluidFlowParams
from ..sim.network import Network
from ..topology.fattree import build_fattree
from ..topology.star import build_star
from ..workloads.distributions import ScaledDistribution, get_distribution
from ..workloads.incast import staggered_incast
from ..workloads.poisson import generate_poisson_traffic
from .config import DatacenterConfig, FaultConfig, IncastConfig, red_for_rate

__all__ = [
    "TAU_RTTS",
    "fluid_params_for",
    "run_incast_flow",
    "run_incast_hybrid",
    "run_datacenter_flow",
    "run_datacenter_hybrid",
]


# ---------------------------------------------------------------------------
# CC variant -> fluid parameters
# ---------------------------------------------------------------------------

#: Convergence lag per variant family, in base-RTT units, matched by
#: substring in priority order.  VAI+SF variants converge fast (the paper's
#: claim); per-RTT AI at 1 Gbps granularity and probabilistic decrease sit
#: in between; default HPCC/Swift converge slowly.
TAU_RTTS: Tuple[Tuple[str, float], ...] = (
    ("vai-sf", 6.0),
    ("1gbps", 10.0),
    ("prob", 25.0),
    ("dcqcn", 40.0),
)

#: Lag for variants matching no family above (default HPCC/Swift): the
#: minimum of the backend matrix's summed divergence over tau (60-65).
DEFAULT_TAU_RTTS = 60.0


def _tau_rtts(variant: str) -> float:
    for substring, tau in TAU_RTTS:
        if substring in variant:
            return tau
    return DEFAULT_TAU_RTTS


def fluid_params_for(
    variant: str, *, base_rtt_ns: float, fs_max_cwnd_pkts: float
) -> FluidFlowParams:
    """The fluid-engine abstraction of one CC variant on one path."""
    cap = fs_max_cwnd_pkts * MTU_PAYLOAD / base_rtt_ns
    return FluidFlowParams(
        tau_ns=_tau_rtts(variant) * base_rtt_ns,
        cap_bytes_per_ns=cap,
    )


# ---------------------------------------------------------------------------
# Fault handling
# ---------------------------------------------------------------------------


def _install_fluid_faults(
    faults: Optional[FaultConfig], net: Network, engine: FluidEngine, backend: str
) -> None:
    """Translate a FaultConfig for the fluid engine, or reject it loudly."""
    if faults is None:
        return
    if faults.has_packet_faults:
        raise ValueError(
            f"backend={backend!r} cannot model packet-level faults "
            "(drop/corrupt rates); run this config with backend='packet'"
        )
    if faults.link_flap is not None:
        from .runner import _pick_flap_link

        a, b = _pick_flap_link(net)
        down_at_ns, down_for_ns = faults.link_flap
        engine.schedule_link_flap(
            a,
            b,
            down_at_ns=down_at_ns,
            down_for_ns=down_for_ns,
            period_ns=faults.flap_period_ns,
            count=faults.flap_count,
        )


# ---------------------------------------------------------------------------
# Incast
# ---------------------------------------------------------------------------


def run_incast_flow(cfg: IncastConfig) -> "IncastResult":  # noqa: F821
    """The fluid counterpart of the packet incast runner."""
    from .runner import (
        IncastResult,
        _begin_run,
        _check_status,
        _phase,
        _record_run,
    )

    t_begin = time.perf_counter()
    _begin_run(cfg, "incast")
    with _phase("build"):
        topo = build_star(
            cfg.n_senders,
            rate_bps=cfg.rate_bps,
            prop_delay_ns=cfg.prop_delay_ns,
            seed=cfg.seed,
        )
        net = topo.network
        receiver = topo.hosts[-1].node_id
        base_rtt = net.path_rtt_ns(topo.hosts[0].node_id, receiver, MTU_PAYLOAD)
        engine = FluidEngine(
            net,
            monitored_ports=topo.bottleneck_ports,
            rate_sample_interval_ns=cfg.goodput_interval_ns,
            queue_sample_interval_ns=cfg.sample_interval_ns,
            md_delay_ns=base_rtt,
        )
        specs = staggered_incast(
            cfg.n_senders,
            flow_size_bytes=cfg.flow_size_bytes,
            flows_per_batch=cfg.flows_per_batch,
            batch_interval_ns=cfg.batch_interval_ns,
        )
        flows: List[Flow] = []
        params_cache: Dict[int, FluidFlowParams] = {}
        for spec in specs:
            src = topo.hosts[spec.sender_index].node_id
            params = params_cache.get(src)
            if params is None:
                params = fluid_params_for(
                    cfg.variant,
                    base_rtt_ns=net.path_rtt_ns(src, receiver, MTU_PAYLOAD),
                    fs_max_cwnd_pkts=cfg.fs_max_cwnd_pkts,
                )
                params_cache[src] = params
            flow = Flow(
                net.next_flow_id(), src, receiver, spec.size_bytes, spec.start_time_ns
            )
            engine.add_flow(flow, params)
            flows.append(flow)
        _install_fluid_faults(cfg.faults, net, engine, cfg.backend)

    with _phase("simulate"):
        status = engine.run(cfg.timeout_ns)
    _check_status(cfg.describe(), status)

    with _phase("collect"):
        jt, jv = jain_series(*engine.rate_series(), flows)
        qt, qv = engine.queue_series()
        last_start = max(f.start_time for f in flows)
    _record_run(
        "incast",
        cfg.describe(),
        wall_s=time.perf_counter() - t_begin,
        events=engine.events_executed,
        completed=bool(status),
    )
    return IncastResult(
        config=cfg,
        flows=flows,
        jain_times_ns=jt,
        jain_values=jv,
        queue_times_ns=qt,
        queue_values_bytes=qv,
        queue=queue_stats(qt, qv),
        convergence_ns=convergence_time_ns(jt, jv, threshold=0.9, after_ns=last_start),
        last_start_ns=last_start,
        all_completed=bool(status),
        events_executed=engine.events_executed,
        status=status,
        incomplete_flow_ids=status.incomplete_flows,
    )


def run_incast_hybrid(cfg: IncastConfig) -> "IncastResult":  # noqa: F821
    """Hybrid incast: every incast flow is a designated (packetized) flow.

    The star topology has a single shared bottleneck and the incast flows
    *are* the phenomenon under study, so there is no background to keep
    fluid — hybrid honestly degenerates to the exact packet path (the
    result still caches under the hybrid key, since ``cfg`` rides on it).
    """
    from .runner import _run_incast_packet

    return _run_incast_packet(cfg)


# ---------------------------------------------------------------------------
# Datacenter
# ---------------------------------------------------------------------------


def _datacenter_workload(cfg: DatacenterConfig, topo) -> list:
    dist = get_distribution(cfg.workload)
    if cfg.size_scale != 1.0:
        dist = ScaledDistribution(dist, cfg.size_scale)
    return generate_poisson_traffic(
        n_hosts=len(topo.hosts),
        host_rate_bps=cfg.fattree.host_rate_bps,
        load=cfg.load,
        duration_ns=cfg.duration_ns,
        distribution=dist,
        seed=cfg.seed,
    )


def _add_fluid_flows(
    cfg: DatacenterConfig, topo, engine: FluidEngine, specs
) -> List[Flow]:
    """Register trace flows on the engine with per-path CC parameters."""
    net = topo.network
    params_cache: Dict[Tuple[int, int], FluidFlowParams] = {}
    flows: List[Flow] = []
    for spec in specs:
        src = topo.hosts[spec.src_index].node_id
        dst = topo.hosts[spec.dst_index].node_id
        key = (src, dst)
        params = params_cache.get(key)
        if params is None:
            params = fluid_params_for(
                cfg.variant,
                base_rtt_ns=net.path_rtt_ns(src, dst, MTU_PAYLOAD),
                fs_max_cwnd_pkts=cfg.fs_max_cwnd_pkts,
            )
            params_cache[key] = params
        flow = Flow(net.next_flow_id(), src, dst, spec.size_bytes, spec.start_time_ns)
        engine.add_flow(flow, params)
        flows.append(flow)
    return flows


def _records_against(net: Network, flows: List[Flow]) -> List[FlowRecord]:
    """Slowdown records with ideals computed on ``net`` (completed flows)."""
    return [
        FlowRecord(f.size, f.fct, ideal_fct_ns(net, f.src, f.dst, f.size))
        for f in flows
        if f.completed
    ]


def run_datacenter_flow(cfg: DatacenterConfig) -> "DatacenterResult":  # noqa: F821
    """The fluid counterpart of the packet datacenter runner."""
    from .runner import (
        DatacenterResult,
        _begin_run,
        _phase,
        _record_run,
    )

    t_begin = time.perf_counter()
    _begin_run(cfg, "datacenter")
    with _phase("build"):
        topo = build_fattree(cfg.fattree, seed=cfg.seed)
        net = topo.network
        engine = FluidEngine(net)
        specs = _datacenter_workload(cfg, topo)
        flows = _add_fluid_flows(cfg, topo, engine, specs)
        _install_fluid_faults(cfg.faults, net, engine, cfg.backend)

    with _phase("simulate"):
        status = engine.run(cfg.duration_ns + cfg.drain_timeout_ns)

    with _phase("collect"):
        records = _records_against(net, flows)
    _record_run(
        "datacenter",
        cfg.describe(),
        wall_s=time.perf_counter() - t_begin,
        events=engine.events_executed,
        completed=bool(status),
    )
    return DatacenterResult(
        config=cfg,
        records=records,
        n_offered=len(flows),
        n_completed=sum(1 for f in flows if f.completed),
        events_executed=engine.events_executed,
        drops=0,
        status=status,
        incomplete_flow_ids=status.incomplete_flows,
    )


def run_datacenter_hybrid(cfg: DatacenterConfig) -> "DatacenterResult":  # noqa: F821
    """Fluid background + packet foreground on a residual-capacity network.

    Flows larger than ``cfg.hybrid_packet_max_bytes`` run fluid first;
    their time-averaged per-link utilization then derates an identically
    built packet network's link rates (floored at 5% of line rate so no
    link degenerates), and the short flows run packet-level there.  Each
    short flow's slowdown is still measured against the *pristine*
    network's ideal FCT, so hybrid slowdowns are comparable to the other
    backends'.
    """
    from .runner import (
        DatacenterResult,
        _begin_run,
        _phase,
        _record_run,
        get_default_budget,
        make_env,
    )

    if cfg.faults is not None:
        raise ValueError(
            "backend='hybrid' does not support fault injection (the fluid "
            "and packet phases would see different fault timelines); use "
            "backend='packet' or backend='flow'"
        )
    t_begin = time.perf_counter()
    _begin_run(cfg, "datacenter")
    with _phase("build"):
        topo = build_fattree(cfg.fattree, seed=cfg.seed)
        net = topo.network
        engine = FluidEngine(net)
        specs = _datacenter_workload(cfg, topo)
        long_specs = [s for s in specs if s.size_bytes > cfg.hybrid_packet_max_bytes]
        short_specs = [s for s in specs if s.size_bytes <= cfg.hybrid_packet_max_bytes]
        long_flows = _add_fluid_flows(cfg, topo, engine, long_specs)

    with _phase("simulate"):
        fluid_status = engine.run(cfg.duration_ns + cfg.drain_timeout_ns)
        utilization = engine.link_utilization(max(engine.now, cfg.duration_ns))

        # Packet phase on an identically built network with derated links.
        red = red_for_rate(cfg.fattree.host_rate_bps) if needs_red(cfg.variant) else None
        ptopo = build_fattree(cfg.fattree, seed=cfg.seed, red=red)
        pnet = ptopo.network
        for (u, v), util in sorted(utilization.items()):
            port = pnet.nodes[u].port_to[v]
            residual = port.spec.rate_bps * max(1.0 - util, 0.05)
            port.spec = replace(port.spec, rate_bps=residual)
        short_flows: List[Flow] = []
        cc_cache: Dict[Tuple[int, int], object] = {}
        for spec in short_specs:
            src = ptopo.hosts[spec.src_index].node_id
            dst = ptopo.hosts[spec.dst_index].node_id
            key = (src, dst)
            cc = cc_cache.get(key)
            if cc is None:
                cc = cc_cache[key] = partial(
                    make_cc,
                    cfg.variant,
                    make_env(pnet, src, dst),
                    fs_max_cwnd_pkts=cfg.fs_max_cwnd_pkts,
                )
            flow = Flow(
                pnet.next_flow_id(), src, dst, spec.size_bytes, spec.start_time_ns
            )
            flow.use_cnp = uses_cnp(cfg.variant)
            pnet.add_flow(flow, cc)
            short_flows.append(flow)
        packet_status = pnet.run_until_flows_complete(
            timeout_ns=cfg.duration_ns + cfg.drain_timeout_ns,
            budget=get_default_budget(),
        )

    with _phase("collect"):
        # Ideals for both halves come from the pristine fluid-phase net, so
        # derated link rates don't silently deflate short-flow slowdowns.
        records = _records_against(net, long_flows) + _records_against(
            net, short_flows
        )
    events = engine.events_executed + pnet.sim.events_executed
    _record_run(
        "datacenter",
        cfg.describe(),
        wall_s=time.perf_counter() - t_begin,
        events=events,
        completed=bool(fluid_status) and bool(packet_status),
    )
    result = DatacenterResult(
        config=cfg,
        records=records,
        n_offered=len(long_flows) + len(short_flows),
        n_completed=sum(1 for f in long_flows + short_flows if f.completed),
        events_executed=events,
        drops=pnet.total_drops(),
        status=packet_status,
        incomplete_flow_ids=fluid_status.incomplete_flows
        + packet_status.incomplete_flows,
        fault_drops=pnet.total_fault_drops(),
        retransmitted_bytes=pnet.total_retransmitted_bytes(),
    )
    pnet.close()
    return result
