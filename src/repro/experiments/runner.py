"""Experiment execution: build topology + workload + protocol, run, measure.

Two entry points:

* :func:`run_incast` — the Sec. III-D / VI-B-1 microbenchmark, returning
  Jain-index and queue-depth time series plus start/finish pairs;
* :func:`run_datacenter` — the Sec. VI-B-2 trace-driven fat-tree runs,
  returning per-flow slowdown records.

Both are deterministic for a given config (seeded RNGs everywhere) and cache
their results process-wide (bounded LRU) so that figure pairs sharing data
(10/12, 11/13) pay for each simulation once.

Hardening (a campaign runs hundreds of these; one bad run must not hide):

* :func:`set_default_budget` installs a process-wide :class:`RunBudget`
  watchdog; a run that breaches it raises :exc:`WatchdogExpired`.
* A run whose flows do not all complete is recorded in an incomplete-run
  registry (:func:`drain_incomplete_runs`) so the CLI can exit non-zero
  with a clear message instead of silently rendering partial figures.

Retry, quarantine and partial results are the campaign's
(:func:`repro.experiments.parallel.run_campaign`), the one path every
figure, extension and sweep takes to its results.

Configs carrying a :class:`repro.experiments.config.FaultConfig` get the
matching :mod:`repro.sim.faults` injectors installed and go-back-N loss
recovery enabled before the run starts.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from .. import probe
from ..cc import CCEnv, make_cc, needs_red, uses_cnp
from ..obs import flightrec as obs_flightrec
from ..obs import profiler as obs_profiler
from ..obs import telemetry as obs_telemetry
from ..metrics.fairness import convergence_time_ns, jain_index, jain_series
from ..metrics.fct import FlowRecord, collect_records, ideal_fct_ns, summarize
from ..metrics.queues import QueueStats, queue_stats
from ..sim.faults import FaultPlan, LinkFlapInjector, PacketDropInjector
from ..sim.flow import Flow
from ..sim.monitor import GoodputMonitor, QueueMonitor
from ..sim.network import CompletionStatus, Network, RunBudget
from ..sim.switch import Switch
from ..topology.base import Topology
from ..topology.fattree import build_fattree
from ..topology.star import build_star
from ..workloads.distributions import ScaledDistribution, get_distribution
from ..workloads.incast import staggered_incast
from ..workloads.poisson import generate_poisson_traffic
from .config import (
    DatacenterConfig,
    FaultConfig,
    IncastConfig,
    apply_default_backend,
    red_for_rate,
)
from .store import get_store


class WatchdogExpired(RuntimeError):
    """A run breached its :class:`RunBudget` (wall clock or event count)."""


#: Process-wide budget applied to every run (None = unbudgeted).
_DEFAULT_BUDGET: Optional[RunBudget] = None

#: Human-readable descriptions of runs whose flows did not all complete.
_INCOMPLETE_RUNS: List[str] = []


def set_default_budget(budget: Optional[RunBudget]) -> None:
    """Install (or clear, with None) the process-wide per-run watchdog."""
    global _DEFAULT_BUDGET
    _DEFAULT_BUDGET = budget


def get_default_budget() -> Optional[RunBudget]:
    return _DEFAULT_BUDGET


def drain_incomplete_runs() -> List[str]:
    """Return and clear the incomplete-run registry (CLI exit-code source)."""
    out = list(_INCOMPLETE_RUNS)
    _INCOMPLETE_RUNS.clear()
    return out


def _phase(name: str):
    """Telemetry phase context (no-op when telemetry is disabled).

    Also mirrors the phase onto the hot-path profiler (when active) so
    runner-level phases (``build``/``simulate``/``collect``) frame the
    engine's finer-grained attribution in the flamegraph output.
    """
    tel = obs_telemetry.TELEMETRY
    prof = obs_profiler.get()
    tel_ctx = tel.phase(name) if tel is not None else nullcontext()
    if prof is None:
        return tel_ctx

    @contextmanager
    def both():
        prof.push(f"runner.{name}")
        try:
            with tel_ctx:
                yield
        finally:
            prof.pop()

    return both()


def _begin_run(cfg: Any, kind: str) -> None:
    """Tell the attached planes that a run of ``cfg`` begins.

    Per-run state resets (the sanitizer's shadow accounting, the recorder's
    working set), so nothing leaks in from the previous run, and an
    :class:`InvariantViolation` names the exact config (description, content
    digest, seed) that reproduces it.
    """
    pr = probe.PROBE
    if pr is not None:
        pr.run_begin(kind, cfg)


def _finish_flightrec(
    net: Network,
    *,
    convergence_ns: Optional[float] = None,
) -> Optional[Dict[str, Any]]:
    """Finalize the flight-recorder run and return its manifest section.

    Supplies the ideal-FCT oracle (so decompositions carry slowdowns and
    sort by them) and the convergence instant for the timeline.  Returns
    ``None`` when the recorder is off.
    """
    rec = obs_flightrec.get()
    if rec is None:
        return None
    return rec.finalize_run(
        ideal_ns_fn=lambda f: ideal_fct_ns(net, f.src, f.dst, f.size),
        convergence_ns=convergence_ns,
    )


def _record_run(kind: str, desc: str, *, wall_s: float, events: int, completed: bool) -> None:
    tel = obs_telemetry.TELEMETRY
    if tel is not None:
        tel.record_run(kind, desc, wall_s=wall_s, events=events, completed=completed)


def _check_status(desc: str, status: CompletionStatus) -> None:
    """Raise on watchdog expiry; register a timeout/stall for the CLI."""
    if status.watchdog_expired:
        raise WatchdogExpired(
            f"{desc}: watchdog stopped the run ({status.stop_reason}) after "
            f"{status.events_executed} events with "
            f"{len(status.incomplete_flows)} flows incomplete"
        )
    if not status.completed:
        _INCOMPLETE_RUNS.append(
            f"{desc}: {status.stop_reason} with flows "
            f"{status.incomplete_flows[:8]} incomplete"
        )


# ---------------------------------------------------------------------------
# Fault installation
# ---------------------------------------------------------------------------


def _pick_flap_link(net: Network) -> Tuple[int, int]:
    """The link a ``FaultConfig.link_flap`` targets.

    Prefer a fabric (switch-switch) link — the interesting reroute case —
    falling back to the first switch port's link on single-switch
    topologies, where flapping any host uplink is the only option.
    """
    for sw in net.switches:
        for port in sw.ports:
            if isinstance(port.peer_node, Switch):
                return sw.node_id, port.peer_node.node_id
    for sw in net.switches:
        if sw.ports:
            return sw.node_id, sw.ports[0].peer_node.node_id
    raise ValueError("topology has no links to flap")


def install_faults(spec: FaultConfig, topo: Topology) -> FaultPlan:
    """Translate a :class:`FaultConfig` into installed injectors.

    Also enables go-back-N loss recovery on every host — dropped data would
    otherwise deadlock its flow on the lossless fabric.
    """
    net = topo.network
    plan = FaultPlan()
    if spec.has_packet_faults:
        if spec.target == "bottleneck":
            ports = list(topo.bottleneck_ports)
        elif spec.target == "fabric":
            ports = [p for sw in net.switches for p in sw.ports]
        else:  # "all"
            ports = [p for n in net.nodes for p in n.ports]
        plan.add(
            PacketDropInjector(
                ports=ports,
                probability=spec.drop_rate,
                corrupt_probability=spec.corrupt_rate,
                every_nth=spec.drop_every_nth,
                seed=spec.seed,
            )
        )
    if spec.link_flap is not None:
        a, b = _pick_flap_link(net)
        down_at_ns, down_for_ns = spec.link_flap
        plan.add(
            LinkFlapInjector(
                a,
                b,
                down_at_ns=down_at_ns,
                down_for_ns=down_for_ns,
                period_ns=spec.flap_period_ns,
                count=spec.flap_count,
            )
        )
    plan.install(net)
    net.enable_loss_recovery(rto_ns=spec.rto_ns)
    return plan


def make_env(network: Network, src: int, dst: int, mtu: int = 1000) -> CCEnv:
    """Per-flow protocol environment from topology facts."""
    host = network.nodes[src]
    return CCEnv(
        line_rate_bps=host.ports[0].spec.rate_bps,
        base_rtt_ns=network.path_rtt_ns(src, dst, mtu),
        mtu_bytes=mtu,
        hops=network.hop_count(src, dst),
        min_bdp_bytes=network.min_bdp_bytes(src, dst),
        rng=network.rng,
    )


def cc_factory(cfg: Any, network: Network, src: int, dst: int) -> Callable[[], Any]:
    """``make_cc`` for ``cfg`` on the src -> dst path, called at a flow's start."""
    env = make_env(network, src, dst)
    return partial(make_cc, cfg.variant, env, fs_max_cwnd_pkts=cfg.fs_max_cwnd_pkts)


# ---------------------------------------------------------------------------
# Incast
# ---------------------------------------------------------------------------


@dataclass
class IncastResult:
    """Everything Figs. 1-3, 5, 6, 8, 9 need from one incast run."""

    config: IncastConfig
    flows: List[Flow]
    jain_times_ns: np.ndarray
    jain_values: np.ndarray
    queue_times_ns: np.ndarray
    queue_values_bytes: np.ndarray
    queue: QueueStats
    convergence_ns: Optional[float]
    last_start_ns: float
    all_completed: bool
    events_executed: int
    status: Optional[CompletionStatus] = None
    incomplete_flow_ids: Tuple[int, ...] = ()
    fault_drops: int = 0
    retransmitted_bytes: int = 0
    #: Flight-recorder run section (None unless the recorder was enabled).
    flightrec: Optional[Dict[str, Any]] = None

    def summary(self) -> Dict[str, Any]:
        """The run's Jain, convergence and flow counts, exact from its series.

        One entry of the telemetry manifest's ``analytics`` section (and of
        the campaign journal and progress line).  An incast result holds no
        per-flow ideal FCT, so ``slowdown`` is ``None``.
        """
        return {
            "samples": len(self.jain_times_ns),
            "flows": len(self.flows),
            "flows_completed": sum(1 for f in self.flows if f.completed),
            "jain": float(self.jain_values[-1]) if len(self.jain_values) else 1.0,
            "convergence_ns": self.convergence_ns,
            "slowdown": None,
        }

    def start_finish_pairs(self) -> List[Tuple[float, float]]:
        """(start, finish) per flow in start order — Figs. 2/3/8/9 data."""
        done = [f for f in self.flows if f.completed]
        return sorted((f.start_time, f.finish_time) for f in done)

    def finish_spread_ns(self) -> float:
        """Max minus min finish time (small = flows finish together)."""
        finishes = [f.finish_time for f in self.flows if f.completed]
        if not finishes:
            return float("nan")
        return max(finishes) - min(finishes)

    def start_finish_correlation(self) -> float:
        """Pearson correlation of start vs finish time.

        Default HPCC/Swift show a *negative* correlation (later flows finish
        first — the paper's unfairness signature); fair variants push it
        toward zero or positive.
        """
        pairs = self.start_finish_pairs()
        if len(pairs) < 3:
            return float("nan")
        starts, finishes = np.array(pairs).T
        if starts.std() == 0 or np.std(finishes) == 0:
            return 0.0
        return float(np.corrcoef(starts, finishes)[0, 1])


def run_incast(cfg: IncastConfig) -> IncastResult:
    """Run one staggered incast on the config's backend.

    ``backend="packet"`` is the exact discrete-event path below;
    ``"flow"`` dispatches to the fluid fast path and ``"hybrid"`` to the
    mixed runner (both in :mod:`repro.experiments.flowsim`, imported
    lazily so the packet path's import graph is unchanged).
    """
    if cfg.backend == "flow":
        from .flowsim import run_incast_flow

        return run_incast_flow(cfg)
    if cfg.backend == "hybrid":
        from .flowsim import run_incast_hybrid

        return run_incast_hybrid(cfg)
    return _run_incast_packet(cfg)


def _run_incast_packet(cfg: IncastConfig) -> IncastResult:
    """Run one staggered incast and collect fairness/queue series."""
    t_begin = time.perf_counter()
    _begin_run(cfg, "incast")
    with _phase("build"):
        red = red_for_rate(cfg.rate_bps) if needs_red(cfg.variant) else None
        topo = build_star(
            cfg.n_senders,
            rate_bps=cfg.rate_bps,
            prop_delay_ns=cfg.prop_delay_ns,
            seed=cfg.seed,
            red=red,
        )
        net = topo.network
        if cfg.faults is not None:
            install_faults(cfg.faults, topo)
        receiver = topo.hosts[-1].node_id
        specs = staggered_incast(
            cfg.n_senders,
            flow_size_bytes=cfg.flow_size_bytes,
            flows_per_batch=cfg.flows_per_batch,
            batch_interval_ns=cfg.batch_interval_ns,
        )
        flows: List[Flow] = []
        for spec in specs:
            src = topo.hosts[spec.sender_index].node_id
            flow = Flow(
                net.next_flow_id(), src, receiver, spec.size_bytes, spec.start_time_ns
            )
            flow.use_cnp = uses_cnp(cfg.variant)
            net.add_flow(flow, cc_factory(cfg, net, src, receiver))
            flows.append(flow)

        qmon = QueueMonitor(
            net.sim, topo.bottleneck_ports, cfg.sample_interval_ns, aggregate="sum"
        ).start()
        gmon = GoodputMonitor(net.sim, flows, net.nodes, cfg.goodput_interval_ns).start()

    with _phase("simulate"):
        status = net.run_until_flows_complete(
            timeout_ns=cfg.timeout_ns, budget=_DEFAULT_BUDGET
        )
    qmon.stop()
    gmon.stop()
    _check_status(cfg.describe(), status)

    with _phase("collect"):
        qt, qv = qmon.series()
        gt, rates = gmon.rates_bps()
        jt, jv = jain_series(gt, rates, flows)
        last_start = max(f.start_time for f in flows)
        conv_ns = convergence_time_ns(jt, jv, threshold=0.9, after_ns=last_start)
        frun = _finish_flightrec(net, convergence_ns=conv_ns)
    _record_run(
        "incast",
        cfg.describe(),
        wall_s=time.perf_counter() - t_begin,
        events=net.sim.events_executed,
        completed=bool(status),
    )
    result = IncastResult(
        config=cfg,
        flows=flows,
        jain_times_ns=jt,
        jain_values=jv,
        queue_times_ns=qt,
        queue_values_bytes=qv,
        queue=queue_stats(qt, qv),
        convergence_ns=conv_ns,
        last_start_ns=last_start,
        all_completed=bool(status),
        events_executed=net.sim.events_executed,
        status=status,
        incomplete_flow_ids=status.incomplete_flows,
        fault_drops=net.total_fault_drops(),
        retransmitted_bytes=net.total_retransmitted_bytes(),
        flightrec=frun,
    )
    net.close()
    return result


# ---------------------------------------------------------------------------
# Datacenter
# ---------------------------------------------------------------------------


@dataclass
class DatacenterResult:
    """Per-flow slowdown records from one trace-driven run."""

    config: DatacenterConfig
    records: List[FlowRecord]
    n_offered: int
    n_completed: int
    events_executed: int
    drops: int
    status: Optional[CompletionStatus] = None
    incomplete_flow_ids: Tuple[int, ...] = ()
    fault_drops: int = 0
    retransmitted_bytes: int = 0
    #: Flight-recorder run section (None unless the recorder was enabled).
    flightrec: Optional[Dict[str, Any]] = None

    @property
    def completion_fraction(self) -> float:
        return self.n_completed / self.n_offered if self.n_offered else 0.0

    def summary(self) -> Dict[str, Any]:
        """The run's slowdown percentiles and flow counts, exact from its records.

        A trace run has no Jain series, so ``convergence_ns`` is ``None`` and
        ``jain`` is Jain's index of each completed flow's normalised
        throughput, ideal FCT over achieved FCT.
        """
        return {
            "samples": 0,
            "flows": self.n_offered,
            "flows_completed": self.n_completed,
            "jain": jain_index(np.array([1.0 / r.slowdown for r in self.records])),
            "convergence_ns": None,
            "slowdown": summarize(self.records),
        }


def run_datacenter(cfg: DatacenterConfig) -> DatacenterResult:
    """Run one fat-tree trace on the config's backend (see run_incast)."""
    if cfg.backend == "flow":
        from .flowsim import run_datacenter_flow

        return run_datacenter_flow(cfg)
    if cfg.backend == "hybrid":
        from .flowsim import run_datacenter_hybrid

        return run_datacenter_hybrid(cfg)
    return _run_datacenter_packet(cfg)


def _run_datacenter_packet(cfg: DatacenterConfig) -> DatacenterResult:
    """Run one fat-tree trace: Poisson arrivals for ``duration``, then drain."""
    t_begin = time.perf_counter()
    _begin_run(cfg, "datacenter")
    with _phase("build"):
        red = red_for_rate(cfg.fattree.host_rate_bps) if needs_red(cfg.variant) else None
        topo = build_fattree(cfg.fattree, seed=cfg.seed, red=red)
        net = topo.network
        if cfg.faults is not None:
            install_faults(cfg.faults, topo)
        dist = get_distribution(cfg.workload)
        if cfg.size_scale != 1.0:
            dist = ScaledDistribution(dist, cfg.size_scale)
        # Environments depend only on (src, dst): one CC factory per pair,
        # called at each flow's start event.
        cc_cache: Dict[Tuple[int, int], Callable[[], Any]] = {}
        flows: List[Flow] = []
        # The trace is not bound to a name: it is dropped once it is flows.
        for spec in generate_poisson_traffic(
            n_hosts=len(topo.hosts),
            host_rate_bps=cfg.fattree.host_rate_bps,
            load=cfg.load,
            duration_ns=cfg.duration_ns,
            distribution=dist,
            seed=cfg.seed,
        ):
            src = topo.hosts[spec.src_index].node_id
            dst = topo.hosts[spec.dst_index].node_id
            key = (src, dst)
            cc = cc_cache.get(key)
            if cc is None:
                cc = cc_cache[key] = cc_factory(cfg, net, src, dst)
            flow = Flow(
                net.next_flow_id(), src, dst, spec.size_bytes, spec.start_time_ns
            )
            flow.use_cnp = uses_cnp(cfg.variant)
            net.add_flow(flow, cc)
            flows.append(flow)

    with _phase("simulate"):
        status = net.run_until_flows_complete(
            timeout_ns=cfg.duration_ns + cfg.drain_timeout_ns, budget=_DEFAULT_BUDGET
        )
    # Unlike the incast, a drain timeout with a few stragglers is a valid
    # outcome here (completion_fraction reports it), so only the watchdog is
    # an error; the status still rides on the result for diagnosis.
    if status.watchdog_expired:
        raise WatchdogExpired(
            f"{cfg.describe()}: watchdog stopped the run ({status.stop_reason}) "
            f"after {status.events_executed} events with "
            f"{len(status.incomplete_flows)} flows incomplete"
        )
    with _phase("collect"):
        records = collect_records(net, flows)
        # No Jain series here, so the timeline carries no convergence instant.
        frun = _finish_flightrec(net)
    _record_run(
        "datacenter",
        cfg.describe(),
        wall_s=time.perf_counter() - t_begin,
        events=net.sim.events_executed,
        completed=bool(status),
    )
    result = DatacenterResult(
        config=cfg,
        records=records,
        n_offered=len(flows),
        n_completed=sum(1 for f in flows if f.completed),
        events_executed=net.sim.events_executed,
        drops=net.total_drops(),
        status=status,
        incomplete_flow_ids=status.incomplete_flows,
        fault_drops=net.total_fault_drops(),
        retransmitted_bytes=net.total_retransmitted_bytes(),
        flightrec=frun,
    )
    net.close()
    return result


# ---------------------------------------------------------------------------
# Process-wide result cache (figures 10/12 and 11/13 share simulations)
# ---------------------------------------------------------------------------


class LRUCache:
    """A size-bounded mapping with least-recently-used eviction.

    Results hold full time series and flow lists, so an unbounded cache in a
    long sweep process grows without limit; the bound keeps the figure-pair
    sharing benefit (hits are always the most recent configs) while capping
    memory.  ``get`` refreshes recency; ``put`` evicts the oldest entries
    once ``maxsize`` is exceeded.
    """

    def __init__(self, maxsize: int):
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self.evictions = 0
        self._data: "OrderedDict[Any, Any]" = OrderedDict()

    def get(self, key: Any, default: Any = None) -> Any:
        try:
            self._data.move_to_end(key)
        except KeyError:
            return default
        return self._data[key]

    def put(self, key: Any, value: Any) -> None:
        self._data[key] = value
        self._data.move_to_end(key)
        while len(self._data) > self.maxsize:
            self._data.popitem(last=False)
            self.evictions += 1

    def clear(self) -> None:
        self._data.clear()

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: Any) -> bool:
        return key in self._data


#: Incast results are small (KBs of series); datacenter results hold per-flow
#: records for thousands of flows, so their cache is tighter.
_INCAST_CACHE = LRUCache(maxsize=64)
_DC_CACHE = LRUCache(maxsize=32)


def _cache_for(cfg: Any) -> LRUCache:
    return _INCAST_CACHE if isinstance(cfg, IncastConfig) else _DC_CACHE


def peek_cached(cfg: Any) -> Optional[Any]:
    """The cached result for ``cfg`` if any tier holds it; never simulates.

    Both tiers key on ``cfg.cache_key()`` (the canonical content hash) of
    the config normalized to the process-default backend, so a result
    computed under one spelling of a config hits under any equal spelling,
    in this process or a later one, and a figure's packet-default config
    finds its ``--backend flow`` result.  A store hit is promoted into the
    memory LRU so later calls skip the disk read.
    """
    cfg = apply_default_backend(cfg)
    cache, key = _cache_for(cfg), cfg.cache_key()
    result = cache.get(key)
    store = get_store()
    if result is None and store is not None:
        result = store.get(cfg)
        if result is not None:
            cache.put(key, result)
    return result


def seed_result_caches(cfg: Any, result: Any) -> None:
    """Write a fresh result (simulated here or in a campaign worker) through
    both tiers, so the next campaign or ``run_*_cached`` call is a hit."""
    cfg = apply_default_backend(cfg)
    _cache_for(cfg).put(cfg.cache_key(), result)
    store = get_store()
    if store is not None and cfg not in store:
        store.put(cfg, result)


def _run_cached(run: Callable[[Any], Any], cfg: Any) -> Any:
    """Memory LRU -> persistent store -> simulate, writing through both."""
    result = peek_cached(cfg)
    if result is None:
        result = run(apply_default_backend(cfg))
        seed_result_caches(cfg, result)
    return result


def run_incast_cached(cfg: IncastConfig) -> IncastResult:
    return _run_cached(run_incast, cfg)


def run_datacenter_cached(cfg: DatacenterConfig) -> DatacenterResult:
    return _run_cached(run_datacenter, cfg)


def clear_caches() -> None:
    """Drop cached results (timing tests measuring cold runs call this)."""
    _INCAST_CACHE.clear()
    _DC_CACHE.clear()
