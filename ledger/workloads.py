"""The four ledger workloads: what one round runs, times and checks.

Every workload drives the program through its public entry points
(``run_config``, ``run_campaign``, the ``repro-experiments`` command) in a
closed loop from this one process: one run at a time, except the campaign
phases that ask for ``jobs=2`` workers.  Configs never name ``engine=``, so
whichever packet datapath the program has is the one measured.

A round returns one sample per metric; ``run.py`` repeats rounds for the
time it was given and reports medians.  Outputs are checked every round and
each check counts as an attempted operation, a failed check as a failed one.
Digests are printed, not pinned: a change to the physics shows in the output
without an edit here.
"""

from __future__ import annotations

import cProfile
import os
import statistics
import subprocess
import sys
import tempfile
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Tuple

import numpy as np

import repro
from repro.check.differential import BACKEND_TOLERANCES, fct_digest
from repro.experiments import (
    clear_caches,
    scaled_datacenter,
    scaled_incast,
    with_seed,
)
from repro.experiments import config as exp_config
from repro.experiments import flowsim, runner
from repro.experiments import store as exp_store
from repro.experiments.config import FIG5_HPCC_VARIANTS, FIG6_SWIFT_VARIANTS, with_backend
from repro.experiments.parallel import run_campaign, run_config
from repro.experiments.store import ResultStore, set_store
from repro.experiments.supervisor import SupervisorConfig
from repro.obs import profiler as obs_profiler
from repro.metrics import ideal_fct_ns, mean_index_after, tail_slowdown_above
from repro.sim import fluid
from repro.sim.network import Network
from repro.topology.star import build_star
from repro.units import ms

import catalogue
import probes
from calibrate import Calibrator, Unit
from spans import SpanRecorder, patched

#: Public calls the traced pass wraps: (owner, attribute, span name).  The
#: runner and the flow runners bind these names at import, so the wrapper
#: goes where they look the name up.
TRACE_TARGETS: List[Tuple[Any, str, str]] = [
    (runner, "build_star", "topology.build"),
    (runner, "build_fattree", "topology.build"),
    (flowsim, "build_star", "topology.build"),
    (flowsim, "build_fattree", "topology.build"),
    (runner, "staggered_incast", "workloads.generate"),
    (runner, "generate_poisson_traffic", "workloads.generate"),
    (flowsim, "staggered_incast", "workloads.generate"),
    (flowsim, "generate_poisson_traffic", "workloads.generate"),
    (runner, "make_cc", "cc.make_cc"),
    (flowsim, "make_cc", "cc.make_cc"),
    (Network, "add_flow", "sim.network.add_flow"),
    (Network, "run_until_flows_complete", "sim.network.run"),
    (runner, "collect_records", "metrics.collect"),
    (runner, "jain_series", "metrics.collect"),
    (runner, "convergence_time_ns", "metrics.collect"),
    (flowsim, "jain_series", "metrics.collect"),
    (flowsim, "convergence_time_ns", "metrics.collect"),
    (fluid, "max_min_allocation", "core.fluid_model.max_min"),
    (ResultStore, "get", "experiments.store.get"),
    (ResultStore, "put", "experiments.store.put"),
    (exp_store, "config_key", "experiments.store.config_key"),
    (exp_config, "config_key", "experiments.store.config_key"),
]

Sample = Dict[str, float]

SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def _completed(result: Any) -> bool:
    if hasattr(result, "all_completed"):
        return bool(result.all_completed)
    return result.n_completed == result.n_offered


def _py_calls_per_event(cfg: Any) -> float:
    """Python-level function calls per simulated event on one config."""
    prof = cProfile.Profile(builtins=False)
    result = prof.runcall(run_config, cfg)
    calls = sum(entry.callcount for entry in prof.getstats())
    return calls / result.events_executed


class Workload:
    """Shared bookkeeping: operation counts, digests, timed config runs."""

    name = ""

    def __init__(self, seed: int, cal: Calibrator, workdir: str):
        self.seed = seed
        self.cal = cal
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        #: Config label -> fct_digest; must not change between rounds or passes.
        self.digests: Dict[str, str] = {}

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)

    def run_unit(self, label: str, cfg: Any) -> Tuple[Any, Unit]:
        """Simulate ``cfg`` as one timed unit and check what came back."""
        result, unit = self.cal.measure(lambda: run_config(cfg))
        self.check_result(label, result)
        return result, unit

    def check_result(self, label: str, result: Any) -> None:
        self.check(_completed(result), f"{label}: not every flow completed")
        digest = fct_digest(result)
        first = self.digests.setdefault(label, digest)
        self.check(digest == first, f"{label}: digest {digest[:12]} != first {first[:12]}")

    def setup(self) -> None:
        """Warm the code paths the rounds use (and any reference runs)."""
        raise NotImplementedError

    def round(self) -> Sample:
        raise NotImplementedError

    def layer_probes(self, untraced: Dict[str, List[float]]) -> Sample:
        """Direct per-layer measurements for the traced pass."""
        return {}


class _SimRounds(Workload):
    """A round is a fixed list of configs, each run as its own timed unit."""

    def round_configs(self) -> List[Tuple[str, Any]]:
        raise NotImplementedError

    def run_round(self) -> Tuple[Dict[str, Tuple[Any, Unit]], Sample]:
        runs: Dict[str, Tuple[Any, Unit]] = {}
        wall = raw = 0.0
        events = 0
        for label, cfg in self.round_configs():
            result, unit = self.run_unit(label, cfg)
            runs[label] = (result, unit)
            wall += unit.cal_s
            raw += unit.raw_s
            events += result.events_executed
        return runs, {
            "round_wall_s": wall,
            "sim_events_per_s": events / wall,
            "host.raw_round_wall_s": raw,
            "sim.engine.events_executed": float(events),
        }


class IncastPacket(_SimRounds):
    name = catalogue.INCAST_PACKET
    VARIANTS = ("hpcc", "hpcc-vai-sf", "swift", "swift-vai-sf", "dcqcn")
    SENDERS = 16

    def _cfg(self, variant: str, senders: int) -> Any:
        return with_seed(scaled_incast(variant, senders), self.seed)

    def round_configs(self) -> List[Tuple[str, Any]]:
        return [(v, self._cfg(v, self.SENDERS)) for v in self.VARIANTS]

    def setup(self) -> None:
        for v in self.VARIANTS:
            run_config(self._cfg(v, 4))

    def round(self) -> Sample:
        runs, sample = self.run_round()
        default, ours = runs["hpcc"][0], runs["hpcc-vai-sf"][0]
        # Fig. 8: default HPCC finishes late starters first; VAI+SF does not.
        self.check(default.start_finish_correlation() < -0.5, "fig 8: hpcc correlation not < -0.5")
        self.check(ours.start_finish_correlation() > 0.0, "fig 8: hpcc-vai-sf correlation not > 0")
        self.check(
            ours.finish_spread_ns() <= default.finish_spread_ns() / 2.0,
            "fig 8: hpcc-vai-sf finish spread not halved",
        )
        self.check(ours.convergence_ns is not None, "hpcc-vai-sf never reached Jain 0.9")
        sample["convergence_us"] = (ours.convergence_ns or 0.0) / 1e3
        self._last = ours
        return sample

    def layer_probes(self, untraced: Dict[str, List[float]]) -> Sample:
        out = _packet_probes(self.cal, self.seed)
        out["metrics.jain_series_ms"] = probes.jain_series_ms(self.cal, self._last)
        out["sim.py_calls_per_event"] = _py_calls_per_event(self._cfg("hpcc-vai-sf", self.SENDERS))
        return out


def _packet_probes(cal: Calibrator, seed: int) -> Sample:
    out = {
        "sim.engine.ns_per_event": probes.engine_ns_per_event(cal),
        "sim.datapath.ns_per_pkt": probes.datapath_ns_per_pkt(cal),
    }
    out.update(probes.on_ack_ns(cal, seed))
    return out


class FattreePacket(_SimRounds):
    name = catalogue.FATTREE_PACKET
    VARIANTS = ("hpcc", "hpcc-vai-sf")
    LONG_FLOW_BYTES = 100_000
    TRACE_NS = ms(6.0)
    WARMUP_NS = ms(1.0)

    def _cfg(self, variant: str, duration_ns: float) -> Any:
        return scaled_datacenter(variant, "hadoop", duration_ns=duration_ns, seed=self.seed)

    def round_configs(self) -> List[Tuple[str, Any]]:
        return [(v, self._cfg(v, self.TRACE_NS)) for v in self.VARIANTS]

    def setup(self) -> None:
        # Warming the code paths needs no particular trace; the default
        # seed keeps set-up time from moving with --seed.
        for v in self.VARIANTS:
            run_config(scaled_datacenter(v, "hadoop", duration_ns=self.WARMUP_NS))

    def round(self) -> Sample:
        runs, sample = self.run_round()
        ours = runs["hpcc-vai-sf"][0]
        # ~100 flows exceed 100 KB here, so p90 is the highest percentile
        # that still has ten samples beyond it.
        p90 = tail_slowdown_above(ours.records, self.LONG_FLOW_BYTES, 90.0)
        self.check(p90 is not None, "no flow above 100 KB")
        sample["long_flow_p90_slowdown"] = p90 or 0.0
        self._last = ours
        return sample

    def layer_probes(self, untraced: Dict[str, List[float]]) -> Sample:
        out = _packet_probes(self.cal, self.seed)
        out["metrics.slowdown_by_size_ms"] = probes.slowdown_by_size_ms(self.cal, self._last.records)
        out["workloads.poisson_gen_ms"] = probes.poisson_gen_ms(self.cal, self._cfg("hpcc", self.TRACE_NS))
        out["topology.fattree_build_ms"] = probes.fattree_build_ms(self.cal)
        # The short warm-up trace: the same code path at a sixth of the cost.
        out["sim.py_calls_per_event"] = _py_calls_per_event(self._cfg("hpcc", self.WARMUP_NS))
        return out


def _incast_summary(result: Any) -> Dict[str, Optional[float]]:
    """The statistics ``BACKEND_TOLERANCES`` bounds, for one incast run."""
    cfg = result.config
    net = build_star(
        cfg.n_senders, rate_bps=cfg.rate_bps, prop_delay_ns=cfg.prop_delay_ns, seed=cfg.seed
    ).network
    slowdowns = [
        f.fct / ideal_fct_ns(net, f.src, f.dst, f.size) for f in result.flows if f.completed
    ]
    conv = result.convergence_ns
    return {
        "slowdown_p50": float(np.percentile(slowdowns, 50)),
        "slowdown_p99": float(np.percentile(slowdowns, 99)),
        "jain_mean": mean_index_after(result.jain_times_ns, result.jain_values, result.last_start_ns),
        "convergence_us": None if conv is None else conv / 1e3,
    }


def _p99_slowdown(result: Any) -> float:
    return float(np.percentile([r.slowdown for r in result.records], 99))


class FattreeFlow(_SimRounds):
    name = catalogue.FATTREE_FLOW
    PAIR = ("hpcc", "hpcc-vai-sf")
    PAIR_REPEATS = 5
    BATCHES = 3
    FLOW_TRACE_NS = ms(2.0)
    HYBRID_TRACE_NS = ms(6.0)

    def _incast(self, variant: str, backend: str) -> Any:
        return with_backend(with_seed(scaled_incast(variant, 16), self.seed), backend)

    def _trace(self, duration_ns: float, backend: str) -> Any:
        cfg = scaled_datacenter("hpcc-vai-sf", "hadoop", duration_ns=duration_ns, seed=self.seed)
        return with_backend(cfg, backend)

    def round_configs(self) -> List[Tuple[str, Any]]:
        return [
            ("flow-trace", self._trace(self.FLOW_TRACE_NS, "flow")),
            ("hybrid-trace", self._trace(self.HYBRID_TRACE_NS, "hybrid")),
        ]

    def _incast_batch(self) -> List[Tuple[str, Any]]:
        """The fig-8 pair on the flow backend, ``PAIR_REPEATS`` times over."""
        return [
            (v, run_config(self._incast(v, "flow")))
            for _ in range(self.PAIR_REPEATS)
            for v in self.PAIR
        ]

    def setup(self) -> None:
        """Packet ground truth for the error metrics, then a flow warm-up."""
        self._packet_pair = {
            v: _incast_summary(run_config(self._incast(v, "packet"))) for v in self.PAIR
        }
        self._packet_p99 = _p99_slowdown(run_config(self._trace(self.FLOW_TRACE_NS, "packet")))
        for v in self.PAIR:
            run_config(self._incast(v, "flow"))
        run_config(self._trace(ms(0.5), "flow"))
        run_config(self._trace(ms(0.5), "hybrid"))

    def round(self) -> Sample:
        # One timed unit per batch of ten runs: a single fluid incast run is
        # 15 ms, too short to sample the host's speed in.  Three batches,
        # because the batch rate is what a driver holds to a bound here and
        # the median of three is steadier than one reading three times as long.
        batches = [self.cal.measure(self._incast_batch) for _ in range(self.BATCHES)]
        for batch, _ in batches:
            for v, result in batch:
                self.check_result(f"flow-incast/{v}", result)
        batch_events = sum(result.events_executed for _, result in batches[0][0])
        batch_runs = len(batches[0][0])
        runs, sample = self.run_round()
        flow_trace, flow_unit = runs["flow-trace"]
        sample["round_wall_s"] += sum(unit.cal_s for _, unit in batches)
        sample["host.raw_round_wall_s"] += sum(unit.raw_s for _, unit in batches)
        sample["sim.engine.events_executed"] += float(batch_events * self.BATCHES)
        batch_s = statistics.median(unit.cal_s for _, unit in batches)
        # The cost of a fluid trace run swings 35% from one seed's trace to
        # the next and no count it returns tracks that, so the event rate a
        # driver holds to a bound comes from the incast runs, which do not
        # depend on the seed and never touch the packet path.
        sample["sim_events_per_s"] = batch_events / batch_s
        sample["flow_incast_runs_per_s"] = batch_runs / batch_s
        sample["flow_fattree_wall_s"] = flow_unit.cal_s
        sample["hybrid_fattree_wall_s"] = runs["hybrid-trace"][1].cal_s
        sample["flow_p99_slowdown_rel_err"] = (
            abs(_p99_slowdown(flow_trace) - self._packet_p99) / self._packet_p99
        )
        sample.update(self._pair_errors(dict(batches[0][0])))
        return sample

    def _pair_errors(self, flow_runs: Dict[str, Any]) -> Sample:
        """Flow-vs-packet error on the fig-8 pair (worst of the two variants)."""
        worst = {"slowdown_p50": 0.0, "jain_mean": 0.0, "convergence_us": 0.0}
        for v in self.PAIR:
            packet = self._packet_pair[v]
            flow = _incast_summary(flow_runs[v])
            for metric, (abs_tol, rel_tol) in BACKEND_TOLERANCES.items():
                p, f = packet[metric], flow[metric]
                within = (
                    p is not None
                    and f is not None
                    and abs(f - p) <= abs_tol + rel_tol * abs(p)
                )
                self.check(within, f"flow vs packet {v} {metric}: {f} vs {p} out of tolerance")
                if p is None or f is None or metric not in worst:
                    continue
                err = abs(f - p) if metric == "jain_mean" else abs(f - p) / abs(p)
                worst[metric] = max(worst[metric], err)
        return {
            "experiments.flowsim.p50_slowdown_rel_err": worst["slowdown_p50"],
            "experiments.flowsim.jain_mean_abs_err": worst["jain_mean"],
            "experiments.flowsim.convergence_rel_err": worst["convergence_us"],
        }

    def layer_probes(self, untraced: Dict[str, List[float]]) -> Sample:
        return {"core.fluid_model.max_min_us": probes.max_min_us(self.cal)}


class Campaign(Workload):
    name = catalogue.CAMPAIGN
    SENDERS = (16, 32)
    JOBS = 2
    WARM_PASSES = 25

    def __init__(self, seed: int, cal: Calibrator, workdir: str):
        super().__init__(seed, cal, workdir)
        self.configs = [
            with_backend(with_seed(scaled_incast(v, n), s), "flow")
            for v in FIG5_HPCC_VARIANTS + FIG6_SWIFT_VARIANTS
            for n in self.SENDERS
            for s in (seed, seed + 1)
        ]
        #: Child interpreters find ``repro`` where this one did.
        self.child_env = dict(os.environ, PYTHONPATH=SRC_DIR)
        self._store_bytes = 0

    @contextmanager
    def _fresh_store(self) -> Iterator[ResultStore]:
        with tempfile.TemporaryDirectory(dir=self.workdir) as root:
            store = ResultStore(root)
            set_store(store)
            clear_caches()
            try:
                yield store
            finally:
                set_store(None)
                clear_caches()
                self._store_bytes += store.stats.bytes_read + store.stats.bytes_written

    def _campaign(self, supervised: bool) -> Tuple[Any, Unit]:
        """One cold ``jobs=2`` campaign, workers and all on the pinned CPU.

        Each CPU of this box changes speed on its own, so two workers on two
        CPUs cannot be calibrated (left unpinned, the raw wall of the same
        campaign spread 14-19% between rounds).  Sharing the one sampled CPU
        they can: the number is what the campaign path costs in CPU, pool
        and pickling included, not how well it spreads over cores.
        """
        supervisor = SupervisorConfig() if supervised else None
        outcome, unit = self.cal.measure(
            lambda: run_campaign(self.configs, jobs=self.JOBS, supervisor=supervisor)
        )
        label = "supervised" if supervised else "cold"
        self.check(
            outcome.stats.executed == len(self.configs) and not outcome.failures,
            f"{label} campaign: {outcome.stats.summary()}",
        )
        return outcome, unit

    def _warm(self) -> Any:
        for _ in range(self.WARM_PASSES):
            clear_caches()
            outcome = run_campaign(self.configs, jobs=self.JOBS)
        return outcome

    def _cli(self) -> Unit:
        """``repro-experiments --fig 8 --no-store``, as a user types it."""
        done, unit = self.cal.measure(
            lambda: subprocess.run(
                [sys.executable, "-m", "repro.experiments.cli", "--fig", "8", "--no-store"],
                env=self.child_env, cwd=self.workdir, capture_output=True, text=True,
            )
        )
        self.check(
            done.returncode == 0 and "figure 8 reproduced" in done.stdout,
            f"cli --fig 8 exited {done.returncode}: {done.stderr[-200:]}",
        )
        return unit

    def setup(self) -> None:
        with self._fresh_store():
            run_campaign(self.configs[:4], jobs=self.JOBS)
            clear_caches()
            run_campaign(self.configs[:4], jobs=self.JOBS)

    def round(self) -> Sample:
        n = len(self.configs)
        self._store_bytes = 0
        with self._fresh_store():
            cold, cold_unit = self._campaign(supervised=False)
            warm, warm_unit = self.cal.measure(self._warm)
        self.check(warm.stats.cached == n, f"warm campaign: {warm.stats.summary()}")
        with self._fresh_store():
            supervised, sup_unit = self._campaign(supervised=True)
        cli_unit = self._cli()

        events = 0
        for cfg in self.configs:
            key = cfg.cache_key()
            label = f"{cfg.variant}/{cfg.n_senders}/seed{cfg.seed}"
            for outcome in (cold, supervised, warm):
                self.check_result(label, outcome.results[key])
            events += cold.results[key].events_executed + supervised.results[key].events_executed
        units = (cold_unit, sup_unit, warm_unit, cli_unit)
        round_wall = sum(unit.cal_s for unit in units)
        return {
            "round_wall_s": round_wall,
            "sim_events_per_s": events / round_wall,
            "cold_runs_per_s": n / cold_unit.cal_s,
            "supervised_runs_per_s": n / sup_unit.cal_s,
            "warm_runs_per_s": n * self.WARM_PASSES / warm_unit.cal_s,
            "cli_fig8_wall_s": cli_unit.cal_s,
            "host.raw_round_wall_s": sum(unit.raw_s for unit in units),
            "sim.engine.events_executed": float(events),
            "experiments.store.bytes": float(self._store_bytes),
        }

    def layer_probes(self, untraced: Dict[str, List[float]]) -> Sample:
        cfg = self.configs[0]
        serial = 0.0
        for c in self.configs:
            result, unit = self.cal.measure(lambda: run_config(c))
            serial += unit.cal_s
        out = probes.store_and_pickle(self.cal, cfg, result, self.workdir)
        out.update(probes.cli_import(self.cal, self.child_env))
        # What the pool and the supervisor add to the same simulations run
        # serially in this process (on the same CPU, so no division by jobs).
        for layer, rate in (("parallel", "cold_runs_per_s"), ("supervisor", "supervised_runs_per_s")):
            wall = len(self.configs) / catalogue.summarize(untraced[rate])["median"]
            out[f"experiments.{layer}.overhead_s"] = wall - serial
        return out


def traced_round(workload: Workload, recorder: SpanRecorder) -> Sample:
    """One round with the span wrappers and the phase profiler switched on.

    Phase and span seconds are scaled to the reference speed by the round's
    own calibrated / raw ratio.
    """
    recorder.clear()
    with patched(recorder, TRACE_TARGETS), obs_profiler.capture("phase") as prof:
        sample = workload.round()
    factor = sample["round_wall_s"] / sample["host.raw_round_wall_s"]
    for phase, seen in prof.flat().items():
        metric = catalogue.PHASE_METRICS.get(phase)
        if metric is not None:
            sample[metric] = seen["wall_s"] * factor
    for span, (self_s, calls) in recorder.self_times().items():
        time_metric, count_metric = catalogue.SPAN_METRICS[span]
        if time_metric is not None:
            sample[time_metric] = self_s * factor
        if count_metric is not None:
            sample[count_metric] = float(calls)
    return sample


WORKLOADS = {cls.name: cls for cls in (IncastPacket, FattreePacket, FattreeFlow, Campaign)}
