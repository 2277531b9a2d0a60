"""Layer probes: one layer at a time, called directly, fixed op counts.

Each probe builds its input outside the timed unit, runs a fixed number of
operations inside it, and returns calibrated time per operation.  The
inputs are seeded, so a probe repeats the same work on every run.
"""

from __future__ import annotations

import json
import os
import pickle
import random
import subprocess
import sys
import tempfile
from types import SimpleNamespace
from typing import Any, Callable, Dict, List, Sequence, Tuple

import numpy as np

from repro.cc import CCEnv, CongestionControl, make_cc
from repro.core.fluid_model import max_min_allocation
from repro.experiments.parallel import RunEnvelope
from repro.experiments.store import ResultStore
from repro.metrics import jain_series, slowdown_by_size
from repro.sim.engine import Simulator
from repro.sim.flow import Flow
from repro.sim.packet import AckContext, HopRecord
from repro.topology.fattree import build_fattree, scaled_fattree_params
from repro.topology.star import build_star
from repro.units import gbps, mb, ms, us
from repro.workloads.distributions import ScaledDistribution, get_distribution
from repro.workloads.poisson import generate_poisson_traffic

from calibrate import Calibrator
from catalogue import ON_ACK_HOPS, ON_ACK_VARIANTS

ENGINE_EVENTS = 200_000
ENGINE_CHAINS = 64  # concurrent self-rescheduling timers (heap depth)
DATAPATH_BYTES = mb(2)
ON_ACK_COUNT = 20_000
MAX_MIN_FLOWS = 400
MAX_MIN_LINKS = 48
MAX_MIN_REPEATS = 3
STORE_REPEATS = 20
PICKLE_REPEATS = 50
SMALL_REPEATS = 5

_LINE_RATE = gbps(100.0)
_MTU = 1000
_WIRE_BYTES = 1048.0  # payload plus header, what INT tx counters advance by


def _per_op(cal: Calibrator, fn: Callable[[], Any], ops: int, scale: float) -> float:
    _, unit = cal.measure(fn)
    return unit.cal_s / ops * scale


def engine_ns_per_event(cal: Calibrator) -> float:
    """``Simulator.schedule``/``run`` alone: timers that reschedule themselves."""
    sim = Simulator()
    remaining = [ENGINE_EVENTS]

    def tick() -> None:
        remaining[0] -= 1
        if remaining[0] >= ENGINE_CHAINS:
            sim.schedule(100.0, tick)

    for i in range(ENGINE_CHAINS):
        sim.schedule(float(i), tick)
    ns = _per_op(cal, sim.run, ENGINE_EVENTS, 1e9)
    if sim.events_executed != ENGINE_EVENTS:
        raise AssertionError(f"engine probe ran {sim.events_executed} events")
    return ns


class _FixedWindowCC(CongestionControl):
    """Line-rate window, no reaction: the datapath with ``cc`` taken out."""

    def on_ack(self, ctx: AckContext) -> None:
        pass


def datapath_ns_per_pkt(cal: Calibrator) -> float:
    """Port + host + switch cost per data packet on the star, no CC work."""
    topo = build_star(1, rate_bps=_LINE_RATE, prop_delay_ns=us(1.0), seed=1)
    net = topo.network
    src, dst = topo.hosts[0].node_id, topo.hosts[-1].node_id
    env = CCEnv(
        line_rate_bps=_LINE_RATE,
        base_rtt_ns=net.path_rtt_ns(src, dst, _MTU),
        hops=net.hop_count(src, dst),
    )
    flow = Flow(net.next_flow_id(), src, dst, DATAPATH_BYTES, 0.0)
    net.add_flow(flow, _FixedWindowCC(env))
    ns = _per_op(
        cal,
        lambda: net.run_until_flows_complete(timeout_ns=ms(50.0)),
        DATAPATH_BYTES // _MTU,
        1e9,
    )
    if not flow.completed:
        raise AssertionError("datapath probe flow did not complete")
    return ns


def synthetic_acks(seed: int, hops: int, count: int) -> List[tuple]:
    """A seeded ACK stream: ``(now, ack_seq, rtt, ((qlen, tx_bytes, ts), ...))``.

    Line-rate ACK spacing with jitter; each hop's queue is a bounded random
    walk between empty and 1.5 BDP, so both the increase and the decrease
    branches of every protocol are taken.
    """
    rng = random.Random(seed)
    base_rtt = us(2.0) * hops
    bytes_per_ns = _LINE_RATE / 8.0 / 1e9
    bdp = bytes_per_ns * base_rtt
    gap = _WIRE_BYTES / bytes_per_ns
    qlens = [0.0] * hops
    tx = [0.0] * hops
    now = base_rtt
    out = []
    for i in range(count):
        now += gap * rng.uniform(0.8, 1.4)
        records = []
        queueing = 0.0
        for h in range(hops):
            qlens[h] = min(max(qlens[h] + rng.uniform(-0.06, 0.06) * bdp, 0.0), 1.5 * bdp)
            tx[h] += _WIRE_BYTES
            queueing += qlens[h] / bytes_per_ns
            records.append((qlens[h], tx[h], now - base_rtt / 2.0))
        out.append((now, (i + 1) * _MTU, base_rtt + queueing, tuple(records)))
    return out


def replay_acks(variant: str, hops: int, acks: Sequence[tuple], cal: Calibrator) -> Tuple[float, float]:
    """Feed ``acks`` to a fresh ``make_cc(variant)``; (ns per ACK, final window)."""
    base_rtt = us(2.0) * hops
    env = CCEnv(
        line_rate_bps=_LINE_RATE,
        base_rtt_ns=base_rtt,
        mtu_bytes=_MTU,
        hops=hops,
        min_bdp_bytes=_LINE_RATE / 8.0 / 1e9 * base_rtt,
        rng=random.Random(0),
    )
    cc = make_cc(variant, env, fs_max_cwnd_pkts=50.0)
    sender = SimpleNamespace(next_seq=0, flow=SimpleNamespace(flow_id=0))
    cc.bind(sender, None)
    contexts = [
        AckContext(
            now, ack_seq, _MTU, False,
            [HopRecord(q, t, ts, _LINE_RATE) for q, t, ts in records],
            rtt, hops,
        )
        for now, ack_seq, rtt, records in acks
    ]

    def replay() -> None:
        on_ack = cc.on_ack
        for ctx in contexts:
            sender.next_seq = ctx.ack_seq + int(cc.window_bytes)
            on_ack(ctx)

    return _per_op(cal, replay, len(contexts), 1e9), cc.window_bytes


def on_ack_ns(cal: Calibrator, seed: int) -> Dict[str, float]:
    out = {}
    for hops in ON_ACK_HOPS:
        acks = synthetic_acks(seed, hops, ON_ACK_COUNT)
        for variant in ON_ACK_VARIANTS:
            out[f"cc.on_ack_ns.{variant}.{hops}hop"], _ = replay_acks(variant, hops, acks, cal)
    return out


def max_min_us(cal: Calibrator) -> float:
    """``max_min_allocation`` on a fixed 400-flow / 48-link problem."""
    rng = random.Random(7)
    capacities = {link: rng.choice((1.25, 5.0)) for link in range(MAX_MIN_LINKS)}
    flow_links = {
        fid: rng.sample(range(MAX_MIN_LINKS), rng.randint(2, 5))
        for fid in range(MAX_MIN_FLOWS)
    }
    caps = {fid: rng.uniform(0.05, 1.25) for fid in range(0, MAX_MIN_FLOWS, 3)}

    def solve() -> None:
        for _ in range(MAX_MIN_REPEATS):
            max_min_allocation(capacities, flow_links, caps)

    return _per_op(cal, solve, MAX_MIN_REPEATS, 1e6)


def store_and_pickle(cal: Calibrator, cfg: Any, result: Any, workdir: str) -> Dict[str, float]:
    """Store put/get and the pool's pickle round trip on one real result."""
    with tempfile.TemporaryDirectory(dir=workdir) as root:
        store = ResultStore(root)

        def puts() -> None:
            for _ in range(STORE_REPEATS):
                store.put(cfg, result)

        def gets() -> None:
            for _ in range(STORE_REPEATS):
                if store.get(cfg) is None:
                    raise AssertionError("store probe missed its own entry")

        put_ms = _per_op(cal, puts, STORE_REPEATS, 1e3)
        get_ms = _per_op(cal, gets, STORE_REPEATS, 1e3)
        entry_kb = store.path_for(cfg).stat().st_size / 1024.0

    envelope = RunEnvelope(result=result, pid=os.getpid(), wall_s=0.0, events=result.events_executed)

    def roundtrip() -> None:
        for _ in range(PICKLE_REPEATS):
            pickle.loads(pickle.dumps(cfg))
            pickle.loads(pickle.dumps(envelope))

    return {
        "experiments.store.put_ms": put_ms,
        "experiments.store.get_ms": get_ms,
        "experiments.store.entry_kb": entry_kb,
        "experiments.parallel.pickle_roundtrip_ms": _per_op(cal, roundtrip, PICKLE_REPEATS, 1e3),
    }


_CLI_IMPORT_SNIPPET = """
import json, sys, time
t0 = time.perf_counter()
import repro.experiments.cli
t1 = time.perf_counter()
from repro.experiments.store import code_fingerprint
code_fingerprint()
t2 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "modules": len(sys.modules), "fingerprint_s": t2 - t1}))
"""


def cli_import(cal: Calibrator, env: Dict[str, str]) -> Dict[str, float]:
    """What ``repro-experiments`` pays before its first line of work.

    Timed inside a fresh interpreter; its readings are scaled by the
    calibration of the unit that ran it.
    """
    done, unit = cal.measure(
        lambda: subprocess.run(
            [sys.executable, "-c", _CLI_IMPORT_SNIPPET],
            env=env, capture_output=True, text=True, check=True,
        )
    )
    seen = json.loads(done.stdout)
    factor = unit.cal_s / unit.raw_s
    return {
        "experiments.cli.import_s": seen["import_s"] * factor,
        "experiments.cli.imported_modules": float(seen["modules"]),
        "experiments.store.fingerprint_ms": seen["fingerprint_s"] * factor * 1e3,
    }


def jain_series_ms(cal: Calibrator, incast_result: Any) -> float:
    """``jain_series`` over a seeded rate matrix shaped like the run's own."""
    times = incast_result.jain_times_ns
    rates = np.random.default_rng(11).uniform(0.0, _LINE_RATE, (len(times), len(incast_result.flows)))

    def compute() -> None:
        for _ in range(SMALL_REPEATS):
            jain_series(times, rates, incast_result.flows)

    return _per_op(cal, compute, SMALL_REPEATS, 1e3)


def slowdown_by_size_ms(cal: Calibrator, records: Sequence[Any]) -> float:
    def compute() -> None:
        for _ in range(SMALL_REPEATS):
            slowdown_by_size(records, percentile=99.0)

    return _per_op(cal, compute, SMALL_REPEATS, 1e3)


def poisson_gen_ms(cal: Calibrator, cfg: Any) -> float:
    """Trace generation for the fat-tree config, as the runner calls it."""
    dist = ScaledDistribution(get_distribution(cfg.workload), cfg.size_scale)
    return _per_op(
        cal,
        lambda: generate_poisson_traffic(
            n_hosts=cfg.fattree.n_hosts,
            host_rate_bps=cfg.fattree.host_rate_bps,
            load=cfg.load,
            duration_ns=cfg.duration_ns,
            distribution=dist,
            seed=cfg.seed,
        ),
        1,
        1e3,
    )


def fattree_build_ms(cal: Calibrator) -> float:
    def build() -> None:
        for _ in range(SMALL_REPEATS):
            build_fattree(scaled_fattree_params(), seed=1)

    return _per_op(cal, build, SMALL_REPEATS, 1e3)
