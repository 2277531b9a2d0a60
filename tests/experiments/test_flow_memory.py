"""What a run holds in memory, by ``tracemalloc`` (deterministic, unlike RSS).

Per-flow endpoint state exists only while the flow does (DESIGN "Flow
lifecycle"), so at a fixed load what a packet run adds *while it simulates*
follows the flows in flight, not the length of the trace; what is left per
finished flow is its ``Flow``, its ``ReceiverState`` and three dictionary
slots; and a finished run's ``Network`` is taken apart, so it is freed when
the runner returns rather than at some later full collection.

The commit before this one (82067d6) measures 2.83x and 2,045 B on the first
test's two numbers.
"""

from __future__ import annotations

import gc
import tracemalloc
import weakref
from typing import Any, Dict, Tuple
from unittest import mock

import pytest

from repro.experiments import flowsim, runner, scaled_datacenter, scaled_incast
from repro.experiments.config import with_backend
from repro.experiments.parallel import run_config
from repro.sim.network import Network
from repro.units import ms


def _traced(duration_ns: float) -> Tuple[int, int, int]:
    """(flows, in-run peak, held at the end of simulate) of one hadoop trace.

    Both byte counts are over the level traced just before the build; the
    peak is the most the simulate phase added to what it started with.
    """
    seen: Dict[str, int] = {}
    simulate = Network.run_until_flows_complete

    def watched(net: Network, *args: Any, **kwargs: Any) -> Any:
        seen["flows"] = len(net.flows)
        entry = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        status = simulate(net, *args, **kwargs)
        seen["held"], peak = tracemalloc.get_traced_memory()
        seen["peak"] = peak - entry
        return status

    cfg = scaled_datacenter("hpcc", "hadoop", duration_ns=duration_ns)
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        with mock.patch.object(Network, "run_until_flows_complete", watched):
            result = run_config(cfg)
    finally:
        tracemalloc.stop()
    assert result.n_completed == result.n_offered == seen["flows"]
    return seen["flows"], seen["peak"], seen["held"] - base


def test_in_run_peak_follows_load_not_trace_length():
    run_config(scaled_datacenter("hpcc", "hadoop", duration_ns=ms(0.1)))  # first-use caches
    flows_1x, peak_1x, held_1x = _traced(ms(0.5))
    flows_4x, peak_4x, held_4x = _traced(ms(2.0))
    assert flows_4x > 3.5 * flows_1x
    assert peak_4x < 2.0 * peak_1x, (peak_1x, peak_4x)
    per_flow = (held_4x - held_1x) / (flows_4x - flows_1x)
    assert per_flow <= 700.0, per_flow


@pytest.mark.parametrize(
    "cfg, module, builder",
    [
        (scaled_incast("hpcc", 4), runner, "build_star"),
        (scaled_datacenter("hpcc", "hadoop", duration_ns=ms(0.2)), runner, "build_fattree"),
        (
            with_backend(scaled_datacenter("hpcc", "hadoop", duration_ns=ms(0.2)), "hybrid"),
            flowsim,
            "build_fattree",
        ),
    ],
    ids=["incast", "datacenter", "hybrid-foreground"],
)
def test_finished_network_is_freed_without_the_collector(cfg, module, builder):
    built = []
    build = getattr(module, builder)

    def watched(*args: Any, **kwargs: Any) -> Any:
        topo = build(*args, **kwargs)
        built.append(weakref.ref(topo.network))
        return topo

    gc.collect()
    gc.disable()
    try:
        with mock.patch.object(module, builder, watched):
            result = run_config(cfg)
        # The packet network is the last one built (the hybrid runner builds
        # its fluid-phase network first, which is not taken apart).
        assert built and built[-1]() is None
    finally:
        gc.enable()
    assert result.events_executed > 0
