"""Python-level calls per simulated event stay inside a budget.

The packet datapath and the per-ACK CC path keep their one-expression
helpers (``is_control``, ``serialization_ns``, ``inflight``, ``route``,
``_clamp_window``, ``is_paused``, ...) as API but do not call them per
packet, and the port pushes its three per-packet calendar entries itself
instead of calling ``schedule_delivery`` / ``schedule_detached``.  A call
creeping back costs a few percent of the engine's speed and changes no
output, so nothing else would notice; this counts calls the way the
ledger's ``sim.py_calls_per_event`` does and fails instead.

Budgets sit 11-12% above what the code measures today (5.31 / 4.83 / 4.37),
below what it measured with the ``schedule_*`` calls in place
(6.17 / 5.80 / 5.32) and far below the chains before that
(12.16 / 12.05 / 9.78).
"""

from __future__ import annotations

import cProfile
import gc
from typing import Any, Tuple

import pytest

from repro.experiments import scaled_datacenter, scaled_incast
from repro.experiments.parallel import run_config
from repro.units import ms

#: name -> (config factory taking a size, counted size, warm-up size, budget).
CASES = {
    "incast16/hpcc-vai-sf": (lambda n: scaled_incast("hpcc-vai-sf", n), 16, 2, 5.9),
    "incast16/swift": (lambda n: scaled_incast("swift", n), 16, 2, 5.4),
    "fattree1ms/hpcc": (
        lambda t: scaled_datacenter("hpcc", "hadoop", duration_ns=t),
        ms(1.0),
        ms(0.1),
        4.9,
    ),
}


def _calls_and_events(cfg: Any) -> Tuple[int, int]:
    # A cyclic collection landing inside the counted run would add the
    # finalizers of whatever garbage earlier tests left behind.
    gc.collect()
    gc.disable()
    try:
        prof = cProfile.Profile(builtins=False)
        result = prof.runcall(run_config, cfg)
    finally:
        gc.enable()
    return sum(entry.callcount for entry in prof.getstats()), result.events_executed


@pytest.mark.parametrize("name", sorted(CASES))
def test_calls_per_event_within_budget(name: str) -> None:
    make_cfg, size, warm_size, budget = CASES[name]
    # Lazy imports and first-use caches belong to neither counted run.
    run_config(make_cfg(warm_size))
    calls, events = _calls_and_events(make_cfg(size))
    assert calls / events <= budget, f"{calls} calls over {events} events"
    assert _calls_and_events(make_cfg(size)) == (calls, events), "call count does not repeat"
