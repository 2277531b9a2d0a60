"""Sanitizing must never change simulation outputs.

Same two guarantees (and the same signature technique) as
``tests/sim/test_obs_disabled.py``: checking is off by default, and an
enabled checker only *reads* simulator state — it schedules no events and
draws no random numbers, so a sanitized run is byte-identical to a bare
one, ``events_executed`` included.
"""

from repro.check import invariants
from repro.check.selftest import run_injected_violation
from repro.experiments.config import scaled_incast
from repro.experiments.runner import run_incast


def _signature(result):
    return (
        result.jain_times_ns.tobytes(),
        result.jain_values.tobytes(),
        result.queue_times_ns.tobytes(),
        result.queue_values_bytes.tobytes(),
        sorted((f.flow_id, f.start_time, f.finish_time) for f in result.flows),
        result.convergence_ns,
        result.events_executed,
    )


def test_sanitizing_is_off_by_default():
    assert invariants.get() is None


def test_sanitized_run_byte_identical_including_event_count():
    cfg = scaled_incast("hpcc-vai-sf", 8)
    bare = run_incast(cfg)
    with invariants.capture() as chk:
        checked = run_incast(cfg)
    assert bare.all_completed and checked.all_completed
    assert _signature(bare) == _signature(checked)
    # ...and the checker really was in the loop, across every layer.
    assert chk.total_checks() > 100_000
    assert set(chk.checks) >= {
        "event-time-monotonic",
        "queue-bytes-nonneg",
        "queue-conservation",
        "fifo-order",
        "gbn-sequence",
        "sf-cadence",
        "vai-bounds",
        "switch-forward",
    }


def test_runner_installs_replay_context():
    cfg = scaled_incast("hpcc", 2)
    with invariants.capture() as chk:
        run_incast(cfg)
    assert chk.context["config"] == cfg.describe()
    assert chk.context["seed"] == cfg.seed
    assert chk.context["cache_key"] == cfg.cache_key()[:16]


def test_injected_violation_is_silent_without_sanitizer():
    # The deliberate PFC-window drop is only a *violation* when someone is
    # checking; bare runs recover via go-back-N and complete.
    assert invariants.get() is None
    run_injected_violation()
