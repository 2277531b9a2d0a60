"""Observability must never change simulation outputs.

Two guarantees, same mechanism as ``test_port_fusion.py``:

1. **Disabled is the default** — a bare run attaches no plane to the probe.
2. **Enabled is passive** — a run with the registry, tracer, and telemetry
   all enabled produces byte-identical series, flow times, and convergence
   points, because recording never schedules events or draws RNG.
"""

from repro import obs
from repro.experiments.config import scaled_incast
from repro.experiments.runner import run_incast
from repro.obs import flightrec, profiler


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


def _run_instrumented(cfg):
    obs.enable_all(trace_capacity=1_000_000)
    try:
        return run_incast(cfg)
    finally:
        obs.disable_all()


def test_enabled_instrumentation_output_byte_identical():
    # hpcc-vai-sf exercises every instrumented layer at once: INT telemetry,
    # sampling-frequency grants, VAI token flow, and MD decision tracing.
    for variant in ("hpcc-vai-sf", "swift"):
        cfg = scaled_incast(variant, 8)
        bare = run_incast(cfg)
        instrumented = _run_instrumented(cfg)
        assert bare.all_completed and instrumented.all_completed
        assert _signature(bare) == _signature(instrumented)


def test_flightrec_enabled_run_byte_identical():
    # The flight recorder is fully passive — it stamps packets and reads
    # timestamps but schedules nothing and draws no RNG — so even
    # events_executed must not move.  It stays out of
    # enable_all (per-run lifecycle, retains per-flow payloads), hence
    # the explicit capture here.
    cfg = scaled_incast("hpcc-vai-sf", 8)
    bare = run_incast(cfg)
    with flightrec.capture() as rec:
        recorded = run_incast(cfg)
    assert recorded.all_completed
    assert _signature(bare) == _signature(recorded)
    # The run was really recorded, not silently skipped.
    frun = recorded.flightrec
    assert frun is not None
    assert frun["flows_completed"] == len(recorded.flows)
    assert frun["conservation_failures"] == 0
    assert bare.flightrec is None
    assert rec.runs  # the section also landed on the recorder itself


def test_enable_all_leaves_flightrec_off():
    assert flightrec.get() is None
    obs.enable_all()
    try:
        assert flightrec.get() is None
    finally:
        obs.disable_all()


def test_profiler_output_byte_identical_both_modes():
    # The profiler only *times* callbacks — push/pop around dispatch on the
    # profiled twin of the run loop — so flow times, series, and event
    # counts must not move by a byte whichever of the two loops runs.
    cfg = scaled_incast("hpcc-vai-sf", 8)
    bare = run_incast(cfg)
    with profiler.capture() as prof:
        profiled = run_incast(cfg)
    assert profiled.all_completed
    assert _signature(bare) == _signature(profiled)
    # The run really executed under the profiler (no silent cache hit).
    assert prof.total_s() > 0.0
    assert prof.flat()["cc.decision"]["count"] > 0


def test_full_observability_plane_output_byte_identical():
    # Registry + tracer + telemetry (enable_all) and the phase profiler, on
    # at once.  Still byte-identical — the whole plane is read-only with
    # respect to simulation state.
    from repro.obs import registry

    cfg = scaled_incast("swift", 8)
    bare = run_incast(cfg)
    obs.enable_all(trace_capacity=1_000_000)
    try:
        with profiler.capture("phase"):
            instrumented = run_incast(cfg)
        snapshot = registry.get().snapshot()
    finally:
        obs.disable_all()
    assert instrumented.all_completed
    assert _signature(bare) == _signature(instrumented)
    assert snapshot["counters"]["engine.events_executed"] > 0
    # Journal live-tailing is read-only by construction (it opens the
    # journal file, never the simulator); proven cross-process in
    # tests/obs/test_live.py.


def test_instrumented_run_actually_recorded():
    from repro.obs import registry, tracer

    reg = registry.enable()
    tr = tracer.enable()
    try:
        run_incast(scaled_incast("hpcc-vai-sf", 8))
    finally:
        registry.disable()
        tracer.disable()
    assert len(reg) > 0
    assert tr.emitted > 0
