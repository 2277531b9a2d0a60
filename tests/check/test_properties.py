"""Property-based fuzzing: random experiments run fully sanitized.

Hypothesis generates random star incasts, fault schedules, and small
fat-trees; each runs under :func:`repro.check.invariants.capture`.  Any
:class:`InvariantViolation` is shrunk by Hypothesis to a minimal failing
config, which lands (via :func:`write_failure_artifact`) in
``$SANITIZER_ARTIFACT_DIR`` for the CI job to upload.

Example counts come from the Hypothesis profile: ``dev`` (default, small)
for the tier-1 suite, ``ci`` (``--hypothesis-profile=ci``) in the CI
sanitize job.
"""

from dataclasses import asdict

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.check import invariants
from repro.check.invariants import InvariantViolation
from repro.experiments.config import DatacenterConfig, FaultConfig, IncastConfig
from repro.experiments.runner import run_datacenter, run_incast
from repro.obs import flightrec
from repro.topology import scaled_fattree_params
from repro.units import us
from repro.workloads.distributions import ScaledDistribution, get_distribution
from repro.workloads.poisson import generate_poisson_traffic

from .conftest import write_failure_artifact

#: Simulations are allowed to take their time; flakiness budgets are not
#: useful when one example is a full discrete-event run.
SIM_SETTINGS = settings(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

VARIANTS = ("hpcc", "hpcc-vai-sf", "swift")


def _run_sanitized(run, cfg, artifact_name):
    """Run ``cfg`` under a fresh checker; dump the config if it violates."""
    with invariants.capture() as chk:
        try:
            result = run(cfg)
        except InvariantViolation as exc:
            write_failure_artifact(
                artifact_name, {"config": asdict(cfg), "violation": str(exc)}
            )
            raise
    assert chk.total_checks() > 0
    return result


@given(
    n_senders=st.integers(min_value=2, max_value=5),
    variant=st.sampled_from(VARIANTS),
    flow_kb=st.integers(min_value=8, max_value=48),
    seed=st.integers(min_value=0, max_value=999),
)
@SIM_SETTINGS
def test_random_incast_upholds_every_invariant(n_senders, variant, flow_kb, seed):
    cfg = IncastConfig(
        variant=variant,
        n_senders=n_senders,
        flow_size_bytes=flow_kb * 1000,
        seed=seed,
    )
    result = _run_sanitized(run_incast, cfg, "incast-minimal-failure")
    assert result.all_completed


@given(
    every_nth=st.integers(min_value=6, max_value=30),
    target=st.sampled_from(("bottleneck", "fabric")),
    fault_seed=st.integers(min_value=0, max_value=99),
    n_senders=st.integers(min_value=2, max_value=4),
)
@SIM_SETTINGS
def test_faulted_incast_recovers_under_sanitizer(
    every_nth, target, fault_seed, n_senders
):
    # Injected drops + go-back-N recovery must still satisfy the sequence
    # and accounting invariants (the incast star runs without PFC, so the
    # lossless check does not apply — that interaction is the self-test's
    # job, see test_selftest_cli.py).
    cfg = IncastConfig(
        variant="hpcc",
        n_senders=n_senders,
        flow_size_bytes=24_000,
        faults=FaultConfig(
            drop_every_nth=every_nth, target=target, seed=fault_seed
        ),
        seed=3,
    )
    result = _run_sanitized(run_incast, cfg, "faulted-incast-minimal-failure")
    assert result.all_completed
    assert result.fault_drops > 0
    assert result.retransmitted_bytes > 0


@given(
    every_nth=st.integers(min_value=6, max_value=30),
    target=st.sampled_from(("bottleneck", "fabric")),
    fault_seed=st.integers(min_value=0, max_value=99),
    n_senders=st.integers(min_value=2, max_value=4),
)
@SIM_SETTINGS
def test_fct_decomposition_conserves_under_random_faults(
    every_nth, target, fault_seed, n_senders
):
    # The flight recorder's conservation contract — every completed flow's
    # six components sum to its FCT within 1 ns — must hold under random
    # fault schedules too, with the sanitizer cross-checking each
    # decomposition live (invariant ``flightrec-conserve``).
    cfg = IncastConfig(
        variant="hpcc",
        n_senders=n_senders,
        flow_size_bytes=24_000,
        faults=FaultConfig(
            drop_every_nth=every_nth, target=target, seed=fault_seed
        ),
        seed=3,
    )
    with flightrec.capture():
        result = _run_sanitized(
            run_incast, cfg, "flightrec-conservation-minimal-failure"
        )
    assert result.all_completed
    frun = result.flightrec
    assert frun is not None
    if frun["conservation_failures"] > 0:
        write_failure_artifact(
            "flightrec-conservation-minimal-failure",
            {"config": asdict(cfg), "flightrec": frun},
        )
    assert frun["conservation_failures"] == 0
    assert frun["max_residual_ns"] <= 1.0
    assert frun["flows_completed"] == n_senders


@given(
    pods=st.integers(min_value=1, max_value=2),
    tors_per_pod=st.integers(min_value=1, max_value=2),
    aggs_per_pod=st.integers(min_value=1, max_value=2),
    planes=st.integers(min_value=1, max_value=2),
    hosts_per_tor=st.integers(min_value=2, max_value=4),
    workload=st.sampled_from(("hadoop", "websearch")),
    variant=st.sampled_from(("hpcc", "hpcc-vai-sf")),
    seed=st.integers(min_value=0, max_value=99),
)
@SIM_SETTINGS
def test_random_fattree_trace_upholds_every_invariant(
    pods, tors_per_pod, aggs_per_pod, planes, hosts_per_tor,
    workload, variant, seed,
):
    params = scaled_fattree_params(
        pods=pods,
        tors_per_pod=tors_per_pod,
        aggs_per_pod=aggs_per_pod,
        spines=aggs_per_pod * planes,
        hosts_per_tor=hosts_per_tor,
    )
    cfg = DatacenterConfig(
        variant=variant,
        workload=workload,
        fattree=params,
        load=0.4,
        duration_ns=us(200.0),
        size_scale=0.05,
        seed=seed,
    )
    # A 2- or 3-host tree can draw no websearch arrival in 200 us; an empty
    # trace runs no event, so the sanitizer would have nothing to check.
    assume(
        generate_poisson_traffic(
            n_hosts=params.n_hosts,
            host_rate_bps=params.host_rate_bps,
            load=cfg.load,
            duration_ns=cfg.duration_ns,
            distribution=ScaledDistribution(
                get_distribution(workload), cfg.size_scale
            ),
            seed=seed,
        )
    )
    result = _run_sanitized(run_datacenter, cfg, "fattree-minimal-failure")
    assert result.n_completed == result.n_offered
