"""Differential harness: equivalent configurations must agree byte-for-byte.

Several execution modes are *supposed* to be output-equivalent, and the
performance work leans on that equivalence hard:

* **fused vs. unfused delivery** — port fusion (PR2) collapses two events
  into one but must keep packet spacing, and therefore every output,
  identical;
* **serial vs. ``--jobs N`` campaigns** — a simulation is a pure function
  of its config, so campaign workers must return exactly what an in-process
  run produces;
* **store-cold vs. store-warm** — a result replayed from the persistent
  store must equal the simulation it skipped;
* **obs on vs. off** — the passive instrumentation layers must never
  perturb simulation state.

This module turns each equivalence into an executable check over a
canonical digest of the flow-completion output, so the CI ``sanitize`` job
(and ``repro-experiments check differential``) can falsify them on every
push.  The same digest powers the CI determinism gate: the reference
configs below are hashed twice per interpreter and across the 3.10/3.12
matrix, catching dict-order or float-path nondeterminism.
"""

from __future__ import annotations

import hashlib
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Iterator, List, Optional

from ..experiments import runner as exp_runner
from ..experiments.config import (
    DatacenterConfig,
    IncastConfig,
    scaled_datacenter,
    scaled_incast,
)
from ..experiments.parallel import AnyConfig, run_campaign, run_config
from ..experiments.store import ResultStore, get_store, set_store
from ..sim.port import Port
from ..units import ms
from .. import obs


class DifferentialMismatch(RuntimeError):
    """Two supposedly equivalent configurations produced different outputs."""


@dataclass(frozen=True)
class DifferentialReport:
    """Outcome of one equivalence check (``matched`` is the verdict)."""

    name: str
    digest_a: str
    digest_b: str
    matched: bool
    detail: str = ""

    def render(self) -> str:
        status = "ok " if self.matched else "FAIL"
        line = f"[{status}] {self.name}: {self.digest_a[:16]}"
        if not self.matched:
            line += f" != {self.digest_b[:16]}"
        if self.detail:
            line += f" ({self.detail})"
        return line


# ---------------------------------------------------------------------------
# Canonical flow-completion digest
# ---------------------------------------------------------------------------


def completion_rows(result: Any) -> List[str]:
    """Canonical text rows of a result's flow-completion output.

    ``repr`` of the float times preserves every bit (shortest round-trip
    repr), so two results agree on rows iff they agree byte-for-byte on
    completion output.  Incast results also contribute their fairness and
    queue series; datacenter results contribute per-flow slowdown records
    in collection order (which is itself deterministic).
    """
    rows: List[str] = []
    flows = getattr(result, "flows", None)
    if flows is not None:
        for f in sorted(flows, key=lambda f: f.flow_id):
            rows.append(
                f"flow {f.flow_id} start={f.start_time!r} "
                f"finish={f.finish_time!r} size={f.size} "
                f"completed={f.completed}"
            )
        for name in ("jain_times_ns", "jain_values",
                     "queue_times_ns", "queue_values_bytes"):
            digest = hashlib.sha256(getattr(result, name).tobytes()).hexdigest()
            rows.append(f"series {name} {digest}")
        rows.append(f"convergence {result.convergence_ns!r}")
    records = getattr(result, "records", None)
    if records is not None:
        for i, rec in enumerate(records):
            rows.append(
                f"record {i} size={rec.size_bytes} fct={rec.fct_ns!r} "
                f"ideal={rec.ideal_ns!r}"
            )
        rows.append(f"completed {result.n_completed}/{result.n_offered}")
    if not rows:
        raise TypeError(f"no flow-completion output on {type(result).__name__}")
    return rows


def fct_digest(result: Any) -> str:
    """SHA-256 over the canonical flow-completion rows."""
    h = hashlib.sha256()
    for row in completion_rows(result):
        h.update(row.encode())
        h.update(b"\n")
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Reference configs (CI determinism gate + sanitize job)
# ---------------------------------------------------------------------------


def reference_config(preset: str) -> AnyConfig:
    """The fixed config behind ``check digest --preset ...``.

    Small enough for CI (seconds, not minutes) but exercising the full
    stack: the incast preset covers the star/INT/VAI/SF path, the
    datacenter preset the fat-tree/ECMP/Poisson path.
    """
    if preset == "incast":
        return scaled_incast("hpcc-vai-sf", 8)
    if preset == "datacenter":
        return scaled_datacenter("hpcc-vai-sf", "hadoop", duration_ns=ms(1.0))
    raise ValueError(f"unknown preset {preset!r} (want 'incast' or 'datacenter')")


def digest_preset(preset: str) -> str:
    """Simulate a reference preset from scratch and return its digest.

    Caches are bypassed on purpose: the determinism gate must compare two
    *simulations*, not a simulation against its own cached copy.
    """
    with _isolated_caches():
        return fct_digest(run_config(reference_config(preset)))


# ---------------------------------------------------------------------------
# Equivalence checks
# ---------------------------------------------------------------------------


@contextmanager
def _isolated_caches(store: Optional[ResultStore] = None) -> Iterator[None]:
    """Run with empty LRU caches and ``store`` (default None) installed."""
    prev_store = get_store()
    set_store(store)
    exp_runner.clear_caches()
    try:
        yield
    finally:
        exp_runner.clear_caches()
        set_store(prev_store)


@contextmanager
def force_unfused() -> Iterator[None]:
    """Disable port fusion for every port built inside the block.

    Same technique as ``tests/sim/test_port_fusion.py``: new ports come up
    with ``allow_fusion`` off, so the legacy two-event schedule runs.
    """
    original = Port.__init__

    def no_fusion_init(self, *args: Any, **kwargs: Any) -> None:
        original(self, *args, **kwargs)
        self.allow_fusion = False

    Port.__init__ = no_fusion_init
    try:
        yield
    finally:
        Port.__init__ = original


def check_fused_vs_unfused(cfg: AnyConfig) -> DifferentialReport:
    """Fusion is a pure event-count optimization; outputs must match."""
    with _isolated_caches():
        fused = run_config(cfg)
    with _isolated_caches(), force_unfused():
        unfused = run_config(cfg)
    a, b = fct_digest(fused), fct_digest(unfused)
    return DifferentialReport(
        name="fused-vs-unfused",
        digest_a=a,
        digest_b=b,
        matched=a == b,
        detail=f"events {fused.events_executed} vs {unfused.events_executed}",
    )


def check_serial_vs_parallel(cfg: AnyConfig, jobs: int = 2) -> DifferentialReport:
    """A campaign worker must return exactly what an in-process run produces."""
    with _isolated_caches():
        serial = run_campaign([cfg], jobs=1).result_for(cfg)
    with _isolated_caches():
        parallel = run_campaign([cfg], jobs=jobs).result_for(cfg)
    a, b = fct_digest(serial), fct_digest(parallel)
    return DifferentialReport(
        name=f"serial-vs-jobs{jobs}",
        digest_a=a,
        digest_b=b,
        matched=a == b,
    )


def check_store_roundtrip(cfg: AnyConfig, store_dir: str) -> DifferentialReport:
    """A store-warm replay must equal the cold simulation it skipped."""
    store = ResultStore(store_dir)
    if isinstance(cfg, IncastConfig):
        run_cached = exp_runner.run_incast_cached
    elif isinstance(cfg, DatacenterConfig):
        run_cached = exp_runner.run_datacenter_cached
    else:
        raise TypeError(f"not a runnable config: {type(cfg).__name__}")
    with _isolated_caches(store):
        cold = run_cached(cfg)
        exp_runner.clear_caches()  # force the next read through the store
        warm = run_cached(cfg)
    a, b = fct_digest(cold), fct_digest(warm)
    return DifferentialReport(
        name="store-cold-vs-warm",
        digest_a=a,
        digest_b=b,
        matched=a == b,
        detail=f"store hits {store.stats.hits}",
    )


def check_obs_on_vs_off(cfg: AnyConfig) -> DifferentialReport:
    """The passive obs layers must not perturb simulation output."""
    with _isolated_caches():
        bare = run_config(cfg)
    with _isolated_caches():
        obs.enable_all()
        try:
            instrumented = run_config(cfg)
        finally:
            obs.disable_all()
    a, b = fct_digest(bare), fct_digest(instrumented)
    events_match = bare.events_executed == instrumented.events_executed
    return DifferentialReport(
        name="obs-on-vs-off",
        digest_a=a,
        digest_b=b,
        matched=a == b and events_match,
        detail=f"events {bare.events_executed} vs {instrumented.events_executed}",
    )


# ---------------------------------------------------------------------------
# Packet-vs-flow backend divergence matrix
# ---------------------------------------------------------------------------
#
# The flow backend is an *approximation*, so packet-vs-flow is not a
# byte-identity check: instead each reference figure workload is run on
# both backends and summary statistics are compared against documented
# tolerance bands.  The bands encode where the fluid abstraction is
# trusted (see DESIGN.md "When flow mode is trustworthy"):
#
# * ``slowdown_p50`` / ``slowdown_p99`` — per-flow FCT slowdown
#   percentiles.  The fluid model carries no queueing delay or packet
#   jitter, so it runs systematically *fast*; the band is wide enough for
#   that bias but tight enough to catch a broken rate allocation (a
#   missing bottleneck constraint shifts p99 by integer factors).
# * ``jain_mean`` — mean Jain index after the last flow's start.  Both
#   backends must agree on the fairness *regime* (converged vs. not);
#   the band is absolute because Jain lives in [1/n, 1].
# * ``convergence_us`` — time from last start until Jain >= 0.9.  The
#   noisiest statistic (packet-level AIMD oscillates around the
#   threshold), hence the widest band.  ``None`` (never converged) on
#   exactly one backend is always a loud failure.

#: Per-metric tolerance: divergence limit = abs_tol + rel_tol * |packet|.
BACKEND_TOLERANCES = {
    "slowdown_p50": (0.10, 0.25),  # (abs_tol, rel_tol)
    "slowdown_p99": (0.10, 0.35),
    "jain_mean": (0.12, 0.0),
    "convergence_us": (25.0, 0.60),
}

#: Reference figure workloads for the divergence matrix (fig 8 is the
#: paper's headline fast-convergence comparison and must stay in).
BACKEND_REFERENCE_FIGURES = {
    "1": ("hpcc", "hpcc-1gbps", "swift"),
    "8": ("hpcc", "hpcc-vai-sf"),
    "9": ("swift", "swift-vai-sf"),
}


@dataclass(frozen=True)
class BackendDivergence:
    """One (figure, variant, metric) cell of the divergence matrix."""

    figure: str
    variant: str
    metric: str
    packet: Optional[float]
    flow: Optional[float]
    divergence: float
    limit: float

    @property
    def within(self) -> bool:
        return self.divergence <= self.limit

    def render(self) -> str:
        status = "ok " if self.within else "FAIL"

        def fmt(v: Optional[float]) -> str:
            return "never" if v is None else f"{v:.3f}"

        return (
            f"[{status}] fig{self.figure}/{self.variant} {self.metric}: "
            f"packet={fmt(self.packet)} flow={fmt(self.flow)} "
            f"|d|={self.divergence:.3f} <= {self.limit:.3f}"
        )

    def to_dict(self) -> dict:
        return {
            "figure": self.figure,
            "variant": self.variant,
            "metric": self.metric,
            "packet": self.packet,
            "flow": self.flow,
            "divergence": self.divergence,
            "limit": self.limit,
            "within": self.within,
        }


def _incast_divergence_metrics(result: Any) -> dict:
    """Summary statistics compared across backends for one incast run."""
    import numpy as np

    from ..metrics.fct import ideal_fct_ns
    from ..topology.star import build_star
    from ..units import ns_to_us

    cfg = result.config
    topo = build_star(
        cfg.n_senders,
        rate_bps=cfg.rate_bps,
        prop_delay_ns=cfg.prop_delay_ns,
        seed=cfg.seed,
    )
    slowdowns = sorted(
        f.fct / ideal_fct_ns(topo.network, f.src, f.dst, f.size)
        for f in result.flows
        if f.completed
    )
    if not slowdowns:
        raise DifferentialMismatch(
            f"no completed flows on {cfg.describe()} — cannot compare backends"
        )
    after = result.jain_times_ns >= result.last_start_ns
    jain_mean = float(np.mean(result.jain_values[after])) if after.any() else 0.0
    conv = result.convergence_ns
    return {
        "slowdown_p50": float(np.percentile(slowdowns, 50)),
        "slowdown_p99": float(np.percentile(slowdowns, 99)),
        "jain_mean": jain_mean,
        "convergence_us": None if conv is None else ns_to_us(conv),
    }


def backend_divergence_matrix(
    figures: Optional[List[str]] = None,
) -> List[BackendDivergence]:
    """Run each reference workload on both backends and compare metrics.

    Returns every (figure, variant, metric) cell; callers decide whether
    an out-of-band cell is fatal (:func:`assert_backend_matrix`) or just
    reported.  A metric that is ``None`` (never converged) on exactly one
    backend gets ``divergence = inf`` so it always fails loudly.
    """
    from ..experiments.config import with_backend

    cells: List[BackendDivergence] = []
    for figure in figures or sorted(BACKEND_REFERENCE_FIGURES):
        try:
            variants = BACKEND_REFERENCE_FIGURES[figure]
        except KeyError:
            raise ValueError(
                f"figure {figure!r} has no backend reference workload "
                f"(have {sorted(BACKEND_REFERENCE_FIGURES)})"
            )
        for variant in variants:
            cfg = scaled_incast(variant, 16)
            with _isolated_caches():
                packet = _incast_divergence_metrics(run_config(cfg))
            with _isolated_caches():
                flow = _incast_divergence_metrics(
                    run_config(with_backend(cfg, "flow"))
                )
            for metric, (abs_tol, rel_tol) in BACKEND_TOLERANCES.items():
                p, f = packet[metric], flow[metric]
                if p is None and f is None:
                    divergence, limit = 0.0, 0.0
                elif p is None or f is None:
                    divergence, limit = float("inf"), 0.0
                else:
                    divergence = abs(f - p)
                    limit = abs_tol + rel_tol * abs(p)
                cells.append(
                    BackendDivergence(
                        figure=figure,
                        variant=variant,
                        metric=metric,
                        packet=p,
                        flow=f,
                        divergence=divergence,
                        limit=limit,
                    )
                )
    return cells


def assert_backend_matrix(
    figures: Optional[List[str]] = None,
) -> List[BackendDivergence]:
    """Like :func:`backend_divergence_matrix` but raising on any breach."""
    cells = backend_divergence_matrix(figures)
    bad = [c for c in cells if not c.within]
    if bad:
        raise DifferentialMismatch(
            f"{len(bad)} backend divergence(s) out of tolerance:\n"
            + "\n".join(c.render() for c in bad)
        )
    return cells


def run_matrix(
    cfg: AnyConfig, *, store_dir: str, jobs: int = 2
) -> List[DifferentialReport]:
    """Run every equivalence check against one config."""
    return [
        check_fused_vs_unfused(cfg),
        check_serial_vs_parallel(cfg, jobs=jobs),
        check_store_roundtrip(cfg, store_dir),
        check_obs_on_vs_off(cfg),
    ]


def assert_matrix(
    cfg: AnyConfig, *, store_dir: str, jobs: int = 2
) -> List[DifferentialReport]:
    """Like :func:`run_matrix` but raising on the first mismatch."""
    reports = run_matrix(cfg, store_dir=store_dir, jobs=jobs)
    bad = [r for r in reports if not r.matched]
    if bad:
        raise DifferentialMismatch(
            "; ".join(r.render() for r in bad)
            + f" | config: {cfg.describe()} key={cfg.cache_key()[:16]}"
        )
    return reports
