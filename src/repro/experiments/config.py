"""Experiment configurations: the paper's parameters and scaled presets.

Two preset families:

* ``paper_*`` — the exact parameters from Secs. III-D and VI-A (16-1 / 96-1
  incast at 100 Gbps; 320-host fat-tree at 50% load for 50 ms).  Running
  these in pure Python takes hours; they exist so the harness can be pointed
  at full scale on a big machine (``repro-experiments --scale paper``).
* ``scaled_*`` — shape-preserving reductions used by the figures and claims:
  smaller incast degree and a 16-host fat-tree at 10/40 Gbps with flow sizes
  scaled by 0.1 (the BDP shrinks by roughly the same factor, so
  "long flow" stays long relative to the pipe).  EXPERIMENTS.md records the
  exact scaling per figure.

The RED marking profile for DCQCN follows common 100 Gbps practice
(kmin 100 KB, kmax 400 KB, pmax 0.01 — Sec. III-C quotes the 1% maximum
marking probability), scaled with the link rate.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Tuple

from ..sim.port import RedConfig
from ..topology.fattree import FatTreeParams, scaled_fattree_params
from ..units import gbps, mb, ms, us
from .store import config_key


class _CacheKeyMixin:
    """Content-hash key shared by the in-memory LRU and the on-disk store.

    The key comes from :func:`repro.experiments.store.config_key`'s
    canonical rendering (fields sorted by name, defaults omitted), so it is
    stable across field reordering and across adding new defaulted fields —
    unlike the dataclass hash, which is also per-process.
    """

    def cache_key(self) -> str:
        return config_key(self)


def red_for_rate(rate_bps: float) -> RedConfig:
    """DCQCN RED thresholds proportional to link speed (100 KB at 100 Gbps)."""
    scale = rate_bps / gbps(100.0)
    return RedConfig(
        kmin_bytes=100_000.0 * scale,
        kmax_bytes=400_000.0 * scale,
        pmax=0.01,
    )


#: Valid ``FaultConfig.target`` values for packet-level faults.
FAULT_TARGETS = ("bottleneck", "fabric", "all")

#: Valid simulation backends.  ``packet`` is the exact discrete-event
#: engine; ``flow`` is the fluid fast path (:mod:`repro.sim.fluid`);
#: ``hybrid`` packetizes designated flows over a fluid background (see
#: :mod:`repro.experiments.flowsim`).
BACKENDS = ("packet", "flow", "hybrid")


def _validate_backend(backend: str) -> None:
    if backend not in BACKENDS:
        raise ValueError(f"backend must be one of {BACKENDS}, got {backend!r}")


@dataclass(frozen=True)
class FaultConfig(_CacheKeyMixin):
    """Declarative fault specification attached to an experiment config.

    Frozen (and therefore hashable) so faulty configs key the result caches
    exactly like healthy ones.  The runner translates this into
    :mod:`repro.sim.faults` injectors at build time and automatically
    enables go-back-N loss recovery on every host.

    ``target`` selects where packet faults land: the monitored bottleneck
    ports, every switch egress port (``"fabric"``), or every port including
    host NICs (``"all"``).  ``link_flap`` is ``(down_at_ns, down_for_ns)``
    applied to an automatically chosen link (first fabric switch-switch
    link, falling back to a host uplink on single-switch topologies);
    setting ``flap_period_ns`` repeats the cycle ``flap_count`` times.
    """

    drop_rate: float = 0.0
    corrupt_rate: float = 0.0
    drop_every_nth: Optional[int] = None
    target: str = "bottleneck"
    link_flap: Optional[Tuple[float, float]] = None
    flap_period_ns: Optional[float] = None
    flap_count: int = 1
    seed: int = 7
    rto_ns: Optional[float] = None

    def __post_init__(self) -> None:
        if self.target not in FAULT_TARGETS:
            raise ValueError(
                f"target must be one of {FAULT_TARGETS}, got {self.target!r}"
            )
        if not 0.0 <= self.drop_rate <= 1.0 or not 0.0 <= self.corrupt_rate <= 1.0:
            raise ValueError("fault rates must be in [0, 1]")

    @property
    def has_packet_faults(self) -> bool:
        return (
            self.drop_rate > 0.0
            or self.corrupt_rate > 0.0
            or self.drop_every_nth is not None
        )

    @property
    def has_link_faults(self) -> bool:
        return self.link_flap is not None


@dataclass(frozen=True)
class IncastConfig(_CacheKeyMixin):
    """An N-to-1 staggered incast experiment on the star topology."""

    variant: str
    n_senders: int = 16
    flow_size_bytes: int = mb(1)
    flows_per_batch: int = 2
    batch_interval_ns: float = us(20.0)
    rate_bps: float = gbps(100.0)
    prop_delay_ns: float = us(1.0)
    fs_max_cwnd_pkts: float = 50.0  # paper lowers FBS max window on the star
    sample_interval_ns: float = us(2.0)  # queue-depth sampling
    goodput_interval_ns: float = us(10.0)  # rate sampling for the Jain index
    timeout_ns: float = ms(50.0)
    seed: int = 1
    faults: Optional[FaultConfig] = None
    #: Simulation backend (defaulted, so packet-run cache keys are
    #: unchanged from before the field existed — see store.config_key).
    backend: str = "packet"

    def __post_init__(self) -> None:
        _validate_backend(self.backend)

    def describe(self) -> str:
        tag = "" if self.backend == "packet" else f" [{self.backend}]"
        return (
            f"{self.n_senders}-1 incast, {self.variant}, "
            f"{self.flow_size_bytes / 1e6:g} MB flows, "
            f"{self.rate_bps / 1e9:g} Gbps links{tag}"
        )


@dataclass(frozen=True)
class DatacenterConfig(_CacheKeyMixin):
    """A trace-driven fat-tree experiment."""

    variant: str
    workload: str = "hadoop"  # distribution registry name
    fattree: FatTreeParams = field(default_factory=scaled_fattree_params)
    load: float = 0.5
    duration_ns: float = ms(5.0)
    size_scale: float = 0.1  # multiply sampled flow sizes (scaled runs)
    drain_timeout_ns: float = ms(30.0)
    fs_max_cwnd_pkts: float = 100.0
    seed: int = 42
    faults: Optional[FaultConfig] = None
    #: Simulation backend (defaulted, so packet-run cache keys are
    #: unchanged from before the field existed — see store.config_key).
    backend: str = "packet"
    #: ``backend="hybrid"`` packetizes flows at or below this size (the
    #: latency-sensitive short flows); larger flows stay fluid background.
    hybrid_packet_max_bytes: int = 100_000

    def __post_init__(self) -> None:
        _validate_backend(self.backend)
        if self.hybrid_packet_max_bytes <= 0:
            raise ValueError("hybrid_packet_max_bytes must be positive")

    def describe(self) -> str:
        tag = "" if self.backend == "packet" else f" [{self.backend}]"
        return (
            f"{self.workload} @ {self.load:.0%} load on "
            f"{self.fattree.n_hosts}-host fat-tree, {self.variant}, "
            f"{self.duration_ns / 1e6:g} ms{tag}"
        )


# ---------------------------------------------------------------------------
# Paper-scale presets (Secs. III-D / VI-A)
# ---------------------------------------------------------------------------


def paper_incast(variant: str, n_senders: int = 16) -> IncastConfig:
    """The paper's incast: 100 Gbps star, 1 MB flows, 2 starts / 20 us."""
    return IncastConfig(variant=variant, n_senders=n_senders)


def paper_datacenter(variant: str, workload: str = "hadoop") -> DatacenterConfig:
    """The paper's datacenter run: 320 hosts, 100G/400G, 50% load, 50 ms."""
    return DatacenterConfig(
        variant=variant,
        workload=workload,
        fattree=FatTreeParams(),
        load=0.5,
        duration_ns=ms(50.0),
        size_scale=1.0,
        drain_timeout_ns=ms(200.0),
    )


# ---------------------------------------------------------------------------
# Scaled presets (bench defaults)
# ---------------------------------------------------------------------------

#: Incast degree used in scaled reproductions of the 96-1 experiments.
SCALED_LARGE_INCAST = 32


def scaled_incast(variant: str, n_senders: int = 16) -> IncastConfig:
    """Paper-shape incast, bench-friendly.

    The 16-1 pattern is cheap enough to run at the paper's own parameters,
    so only the sampling interval differs from :func:`paper_incast`.
    """
    return IncastConfig(variant=variant, n_senders=n_senders)


def scaled_datacenter(
    variant: str,
    workload: str = "hadoop",
    *,
    duration_ns: float = ms(6.0),
    seed: int = 42,
) -> DatacenterConfig:
    """Scaled fat-tree run: 16 hosts at 10/40 Gbps, sizes x0.1."""
    return DatacenterConfig(
        variant=variant,
        workload=workload,
        fattree=scaled_fattree_params(),
        load=0.5,
        duration_ns=duration_ns,
        size_scale=0.1,
        seed=seed,
    )


def with_seed(cfg, seed: int):
    """A copy of any config with a different seed (multi-seed sweeps)."""
    return replace(cfg, seed=seed)


def with_backend(cfg, backend: str):
    """A copy of any config running on a different simulation backend."""
    _validate_backend(backend)
    return replace(cfg, backend=backend)


# ---------------------------------------------------------------------------
# Process-default backend (CLI --backend)
# ---------------------------------------------------------------------------

_DEFAULT_BACKEND = "packet"


def set_default_backend(backend: str) -> None:
    """Set the backend applied to configs left at the default ``"packet"``.

    The CLI's ``--backend`` installs this so that figure functions — which
    construct their own configs without a backend argument — transparently
    run (and cache) on the selected backend.  Configs that carry an
    explicit non-default backend are never rewritten.
    """
    _validate_backend(backend)
    global _DEFAULT_BACKEND
    _DEFAULT_BACKEND = backend


def get_default_backend() -> str:
    return _DEFAULT_BACKEND


def apply_default_backend(cfg):
    """Normalize a config to the process-default backend.

    Called at every cache boundary (runner LRU/store lookups, the campaign
    dispatcher) so a figure's internally built packet-default config keys
    and runs under the process default.  No-op when the default is
    ``packet`` or the config already names another backend.
    """
    if _DEFAULT_BACKEND != "packet" and getattr(cfg, "backend", None) == "packet":
        return replace(cfg, backend=_DEFAULT_BACKEND)
    return cfg


#: The variant line-ups each figure compares (paper legends).
FIG1_HPCC_VARIANTS: Tuple[str, ...] = ("hpcc", "hpcc-1gbps", "hpcc-prob")
FIG1_SWIFT_VARIANTS: Tuple[str, ...] = ("swift", "swift-1gbps", "swift-prob")
FIG5_HPCC_VARIANTS: Tuple[str, ...] = (
    "hpcc",
    "hpcc-1gbps",
    "hpcc-prob",
    "hpcc-vai-sf",
)
FIG6_SWIFT_VARIANTS: Tuple[str, ...] = (
    "swift",
    "swift-1gbps",
    "swift-prob",
    "swift-vai-sf",
)
DATACENTER_VARIANTS: Tuple[str, ...] = (
    "hpcc",
    "hpcc-vai-sf",
    "swift",
    "swift-vai-sf",
)
