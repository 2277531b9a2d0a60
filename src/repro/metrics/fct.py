"""Flow-completion-time metrics (Figs. 10-13).

The paper reports **FCT slowdown**: achieved FCT divided by the theoretical
minimum on an unloaded network ("propagation delay + serialization delay").
Our ideal model is the exact store-and-forward pipeline time:

* the first packet pays serialization + propagation at every forward hop;
* the remaining bytes stream behind it, paced by the slowest (bottleneck)
  hop;
* the final ACK pays serialization + propagation on the reverse path
  (completion is measured at the sender, matching the simulator).

Figures 10-13 bucket flows by size — "each data point represents 1% of
flows" — and take a percentile (99.9th for the tail figures, 50th for the
median figures) of the slowdown within each bucket.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..sim.flow import Flow
from ..sim.network import Network
from ..sim.packet import ACK_BYTES, HEADER_BYTES

#: Percentiles every FCT-slowdown summary reports, exact (here) or streamed
#: (:mod:`repro.obs.analytics`) — the paper's median and tail figures
#: (50/99/99.9).  Keys via :func:`percentile_key`.
SLOWDOWN_PERCENTILES = (50.0, 99.0, 99.9)


def percentile_key(p: float) -> str:
    """Canonical JSON key for a percentile: 50 -> 'p50', 99.9 -> 'p999'."""
    text = f"{p:g}".replace(".", "")
    return f"p{text}"


def ideal_fct_ns(
    network: Network, src: int, dst: int, size_bytes: int, mtu_payload: int = 1000
) -> float:
    """Theoretical minimum FCT for ``size_bytes`` between two hosts."""
    if size_bytes <= 0:
        raise ValueError("size must be positive")
    path = network._shortest_path(src, dst)
    n_pkts = math.ceil(size_bytes / mtu_payload)
    first_payload = min(mtu_payload, size_bytes)
    wire_bytes = size_bytes + n_pkts * HEADER_BYTES
    first_pkt = first_payload + HEADER_BYTES

    total = 0.0
    bottleneck_ser_per_byte = 0.0
    for u, v in zip(path, path[1:]):
        spec = network.nodes[u].port_to[v].spec
        total += spec.serialization_ns(first_pkt) + spec.prop_delay_ns
        per_byte = 8.0 / spec.rate_bps * 1e9
        if per_byte > bottleneck_ser_per_byte:
            bottleneck_ser_per_byte = per_byte
    total += (wire_bytes - first_pkt) * bottleneck_ser_per_byte
    for u, v in zip(path, path[1:]):
        spec = network.nodes[v].port_to[u].spec
        total += spec.serialization_ns(ACK_BYTES) + spec.prop_delay_ns
    return total


@dataclass(frozen=True)
class FlowRecord:
    """One completed flow's size and slowdown (analysis-side record)."""

    size_bytes: int
    fct_ns: float
    ideal_ns: float

    @property
    def slowdown(self) -> float:
        return self.fct_ns / self.ideal_ns


def collect_records(
    network: Network, flows: Sequence[Flow], mtu_payload: int = 1000
) -> List[FlowRecord]:
    """Build slowdown records for every *completed* flow."""
    records = []
    for f in flows:
        if not f.completed:
            continue
        ideal = ideal_fct_ns(network, f.src, f.dst, f.size, mtu_payload)
        records.append(FlowRecord(f.size, f.fct, ideal))
    return records


@dataclass(frozen=True)
class SlowdownBucket:
    """One point of a Fig. 10-13 curve."""

    size_max_bytes: float  # bucket upper edge (x coordinate)
    slowdown: float  # the requested percentile of slowdown in the bucket
    count: int


def slowdown_by_size(
    records: Sequence[FlowRecord],
    *,
    percentile: float = 99.9,
    n_buckets: int = 20,
) -> List[SlowdownBucket]:
    """Percentile-of-slowdown per size bucket (equal flow count per bucket).

    The paper uses 100 buckets of 1% each; scaled runs have fewer flows, so
    ``n_buckets`` is configurable.  Flows are sorted by size and split into
    ``n_buckets`` nearly equal groups; each bucket reports its largest flow
    size and the requested percentile of slowdowns within it.
    """
    if not 0 < percentile <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {percentile}")
    if n_buckets < 1:
        raise ValueError("n_buckets must be >= 1")
    recs = sorted(records, key=lambda r: r.size_bytes)
    if not recs:
        return []
    n_buckets = min(n_buckets, len(recs))
    sizes = np.array([r.size_bytes for r in recs], dtype=float)
    slows = np.array([r.slowdown for r in recs], dtype=float)
    edges = np.linspace(0, len(recs), n_buckets + 1).astype(int)
    buckets = []
    for lo, hi in zip(edges, edges[1:]):
        if hi <= lo:
            continue
        buckets.append(
            SlowdownBucket(
                size_max_bytes=float(sizes[hi - 1]),
                slowdown=float(np.percentile(slows[lo:hi], percentile)),
                count=int(hi - lo),
            )
        )
    return buckets


def tail_slowdown_above(
    records: Sequence[FlowRecord],
    size_threshold_bytes: float,
    percentile: float = 99.9,
) -> Optional[float]:
    """Percentile slowdown of flows strictly larger than a threshold.

    The paper's headline: 99.9% slowdown of > 1 MB flows halves with VAI+SF.
    Returns None when no flow qualifies.
    """
    slows = [r.slowdown for r in records if r.size_bytes > size_threshold_bytes]
    if not slows:
        return None
    return float(np.percentile(np.asarray(slows), percentile))


def summarize(records: Sequence[FlowRecord]) -> dict:
    """Overall summary statistics used by reports and tests.

    Percentile keys come from ``SLOWDOWN_PERCENTILES`` above, which
    :mod:`repro.obs.analytics` shares, so this exact NumPy path and the
    streaming P² path report under identical names —
    the cross-validation tests and the regression gate compare them 1:1.
    """
    if not records:
        return {"count": 0}
    slows = np.array([r.slowdown for r in records])
    out = {
        "count": len(records),
        "mean_slowdown": float(slows.mean()),
    }
    for p in SLOWDOWN_PERCENTILES:
        out[f"{percentile_key(p)}_slowdown"] = float(np.percentile(slows, p))
    out["max_slowdown"] = float(slows.max())
    return out
