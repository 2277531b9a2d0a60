"""Jain fairness index (Figs. 1, 5, 6) and convergence-time summaries.

The Jain index of an allocation ``x`` is ``(sum x)^2 / (n * sum x^2)``: 1 for
a perfectly even allocation, ``1/n`` when one flow holds everything.  The
paper plots the index of the *active* flows' throughputs over time during
incast; a protocol that converges to fairness quickly drives the index to ~1
soon after the last flow joins.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from ..sim.flow import Flow


def jain_index(rates: np.ndarray) -> float:
    """Jain fairness index of one allocation vector (1.0 for empty/degenerate)."""
    rates = np.asarray(rates, dtype=float)
    rates = rates[rates > 0]
    n = rates.size
    if n == 0:
        return 1.0
    s = rates.sum()
    sq = float(np.dot(rates, rates))
    if sq == 0.0:
        return 1.0
    return float(s * s / (n * sq))


def active_mask(
    flows: Sequence[Flow], times_ns: np.ndarray, slack_ns: float = 0.0
) -> np.ndarray:
    """Boolean matrix ``(len(times), len(flows))``: flow active at time t.

    A flow is active from its start until its finish (or forever if still
    running).  ``slack_ns`` extends activity slightly so that sampling-bin
    edges don't flap membership.
    """
    t = np.asarray(times_ns, dtype=float)[:, None]
    starts = np.array([f.start_time for f in flows], dtype=float)[None, :]
    ends = np.array(
        [f.finish_time if f.finish_time is not None else np.inf for f in flows],
        dtype=float,
    )[None, :]
    return (t >= starts - slack_ns) & (t <= ends + slack_ns)


def jain_series(
    times_ns: np.ndarray,
    rates: np.ndarray,
    flows: Optional[Sequence[Flow]] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Jain index over time from a goodput matrix.

    Parameters
    ----------
    times_ns, rates:
        Output of :meth:`repro.sim.monitor.GoodputMonitor.rates_bps` —
        times per interval midpoint and per-flow rates (rows = intervals).
    flows:
        If given, the index at each time considers only flows active then
        (the paper's convention); otherwise all positive rates count.

    Returns ``(times, index)``; intervals with no active flow yield 1.0.
    """
    times_ns = np.asarray(times_ns, dtype=float)
    rates = np.asarray(rates, dtype=float)
    if rates.ndim != 2 or rates.shape[0] != times_ns.shape[0]:
        raise ValueError(
            f"rates must be (len(times), n_flows); got {rates.shape} for "
            f"{times_ns.shape[0]} times"
        )
    members = rates > 0
    if flows is not None:
        members &= active_mask(flows, times_ns)
    # Rows sharing one membership pattern form a block whose member columns
    # are gathered once.  Each row is still reduced on a fresh contiguous
    # copy, as :func:`jain_index` reduces it: on a strided view numpy's sum
    # and dot may round differently.
    n = times_ns.shape[0]
    starts = (np.flatnonzero((members[1:] != members[:-1]).any(axis=1)) + 1).tolist()
    add, dot = np.add.reduce, np.dot
    index: list = []
    for lo, hi in zip([0, *starts], [*starts, n]) if n else ():
        cols = np.flatnonzero(members[lo])
        k = cols.size
        if k == 0:
            index += [1.0] * (hi - lo)
            continue
        for row in rates[lo:hi, cols]:
            row = row.copy()
            s = float(add(row))
            sq = float(dot(row, row))
            index.append(1.0 if sq == 0.0 else s * s / (k * sq))
    out = np.array(index, dtype=float)
    return times_ns, out


def convergence_time_ns(
    times_ns: np.ndarray,
    index: np.ndarray,
    *,
    threshold: float = 0.95,
    after_ns: float = 0.0,
    sustain_samples: int = 3,
) -> Optional[float]:
    """First time (>= ``after_ns``) the index stays above ``threshold``.

    "Stays" means ``sustain_samples`` consecutive samples at/above the
    threshold; returns None when the series never converges.  ``after_ns``
    is typically the last flow's start time, so the metric measures
    convergence after the final perturbation.
    """
    times_ns = np.asarray(times_ns, dtype=float)
    index = np.asarray(index, dtype=float)
    eligible = times_ns >= after_ns
    good = (index >= threshold) & eligible
    run = 0
    for i, ok in enumerate(good):
        run = run + 1 if ok else 0
        if run >= sustain_samples:
            return float(times_ns[i - sustain_samples + 1])
    return None


def mean_index_after(
    times_ns: np.ndarray, index: np.ndarray, after_ns: float
) -> float:
    """Average Jain index from ``after_ns`` onward (summary statistic)."""
    times_ns = np.asarray(times_ns, dtype=float)
    index = np.asarray(index, dtype=float)
    sel = times_ns >= after_ns
    if not np.any(sel):
        return float("nan")
    return float(np.mean(index[sel]))
