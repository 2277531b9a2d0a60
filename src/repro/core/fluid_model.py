"""Fluid model of Sampling Frequency convergence (Sec. IV-B, Fig. 4).

The paper models two flows performing multiplicative decrease under two
schedules and compares how fast the rate *gap* closes:

* **per-RTT decrease** — ``R_i'(t) = -beta * R_i(t) / r`` with ``r`` the
  (fixed, congested) RTT.  Closed form: ``R_i(t) = R_i(0) * exp(-beta t / r)``.
* **Sampling Frequency decrease** — a decrease every ``s`` ACKs means a
  decrease frequency ``f = s * MTU / S_i(t)`` (the faster a flow sends, the
  more often it reacts), giving ``S_i'(t) = -beta * S_i(t)^2 / (s * MTU)``.
  Closed form: ``S_i(t) = S_i(0) / (1 + S_i(0) * beta * t / (s * MTU))``.

Fairness is measured as the rate gap between the two flows; Fig. 4 plots
``(R_1 - R_0) - (S_1 - S_0)`` over time — positive values mean Sampling
Frequency is fairer at that instant.  The paper also derives the initial-
slope condition ``1/r < (C_1 + C_0) / (s * MTU)`` for SF to win.

Units follow the paper's Fig. 4 caption: rates in **bytes per nanosecond**
(100 Gbps = 12.5 B/ns), time in nanoseconds, MTU in bytes.

Both closed forms and a generic ODE integration (``scipy.solve_ivp``) are
provided; tests confirm they agree, which validates the closed forms and
guards the model against regressions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, Iterable, List, Mapping, Optional, Tuple

import numpy as np

from ..units import Gbps


def gbps_to_bytes_per_ns(rate_gbps: float) -> float:
    """Convert Gbps to the model's bytes-per-nanosecond units."""
    return rate_gbps * Gbps / 8.0 / 1e9


@dataclass(frozen=True)
class FluidModelParams:
    """Fig. 4 parameters (defaults are the paper's caption values)."""

    rtt_ns: float = 30_000.0  # r
    sampling_acks: int = 30  # s
    mtu_bytes: float = 1_000.0  # MTU
    beta: float = 0.5
    rate1_bytes_per_ns: float = gbps_to_bytes_per_ns(100.0)  # C1 (faster flow)
    rate0_bytes_per_ns: float = gbps_to_bytes_per_ns(50.0)  # C0 (slower flow)

    def __post_init__(self) -> None:
        if not 0 < self.beta < 1:
            raise ValueError(f"beta must be in (0, 1), got {self.beta}")
        if self.rtt_ns <= 0 or self.mtu_bytes <= 0 or self.sampling_acks < 1:
            raise ValueError("rtt, MTU must be positive and s >= 1")
        if self.rate1_bytes_per_ns < self.rate0_bytes_per_ns:
            raise ValueError("rate1 must be the faster flow (>= rate0)")


def per_rtt_rate(t: np.ndarray, r0: float, params: FluidModelParams) -> np.ndarray:
    """Closed-form ``R(t)`` for the per-RTT decrease model."""
    t = np.asarray(t, dtype=float)
    return r0 * np.exp(-params.beta * t / params.rtt_ns)


def sampling_rate(t: np.ndarray, s0: float, params: FluidModelParams) -> np.ndarray:
    """Closed-form ``S(t)`` for the Sampling Frequency decrease model."""
    t = np.asarray(t, dtype=float)
    k = params.beta / (params.sampling_acks * params.mtu_bytes)
    return s0 / (1.0 + s0 * k * t)


def fairness_difference(
    t: np.ndarray, params: FluidModelParams
) -> np.ndarray:
    """Fig. 4 series: ``(R1 - R0) - (S1 - S0)`` at times ``t`` (ns)."""
    r1 = per_rtt_rate(t, params.rate1_bytes_per_ns, params)
    r0 = per_rtt_rate(t, params.rate0_bytes_per_ns, params)
    s1 = sampling_rate(t, params.rate1_bytes_per_ns, params)
    s0 = sampling_rate(t, params.rate0_bytes_per_ns, params)
    return (r1 - r0) - (s1 - s0)


def initial_slope_condition(params: FluidModelParams) -> bool:
    """The paper's Eq. constraint for SF to converge faster at t = 0.

    ``1/r < (C1 + C0) / (s * MTU)``: true when initial rates are high,
    sampling is frequent, and RTTs are long — exactly the conditions right
    after a new flow joins.
    """
    lhs = 1.0 / params.rtt_ns
    rhs = (params.rate1_bytes_per_ns + params.rate0_bytes_per_ns) / (
        params.sampling_acks * params.mtu_bytes
    )
    return lhs < rhs


def fairness_gap_slope_at_zero(params: FluidModelParams) -> float:
    """Initial derivative of the fairness difference (positive = SF fairer).

    ``d/dt [(R1-R0) - (S1-S0)]`` at ``t = 0``:
    ``-beta (C1 - C0)/r + beta (C1^2 - C0^2)/(s MTU)``.
    """
    c1, c0 = params.rate1_bytes_per_ns, params.rate0_bytes_per_ns
    return (
        -params.beta * (c1 - c0) / params.rtt_ns
        + params.beta * (c1 * c1 - c0 * c0) / (params.sampling_acks * params.mtu_bytes)
    )


def integrate_numerically(
    t_end_ns: float,
    params: FluidModelParams,
    n_points: int = 500,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Integrate both models with scipy and return ``(t, R pair, S pair)``.

    Cross-checks the closed forms; returned arrays have shapes
    ``(n,)``, ``(n, 2)``, ``(n, 2)`` with columns ``[flow1, flow0]``.
    """
    # The only scipy user in the package: imported here so that every run
    # that never cross-checks the closed forms does not pay for loading it.
    from scipy.integrate import solve_ivp

    t_eval = np.linspace(0.0, t_end_ns, n_points)

    def rhs(_t: float, y: np.ndarray) -> np.ndarray:
        r1, r0, s1, s0 = y
        k = params.beta / (params.sampling_acks * params.mtu_bytes)
        return np.array(
            [
                -params.beta * r1 / params.rtt_ns,
                -params.beta * r0 / params.rtt_ns,
                -k * s1 * s1,
                -k * s0 * s0,
            ]
        )

    y0 = np.array(
        [
            params.rate1_bytes_per_ns,
            params.rate0_bytes_per_ns,
            params.rate1_bytes_per_ns,
            params.rate0_bytes_per_ns,
        ]
    )
    sol = solve_ivp(rhs, (0.0, t_end_ns), y0, t_eval=t_eval, rtol=1e-9, atol=1e-12)
    if not sol.success:  # pragma: no cover - solve_ivp failure is exceptional
        raise RuntimeError(f"fluid model integration failed: {sol.message}")
    return sol.t, sol.y[:2].T, sol.y[2:].T


def fig4_series(
    t_end_ns: float = 200_000.0,
    n_points: int = 400,
    params: FluidModelParams = FluidModelParams(),
) -> Tuple[np.ndarray, np.ndarray]:
    """The Fig. 4 curve with paper-default parameters.

    Returns ``(t_ns, fairness_difference_bytes_per_ns)``.
    """
    t = np.linspace(0.0, t_end_ns, n_points)
    return t, fairness_difference(t, params)


# ---------------------------------------------------------------------------
# General max-min fair allocation (flow-level simulation backend)
# ---------------------------------------------------------------------------

#: Relative slack used when deciding a link is saturated / a cap is reached.
_WF_EPS = 1e-12


def max_min_allocation(
    capacities: Mapping[Hashable, float],
    flow_links: Mapping[Hashable, Iterable[Hashable]],
    caps: Optional[Mapping[Hashable, float]] = None,
) -> Dict[Hashable, float]:
    """Max-min fair rates via progressive water-filling.

    Parameters
    ----------
    capacities:
        Link id -> capacity (any consistent rate unit, >= 0).  A
        zero-capacity link models a faulted/down link: every flow crossing
        it is frozen at rate 0.
    flow_links:
        Flow id -> the link ids the flow traverses.  A flow listed with no
        links (an idealized loopback) must carry a cap, otherwise its fair
        rate would be unbounded and a ``ValueError`` is raised.
    caps:
        Optional flow id -> maximum rate (congestion-control window caps,
        NIC line rates).  A capped flow freezes at its cap once the shared
        water level reaches it; its unused share is redistributed.

    Returns flow id -> allocated rate.  The algorithm raises all unfrozen
    flows' rates in lockstep; each round freezes at least one flow (either
    a saturated link's users or a flow at its cap), so it terminates in at
    most ``len(flow_links)`` rounds.  The result does not depend on the
    iteration order of the inputs: the binding increment is an exact
    ``min`` and every other update touches one link or one flow.

    Cost is linear in the number of (flow, link) incidences plus one pass
    over the still-shared links per round (and a sort of the caps): each
    link keeps a count of its unfrozen users that freezing decrements, and
    only the users of links that saturate in a round are visited.
    """
    # Links and flows are renumbered 0..n-1 in first-seen order so that the
    # rounds below index lists instead of hashing the callers' ids.
    fids = list(flow_links)
    index_of: Dict[Hashable, int] = {}
    capacity: List[float] = []  # by link number
    users_of: List[List[int]] = []  # link number -> numbers of the flows crossing it
    links_of: List[List[int]] = []  # flow number -> link numbers (repeats kept)
    # Capped flows, by flow number: the cap, and the level at which it counts
    # as reached (the tolerance scales with the largest capacity on the path).
    cap_of: Dict[int, float] = {}
    reached_at: Dict[int, float] = {}
    for number, fid in enumerate(fids):
        links: List[int] = []
        scale = None  # largest capacity on the path so far
        for link in flow_links[fid]:
            i = index_of.get(link)
            if i is None:
                if link not in capacities:
                    raise KeyError(f"flow {fid!r} crosses unknown link {link!r}")
                if capacities[link] < 0:
                    raise ValueError(f"link {link!r} has negative capacity")
                i = index_of[link] = len(capacity)
                capacity.append(capacities[link])
                users_of.append([number])
            else:
                users_of[i].append(number)
            links.append(i)
            if scale is None or capacity[i] > scale:
                scale = capacity[i]
        if not links and (caps is None or fid not in caps):
            raise ValueError(
                f"flow {fid!r} crosses no links and has no cap; its max-min "
                "rate is unbounded"
            )
        links_of.append(links)
        cap = None if caps is None else caps.get(fid)
        if cap is not None:
            cap_of[number] = cap
            reached_at[number] = cap - _WF_EPS * max(
                cap, 1.0 if scale is None else scale, 1.0
            )

    # Unfrozen users per link (a link listed twice by a flow counts twice),
    # what is left of each link, and the level at which it counts as full.
    n_users = [len(users) for users in users_of]
    remaining = list(capacity)
    full_at = [_WF_EPS * max(c, 1.0) for c in capacity]
    live = list(range(len(capacity)))

    # Capped flows in the order their caps bind: ``by_cap`` yields the
    # smallest headroom among unfrozen flows, ``by_reached`` the flows whose
    # cap (less the tolerance) the common level has reached.
    by_cap = sorted(cap_of, key=cap_of.__getitem__)
    by_reached = sorted(reached_at, key=reached_at.__getitem__)
    next_cap = next_reached = 0

    rate: List[Optional[float]] = [None] * len(fids)  # None: not frozen yet
    level = 0.0  # the rate every unfrozen flow has been raised to
    n_unfrozen = len(fids)
    infinity = float("inf")
    while n_unfrozen:
        # The uniform increment at which the first constraint binds.
        increment = infinity
        for i in live:
            share = remaining[i] / n_users[i]
            if share < increment:
                increment = share
        while next_cap < len(by_cap) and rate[by_cap[next_cap]] is not None:
            next_cap += 1
        if next_cap < len(by_cap):
            headroom = cap_of[by_cap[next_cap]] - level
            if headroom < increment:
                increment = headroom
        if increment == infinity:  # only capless, linkless flows remain
            raise ValueError("unbounded allocation: no binding constraint")
        if increment < 0.0:
            increment = 0.0
        level += increment
        freezing = []
        for i in live:
            left = remaining[i] - increment * n_users[i]
            remaining[i] = left
            if left <= full_at[i]:
                for number in users_of[i]:
                    if rate[number] is None:
                        rate[number] = level
                        freezing.append(number)
        while next_reached < len(by_reached):
            number = by_reached[next_reached]
            if rate[number] is None:
                if level < reached_at[number]:
                    break
                rate[number] = level
                freezing.append(number)
            next_reached += 1
        if not freezing:  # pragma: no cover - defensive
            raise RuntimeError("water-filling failed to make progress")
        n_unfrozen -= len(freezing)
        for number in freezing:
            for i in links_of[number]:
                n_users[i] -= 1
        live = [i for i in live if n_users[i]]
    return dict(zip(fids, rate))
