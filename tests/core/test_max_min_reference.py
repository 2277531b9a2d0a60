"""``max_min_allocation`` against the implementation it replaced.

``reference_max_min_allocation`` is the water-filling loop as it stood
before PR 12, moved here verbatim (it re-sorts ids by ``repr`` and recounts
every link's users each round: quadratic, and obviously right).  The
production kernel must return *equal* dicts — same floats, bit for bit —
on every instance, and raise the same errors.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, Mapping, Optional, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fluid_model import max_min_allocation

_WF_EPS = 1e-12


def reference_max_min_allocation(
    capacities: Mapping[Hashable, float],
    flow_links: Mapping[Hashable, Iterable[Hashable]],
    caps: Optional[Mapping[Hashable, float]] = None,
) -> Dict[Hashable, float]:
    """The pre-PR-12 ``repro.core.fluid_model.max_min_allocation`` body."""
    order = sorted(flow_links, key=repr)
    links_of: Dict[Hashable, Tuple[Hashable, ...]] = {}
    for fid in order:
        links = tuple(flow_links[fid])
        for link in links:
            if link not in capacities:
                raise KeyError(f"flow {fid!r} crosses unknown link {link!r}")
            if capacities[link] < 0:
                raise ValueError(f"link {link!r} has negative capacity")
        if not links and (caps is None or fid not in caps):
            raise ValueError(
                f"flow {fid!r} crosses no links and has no cap; its max-min "
                "rate is unbounded"
            )
        links_of[fid] = links

    rates: Dict[Hashable, float] = {fid: 0.0 for fid in order}
    remaining: Dict[Hashable, float] = dict(capacities)
    unfrozen = list(order)
    while unfrozen:
        users: Dict[Hashable, int] = {}
        for fid in unfrozen:
            for link in links_of[fid]:
                users[link] = users.get(link, 0) + 1
        # The uniform increment at which the first constraint binds.
        increment = float("inf")
        for link in sorted(users, key=repr):
            increment = min(increment, remaining[link] / users[link])
        if caps is not None:
            for fid in unfrozen:
                cap = caps.get(fid)
                if cap is not None:
                    increment = min(increment, cap - rates[fid])
        if increment == float("inf"):  # only capless, linkless flows remain
            raise ValueError("unbounded allocation: no binding constraint")
        increment = max(increment, 0.0)
        for fid in unfrozen:
            rates[fid] += increment
        for link, n in users.items():
            remaining[link] -= increment * n
        still: list = []
        for fid in unfrozen:
            scale = max(
                (capacities[link] for link in links_of[fid]), default=1.0
            )
            saturated = any(
                remaining[link] <= _WF_EPS * max(capacities[link], 1.0)
                for link in links_of[fid]
            )
            capped = (
                caps is not None
                and caps.get(fid) is not None
                and rates[fid] >= caps[fid] - _WF_EPS * max(caps[fid], scale, 1.0)
            )
            if saturated or capped:
                continue
            still.append(fid)
        if len(still) == len(unfrozen):  # pragma: no cover - defensive
            raise RuntimeError("water-filling failed to make progress")
        unfrozen = still
    return rates


# Few distinct capacities and caps, so ties, simultaneous saturation and
# caps that bind exactly at a link's fair share all come up.
_CAPACITIES = st.sampled_from([0.0, 1.0, 1.25, 2.5, 5.0, 12.5]) | st.floats(
    min_value=0.0, max_value=100.0, allow_nan=False
)
_CAPS = st.sampled_from([0.05, 0.625, 1.25, 2.5]) | st.floats(
    min_value=1e-3, max_value=50.0, allow_nan=False
)


@st.composite
def instances(draw):
    """(capacities, flow_links, caps): int or tuple ids, zero-capacity links,
    linkless capped flows, flows that list a link twice, caps or ``None``."""
    n_links = draw(st.integers(min_value=0, max_value=6))
    n_flows = draw(st.integers(min_value=1, max_value=12))
    tuple_ids = draw(st.booleans())
    link_ids = [(i, i + 1) if tuple_ids else i for i in range(n_links)]
    flow_ids = [("f", i) if tuple_ids else i for i in range(n_flows)]
    capacities = {link: draw(_CAPACITIES) for link in link_ids}
    flow_links = {}
    capped = {}
    for fid in draw(st.permutations(flow_ids)):
        links = draw(st.lists(st.sampled_from(link_ids), max_size=4)) if link_ids else []
        flow_links[fid] = links
        if not links or draw(st.booleans()):
            capped[fid] = draw(_CAPS)
    caps = capped if capped or draw(st.booleans()) else None
    return capacities, flow_links, caps


class TestAgainstReference:
    @given(instance=instances())
    @settings(max_examples=300, deadline=None)
    def test_equal_dicts_on_random_instances(self, instance):
        capacities, flow_links, caps = instance
        assert max_min_allocation(capacities, flow_links, caps) == (
            reference_max_min_allocation(capacities, flow_links, caps)
        )

    def test_equal_on_the_ledger_probe_instance(self):
        import random

        rng = random.Random(7)
        capacities = {link: rng.choice((1.25, 5.0)) for link in range(48)}
        flow_links = {fid: rng.sample(range(48), rng.randint(2, 5)) for fid in range(400)}
        caps = {fid: rng.uniform(0.05, 1.25) for fid in range(0, 400, 3)}
        assert max_min_allocation(capacities, flow_links, caps) == (
            reference_max_min_allocation(capacities, flow_links, caps)
        )

    def test_input_is_not_consumed_twice(self):
        """Link lists may be one-shot iterables, as the signature allows."""
        rates = max_min_allocation({"l": 6.0}, {0: iter(["l"]), 1: iter(["l"])})
        assert rates == {0: 3.0, 1: 3.0}

    @pytest.mark.parametrize("solve", [max_min_allocation, reference_max_min_allocation])
    def test_same_errors(self, solve):
        with pytest.raises(KeyError, match="unknown link"):
            solve({"l": 1.0}, {0: ["nope"]})
        with pytest.raises(ValueError, match="negative capacity"):
            solve({"l": -1.0}, {0: ["l"]})
        with pytest.raises(ValueError, match="crosses no links and has no cap"):
            solve({}, {0: []})
        with pytest.raises(ValueError, match="crosses no links and has no cap"):
            solve({"l": 1.0}, {0: ["l"], 1: []}, caps={0: 1.0})
        with pytest.raises(ValueError, match="unbounded allocation"):
            solve({}, {0: []}, caps={0: None})
