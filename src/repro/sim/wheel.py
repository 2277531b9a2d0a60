"""Bucketed timing wheel (calendar queue) for the turbo engine.

The reference engine keeps every pending event in one :mod:`heapq` heap, so
each schedule/pop pays ``O(log n)`` comparisons against the whole calendar.
The packet datapath, however, schedules almost exclusively into the *near
future* — serialization ends tens of nanoseconds out, propagation a
microsecond out, pacing timers a few microseconds out — while the heap also
holds far-future timeout checks and retransmission timers that those hot
pushes must tunnel past.

The :class:`TimingWheel` splits virtual time into fixed-width buckets over a
bounded horizon:

* a push inside the horizon is an ``O(1)`` list append onto its bucket;
* a push beyond the horizon goes to a conventional *overflow heap*;
* the wheel drains buckets in time order, heapifying each bucket only when it
  becomes current (deferred sort), and spills overflow entries into the wheel
  as the horizon slides past them.

Ordering is **exactly** the reference heap's total order.  Entries are
4-tuples ``(fire_time, schedule_time, seq, TurboEvent)``: the reference
engine's ordering key, then the event object every wheel entry carries (see
:class:`repro.sim.turbo.TurboEvent`; the reference's own entries end in the
callback).  Bucketing partitions entries by ``fire_time`` range, so any two
entries in different buckets are already correctly ordered by the bucket
index; entries in the same bucket are ordered by the full tuple via the
per-bucket heap.  Overflow entries always fire later than every in-wheel
entry (they are beyond the horizon, and spill back in before their bucket
becomes current), so the interleaving of pops is identical to a single global
heap — which is what lets the turbo engine promise byte-identical outputs.

Invariants (kept by :class:`repro.sim.turbo.TurboSimulator`, asserted in
tests):

* pushes never fire earlier than the bucket currently being drained
  (the engine never schedules into the past);
* ``current`` — the current bucket's list — is always heap-ordered, so
  same-bucket pushes use ``heappush`` while later buckets take plain appends;
* the cursor only moves forward, and only via :meth:`peek_until`, which
  bounds its advance by the caller's ``until`` so that a bounded run never
  strands the cursor ahead of virtual time (a stranded cursor would fold
  later near-past pushes into the wrong bucket and reorder them).
"""

from __future__ import annotations

import heapq
from typing import List, Optional

#: Default bucket width in nanoseconds.  Chosen so that the datapath's
#: dominant delays (50-250 ns serialization ends) land zero-to-a-few buckets
#: ahead: most pushes are appends, and per-bucket heaps stay tiny.
DEFAULT_BUCKET_NS = 64.0

#: Default bucket count.  With 64 ns buckets the horizon is ~131 us, which
#: covers propagation (1 us), pacing (~us), CNP intervals (50 us), RTO floors
#: (25 us) and the completion-check cadence (100 us); only pause quanta and
#: staggered flow starts overflow.
DEFAULT_N_BUCKETS = 2048


class TimingWheel:
    """A calendar queue over ``(fire_time, schedule_time, seq, event)`` tuples.

    The wheel does not interpret events and does not filter cancelled
    entries — like the raw heap, it hands back whatever was pushed, head
    first, and the engine's run loop applies its lazy-cancellation
    discipline.  ``size`` therefore counts cancelled entries too, mirroring
    ``len(Simulator._heap)``.
    """

    __slots__ = (
        "bucket_ns",
        "n_buckets",
        "_buckets",
        "_cur",
        "current",
        "_overflow",
        "_wheel_count",
    )

    def __init__(
        self,
        bucket_ns: float = DEFAULT_BUCKET_NS,
        n_buckets: int = DEFAULT_N_BUCKETS,
    ) -> None:
        if bucket_ns <= 0:
            raise ValueError(f"bucket_ns must be positive, got {bucket_ns}")
        if n_buckets < 2:
            raise ValueError(f"need at least 2 buckets, got {n_buckets}")
        self.bucket_ns = bucket_ns
        self.n_buckets = n_buckets
        self._buckets: List[list] = [[] for _ in range(n_buckets)]
        # Absolute index of the bucket being drained; bucket b covers fire
        # times [b * bucket_ns, (b + 1) * bucket_ns).
        self._cur = 0
        # The current bucket's list (always heap-ordered).  Exposed so the
        # engine's run loop can pop from it without an attribute dance.
        self.current: list = self._buckets[0]
        self._overflow: list = []
        # In-wheel entry count; the overflow heap's count is its len, and
        # ``size`` derives from the two, so pushes and pops maintain exactly
        # one counter (this is a measurable win at millions of events).
        self._wheel_count = 0

    @property
    def size(self) -> int:
        """Total pending entries (cancelled included), like ``len(heap)``."""
        return self._wheel_count + len(self._overflow)

    # -- scheduling ----------------------------------------------------------

    def push(self, entry: tuple) -> None:
        """Insert an entry; ``entry[0]`` (fire time) decides the bucket."""
        idx = int(entry[0] // self.bucket_ns)
        cur = self._cur
        if idx < cur:
            # Defensive: a fire time inside the current bucket can floor-divide
            # to an earlier index only through float dust at the boundary; the
            # engine guarantees fire >= now, so fold it into the current bucket.
            idx = cur
        if idx - cur >= self.n_buckets:
            heapq.heappush(self._overflow, entry)
        elif idx == cur:
            heapq.heappush(self.current, entry)
            self._wheel_count += 1
        else:
            self._buckets[idx % self.n_buckets].append(entry)
            self._wheel_count += 1

    # -- draining ------------------------------------------------------------

    def peek_until(self, until: Optional[float]) -> Optional[tuple]:
        """Head entry of the calendar, advancing buckets as needed.

        Returns the globally-minimum entry, or ``None`` if there is none with
        a fire time in or before ``until``'s bucket (the returned entry itself
        may still fire after ``until`` when it shares ``until``'s bucket — the
        caller compares fire times, exactly as the reference loop peeks the
        heap before deciding to stop).
        """
        cur_list = self.current
        if cur_list:
            return cur_list[0]
        if self._wheel_count == 0 and not self._overflow:
            return None
        cur = self._cur
        limit = None if until is None else int(until // self.bucket_ns)
        if limit is not None and limit <= cur:
            # ``until`` falls in (or before) the already-empty current bucket;
            # everything pending fires in a later bucket, hence after until.
            return None
        buckets = self._buckets
        n = self.n_buckets
        overflow = self._overflow
        while True:
            if self._wheel_count:
                cur += 1
            elif overflow:
                # Wheel is empty: jump straight to the overflow head's bucket
                # (capped at the limit) instead of stepping over a long run of
                # empty slots.  No in-wheel entry is skipped — there are none.
                cur = int(overflow[0][0] // self.bucket_ns)
                if limit is not None and cur > limit:
                    cur = limit
            else:
                return None
            # Horizon slid forward: spill overflow entries that now fit.
            horizon_end = (cur + n) * self.bucket_ns
            while overflow and overflow[0][0] < horizon_end:
                entry = heapq.heappop(overflow)
                idx = int(entry[0] // self.bucket_ns)
                if idx < cur:
                    idx = cur
                buckets[idx % n].append(entry)
                self._wheel_count += 1
            cur_list = buckets[cur % n]
            if cur_list:
                heapq.heapify(cur_list)
                self._cur = cur
                self.current = cur_list
                return cur_list[0]
            if limit is not None and cur >= limit:
                self._cur = cur
                self.current = cur_list
                return None

    def pop(self) -> tuple:
        """Pop the head entry (call only after ``peek_until`` returned it)."""
        self._wheel_count -= 1
        return heapq.heappop(self.current)

    def find_min_live(self) -> Optional[tuple]:
        """Earliest non-cancelled entry *without* advancing the cursor.

        ``peek_until`` moves the drain cursor forward, which is only safe
        mid-run (the run loop immediately executes what it finds, keeping
        virtual time in step with the cursor).  Introspection between runs —
        ``Simulator.peek_time`` — must not move it, or pushes scheduled after
        the peek could land behind the cursor and be folded into the wrong
        bucket.  This scan is O(pending) worst case but runs far from the hot
        loop (a few times per simulated 100 us).
        """
        cur = self._cur
        buckets = self._buckets
        n = self.n_buckets
        for off in range(n):
            bucket = buckets[(cur + off) % n]
            if not bucket:
                continue
            best = None
            for entry in bucket:
                if not entry[3].cancelled and (best is None or entry < best):
                    best = entry
            if best is not None:
                return best
        best = None
        for entry in self._overflow:
            if not entry[3].cancelled and (best is None or entry < best):
                best = entry
        return best

    def find_min_any(self) -> Optional[tuple]:
        """Global minimum entry *including* cancelled ones, cursor untouched.

        The run loop's end-of-run clock-advance decision compares the raw
        calendar head against ``until`` exactly as the reference engine
        compares ``heap[0]`` — cancelled entries included — so this scan must
        not filter.  Entries never sit behind the cursor (it only advances
        past drained buckets), so the first non-empty bucket in cursor order
        holds the wheel minimum, and overflow entries all fire later.
        """
        if self.current:
            return self.current[0]
        cur = self._cur
        buckets = self._buckets
        n = self.n_buckets
        for off in range(n):
            bucket = buckets[(cur + off) % n]
            if bucket:
                return min(bucket)
        if self._overflow:
            return self._overflow[0]
        return None

    # -- maintenance ---------------------------------------------------------

    def compact(self) -> List:
        """Drop cancelled entries from every bucket and the overflow heap.

        Returns the dropped entries' events so the engine can park detached
        ones on its free list.  Ordering is untouched: only entries the run
        loop would have discarded anyway are removed.
        """
        dropped: List = []
        cur_slot = self._cur % self.n_buckets
        for i, bucket in enumerate(self._buckets):
            if not bucket:
                continue
            live = [e for e in bucket if not e[3].cancelled]
            if len(live) != len(bucket):
                dropped.extend(e[3] for e in bucket if e[3].cancelled)
                bucket[:] = live
                if i == cur_slot:
                    heapq.heapify(bucket)
        overflow = self._overflow
        if overflow:
            live = [e for e in overflow if not e[3].cancelled]
            if len(live) != len(overflow):
                dropped.extend(e[3] for e in overflow if e[3].cancelled)
                heapq.heapify(live)
                overflow[:] = live
        self._wheel_count = sum(len(b) for b in self._buckets)
        return dropped

    def __len__(self) -> int:
        return self.size
