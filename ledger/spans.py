"""Spans recorded from outside the program, around calls into each layer.

The traced pass swaps a public function (``runner.make_cc``,
``Network.add_flow``, ``ResultStore.get`` ...) for a wrapper that records
one span per call: name, start, end and the span that was open when it
started.  A layer's *self time* is its spans' duration minus the part their
direct children cover, so ``cc.make_cc`` called inside ``runner.build`` is
charged once, to ``cc.make_cc``.  Spans stay in memory; the pass reads them
when it ends.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Tuple


class SpanRecorder:
    """An in-memory span log with parent links."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self._clock = clock
        #: One ``[name, start, end, parent_id]`` per span; the id is the index.
        self.spans: List[list] = []
        self._open: List[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[int]:
        parent = self._open[-1] if self._open else None
        span_id = len(self.spans)
        record = [name, self._clock(), None, parent]
        self.spans.append(record)
        self._open.append(span_id)
        try:
            yield span_id
        finally:
            record[2] = self._clock()
            self._open.pop()

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` with every call recorded as a span called ``name``."""

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def self_times(self) -> Dict[str, Tuple[float, int]]:
        """``{name: (self seconds, span count)}`` over closed spans."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if end is not None and parent is not None:
                child_time[parent] += end - start
        out: Dict[str, Tuple[float, int]] = {}
        for span_id, (name, start, end, parent) in enumerate(self.spans):
            if end is None:
                continue
            total, count = out.get(name, (0.0, 0))
            out[name] = (total + (end - start) - child_time[span_id], count + 1)
        return out

    def clear(self) -> None:
        self.spans.clear()
        self._open.clear()


@contextmanager
def patched(recorder: SpanRecorder, targets: List[Tuple[Any, str, str]]) -> Iterator[None]:
    """Wrap each ``(owner, attribute, span name)`` for the block, then restore."""
    saved: List[Tuple[Any, str, Any]] = []
    try:
        for owner, attr, name in targets:
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, recorder.wrap(name, original))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
