"""Opt-in hot-path phase profiler (zero overhead when off).

Same contract as the registry / tracer / sanitizer: one of the planes of
:mod:`repro.probe`.  The hot paths in :mod:`repro.sim.engine`,
:mod:`repro.sim.port` and :mod:`repro.sim.fluid` raise ``phase_push`` /
``phase_pop`` (and the engine asks ``phase_of`` per event); the runner's
phase timers and lifecycle owners (CLI, bench harness) ask :func:`get`.

Attribution is *exclusive* (self) time with a settle-on-transition clock:
``push``/``pop`` charge the wall-time elapsed since the previous transition
to the current stack leaf and to the full stack tuple.  Nested pushes
therefore subtract child time from the parent naturally, and the stack
tuples export directly as collapsed-stack flamegraph text
(``a;b;c <microseconds>`` per line, the format ``flamegraph.pl`` and
speedscope ingest).

The engine's event loop never calls :func:`classify_callback` when the
profiler is off — the dispatch in :meth:`Simulator.run` selects a separate
``_run_profiled`` loop, keeping the fast path's bytecode free of profiler
references entirely (``tests/sim/test_engine_hotpath.py``).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, Optional, Tuple

from .. import probe

# -- event-callback classification -----------------------------------------

#: qualname -> phase, for the engine's per-event attribution.
_PHASE_EXACT = {
    "Port._tx_done": "port.serialize",
    "Port._wake": "port.serialize",
    "Switch.receive": "port.propagate",
    "Node.receive": "port.propagate",
    "Host.receive": "cc.decision",
    "Host._start_flow": "cc.decision",
    "Host._timer_fired": "cc.decision",
    "Host._rto_fired": "cc.decision",
}

#: leading class name -> phase, for callback families.
_PHASE_CLASS = {
    "PeriodicSampler": "monitor.sample",
    "QueueMonitor": "monitor.sample",
    "GoodputMonitor": "monitor.sample",
    "LiveAnalyzer": "monitor.sample",
    "FlowMonitor": "monitor.sample",
}

_classify_cache: Dict[str, str] = {}


def classify_callback(fn: Callable) -> str:
    """Map a scheduled callback to a phase name (memoized by qualname)."""
    qn = getattr(fn, "__qualname__", None)
    if qn is None:
        return "engine.other"
    phase = _classify_cache.get(qn)
    if phase is None:
        phase = _classify(qn, fn)
        _classify_cache[qn] = phase
    return phase


def _classify(qn: str, fn: Callable) -> str:
    phase = _PHASE_EXACT.get(qn)
    if phase is not None:
        return phase
    head = qn.split(".", 1)[0]
    phase = _PHASE_CLASS.get(head)
    if phase is not None:
        return phase
    mod = getattr(fn, "__module__", None) or ""
    if mod.endswith(".faults"):
        return "fault.inject"
    return "engine.other"


# -- the profiler ------------------------------------------------------------


class PhaseProfiler:
    """Wall-time attribution to named phases via an explicit phase stack.

    Records only what instrumented code pushes, and exports three views:

    * :meth:`flat` — ``{phase: {"wall_s", "count"}}`` for bench records,
    * :meth:`section` — the manifest/bench ``profile`` section (flat
      phases plus the top stacks),
    * :meth:`collapsed` — collapsed-stack flamegraph text.
    """

    def __init__(
        self,
        mode: str = "phase",
        *,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        # The one mode there is; the manifest's ``profile.mode`` and the
        # callers that name it (``capture("phase")``) predate its being alone.
        if mode != "phase":
            raise ValueError(f"unknown profiler mode {mode!r} (want 'phase')")
        self.mode = mode
        self._clock = clock
        #: phase -> [exclusive wall seconds, push count]
        self.phases: Dict[str, list] = {}
        self._stack: list = []
        #: full-stack tuple -> exclusive wall seconds (flamegraph source)
        self._stack_time: Dict[Tuple[str, ...], float] = {}
        self._t0 = clock()
        self._t_last = self._t0
        self._t_stop: Optional[float] = None

    # -- hot-path hooks --

    def push(self, name: str) -> None:
        """Enter a phase; elapsed time is charged to the previous leaf."""
        t = self._clock()
        stack = self._stack
        if stack:
            self._charge(stack, t - self._t_last)
        self._t_last = t
        stack.append(name)
        rec = self.phases.get(name)
        if rec is None:
            self.phases[name] = [0.0, 1]
        else:
            rec[1] += 1

    def pop(self) -> None:
        """Leave the current phase, charging it the elapsed time."""
        stack = self._stack
        if not stack:
            return
        t = self._clock()
        self._charge(stack, t - self._t_last)
        self._t_last = t
        stack.pop()

    def _charge(self, stack: list, dt: float) -> None:
        key = tuple(stack)
        st = self._stack_time
        st[key] = st.get(key, 0.0) + dt
        rec = self.phases.get(key[-1])
        if rec is None:
            self.phases[key[-1]] = [dt, 0]
        else:
            rec[0] += dt

    # Probe events: the simulator's phase brackets and per-event phase names.
    on_phase_push = push
    on_phase_pop = pop
    on_phase_of = staticmethod(classify_callback)

    # -- results --

    def _settle(self) -> None:
        """Charge pending elapsed time to the current leaf (idempotent)."""
        stack = self._stack
        if stack:
            t = self._clock()
            self._charge(stack, t - self._t_last)
            self._t_last = t

    def total_s(self) -> float:
        """Wall seconds from construction to now (or to disable time)."""
        end = self._t_stop if self._t_stop is not None else self._clock()
        return end - self._t0

    def flat(self) -> Dict[str, dict]:
        """``{phase: {"wall_s": float, "count": int}}``, sorted by name."""
        self._settle()
        return {
            name: {"wall_s": round(rec[0], 6), "count": rec[1]}
            for name, rec in sorted(self.phases.items())
        }

    def section(self, *, max_stacks: int = 50) -> dict:
        """The JSON ``profile`` section carried by manifests/bench records."""
        self._settle()
        top = sorted(
            self._stack_time.items(), key=lambda kv: (-kv[1], kv[0])
        )[:max_stacks]
        return {
            "mode": self.mode,
            "wall_s": round(self.total_s(), 6),
            "phases": self.flat(),
            "stacks": [
                {"stack": ";".join(key), "wall_s": round(v, 6)} for key, v in top
            ],
        }

    def collapsed(self) -> str:
        """Collapsed-stack flamegraph text: ``a;b;c <microseconds>`` lines."""
        self._settle()
        lines = []
        for key, v in sorted(self._stack_time.items()):
            us = int(round(v * 1e6))
            if us > 0:
                lines.append(f"{';'.join(key)} {us}")
        return "\n".join(lines) + ("\n" if lines else "")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<PhaseProfiler mode={self.mode} phases={len(self.phases)} "
            f"depth={len(self._stack)}>"
        )


# -- lifecycle ---------------------------------------------------------------

_SLOT = probe.Slot("profiler")
#: The attached profiler or None.
get = _SLOT.get


def enable(mode: str = "phase", **kwargs) -> PhaseProfiler:
    """Attach a fresh profiler (stopping the one attached before, if any)."""
    disable()
    return _SLOT.attach(PhaseProfiler(mode, **kwargs))


def disable() -> Optional[PhaseProfiler]:
    """Detach and return the active profiler (results stay readable)."""
    prof = _SLOT.detach()
    if prof is not None:
        prof._settle()
        prof._t_stop = prof._clock()
    return prof


@contextmanager
def capture(mode: str = "phase", **kwargs) -> Iterator[PhaseProfiler]:
    """``with capture() as prof:`` — enable for the block, then disable."""
    prof = enable(mode, **kwargs)
    try:
        yield prof
    finally:
        disable()
