"""Noise control for host timings: CPU pinning and speed-calibrated time.

This box flips between three discrete speed states (a fixed pure-Python
spin takes 0.75 / 0.97 / 1.26 of its median) every 10-150 ms, so two
back-to-back runs of the same simulation differ by up to 30% in raw wall
time and a spin taken only before and after a one-second unit misses most
of the flips.  A timed *unit* therefore samples the spin from a SIGALRM
interval timer all through the unit (the handler runs between bytecodes of
the measured code, on the same pinned CPU), and reports

    calibrated = raw * SPIN_REF_S * mean(1 / spin_i)

i.e. the seconds the unit would have taken had the spin always read
``SPIN_REF_S``.  Time spent inside the handler is subtracted from ``raw``.
Where interval timers or pinning are unavailable the unit degrades to the
two bracketing spins and an unpinned process, and says so.
"""

from __future__ import annotations

import gc
import os
import signal
import statistics
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: Iterations of the calibration spin (about 0.2 ms; long enough to tell the
#: speed states apart, short enough to sit inside one of them).
SPIN_ITERATIONS = 4000
#: What one spin reads at the reference speed: calibrated seconds are
#: "seconds on a host whose spin takes this long".
SPIN_REF_S = 200e-6
#: Spacing of the in-unit speed samples.
SAMPLE_INTERVAL_S = 0.005

_clock = time.perf_counter


def spin() -> float:
    """Run the fixed pure-Python calibration loop; return its wall seconds."""
    t0 = _clock()
    x = 0
    for i in range(SPIN_ITERATIONS):
        x += i * i % 7
    return _clock() - t0


def calibrated_seconds(raw_s: float, spins: Sequence[float]) -> float:
    """Scale ``raw_s`` to the reference speed from the spins sampled in it.

    Each sample stands for an equal slice of the unit, and the work done in
    a slice is proportional to ``1 / spin``, hence the mean of reciprocals.
    """
    if not spins:
        raise ValueError("calibration needs at least one spin sample")
    return raw_s * SPIN_REF_S * statistics.fmean(1.0 / s for s in spins)


@dataclass(frozen=True)
class Unit:
    """One timed unit: a config run, a subprocess, or a campaign."""

    raw_s: float  # wall seconds, sampling time removed
    cal_s: float  # raw_s scaled to the reference speed
    samples: int  # spins behind the scaling (2 = only the bracketing ones)


def pin_to_one_cpu() -> Optional[int]:
    """Pin this process (and its future children) to one allowed CPU.

    Returns the CPU, or ``None`` where the platform has no
    ``sched_setaffinity`` or refuses it; the caller then runs unpinned.
    """
    getter = getattr(os, "sched_getaffinity", None)
    setter = getattr(os, "sched_setaffinity", None)
    if getter is None or setter is None:
        return None
    try:
        cpu = max(getter(0))
        setter(0, {cpu})
    except OSError:
        return None
    return cpu


class Calibrator:
    """Times units on a pinned CPU with in-unit speed sampling."""

    def __init__(self, *, pin: bool = True):
        self.cpu = pin_to_one_cpu() if pin else None
        self._can_sample = hasattr(signal, "setitimer")
        self._spins: List[float] = []
        self._spent = 0.0
        #: Every spin any unit took, for the host.spin_* honesty metrics.
        self.all_spins: List[float] = []

    def _on_alarm(self, signum: int, frame: Any) -> None:
        t0 = _clock()
        self._spins.append(spin())
        self._spent += _clock() - t0

    def measure(self, fn: Callable[[], Any]) -> Tuple[Any, Unit]:
        """Run ``fn()`` as one timed unit; return its result and timing."""
        sample = self._can_sample
        gc.collect()  # every unit starts from the same collector state
        self._spins = [spin()]
        self._spent = 0.0
        previous = None
        if sample:
            try:
                previous = signal.signal(signal.SIGALRM, self._on_alarm)
            except ValueError:  # not the main thread
                sample = False
        t0 = _clock()
        try:
            if sample:
                signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
            result = fn()
        finally:
            if sample:
                signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            t1 = _clock()
            if previous is not None:
                signal.signal(signal.SIGALRM, previous)
        spins = self._spins + [spin()]
        raw = t1 - t0 - self._spent
        self.all_spins.extend(spins)
        unit = Unit(
            raw_s=raw,
            cal_s=calibrated_seconds(raw, spins),
            samples=len(spins),
        )
        return result, unit

    def host_metrics(self) -> Dict[str, float]:
        """Median spin and its quartile spread over everything sampled."""
        spins = self.all_spins
        if len(spins) < 2:
            return {"host.spin_ms": 0.0, "host.spin_spread": 0.0}
        q1, med, q3 = statistics.quantiles(spins, n=4)
        return {"host.spin_ms": med * 1e3, "host.spin_spread": (q3 - q1) / med}
