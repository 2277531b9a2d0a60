"""Periodic samplers for queue depth and per-flow goodput.

Monitors are plain event-loop citizens: they schedule themselves at a fixed
interval and append to Python lists (converted to NumPy arrays on demand, so
the hot path stays allocation-cheap and the analysis path gets vectorized
data — the split the HPC guides recommend).
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from .engine import Simulator
from .flow import Flow
from .port import Port


class PeriodicSampler:
    """A self-rescheduling fixed-interval callback — the monitor pattern.

    The first tick fires at the current simulation time, then every
    ``interval_ns`` after.  ``stop()`` cancels the pending heap event so a
    run-until-empty loop never spins an extra wakeup (the regression
    ``tests/sim/test_monitor_stop.py`` guards).

    Both monitors below subclass this and override ``_sample``.
    """

    def __init__(self, sim: Simulator, interval_ns: float):
        if interval_ns <= 0:
            raise ValueError("sampling interval must be positive")
        self.sim = sim
        self.interval_ns = interval_ns
        self._stopped = False
        self._event = None  # the pending self-rescheduled sample event

    def start(self) -> "PeriodicSampler":
        self._event = self.sim.schedule(0.0, self._tick)
        return self

    def stop(self) -> None:
        """Stop sampling and cancel the pending event (no heap residue)."""
        self._stopped = True
        self.sim.cancel(self._event)
        self._event = None

    def _tick(self) -> None:
        if self._stopped:
            return
        self._sample()
        self._event = self.sim.schedule(self.interval_ns, self._tick)

    def _sample(self) -> None:  # pragma: no cover - subclasses override
        raise NotImplementedError


class QueueMonitor(PeriodicSampler):
    """Samples the queue occupancy of one or more ports at a fixed interval."""

    def __init__(
        self,
        sim: Simulator,
        ports: Sequence[Port],
        interval_ns: float,
        *,
        aggregate: str = "sum",
    ):
        if aggregate not in ("sum", "max"):
            raise ValueError(f"aggregate must be 'sum' or 'max', got {aggregate!r}")
        super().__init__(sim, interval_ns)
        self.ports = list(ports)
        self.aggregate = aggregate
        self.times: List[float] = []
        self.values: List[float] = []

    def _sample(self) -> None:
        qlens = [p.queue_bytes for p in self.ports]
        value = max(qlens) if self.aggregate == "max" else sum(qlens)
        self.times.append(self.sim.now())
        self.values.append(value)

    def series(self) -> tuple:
        """(times_ns, queue_bytes) as NumPy arrays."""
        return np.asarray(self.times), np.asarray(self.values)

    def max_depth(self) -> float:
        return max(self.values, default=0.0)

    def mean_depth(self) -> float:
        return float(np.mean(self.values)) if self.values else 0.0


class GoodputMonitor(PeriodicSampler):
    """Samples per-flow delivered bytes to derive goodput time series.

    ``received`` counters live on the destination host's receiver state; the
    monitor polls the flows' receivers through the network's node table, so it
    needs only the flows themselves.
    """

    def __init__(
        self,
        sim: Simulator,
        flows: Sequence[Flow],
        nodes: Sequence,
        interval_ns: float,
    ):
        super().__init__(sim, interval_ns)
        self.flows = list(flows)
        self.nodes = nodes
        self.times: List[float] = []
        self.samples: List[List[int]] = []  # delivered bytes per flow

    def _delivered(self, flow: Flow) -> int:
        receiver = self.nodes[flow.dst].receivers.get(flow.flow_id)
        return receiver.received if receiver is not None else 0

    def _sample(self) -> None:
        self.times.append(self.sim.now())
        self.samples.append([self._delivered(f) for f in self.flows])

    def rates_bps(self) -> tuple:
        """Per-interval goodput for each flow.

        Returns ``(mid_times_ns, rates)`` where ``rates`` has shape
        ``(len(times) - 1, n_flows)`` in bits/second.
        """
        t = np.asarray(self.times)
        delivered = np.asarray(self.samples, dtype=float)
        if len(t) < 2:
            return np.empty(0), np.empty((0, len(self.flows)))
        dt = np.diff(t)[:, None]  # ns
        rates = np.diff(delivered, axis=0) * 8.0 / dt * 1e9
        mids = (t[:-1] + t[1:]) / 2.0
        return mids, rates
