"""Simulation tracing: per-flow lifecycle records and per-port counters.

Two collectors that downstream users of the library typically need when
debugging a protocol or preparing plots:

* :class:`FlowTracer` — one row per flow (size, start, finish, FCT,
  retransmission-free delivery check) plus optional periodic snapshots of
  sender state (window/rate), exportable as CSV;
* :class:`PortCounterSampler` — periodic samples of per-port cumulative
  tx bytes / queue / drops, from which utilization time series derive.

Both are ordinary event-loop citizens like the monitors and cost nothing
when not started.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence

from .engine import Simulator
from .flow import Flow
from .host import Host
from .port import Port

#: Fixed-precision float rendering for CSV exports.  ``repr(float)`` output
#: can vary in length (0.1 vs 0.30000000000000004), which makes diffs and
#: golden files noisy; six decimal places is sub-nanosecond for times and
#: sub-byte for counters.
_FLOAT_FMT = "%.6f"


def _format_cell(value) -> str:
    if isinstance(value, float):
        return _FLOAT_FMT % value
    return "" if value is None else str(value)


def rows_to_csv(fieldnames: Sequence[str], rows: Iterable[dict]) -> str:
    """Render dict rows as CSV text with stable columns and float format.

    The shared export path for every CSV the simulator produces (flow
    tables, port samples, obs traces): column order is exactly
    ``fieldnames``, floats are fixed-precision, missing keys render empty.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(fieldnames)
    for row in rows:
        writer.writerow([_format_cell(row.get(name)) for name in fieldnames])
    return buf.getvalue()


@dataclass
class FlowSnapshot:
    """One periodic sample of a sender's congestion-control state."""

    time_ns: float
    flow_id: int
    acked_bytes: int
    inflight_bytes: int
    window_bytes: float
    pacing_rate_bps: Optional[float]


class FlowTracer:
    """Record flow lifecycles and (optionally) sender-state time series."""

    def __init__(
        self,
        sim: Simulator,
        hosts: Sequence[Host],
        *,
        snapshot_interval_ns: Optional[float] = None,
    ):
        self.sim = sim
        self.hosts = list(hosts)
        self.snapshot_interval_ns = snapshot_interval_ns
        self.snapshots: List[FlowSnapshot] = []
        self.completed: List[Flow] = []
        self._stopped = False
        self._event = None  # the pending self-rescheduled sample event
        for host in self.hosts:
            host.completion_callbacks.append(self._on_complete)

    def start(self) -> "FlowTracer":
        if self.snapshot_interval_ns is not None:
            self._event = self.sim.schedule(0.0, self._sample)
        return self

    def stop(self) -> None:
        """Stop sampling and cancel the pending event (no heap residue)."""
        self._stopped = True
        self.sim.cancel(self._event)
        self._event = None

    def _on_complete(self, flow: Flow) -> None:
        self.completed.append(flow)

    def _sample(self) -> None:
        if self._stopped:
            return
        now = self.sim.now()
        for host in self.hosts:
            for state in host.senders.values():
                if state is None:  # not started yet, or completed
                    continue
                self.snapshots.append(
                    FlowSnapshot(
                        time_ns=now,
                        flow_id=state.flow.flow_id,
                        acked_bytes=state.acked,
                        inflight_bytes=state.inflight,
                        window_bytes=state.cc.window_bytes,
                        pacing_rate_bps=state.cc.pacing_rate_bps,
                    )
                )
        self._event = self.sim.schedule(self.snapshot_interval_ns, self._sample)

    # -- export -----------------------------------------------------------------

    def completion_rows(self) -> List[dict]:
        """One dict per completed flow, ready for CSV/table rendering."""
        return [
            {
                "flow_id": f.flow_id,
                "src": f.src,
                "dst": f.dst,
                "size_bytes": f.size,
                "start_ns": f.start_time,
                "finish_ns": f.finish_time,
                "fct_ns": f.fct,
            }
            for f in self.completed
        ]

    to_csv_columns = (
        "flow_id",
        "src",
        "dst",
        "size_bytes",
        "start_ns",
        "finish_ns",
        "fct_ns",
    )

    def to_csv(self) -> str:
        """Completed-flow table as CSV text (write it wherever you like)."""
        return rows_to_csv(self.to_csv_columns, self.completion_rows())

    def snapshots_for(self, flow_id: int) -> List[FlowSnapshot]:
        return [s for s in self.snapshots if s.flow_id == flow_id]


@dataclass
class PortSample:
    """One periodic sample of a port's counters."""

    time_ns: float
    tx_bytes: float
    queue_bytes: float
    drops: int


class PortCounterSampler:
    """Sample cumulative port counters; derive utilization per interval."""

    def __init__(self, sim: Simulator, ports: Sequence[Port], interval_ns: float):
        if interval_ns <= 0:
            raise ValueError("sampling interval must be positive")
        self.sim = sim
        self.ports = list(ports)
        self.interval_ns = interval_ns
        self.samples: Dict[int, List[PortSample]] = {i: [] for i in range(len(self.ports))}
        self._stopped = False
        self._event = None  # the pending self-rescheduled sample event

    def start(self) -> "PortCounterSampler":
        self._event = self.sim.schedule(0.0, self._sample)
        return self

    def stop(self) -> None:
        """Stop sampling and cancel the pending event (no heap residue)."""
        self._stopped = True
        self.sim.cancel(self._event)
        self._event = None

    def _sample(self) -> None:
        if self._stopped:
            return
        now = self.sim.now()
        for i, port in enumerate(self.ports):
            self.samples[i].append(
                PortSample(now, port.tx_bytes, port.queue_bytes, port.drops)
            )
        self._event = self.sim.schedule(self.interval_ns, self._sample)

    def utilization_series(self, port_index: int) -> List[tuple]:
        """(interval midpoint ns, utilization in [0, 1]) per interval."""
        samples = self.samples[port_index]
        port = self.ports[port_index]
        out = []
        for a, b in zip(samples, samples[1:]):
            dt = b.time_ns - a.time_ns
            if dt <= 0:
                continue
            capacity = port.spec.rate_bps / 8.0 * dt / 1e9
            out.append(((a.time_ns + b.time_ns) / 2, (b.tx_bytes - a.tx_bytes) / capacity))
        return out

    def peak_utilization(self, port_index: int) -> float:
        series = self.utilization_series(port_index)
        return max((u for _, u in series), default=0.0)

    to_csv_columns = ("port", "time_ns", "tx_bytes", "queue_bytes", "drops")

    def to_csv(self) -> str:
        """All ports' samples as one CSV table (same exporter as flows)."""
        rows = [
            {
                "port": i,
                "time_ns": s.time_ns,
                "tx_bytes": s.tx_bytes,
                "queue_bytes": s.queue_bytes,
                "drops": s.drops,
            }
            for i in range(len(self.ports))
            for s in self.samples[i]
        ]
        return rows_to_csv(self.to_csv_columns, rows)
