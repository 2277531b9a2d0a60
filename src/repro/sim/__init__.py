"""ns-3-equivalent substrate: discrete-event packet-level network simulator.

Layering (bottom-up): :mod:`calendar` (the event heap; native keys when
``_calendar.c`` built) → :mod:`engine` (event loop) → :mod:`packet` /
:mod:`link` → :mod:`port` (queueing, ECN, INT, PFC) → :mod:`node` /
:mod:`switch` / :mod:`host` → :mod:`network` (wiring, routing, flows) →
:mod:`monitor` (samplers).
"""

from .engine import Event, SimulationError, Simulator
from .faults import (
    FaultPlan,
    LinkFlapInjector,
    PacketDropInjector,
    PacketFaultHook,
    SwitchBlackoutInjector,
)
from .flow import Flow, ReceiverState, SenderState
from .host import DEFAULT_MTU, Host
from .link import LinkSpec
from .monitor import GoodputMonitor, QueueMonitor
from .network import CompletionStatus, Network, RunBudget
from .node import Node
from .packet import (
    ACK,
    ACK_BYTES,
    CNP,
    DATA,
    HEADER_BYTES,
    PAUSE,
    AckContext,
    HopRecord,
    Packet,
)
from .pfc import PfcConfig, PfcEgressState, PfcIngress
from .port import Port, RedConfig
from .switch import RoutingError, Switch
from .trace import FlowSnapshot, FlowTracer, PortCounterSampler, PortSample

__all__ = [
    "ACK",
    "ACK_BYTES",
    "AckContext",
    "CNP",
    "CompletionStatus",
    "DATA",
    "DEFAULT_MTU",
    "Event",
    "FaultPlan",
    "Flow",
    "FlowSnapshot",
    "FlowTracer",
    "GoodputMonitor",
    "HEADER_BYTES",
    "HopRecord",
    "Host",
    "LinkFlapInjector",
    "LinkSpec",
    "Network",
    "Node",
    "PAUSE",
    "Packet",
    "PacketDropInjector",
    "PacketFaultHook",
    "PfcConfig",
    "PortCounterSampler",
    "PortSample",
    "PfcEgressState",
    "PfcIngress",
    "Port",
    "QueueMonitor",
    "ReceiverState",
    "RedConfig",
    "RoutingError",
    "RunBudget",
    "SenderState",
    "SimulationError",
    "Simulator",
    "Switch",
    "SwitchBlackoutInjector",
]
