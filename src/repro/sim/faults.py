"""Composable, seeded fault injection for the simulator.

The paper's figures all run on a lossless PFC fabric; this module is how the
reproduction deliberately *breaks* that assumption.  Four failure modes are
modelled, each as a small injector object that knows how to wire itself into
a built :class:`repro.sim.network.Network`:

* :class:`PacketDropInjector` — random (Bernoulli per packet) or periodic
  (every Nth packet) drop and corruption on selected egress ports;
* :class:`LinkFlapInjector` — scheduled link down/up transitions, optionally
  repeating (a flapping link);
* :class:`SwitchBlackoutInjector` — every link of one switch goes down for an
  interval (a crashed/rebooting device);
* :class:`FaultPlan` — a named bundle of injectors installed together.

Design rules:

* **Zero hot-path cost when uninstalled.**  Ports carry a ``fault_hook``
  attribute that is ``None`` by default; the drain/enqueue code only pays a
  single attribute test.  Link state is one boolean read at transmit
  completion.
* **Determinism.**  Every injector owns its own :class:`random.Random`
  seeded from its ``seed`` field (per-port streams are derived with a fixed
  multiplier), so fault patterns are byte-reproducible and independent of the
  network's own RNG draws.
* **Counters, not prints.**  Injected events are counted on the hook and on
  the ports (``fault_drops``) so experiments can report exactly what was
  injected.

Recovery is the other half of the story: dropped data deadlocks a flow unless
the sender retransmits, so experiments that install packet faults should also
call :meth:`repro.sim.network.Network.enable_loss_recovery` (the experiment
runner does this automatically when a config carries a fault spec).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable, List, Optional, Sequence, Tuple, Union

from .. import probe
from .packet import DATA, Packet
from .port import FAULT_CORRUPT, FAULT_DROP, FAULT_NONE, Port

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .network import Network

#: Per-port RNG streams are derived as ``seed * _SEED_STRIDE + port_index``
#: so that two injectors with different seeds never share a stream.
_SEED_STRIDE = 1_000_003

#: A port selection: an explicit sequence of ports or a callable applied to
#: the network at install time (e.g. ``lambda net: net.switches[0].ports``).
PortSelector = Union[Sequence[Port], Callable[["Network"], Iterable[Port]]]


class PacketFaultHook:
    """Per-port packet-level fault decision, attached to ``Port.fault_hook``.

    One hook serves one port.  ``on_packet`` returns one of the ``FAULT_*``
    action codes defined in :mod:`repro.sim.port`; the port applies the
    action (drop before queueing, or mark the packet corrupt).
    """

    __slots__ = ("rng", "drop_prob", "corrupt_prob", "every_nth", "kinds",
                 "_counter", "drops", "corruptions")

    def __init__(
        self,
        rng: random.Random,
        *,
        drop_prob: float = 0.0,
        corrupt_prob: float = 0.0,
        every_nth: Optional[int] = None,
        kinds: Tuple[int, ...] = (DATA,),
    ):
        if not 0.0 <= drop_prob <= 1.0 or not 0.0 <= corrupt_prob <= 1.0:
            raise ValueError("fault probabilities must be in [0, 1]")
        if drop_prob + corrupt_prob > 1.0:
            raise ValueError("drop_prob + corrupt_prob must not exceed 1")
        if every_nth is not None and every_nth < 1:
            raise ValueError(f"every_nth must be >= 1, got {every_nth}")
        self.rng = rng
        self.drop_prob = drop_prob
        self.corrupt_prob = corrupt_prob
        self.every_nth = every_nth
        self.kinds = kinds
        self._counter = 0
        self.drops = 0
        self.corruptions = 0

    def on_packet(self, pkt: Packet) -> int:
        if pkt.kind not in self.kinds:
            return FAULT_NONE
        if self.every_nth is not None:
            self._counter += 1
            if self._counter % self.every_nth == 0:
                self.drops += 1
                return FAULT_DROP
            return FAULT_NONE
        # One draw per candidate packet keeps the random stream aligned no
        # matter which faults are configured.
        r = self.rng.random()
        if r < self.drop_prob:
            self.drops += 1
            return FAULT_DROP
        if r < self.drop_prob + self.corrupt_prob:
            self.corruptions += 1
            return FAULT_CORRUPT
        return FAULT_NONE


class FaultInjector:
    """Base class: an injector wires one failure mode into a network."""

    def install(self, net: "Network") -> None:
        raise NotImplementedError


def _set_link_state_traced(net: "Network", a: int, b: int, up: bool) -> None:
    """``Network.set_link_state`` plus observability (same event shape)."""
    net.set_link_state(a, b, up)
    pr = probe.PROBE
    if pr is not None:
        pr.link_state(net.sim.now(), a, b, up)


def _set_switch_state_traced(net: "Network", switch_id: int, up: bool) -> None:
    """``Network.set_switch_state`` plus observability (same event shape)."""
    net.set_switch_state(switch_id, up)
    pr = probe.PROBE
    if pr is not None:
        pr.switch_state(net.sim.now(), switch_id, up)


def _resolve_ports(net: "Network", selector: PortSelector) -> List[Port]:
    ports = list(selector(net)) if callable(selector) else list(selector)
    if not ports:
        raise ValueError("port selector matched no ports")
    return ports


@dataclass
class PacketDropInjector(FaultInjector):
    """Random or periodic packet drop/corruption on selected egress ports.

    ``probability``/``corrupt_probability`` give Bernoulli per-packet faults;
    ``every_nth`` switches to deterministic periodic drops instead.  Control
    (PFC) frames are never candidates — losing them is modelled separately by
    the pause-quanta expiry in :mod:`repro.sim.pfc`.

    Liveness caveat: a periodic dropper can phase-lock with a go-back-N
    resend burst (burst length divisible by N puts the drop on the burst
    head every round), permanently starving the cumulative ACK.  That is a
    property of deterministic loss, not a recovery bug; use probabilistic
    drops for completion studies and ``every_nth`` for surgically dropping
    specific packets.  Timeouts surface the livelock as an incomplete run.
    """

    ports: PortSelector
    probability: float = 0.0
    corrupt_probability: float = 0.0
    every_nth: Optional[int] = None
    kinds: Tuple[int, ...] = (DATA,)
    seed: int = 0
    hooks: List[PacketFaultHook] = field(default_factory=list, repr=False)

    def install(self, net: "Network") -> None:
        for i, port in enumerate(_resolve_ports(net, self.ports)):
            if port.fault_hook is not None:
                raise ValueError(f"port {port.name} already has a fault hook")
            hook = PacketFaultHook(
                random.Random(self.seed * _SEED_STRIDE + i),
                drop_prob=self.probability,
                corrupt_prob=self.corrupt_probability,
                every_nth=self.every_nth,
                kinds=self.kinds,
            )
            port.fault_hook = hook
            self.hooks.append(hook)

    @property
    def total_drops(self) -> int:
        return sum(h.drops for h in self.hooks)

    @property
    def total_corruptions(self) -> int:
        return sum(h.corruptions for h in self.hooks)


@dataclass
class LinkFlapInjector(FaultInjector):
    """Scheduled down/up transitions on the link between two nodes.

    With ``period_ns`` set, the down/up cycle repeats ``count`` times (a
    flapping link); otherwise the link fails once at ``down_at_ns`` and
    recovers ``down_for_ns`` later.  Routing is rebuilt around the dead link
    on every transition (see ``Network.set_link_state``).
    """

    a: int
    b: int
    down_at_ns: float
    down_for_ns: float
    period_ns: Optional[float] = None
    count: int = 1

    def __post_init__(self) -> None:
        if self.down_for_ns <= 0:
            raise ValueError("down_for_ns must be positive")
        if self.period_ns is not None and self.period_ns <= self.down_for_ns:
            raise ValueError("flap period must exceed the down interval")

    def install(self, net: "Network") -> None:
        # Fused transmission commits delivery at serialization start, which
        # would let packets survive a flap that should eat them — turn it off
        # up front so every transition sees the exact two-event datapath.
        net.disable_port_fusion()
        t = self.down_at_ns
        cycles = self.count if self.period_ns is not None else 1
        for _ in range(cycles):
            net.sim.schedule_at(t, _set_link_state_traced, net, self.a, self.b, False)
            net.sim.schedule_at(
                t + self.down_for_ns, _set_link_state_traced, net, self.a, self.b, True
            )
            if self.period_ns is not None:
                t += self.period_ns


@dataclass
class SwitchBlackoutInjector(FaultInjector):
    """Every link of one switch goes down for an interval (device crash)."""

    switch_id: int
    down_at_ns: float
    down_for_ns: float

    def __post_init__(self) -> None:
        if self.down_for_ns <= 0:
            raise ValueError("down_for_ns must be positive")

    def install(self, net: "Network") -> None:
        net.disable_port_fusion()  # same reasoning as LinkFlapInjector
        net.sim.schedule_at(
            self.down_at_ns, _set_switch_state_traced, net, self.switch_id, False
        )
        net.sim.schedule_at(
            self.down_at_ns + self.down_for_ns,
            _set_switch_state_traced,
            net,
            self.switch_id,
            True,
        )


class FaultPlan:
    """A bundle of injectors installed together.

    >>> plan = FaultPlan(
    ...     PacketDropInjector(ports=lambda net: net.switches[0].ports,
    ...                        probability=0.01, seed=3),
    ... )

    then ``plan.install(net)`` (and usually ``net.enable_loss_recovery()``).
    """

    def __init__(self, *injectors: FaultInjector):
        self.injectors: List[FaultInjector] = list(injectors)
        self.installed = False

    def add(self, injector: FaultInjector) -> "FaultPlan":
        self.injectors.append(injector)
        return self

    def install(self, net: "Network") -> "FaultPlan":
        if self.installed:
            raise RuntimeError("fault plan already installed")
        for injector in self.injectors:
            injector.install(net)
        self.installed = True
        return self

    def __len__(self) -> int:
        return len(self.injectors)
