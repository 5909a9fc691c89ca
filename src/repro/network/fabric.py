"""Network fabric models: the abstract interface and the paper's ideal fabric.

Following the paper (Section 4.1), the *default* fabric ignores topology:
every message takes a fixed 100 processor cycles from injection at the
source NI to arrival at the destination NI.  That model is
:class:`IdealFabric` here; :class:`AbstractFabric` extracts the endpoint
registration, delivery bookkeeping and statistics every fabric shares, so
topology-aware models (:mod:`repro.network.topology`) plug in underneath
the unchanged NI devices.  End-point flow control is unchanged across
fabrics: a hardware sliding window of four outstanding network messages
per destination (:class:`SlidingWindow`), with acknowledgements returned
by the receiving NI when it accepts a message into its receive queue.

Fabrics are selected declaratively through ``MachineParams.fabric`` (see
:mod:`repro.network.fabricspec` for the topology grammar and
:mod:`repro.network.registry` for the kind registry).
"""

from __future__ import annotations

import abc
from typing import Callable, Dict, Optional

from repro.common.params import MachineParams
from repro.common.types import NetworkMessage
from repro.network.fabricspec import FabricSpec
from repro.sim import Counter, Signal, Simulator, Summary


class NetworkError(RuntimeError):
    """Raised on fabric misuse (unknown endpoints, bad messages)."""


def _checked_delay(delay: object, hook: str) -> int:
    """``delay`` if it is a non-negative ``int``, else :class:`NetworkError`."""
    if delay.__class__ is not int or delay < 0:
        raise NetworkError(f"{hook} must be a non-negative int of cycles, got {delay!r}")
    return delay


class AbstractFabric(abc.ABC):
    """Point-to-point ordered message fabric: endpoints, delivery, stats.

    Subclasses implement the *timing* — :meth:`delivery_delay` for one
    network message and :meth:`ack_delay` for one hardware acknowledgement
    — and may keep whatever contention state the model needs (both hooks
    are called at injection time, in simulation-time order, so arithmetic
    link/port reservation is causally sound).  Delays must be non-negative
    ``int`` processor cycles: :meth:`inject` and :meth:`send_ack` raise
    :class:`NetworkError` on any other value, since the kernel checks
    nothing and a negative delay would move simulated time backwards.

    Every fabric preserves point-to-point ordering: for a fixed
    (source, destination) pair, delivery order equals injection order.
    The built-in models guarantee this structurally (fixed latency, or
    deterministic routes with FIFO per-link reservation).
    """

    #: Grammar kind implemented by this class (see fabricspec); set by
    #: subclasses and used by the registry and reporting.
    kind = "abstract"

    def __init__(self, sim: Simulator, params: MachineParams, spec: Optional[FabricSpec] = None):
        self.sim = sim
        self.params = params
        self.spec = spec
        self._endpoints: Dict[int, Callable[[NetworkMessage], None]] = {}
        self._ack_handlers: Dict[int, Callable[[int], None]] = {}
        #: Per destination: called at each injection addressed to it (see
        #: :meth:`announce_to`).  Empty unless some node asked for notices.
        self._notices: Dict[int, Callable[[], None]] = {}
        self.stats = Counter()
        self.latency_samples = Summary()
        #: The fault plan's :class:`~repro.faults.fabric.FaultInjector`, set
        #: by ``create_fabric`` under a plan; ``None`` without one.
        self.faults = None

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def attach(
        self,
        node_id: int,
        on_message: Callable[[NetworkMessage], None],
        on_ack: Callable[[int], None],
    ) -> None:
        """Attach an NI endpoint.

        ``on_message(msg)`` is invoked when a network message arrives at this
        node; ``on_ack(source_node)`` when an acknowledgement from a prior
        send to ``source_node`` comes back.
        """
        if node_id in self._endpoints:
            raise NetworkError(f"node {node_id} already attached to fabric")
        self._endpoints[node_id] = on_message
        self._ack_handlers[node_id] = on_ack

    def announce_to(self, node_id: int, on_notice: Callable[[], None]) -> None:
        """Call ``on_notice()`` whenever a message to ``node_id`` is injected.

        The notice comes when the fabric fixes the message's delivery time,
        at least :meth:`min_delivery_delay` cycles before the message
        arrives.  Spin-wait elision of uncached-status polls sleeps until it
        (see :mod:`repro.sim.spinwait`).
        """
        self._notices[node_id] = on_notice

    def detach(self, node_id: int) -> None:
        self._endpoints.pop(node_id, None)
        self._ack_handlers.pop(node_id, None)
        self._notices.pop(node_id, None)

    @property
    def node_ids(self):
        return tuple(sorted(self._endpoints))

    # ------------------------------------------------------------------
    # Timing model (the subclass contract)
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def delivery_delay(self, message: NetworkMessage) -> int:
        """Cycles from injection now until ``message`` is fully delivered.

        Called once per message at injection time; a stateful model
        reserves its links/ports here.
        """

    @abc.abstractmethod
    def ack_delay(self, from_node: int, to_node: int) -> int:
        """Cycles for a hardware ack from ``from_node`` back to ``to_node``."""

    def min_delivery_delay(self) -> int:
        """A lower bound on :meth:`delivery_delay` for any message.

        The built-in models return their uncontended minimum; the default,
        0, is safe for any fabric.
        """
        return 0

    # ------------------------------------------------------------------
    # Message transport
    # ------------------------------------------------------------------
    def inject(self, message: NetworkMessage) -> None:
        """Inject a message; it arrives at the destination after the model's
        delay, or, under a fault plan, as :attr:`faults` decides."""
        faults = self.faults
        if faults is None:
            self._transmit(message)
        else:
            faults.inject(self, message)

    def _transmit(self, message: NetworkMessage) -> None:
        """:meth:`inject` without faults."""
        if message.dest not in self._endpoints:
            raise NetworkError(f"message to unattached node {message.dest}")
        if message.source not in self._endpoints:
            raise NetworkError(f"message from unattached node {message.source}")
        message.inject_time = self.sim.now
        self.stats.add("messages_injected")
        self.stats.add("payload_bytes", message.payload_bytes)
        delay = _checked_delay(self.delivery_delay(message), "delivery_delay")
        self.sim.schedule_call(delay, self._deliver, (message,))
        if self._notices:
            notice = self._notices.get(message.dest)
            if notice is not None:
                notice()

    def _deliver(self, message: NetworkMessage) -> None:
        message.deliver_time = self.sim.now
        self.stats.add("messages_delivered")
        self.latency_samples.record(message.deliver_time - message.inject_time)
        extra = message.fault_delay
        if extra:
            # Jitter or reordering: delivered as far as the statistics go,
            # the message reaches its NI ``extra`` cycles later.
            message.fault_delay = 0
            self.sim.schedule_call(extra, self._deliver_late, (message,))
        else:
            self._endpoints[message.dest](message)

    def _deliver_late(self, message: NetworkMessage) -> None:
        message.deliver_time = self.sim.now
        self._endpoints[message.dest](message)

    def send_ack(self, from_node: int, to_node: int) -> None:
        """Send a hardware-level acknowledgement from ``from_node`` back to
        ``to_node`` (the original sender)."""
        if to_node not in self._ack_handlers:
            raise NetworkError(f"ack to unattached node {to_node}")
        self.stats.add("acks_sent")
        delay = _checked_delay(self.ack_delay(from_node, to_node), "ack_delay")
        self.sim.schedule_call(delay, self._deliver_ack, (from_node, to_node))

    def _deliver_ack(self, from_node: int, to_node: int) -> None:
        self.stats.add("acks_delivered")
        faults = self.faults
        if faults is not None and faults.absorbs_ack(to_node, from_node):
            return
        self._ack_handlers[to_node](from_node)

    # ------------------------------------------------------------------
    # Shared timing helpers
    # ------------------------------------------------------------------
    def wire_bytes(self, message: NetworkMessage) -> int:
        """Bytes of ``message`` actually moved by the fabric (header + payload)."""
        return self.params.network_header_bytes + message.payload_bytes

    def serialization_cycles(self, wire_bytes: int) -> int:
        """Cycles to stream ``wire_bytes`` through one link/port."""
        bw = self.params.fabric_link_bytes_per_cycle
        return max(1, -(-wire_bytes // bw))

    def describe(self) -> str:
        if self.spec is not None:
            return self.spec.describe()
        return f"{self.kind} fabric"

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.describe()}>"


class IdealFabric(AbstractFabric):
    """The paper's fabric: fixed latency, topology ignored (Section 4.1).

    Every message — and every acknowledgement — takes exactly
    ``params.network_latency_cycles`` regardless of source, destination or
    load.  This is the default fabric and the one all paper goldens pin;
    its event schedule is bit-identical to the pre-refactor
    ``NetworkFabric``.
    """

    kind = "ideal"

    def delivery_delay(self, message: NetworkMessage) -> int:
        return self.params.network_latency_cycles

    def ack_delay(self, from_node: int, to_node: int) -> int:
        return self.params.network_latency_cycles

    def min_delivery_delay(self) -> int:
        return self.params.network_latency_cycles


#: Historical name of the fixed-latency fabric, kept as an alias so direct
#: constructions (tests, notebooks) keep working unchanged.
NetworkFabric = IdealFabric


class SlidingWindow:
    """Per-destination hardware sliding window at one sending NI.

    The paper allows up to four network messages in flight per destination
    before the sender must block waiting for acknowledgements.
    """

    def __init__(self, sim: Simulator, params: MachineParams, node_id: int):
        self.sim = sim
        self.params = params
        self.node_id = node_id
        self.window = params.sliding_window
        self._outstanding: Dict[int, int] = {}
        #: Fired whenever an ack frees a window slot (payload: destination).
        self.slot_freed = Signal(sim, name=f"ni{node_id}.window-freed")
        self.stats = Counter()

    def outstanding(self, dest: int) -> int:
        return self._outstanding.get(dest, 0)

    def can_send(self, dest: int) -> bool:
        return self.outstanding(dest) < self.window

    def reserve(self, dest: int) -> None:
        if not self.can_send(dest):
            raise NetworkError(
                f"node {self.node_id}: window to {dest} already full "
                f"({self.outstanding(dest)}/{self.window})"
            )
        self._outstanding[dest] = self.outstanding(dest) + 1
        self.stats.add("reservations")

    def on_ack(self, dest: int) -> None:
        count = self.outstanding(dest)
        if count <= 0:
            raise NetworkError(f"node {self.node_id}: spurious ack from {dest}")
        self._outstanding[dest] = count - 1
        self.stats.add("acks")
        self.slot_freed.fire(dest)

    def total_outstanding(self) -> int:
        return sum(self._outstanding.values())
