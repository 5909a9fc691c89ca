"""Common infrastructure shared by all network-interface devices.

Every NI device exposes the same two-sided interface:

* **Processor side** — generator methods called from the local processor's
  simulation process (via the messaging layer): ``proc_try_send`` and
  ``proc_poll``.  These perform the loads, stores and coherent block
  accesses the paper charges to the processor.
* **Device side** — simulation processes owned by the device: an *injection*
  process that moves messages from the send interface into the network
  (respecting the hardware sliding window), and an *extraction* process that
  accepts arriving network messages into the receive interface and returns
  hardware acknowledgements.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Optional

from repro.common.addrmap import AddressMap, RegionAllocator
from repro.common.params import (
    MEMORY_BARRIER_CYCLES,
    UNCACHED_ACCESS_BYTES,
    UNCACHED_LOAD_EXTRA_CYCLES,
    MachineParams,
)
from repro.common.types import (
    AGENT_NI_DEVICE,
    OP_UNCACHED_READ,
    OP_UNCACHED_WRITE,
    BusKind,
    BusTransaction,
    NetworkMessage,
    SnoopResponse,
)
from repro.coherence.bus import NodeInterconnect
from repro.network.fabric import AbstractFabric, SlidingWindow
from repro.sim import Counter, Signal, Simulator, start_process

if TYPE_CHECKING:
    from repro.ni.primitives import RecvPort, SendPort


class NIError(RuntimeError):
    """Raised for network-interface protocol violations."""


#: Cycles of internal device processing to launch/accept one network message
#: (header generation, CRC, routing decision).  Small compared to bus costs.
DEVICE_PROCESSING_CYCLES = 4


class DeviceHomeAgent:
    """Bus agent representing the NI device as the *home* of its own
    device-register and device-homed queue addresses.

    It also terminates uncached register reads/writes, forwarding them to the
    owning device's ``uncached_read``/``uncached_write`` hooks.
    """

    def __init__(self, device: "AbstractNI", name: str):
        self.device = device
        self.name = name
        self.agent_kind = AGENT_NI_DEVICE
        self.bus_kind = device.bus_kind

    def is_home(self, address: int) -> bool:
        addrmap = self.device.addrmap
        return addrmap.is_ni_homed(address) or addrmap.is_uncached(address)

    def snoop(self, txn: BusTransaction) -> Optional[SnoopResponse]:
        if txn.home is self:  # only this device's own addresses can be registers
            op = txn.op
            if op is OP_UNCACHED_READ and self.device.addrmap.is_uncached(txn.address):
                self.device.uncached_read(txn.address)
            elif op is OP_UNCACHED_WRITE and self.device.addrmap.is_uncached(txn.address):
                self.device.uncached_write(txn.address)
        return None  # register accesses terminate here; nothing to report


class AbstractNI:
    """A network interface: one send port and one receive port over shared
    device infrastructure.

    A device family (uncached registers, CDRs, cachable queues — see
    :mod:`repro.ni.primitives`) allocates its address layout, builds its
    caches and queues, then sets :attr:`send_port` and :attr:`recv_port`;
    the processor- and device-side interface is delegation to the two.
    ``taxonomy_name`` is the name the device was built under
    (:func:`repro.ni.taxonomy.create_ni` passes it), e.g. ``"CNI16Qm"``.
    """

    #: The device's two halves, set by the subclass constructor.
    send_port: "SendPort"
    recv_port: "RecvPort"
    #: Where the receive queue is homed.  A ``"memory"``-homed queue
    #: overflows to main memory, so a blocked sender never drains it.
    recv_home = "device"

    def __init__(
        self,
        sim: Simulator,
        node_id: int,
        params: MachineParams,
        addrmap: AddressMap,
        interconnect: NodeInterconnect,
        fabric: AbstractFabric,
        bus_kind: BusKind = BusKind.MEMORY,
        dram_allocator: Optional[RegionAllocator] = None,
        *,
        taxonomy_name: str,
    ):
        self.sim = sim
        self.node_id = node_id
        self.params = params
        self.addrmap = addrmap
        self.interconnect = interconnect
        self.fabric = fabric
        self.bus_kind = bus_kind
        self.agent_kind = AGENT_NI_DEVICE
        self.taxonomy_name = taxonomy_name
        self.name = f"node{node_id}.{taxonomy_name}"
        #: PDES partition this device belongs to (see Machine.partition_map
        #: and repro.analysis): the NI is node-owned; only the fabric's
        #: delivery callbacks cross into it from the outside.
        self.partition = f"node{node_id}"
        self.stats = Counter()
        self._counts = self.stats.raw
        #: words/blocks per payload size, memoised (messages repeat sizes).
        self._words_cache: dict = {}
        self._blocks_cache: dict = {}

        # Device address regions.
        self._homed_alloc = RegionAllocator(addrmap.ni_homed, params.cache_block_bytes)
        self._uncached_alloc = RegionAllocator(addrmap.ni_uncached, params.cache_block_bytes)
        self._dram_alloc: Optional[RegionAllocator] = dram_allocator

        # Network-side machinery.
        self.window = SlidingWindow(sim, params, node_id)
        self._net_in: "deque[NetworkMessage]" = deque()
        self._net_in_signal = Signal(sim, name=f"{self.name}.net-in")
        self._inject_signal = Signal(sim, name=f"{self.name}.inject")
        #: Message-arrival / spin-activity signal.  Fired whenever the local
        #: processor's blocking waits should re-examine the device: a message
        #: became visible through the receive interface, send-side space was
        #: freed, or (once the processor cache is bound) the processor cache
        #: snooped any bus transaction — the virtual-polling hook of the
        #: paper's coherent interfaces.  Spin-wait elision sleeps on this
        #: signal instead of busy-polling (see :mod:`repro.sim.spinwait`).
        self.arrival_signal = Signal(sim, name=f"{self.name}.arrival")
        #: Messages the fabric has announced to this node that no poll can
        #: see yet: in flight, in ``_net_in`` or still being accepted.
        #: Stays 0 unless :meth:`wire_delivery_notices` was called.
        self.announced = 0
        fabric.attach(node_id, self._on_network_message, self.window.on_ack)

        self._uncached_load_extra = UNCACHED_LOAD_EXTRA_CYCLES.get(bus_kind, 0)

        # The home agent makes the device answer for its own addresses.
        self.home_agent = DeviceHomeAgent(self, f"{self.name}.home")
        interconnect.attach(self.home_agent)

        self._processes_started = False

    # ------------------------------------------------------------------
    # Region allocation helpers for subclasses
    # ------------------------------------------------------------------
    def allocate_device_blocks(self, num_blocks: int) -> int:
        """Allocate device-homed coherent blocks (CDRs, device-homed CQs)."""
        return self._homed_alloc.allocate_blocks(num_blocks)

    def allocate_uncached_register(self) -> int:
        """Allocate one 8-byte uncached device register address."""
        return self._uncached_alloc.allocate(UNCACHED_ACCESS_BYTES, align_to_block=False)

    def allocate_dram_blocks(self, num_blocks: int) -> int:
        if self._dram_alloc is None:
            raise NIError(f"{self.name}: no DRAM allocator configured")
        return self._dram_alloc.allocate_blocks(num_blocks)

    # ------------------------------------------------------------------
    # Device processes
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Launch the device-side injection and extraction processes."""
        if self._processes_started:
            return
        self._processes_started = True
        start_process(self.sim, self.send_port.injection_process(), name=f"{self.name}.inject")
        start_process(self.sim, self.recv_port.extraction_process(), name=f"{self.name}.extract")

    def _on_network_message(self, message: NetworkMessage) -> None:
        """Fabric delivery callback: queue the message for extraction."""
        self._net_in.append(message)
        self.stats.add("network_arrivals")
        self._net_in_signal.fire()

    def wire_delivery_notices(self) -> int:
        """Have the fabric announce each message to this node at injection.

        Each notice counts the message in :attr:`announced` and fires the
        arrival signal; the receive port uncounts it (:meth:`_note_visible`)
        when it becomes visible to a poll.  Returns the lead: the fewest
        cycles from a notice until the message can reach the device side,
        and so until it can be visible or make the device use the bus.
        """
        self.fabric.announce_to(self.node_id, self._on_delivery_notice)
        return self.fabric.min_delivery_delay() + DEVICE_PROCESSING_CYCLES

    def _on_delivery_notice(self) -> None:
        self.announced += 1
        self.arrival_signal.fire()

    def _note_visible(self) -> None:
        """The receive port made a message visible to a poll: it no longer
        counts as announced."""
        if self.announced:  # 0 when no delivery notices are wired
            self.announced -= 1

    def _wait_for_window(self, dest: int):
        """Generator: wait until the sliding window to ``dest`` has room."""
        while not self.window.can_send(dest):
            self.stats.add("window_stalls")
            yield self.window.slot_freed

    def _inject(self, message: NetworkMessage) -> None:
        """Reserve a window slot and put the message on the wire."""
        self.window.reserve(message.dest)
        self.stats.add("messages_injected")
        self.fabric.inject(message)

    def _ack(self, message: NetworkMessage) -> None:
        """Send the hardware acknowledgement for an accepted message."""
        if not message.is_ack:
            self.fabric.send_ack(self.node_id, message.source)
            self.stats.add("acks_returned")

    # ------------------------------------------------------------------
    # Processor-side interface and register hooks, delegated to the ports
    # ------------------------------------------------------------------
    def proc_try_send(self, message: NetworkMessage):
        """Processor-side send of one network message.

        Generator.  Returns True if the message was handed to the NI, or
        False if the send interface is currently full (the messaging layer
        then drains incoming messages and retries, per the paper's
        deadlock-avoidance rule).
        """
        return self.send_port.proc_try_send(message)

    def proc_poll(self):
        """Processor-side poll of the receive interface.

        Generator.  Returns the next :class:`NetworkMessage` if one is
        available, otherwise ``None``.
        """
        return self.recv_port.proc_poll()

    def uncached_read(self, address: int) -> None:
        """The processor read an uncached device register; each port
        ignores addresses that are not its own."""
        self.send_port.uncached_read(address)
        self.recv_port.uncached_read(address)

    def uncached_write(self, address: int) -> None:
        """The processor wrote an uncached device register."""
        self.send_port.uncached_write(address)
        self.recv_port.uncached_write(address)

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------
    def wire_bytes(self, message: NetworkMessage) -> int:
        """Bytes of the network message actually written/read by software."""
        return self.params.network_header_bytes + message.payload_bytes

    def words_for(self, message: NetworkMessage) -> int:
        """Number of 8-byte uncached accesses needed to move the message."""
        payload = message.payload_bytes
        words = self._words_cache.get(payload)
        if words is None:
            words = self._words_cache[payload] = (
                self.params.network_header_bytes + payload + UNCACHED_ACCESS_BYTES - 1
            ) // UNCACHED_ACCESS_BYTES
        return words

    def blocks_for(self, message: NetworkMessage) -> int:
        """Number of cache blocks the message occupies."""
        payload = message.payload_bytes
        blocks = self._blocks_cache.get(payload)
        if blocks is None:
            block = self.params.cache_block_bytes
            blocks = self._blocks_cache[payload] = (
                self.params.network_header_bytes + payload + block - 1
            ) // block
        return blocks

    def uncached_load(self, register: int):
        """Generator: one uncached 8-byte load from a device register.

        Besides the bus occupancy, the issuing processor stalls for the
        arbitration/response latency of the load (uncached loads cannot be
        buffered the way stores can).
        """
        self._counts["uncached_loads"] += 1
        # The bound cache is read directly; _processor_agent() runs only to
        # raise NIError when none is bound.
        yield from self.interconnect.transaction(
            self._proc_cache or self._processor_agent(),
            OP_UNCACHED_READ, register, UNCACHED_ACCESS_BYTES,
        )
        yield self._uncached_load_extra

    def uncached_store(self, register: int):
        """Generator: one uncached 8-byte store to a device register."""
        self._counts["uncached_stores"] += 1
        yield from self.interconnect.transaction(
            self._proc_cache or self._processor_agent(),
            OP_UNCACHED_WRITE, register, UNCACHED_ACCESS_BYTES,
        )

    def memory_barrier(self):
        """Generator: drain the processor store buffer."""
        yield MEMORY_BARRIER_CYCLES

    def _processor_agent(self):
        """The agent on whose behalf processor-side uncached accesses run."""
        if self._proc_cache is None:
            raise NIError(f"{self.name}: processor cache not bound")
        return self._proc_cache

    # Set by the node assembly once the processor cache exists.
    _proc_cache = None

    def bind_processor_cache(self, cache) -> None:
        self._proc_cache = cache
        if self.params.spin_elision and (self.recv_port.elidable or self.send_port.elidable):
            # Virtual polling: any transaction the processor cache snoops can
            # invalidate a polled line, so it must wake sleeping spin-waiters.
            # Devices without an elidable port (the messaging layer's guard
            # eligibility) never sleep, so they skip the per-snoop listener
            # cost entirely.
            previous = cache.snoop_listener
            fire = self.arrival_signal.fire
            if previous is None:
                cache.snoop_listener = lambda txn: fire()
            else:
                def chained(txn, _previous=previous, _fire=fire):
                    _previous(txn)
                    _fire()

                cache.snoop_listener = chained
