"""Machine parameters for the simulated system.

The paper fixes its machine (Section 4.1) and varies only the network
interface and the bus it sits on.  This module keeps the two kinds of
number apart:

* **Fixed constants** (module-level and read-only; no spec sets them): the
  200 MHz dual-issue SPARC processor clock (:data:`PROCESSOR_MHZ`), the
  Table 2 bus occupancies of the 100 MHz coherent memory bus, the 50 MHz
  coherent I/O bus and the cache bus (the ``*_CYCLES`` tables keyed by
  :class:`~repro.common.types.BusKind`, read through :func:`occupancy`),
  and the processor-side costs of the paper's timing model: cache hit,
  memory barrier, per-word and per-block copy overhead, and the extra
  latency a processor miss or an uncached load sees.
* **Experiment axes** (the fields of :class:`MachineParams`, which a spec
  overrides through ``ExperimentSpec.params``): machine size and network
  (16 nodes, fixed 256-byte network messages with a 12-byte header,
  100-cycle network latency, a 4-message per-destination hardware sliding
  window), the cache geometry (256 KB direct-mapped processor cache with
  64-byte blocks), the interconnect fabric, the coherence protocol, fault
  injection, reliable messaging and spin elision.  The defaults are the
  paper's machine.

Table 2 occupancies are expressed in *processor cycles* and, for the I/O
bus, already include the corresponding memory-bus occupancy.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from types import MappingProxyType
from typing import Optional

from repro.common.types import BUS_CACHE, BUS_IO, BUS_MEMORY, AgentKind, BusKind, BusOp


class ParameterError(ValueError):
    """Raised for invalid machine parameter combinations."""


#: Physical address map.  Each node has its own private physical address
#: space (nodes never address each other's memory directly; only the network
#: connects them), so one map serves every node.
DRAM_BASE = 0x0000_0000
DRAM_SIZE = 0x1000_0000           # 256 MB of main memory
NI_HOMED_BASE = 0x8000_0000       # device-homed CDR / CQ blocks
NI_HOMED_SIZE = 0x0100_0000
NI_UNCACHED_BASE = 0x9000_0000    # uncached NI status / control / FIFO registers
NI_UNCACHED_SIZE = 0x0010_0000


# ----------------------------------------------------------------------
# The paper's fixed machine (Section 4.1, Table 2)
# ----------------------------------------------------------------------
#: Processor clock: cycles per microsecond.
PROCESSOR_MHZ = 200
#: Processor cache hit latency (cycles).
CACHE_HIT_CYCLES = 1
#: Uncached accesses are performed 8 bytes (one double word) at a time.
UNCACHED_ACCESS_BYTES = 8
#: Memory barrier cost (flush the store buffer before the NI sees a store).
MEMORY_BARRIER_CYCLES = 6
#: Processor overhead per 8-byte word moved through uncached device
#: registers (user-buffer load/store, address generation, loop control).
UNCACHED_WORD_PROCESSING_CYCLES = 6
#: Processor cycles to copy one cache block between a user buffer and a
#: CDR/CQ block (8 double-word loads plus 8 stores on a dual-issue core).
BLOCK_COPY_CYCLES = 20
#: Extra latency a *processor* cache miss sees beyond the bus occupancy
#: (arbitration, snoop resolution, critical-word delivery).  The paper's
#: 230 ns cache-to-cache transfer corresponds to roughly this much on top
#: of the 42-cycle bus occupancy.  Device caches pipeline their accesses
#: and are not charged this latency.
PROCESSOR_MISS_EXTRA_CYCLES = 25

# Table 2 occupancies (processor cycles), per bus.
UNCACHED_LOAD_CYCLES = MappingProxyType({BUS_CACHE: 4, BUS_MEMORY: 28, BUS_IO: 48})
UNCACHED_STORE_CYCLES = MappingProxyType({BUS_CACHE: 4, BUS_MEMORY: 12, BUS_IO: 32})
CACHE_TO_CACHE_FROM_CNI_CYCLES = MappingProxyType({BUS_MEMORY: 42, BUS_IO: 76})
CACHE_TO_CACHE_TO_CNI_CYCLES = MappingProxyType({BUS_MEMORY: 42, BUS_IO: 62})
MEMORY_TO_CACHE_CYCLES = MappingProxyType({BUS_MEMORY: 42, BUS_IO: 76})
#: Address-only invalidation / upgrade transactions (not listed in
#: Table 2; modelled as a short address-phase-only transaction).
INVALIDATION_CYCLES = MappingProxyType({BUS_CACHE: 4, BUS_MEMORY: 10, BUS_IO: 30})
#: Writeback of a dirty 64-byte block to its home.
WRITEBACK_CYCLES = MappingProxyType({BUS_CACHE: 42, BUS_MEMORY: 42, BUS_IO: 62})
#: Processor-to-processor cache-to-cache transfer (used only for the
#: bandwidth normalization constant of Figure 7).
CACHE_TO_CACHE_PROC_CYCLES = MappingProxyType({BUS_CACHE: 42, BUS_MEMORY: 42, BUS_IO: 76})
#: Extra latency an uncached *load* sees beyond its bus occupancy: the
#: processor stalls for arbitration plus the device's response, which the
#: Table-2 occupancy alone does not cover.  Uncached stores retire
#: through the store buffer and see no extra stall.
UNCACHED_LOAD_EXTRA_CYCLES = MappingProxyType({BUS_CACHE: 2, BUS_MEMORY: 15, BUS_IO: 25})


def cycles_to_us(cycles: float) -> float:
    """Simulated processor cycles in microseconds."""
    return cycles / PROCESSOR_MHZ


def occupancy(
    op: BusOp,
    bus: BusKind,
    initiator_kind: AgentKind,
    supplier_kind: Optional[AgentKind] = None,
    data_from_memory: bool = False,
) -> int:
    """Table-2 bus occupancy in processor cycles for one transaction.

    The supplier/initiator kinds select the proper Table-2 row for
    cache-to-cache transfers (processor<->CNI direction matters on the
    I/O bus).
    """
    if op is BusOp.UNCACHED_READ:
        return UNCACHED_LOAD_CYCLES[bus]
    if op is BusOp.UNCACHED_WRITE:
        return UNCACHED_STORE_CYCLES[bus]
    if op is BusOp.UPGRADE:
        return INVALIDATION_CYCLES[bus]
    if op is BusOp.WRITEBACK:
        return WRITEBACK_CYCLES[bus]
    if op in (BusOp.READ_SHARED, BusOp.READ_EXCLUSIVE):
        if data_from_memory or supplier_kind is AgentKind.MEMORY or supplier_kind is None:
            return MEMORY_TO_CACHE_CYCLES.get(bus, MEMORY_TO_CACHE_CYCLES[BusKind.MEMORY])
        if supplier_kind is AgentKind.NI_DEVICE:
            # CNI supplies data to the processor (or bridge).
            return CACHE_TO_CACHE_FROM_CNI_CYCLES[bus]
        if initiator_kind is AgentKind.NI_DEVICE:
            # Processor cache supplies data to the CNI.
            return CACHE_TO_CACHE_TO_CNI_CYCLES[bus]
        # processor <-> processor (only used by the normalization model)
        return CACHE_TO_CACHE_PROC_CYCLES[bus]
    raise ParameterError(f"no occupancy rule for {op!r} on {bus!r}")


@dataclass(frozen=True)
class MachineParams:
    """The machine's experiment axes; defaults are the paper's machine."""

    # Caches
    cache_block_bytes: int = 64
    processor_cache_bytes: int = 256 * 1024

    # Network (Section 4.1)
    num_nodes: int = 16
    network_message_bytes: int = 256
    network_header_bytes: int = 12
    network_latency_cycles: int = 100
    sliding_window: int = 4

    # Interconnect fabric (grammar in :mod:`repro.network.fabricspec`).
    # ``"ideal"`` is the paper's fixed-latency, topology-free model; other
    # values select topology-aware models from the fabric registry —
    # ``"xbar"`` (per-port serialization), ``"mesh"``/``"torus"`` (2D grid
    # with dimension-order routing; bare names derive a near-square shape
    # from ``num_nodes``, ``"mesh4x4"`` pins it).
    fabric: str = "ideal"
    #: Router + wire latency per grid hop (mesh/torus), processor cycles.
    fabric_hop_cycles: int = 8

    # Coherence protocol (rule tables in :mod:`repro.coherence.protocols`).
    # ``"moesi"`` is the paper's five-state snooping protocol; the kit also
    # ships ``"mesi"``, ``"msi"``, ``"illinois"`` and the home-node
    # directory variant ``"dir-msi"``.  Plugins register additional tables
    # with :func:`repro.coherence.protocols.register_protocol`.
    protocol: str = "moesi"
    #: Directory lookup latency added to each coherent transaction's bus
    #: occupancy under a directory protocol (the home consults its
    #: owner/sharer state before the data phase).
    directory_lookup_cycles: int = 8
    #: Link/port bandwidth used for serialization by the topology-aware
    #: fabrics (a 256+12-byte message at 8 B/cycle streams for 34 cycles).
    fabric_link_bytes_per_cycle: int = 8

    # Fault injection (grammar in :mod:`repro.faults.plan`).  ``""`` — the
    # default — means no faults.  A non-empty name (e.g. ``"lossy1"``,
    # ``"drop=0.01"``) resolves against the fault-plan registry, and the
    # fabric consults that plan's deterministic
    # :class:`repro.faults.fabric.FaultInjector` on every message.
    faults: str = ""
    #: Seed for the fault-decision RNG streams (mixed with link endpoints
    #: and a per-link message counter; independent of workload seeds).
    fault_seed: int = 0

    #: End-to-end reliable messaging (sequence numbers, ack/timeout/
    #: retransmit, duplicate suppression) in the messaging layer.  Required
    #: for workloads to complete under lossy fault plans; off by default
    #: because the e2e acks are real messages that change cycle counts.
    reliable_messaging: bool = False
    #: Base retransmission timeout (processor cycles); doubled per attempt
    #: up to ``max_retransmits`` (capped exponential backoff).  The default
    #: covers the *software* round trip — the receiver only acks when its
    #: program polls, which can be tens of thousands of cycles after
    #: delivery — so a short (hardware-RTT-scale) value here causes
    #: spurious retransmission storms.
    retransmit_timeout_cycles: int = 25_000
    #: Give up (raise) after this many retransmissions of one fragment.
    max_retransmits: int = 12

    #: Elide steady busy-poll spins into event-driven blocking waits (see
    #: :mod:`repro.sim.spinwait`).  Bit-identical to spinning — simulated
    #: cycles, bus occupancies and device counters do not change — but the
    #: kernel executes far fewer events on poll-heavy runs.  The off path
    #: is kept so the two can be compared (parity tests, wall-time A/B).
    spin_elision: bool = True

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    @property
    def network_payload_bytes(self) -> int:
        """User payload capacity of one network message."""
        return self.network_message_bytes - self.network_header_bytes

    @property
    def blocks_per_network_message(self) -> int:
        return (self.network_message_bytes + self.cache_block_bytes - 1) // self.cache_block_bytes

    @property
    def processor_cache_blocks(self) -> int:
        return self.processor_cache_bytes // self.cache_block_bytes

    def max_local_cq_bandwidth_mbps(self) -> float:
        """Analytic maximum bandwidth of a local CQ between two processors.

        The paper normalizes Figure 7 against the bandwidth two processors on
        the same coherent memory bus can sustain (144 MB/s for their
        parameters).  Per 64-byte block that transfer costs a
        read-for-ownership with a cache-to-cache data supply (sender) plus a
        read miss with a cache-to-cache supply (receiver).
        """
        per_block = (
            CACHE_TO_CACHE_PROC_CYCLES[BusKind.MEMORY]
            + PROCESSOR_MISS_EXTRA_CYCLES
            + INVALIDATION_CYCLES[BusKind.MEMORY]
            + BLOCK_COPY_CYCLES
        )
        # bytes/cycle x cycles/us = bytes/us == MB/s
        return self.cache_block_bytes / per_block * PROCESSOR_MHZ

    # ------------------------------------------------------------------
    # Validation and variants
    # ------------------------------------------------------------------
    def validate(self) -> "MachineParams":
        for name, kind in _SCALAR_FIELDS:
            value = getattr(self, name)
            if type(value) is not kind:  # exact: a bool is no int here
                raise ParameterError(
                    f"{name} must be {kind.__name__}, not {type(value).__name__} {value!r}"
                )
        if self.cache_block_bytes <= 0 or self.cache_block_bytes % 8 != 0:
            raise ParameterError("cache_block_bytes must be a positive multiple of 8")
        if self.processor_cache_bytes % self.cache_block_bytes != 0:
            raise ParameterError("processor cache size must be a whole number of blocks")
        if self.network_header_bytes >= self.network_message_bytes:
            raise ParameterError("network header must be smaller than the network message")
        if self.network_message_bytes % self.cache_block_bytes != 0:
            raise ParameterError("network message must be a whole number of cache blocks")
        if self.num_nodes < 1:
            raise ParameterError("num_nodes must be >= 1")
        if self.network_latency_cycles < 0:
            raise ParameterError("network_latency_cycles must be >= 0")
        if self.sliding_window < 1:
            raise ParameterError("sliding_window must be >= 1")
        if self.fabric_hop_cycles < 1:
            raise ParameterError("fabric_hop_cycles must be >= 1")
        if self.fabric_link_bytes_per_cycle < 1:
            raise ParameterError("fabric_link_bytes_per_cycle must be >= 1")
        if self.directory_lookup_cycles < 0:
            raise ParameterError("directory_lookup_cycles must be >= 0")
        if self.protocol != "moesi":
            # Lazy import, same reasoning as the fabric check below: the
            # default never pulls in the protocol kit at module import.
            # An unregistered name raises ProtocolError here.
            from repro.coherence.protocols import protocol_spec

            protocol_spec(self.protocol)
        if self.retransmit_timeout_cycles < 1:
            raise ParameterError("retransmit_timeout_cycles must be >= 1")
        if self.max_retransmits < 0:
            raise ParameterError("max_retransmits must be >= 0")
        if self.faults:
            # Lazy import, same reasoning as the fabric check below: the
            # default (no faults) never pulls in the fault-plan grammar.
            from repro.faults.plan import resolve_plan

            plan = resolve_plan(self.faults)
            if plan.is_lossy() and not self.reliable_messaging:
                raise ParameterError(
                    f"fault plan {self.faults!r} can lose or corrupt messages; "
                    "enable reliable_messaging so workloads can complete"
                )
        if self.fabric != "ideal":
            # Lazy import: the default short-circuits, so importing this
            # module (which validates DEFAULT_PARAMS) never pulls in the
            # fabric registry.  Non-default names are checked against the
            # registered kinds and the machine's node count, raising
            # FabricError with the offending grammar field named.
            from repro.network.registry import parse_fabric

            parse_fabric(self.fabric).validate_nodes(self.num_nodes)
        return self

    def with_overrides(self, **kwargs) -> "MachineParams":
        """Return a copy with the given fields replaced (and re-validated)."""
        return replace(self, **kwargs).validate()


#: ``(name, type)`` of every field, which ``validate`` type-checks.  A field
#: of any other type fails here, at import.
_SCALAR_FIELDS = tuple(
    (f.name, {"int": int, "bool": bool, "str": str}[f.type]) for f in fields(MachineParams)
)

DEFAULT_PARAMS = MachineParams().validate()
