"""Shared enumerations and small value types for the CNI reproduction.

Each enumeration is followed by the members that the bus, cache, directory
and NI code compare against, bound once as module globals (``BUS_MEMORY``,
``STATE_INVALID``, ``OP_READ_SHARED``, ...), and that code uses those
names.  On CPython 3.10/3.11 ``enum.EnumType`` defines ``__getattr__``, so
a load such as ``BusOp.READ_SHARED`` goes through the metaclass's attribute
hook and costs ~200 ns, against ~20 ns for a global; the bus transaction
path made 10-20 such loads per transaction.  The lint's ``ENUMATTR`` rule
keeps member loads out of the function bodies of that code.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional, Tuple


class BusKind(enum.Enum):
    """Which bus a device is attached to (paper Section 4.1)."""

    #: Members are singletons: identity hashing (C slot) is equivalent to
    #: the default Enum name hash but much cheaper in enum-keyed dicts.
    __hash__ = object.__hash__

    CACHE = "cache"
    MEMORY = "memory"
    IO = "io"

    def __str__(self) -> str:  # nicer in reports
        return self.value


BUS_CACHE = BusKind.CACHE
BUS_MEMORY = BusKind.MEMORY
BUS_IO = BusKind.IO


class CoherenceState(enum.Enum):
    """MOESI block states (Sweazey & Smith)."""

    __hash__ = object.__hash__

    MODIFIED = "M"
    OWNED = "O"
    EXCLUSIVE = "E"
    SHARED = "S"
    INVALID = "I"

    def is_valid(self) -> bool:
        return self is not CoherenceState.INVALID

    def is_dirty(self) -> bool:
        return self in (CoherenceState.MODIFIED, CoherenceState.OWNED)

    def is_writable(self) -> bool:
        return self in (CoherenceState.MODIFIED, CoherenceState.EXCLUSIVE)


STATE_SHARED = CoherenceState.SHARED
STATE_INVALID = CoherenceState.INVALID


class BusOp(enum.Enum):
    """Bus transaction types on the snooping buses."""

    __hash__ = object.__hash__

    READ_SHARED = "read_shared"          # coherent read, requester wants S/E
    READ_EXCLUSIVE = "read_exclusive"    # coherent read-for-ownership
    UPGRADE = "upgrade"                  # invalidate others, requester has data
    WRITEBACK = "writeback"              # dirty block to its home
    UNCACHED_READ = "uncached_read"      # 8-byte uncached device register read
    UNCACHED_WRITE = "uncached_write"    # 8-byte uncached device register write


OP_READ_SHARED = BusOp.READ_SHARED
OP_READ_EXCLUSIVE = BusOp.READ_EXCLUSIVE
OP_UPGRADE = BusOp.UPGRADE
OP_WRITEBACK = BusOp.WRITEBACK
OP_UNCACHED_READ = BusOp.UNCACHED_READ
OP_UNCACHED_WRITE = BusOp.UNCACHED_WRITE


class AgentKind(enum.Enum):
    """What sort of agent sits behind a bus port (affects Table-2 timing)."""

    __hash__ = object.__hash__

    PROCESSOR = "processor"
    NI_DEVICE = "ni"
    MEMORY = "memory"
    BRIDGE = "bridge"


AGENT_PROCESSOR = AgentKind.PROCESSOR
AGENT_NI_DEVICE = AgentKind.NI_DEVICE
AGENT_MEMORY = AgentKind.MEMORY


@dataclass(slots=True)
class BusTransaction:
    """A single bus transaction as seen by snoopers."""

    op: BusOp
    address: int
    size: int
    initiator: object
    initiator_kind: AgentKind
    issue_time: int = 0
    # Precomputed by the bus so each snooper doesn't redo address math:
    block_address: int = 0
    cachable: bool = False
    home: Optional[object] = None
    # Filled in during the snoop phase:
    supplier: Optional[object] = None
    supplier_kind: Optional[AgentKind] = None
    shared: bool = False
    data_from_memory: bool = False

    def describe(self) -> str:
        return f"{self.op.value}@0x{self.address:08x}[{self.size}]"


@dataclass(slots=True)
class SnoopResponse:
    """A snooper's answer to a bus transaction."""

    supplies_data: bool = False
    shared: bool = False


@dataclass(frozen=True)
class AddressRange:
    """A half-open [start, end) physical address range."""

    start: int
    end: int

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise ValueError(f"empty address range [{self.start:#x}, {self.end:#x})")

    def contains(self, address: int) -> bool:
        return self.start <= address < self.end

    @property
    def size(self) -> int:
        return self.end - self.start

    def overlaps(self, other: "AddressRange") -> bool:
        return self.start < other.end and other.start < self.end


@dataclass(slots=True)
class NetworkMessage:
    """A fixed-size network message (256 bytes on the wire, 12-byte header).

    ``payload_bytes`` is the number of user bytes carried (<= payload
    capacity).  ``body`` optionally carries functional data used by
    workloads (handler name, arguments); the simulator never inspects it.
    """

    source: int
    dest: int
    payload_bytes: int
    seq: int = 0
    body: Tuple = field(default_factory=tuple)
    send_time: int = 0
    inject_time: int = 0
    deliver_time: int = 0
    is_ack: bool = False
    #: Set by the fault-injection layer when the payload was corrupted in
    #: flight; the end-to-end reliability layer discards such messages.
    corrupted: bool = False
    #: End-to-end sequence number stamped by the reliable messaging layer
    #: (-1 when reliability is off or the message is a control frame).
    e2e_seq: int = -1
    #: Extra cycles the fabric holds the message back on arrival, set by the
    #: fault-injection layer for jitter and reordering (0: none).
    fault_delay: int = 0

    def __post_init__(self) -> None:
        if self.payload_bytes < 0:
            raise ValueError("payload_bytes must be non-negative")
