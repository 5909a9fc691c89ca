"""Snooping/directory coherence substrate: buses, caches, main memory.

The protocol state machine itself lives in declarative rule tables
(:mod:`repro.coherence.protocols`); :mod:`repro.coherence.modelcheck`
exhaustively proves every registered table's safety invariants.
"""

from repro.coherence.bus import BusError, NodeInterconnect, NACK_BACKOFF_CYCLES
from repro.coherence.cache import CacheError, CoherentCache, MainMemory
from repro.coherence.directory import HomeDirectory
from repro.coherence.protocols import (
    ProtocolError,
    ProtocolSpec,
    SnoopRule,
    Unsafe,
    available_protocols,
    protocol_spec,
    register_protocol,
    unregister_protocol,
)

__all__ = [
    "NodeInterconnect",
    "BusError",
    "NACK_BACKOFF_CYCLES",
    "CoherentCache",
    "CacheError",
    "MainMemory",
    "HomeDirectory",
    "ProtocolError",
    "ProtocolSpec",
    "SnoopRule",
    "Unsafe",
    "available_protocols",
    "protocol_spec",
    "register_protocol",
    "unregister_protocol",
]
