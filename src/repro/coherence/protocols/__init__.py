"""Pluggable coherence-protocol kit: declarative rule tables + registry.

``CoherentCache`` drives every state transition from the active
:class:`ProtocolSpec` (selected by ``MachineParams.protocol``), and
:mod:`repro.coherence.modelcheck` exhaustively verifies the same tables'
safety invariants.  See the README's "Coherence protocols" section for the
rule-table grammar and the plugin how-to.
"""

from repro.coherence.protocols.registry import (
    available_protocols,
    protocol_spec,
    register_protocol,
    unregister_protocol,
)
from repro.coherence.protocols.spec import (
    FILL_CONDITIONS,
    ProtocolError,
    ProtocolSpec,
    SnoopRule,
    Unsafe,
)

# Importing the tables module registers and seals the built-in protocols.
from repro.coherence.protocols import tables as _tables  # noqa: F401  (registration side effect)

__all__ = [
    "FILL_CONDITIONS",
    "ProtocolError",
    "ProtocolSpec",
    "SnoopRule",
    "Unsafe",
    "available_protocols",
    "protocol_spec",
    "register_protocol",
    "unregister_protocol",
]
