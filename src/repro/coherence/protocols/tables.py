"""The shipped protocol tables: MOESI, MESI, MSI, Illinois and dir-msi.

The MOESI table transcribes the transitions that were hardwired into
:class:`~repro.coherence.cache.CoherentCache` before the protocol kit
existed; ``tests/test_device_golden.py`` pins it bit-identical to that
implementation.  The other snooping tables are the classic write-invalidate
family from Sweazey & Smith / Papamarcos & Patel, and ``dir-msi`` is the
MSI table flagged for home-node directory filtering (the interconnect
consults the recorded owner/sharer set instead of broadcasting).
"""

from __future__ import annotations

from repro.coherence.protocols.registry import _PROTOCOLS, register_protocol
from repro.coherence.protocols.spec import ProtocolSpec, SnoopRule, Unsafe
from repro.common.types import BusOp, CoherenceState

I = CoherenceState.INVALID
S = CoherenceState.SHARED
E = CoherenceState.EXCLUSIVE
O = CoherenceState.OWNED  # noqa: E741 - the canonical MOESI letter
M = CoherenceState.MODIFIED

RS = BusOp.READ_SHARED
RE = BusOp.READ_EXCLUSIVE
UP = BusOp.UPGRADE
WB = BusOp.WRITEBACK

_TWO_DIRTY = "snooped writeback of a block we own dirty"


def _invalidate_on_writes(*states):
    """READ_EXCLUSIVE / UPGRADE reactions shared by the invalidate-based
    tables: every valid copy drops to INVALID; dirty states supply the data
    on a READ_EXCLUSIVE (the requester needs it), upgrades carry no data."""
    rules = {}
    for state in states:
        dirty = state in (M, O)
        rules[(state, RE)] = SnoopRule(I, supplies_data=dirty)
        rules[(state, UP)] = SnoopRule(I)
    return rules


MOESI = register_protocol(ProtocolSpec(
    name="moesi",
    description="five-state write-invalidate with dirty sharing (paper baseline)",
    states=(I, S, E, O, M),
    dirty_states=frozenset({M, O}),
    writable_states=frozenset({M, E}),
    read_fill=(("memory_unshared", E), ("always", S)),
    write_hit_next={M: M, E: M},
    snoop_rules={
        # A snooped read demotes M to O (dirty sharing: memory stays stale,
        # we keep supplying), E to S; dirty holders supply the data.
        (M, RS): SnoopRule(O, supplies_data=True, shared=True),
        (O, RS): SnoopRule(O, supplies_data=True, shared=True),
        (E, RS): SnoopRule(S, supplies_data=True, shared=True),
        (S, RS): SnoopRule(S, shared=True),
        **_invalidate_on_writes(M, O, E, S),
        (M, WB): SnoopRule(M, forbidden=_TWO_DIRTY),
        (O, WB): SnoopRule(O, forbidden=_TWO_DIRTY),
    },
    unsafe=(
        Unsafe("two modified owners", "M >= 2"),
        Unsafe("two dirty-sharing owners", "O >= 2"),
        Unsafe("modified beside other copies", "M >= 1 and S + E + O >= 1"),
    ),
))


MESI = register_protocol(ProtocolSpec(
    name="mesi",
    description="four-state write-invalidate; dirty data reflects to memory on sharing",
    states=(I, S, E, M),
    dirty_states=frozenset({M}),
    writable_states=frozenset({M, E}),
    read_fill=(("memory_unshared", E), ("always", S)),
    write_hit_next={M: M, E: M},
    snoop_rules={
        # No OWNED state: a snooped read of our M copy writes the data back
        # to memory as it supplies it, and everyone ends up SHARED clean.
        (M, RS): SnoopRule(S, supplies_data=True, shared=True, writes_back=True),
        (E, RS): SnoopRule(S, supplies_data=True, shared=True),
        (S, RS): SnoopRule(S, shared=True),
        **_invalidate_on_writes(M, E, S),
        (M, WB): SnoopRule(M, forbidden=_TWO_DIRTY),
    },
    unsafe=(
        Unsafe("two modified owners", "M >= 2"),
        Unsafe("modified beside other copies", "M >= 1 and S + E >= 1"),
    ),
))


MSI = register_protocol(ProtocolSpec(
    name="msi",
    description="three-state write-invalidate; every fill is SHARED",
    states=(I, S, M),
    dirty_states=frozenset({M}),
    writable_states=frozenset({M}),
    read_fill=(("always", S),),
    write_hit_next={M: M},
    snoop_rules={
        (M, RS): SnoopRule(S, supplies_data=True, shared=True, writes_back=True),
        (S, RS): SnoopRule(S, shared=True),
        **_invalidate_on_writes(M, S),
        (M, WB): SnoopRule(M, forbidden=_TWO_DIRTY),
    },
    unsafe=(
        Unsafe("two modified owners", "M >= 2"),
        Unsafe("modified beside shared copies", "M >= 1 and S >= 1"),
    ),
))


ILLINOIS = register_protocol(ProtocolSpec(
    name="illinois",
    description="MESI variant: cache-to-cache supply from clean copies, "
                "exclusive fill whenever no snooper asserts shared",
    states=(I, S, E, M),
    dirty_states=frozenset({M}),
    writable_states=frozenset({M, E}),
    # Illinois decides E vs S purely from the shared line: data may come
    # cache-to-cache and the fill is still EXCLUSIVE if nobody shares.
    read_fill=(("unshared", E), ("always", S)),
    write_hit_next={M: M, E: M},
    snoop_rules={
        (M, RS): SnoopRule(S, supplies_data=True, shared=True, writes_back=True),
        (E, RS): SnoopRule(S, supplies_data=True, shared=True),
        # The distinguishing Illinois feature: clean SHARED copies also
        # supply (one responder wins arbitration on the real bus).
        (S, RS): SnoopRule(S, supplies_data=True, shared=True),
        **_invalidate_on_writes(M, E, S),
        (M, WB): SnoopRule(M, forbidden=_TWO_DIRTY),
    },
    unsafe=(
        Unsafe("two modified owners", "M >= 2"),
        Unsafe("modified beside other copies", "M >= 1 and S + E >= 1"),
    ),
))


DIR_MSI = register_protocol(ProtocolSpec(
    name="dir-msi",
    description="MSI with a home-node directory: owner/sharer lookups "
                "replace broadcast snoops",
    states=(I, S, M),
    dirty_states=frozenset({M}),
    writable_states=frozenset({M}),
    read_fill=(("always", S),),
    write_hit_next={M: M},
    snoop_rules={
        (M, RS): SnoopRule(S, supplies_data=True, shared=True, writes_back=True),
        (S, RS): SnoopRule(S, shared=True),
        **_invalidate_on_writes(M, S),
        (M, WB): SnoopRule(M, forbidden=_TWO_DIRTY),
    },
    directory=True,
    unsafe=(
        Unsafe("two modified owners", "M >= 2"),
        Unsafe("modified beside shared copies", "M >= 1 and S >= 1"),
    ),
))

_PROTOCOLS.seal()
