"""Home-node directory for directory-filtered coherence protocols.

Under a snooping protocol every attached agent observes every coherent
transaction.  A directory protocol (``ProtocolSpec.directory=True``, e.g.
``dir-msi``) instead keeps, per block, the recorded *owner* (last agent to
take the block exclusively) and *sharer set* (agents that filled it
shared), and the interconnect consults only those agents plus the block's
home.  This trades a ``directory_lookup_cycles`` occupancy penalty per
transaction for snoop traffic that no longer scales with the number of
attached agents.

The directory is deliberately conservative and self-healing:

* Silent local drops (clean evictions, ``invalidate_block``) leave stale
  entries behind; they are pruned lazily the next time the block is looked
  up, by probing the recorded agent's actual state.  Consulting a stale
  holder would be harmless (its snoop finds nothing), so pruning is an
  optimisation, not a correctness requirement.
* The home agent is always consulted — it never caches, its ``snoop`` only
  keeps statistics (memory) or is a no-op (device home agents), and this
  keeps memory-side counters identical to the broadcast protocols.

Directory tables are restricted by :meth:`ProtocolSpec.validate` to
MSI-shaped fills, so the requester's new membership is implied by the bus
op alone: READ_SHARED adds a sharer, READ_EXCLUSIVE/UPGRADE installs an
owner, WRITEBACK removes the writer.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.common.types import (
    OP_READ_EXCLUSIVE,
    OP_READ_SHARED,
    OP_UPGRADE,
    OP_WRITEBACK,
    STATE_INVALID,
    BusTransaction,
)


class _DirEntry:
    __slots__ = ("owner", "sharers")

    def __init__(self) -> None:
        self.owner: Optional[object] = None
        self.sharers: Set[object] = set()


class HomeDirectory:
    """Per-interconnect owner/sharer bookkeeping for directory protocols."""

    def __init__(self) -> None:
        self._entries: Dict[int, _DirEntry] = {}

    # ------------------------------------------------------------------
    # Lookup (before the snoop phase)
    # ------------------------------------------------------------------
    def holders(self, txn: BusTransaction, home: object) -> List[object]:
        """The agents to consult for ``txn``: live recorded holders + home.

        Recorded holders whose cache no longer has the block (silent clean
        eviction or a device-internal invalidate) are pruned here instead
        of being consulted.
        """
        consulted: List[object] = []
        entry = self._entries.get(txn.block_address)
        if entry is not None:
            initiator = txn.initiator
            owner = entry.owner
            if owner is not None:
                if _stale(owner, txn.block_address):
                    entry.owner = None
                elif owner is not initiator:
                    consulted.append(owner)
            if entry.sharers:
                stale = None
                for agent in entry.sharers:
                    if _stale(agent, txn.block_address):
                        if stale is None:
                            stale = []
                        stale.append(agent)
                    elif agent is not initiator and agent is not entry.owner:
                        consulted.append(agent)
                if stale:
                    entry.sharers.difference_update(stale)
        if home is not txn.initiator:
            consulted.append(home)
        return consulted

    # ------------------------------------------------------------------
    # Record (after the snoop phase)
    # ------------------------------------------------------------------
    def record(self, txn: BusTransaction) -> None:
        """Fold one completed transaction into the owner/sharer state."""
        op = txn.op
        entry = self._entries.get(txn.block_address)
        if entry is None:
            entry = self._entries[txn.block_address] = _DirEntry()
        initiator = txn.initiator
        if op is OP_READ_SHARED:
            # A consulted owner demoted itself to SHARED (and reflected its
            # dirty data home); it is a plain sharer now, as is the requester.
            if entry.owner is not None:
                entry.sharers.add(entry.owner)
                entry.owner = None
            entry.sharers.add(initiator)
        elif op is OP_READ_EXCLUSIVE or op is OP_UPGRADE:
            # Every consulted holder invalidated itself.
            entry.sharers.clear()
            entry.owner = initiator
        elif op is OP_WRITEBACK:
            if entry.owner is initiator:
                entry.owner = None
            entry.sharers.discard(initiator)

    # ------------------------------------------------------------------
    # Introspection (tests)
    # ------------------------------------------------------------------
    def entry(self, block_address: int):
        """(owner, frozenset of sharers) recorded for a block, or None."""
        entry = self._entries.get(block_address)
        if entry is None:
            return None
        return entry.owner, frozenset(entry.sharers)

    def __len__(self) -> int:
        return len(self._entries)


def _stale(agent: object, block_address: int) -> bool:
    probe = getattr(agent, "probe_state", None)
    if probe is None:
        return False
    return probe(block_address) is STATE_INVALID
