"""Direct-mapped snooping cache driven by a declarative protocol table.

The same class models both the 256 KB processor cache and the small device
caches inside coherent network interfaces; only the geometry and the agent
kind differ.  Caches track coherence state per block — the reproduction does
not model data contents, because functional message payloads travel through
the NI device queues as Python objects and only hit/miss behaviour and the
resulting bus traffic matter for the paper's results.

Every state transition — fills, silent store hits, upgrades, evictions and
snoop reactions — comes from the :class:`~repro.coherence.protocols.
ProtocolSpec` selected by ``MachineParams.protocol`` (the paper's MOESI by
default).  The table is compiled once per protocol into dispatch dicts, so
the hot paths cost the same as the previously hardwired MOESI logic.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.coherence.bus import NodeInterconnect
from repro.coherence.protocols import ProtocolSpec, protocol_spec
from repro.common.addrmap import AddressMap
from repro.common.params import CACHE_HIT_CYCLES, PROCESSOR_MISS_EXTRA_CYCLES, MachineParams
from repro.common.types import (
    AGENT_MEMORY,
    AGENT_PROCESSOR,
    BUS_MEMORY,
    OP_READ_EXCLUSIVE,
    OP_READ_SHARED,
    OP_UNCACHED_READ,
    OP_UNCACHED_WRITE,
    OP_UPGRADE,
    OP_WRITEBACK,
    STATE_INVALID,
    STATE_SHARED,
    AgentKind,
    BusKind,
    BusTransaction,
    CoherenceState,
    SnoopResponse,
)
from repro.sim import Counter, Simulator


class CacheError(RuntimeError):
    """Raised on cache protocol violations."""


class _BlockEntry:
    """One direct-mapped cache frame."""

    __slots__ = ("tag", "state")

    def __init__(self) -> None:
        self.tag: Optional[int] = None
        self.state = STATE_INVALID

    def matches(self, tag: int) -> bool:
        return self.tag == tag and self.state is not STATE_INVALID

    def tag_matches(self, tag: int) -> bool:
        """Tag match regardless of validity (used for data snarfing)."""
        return self.tag == tag


# ----------------------------------------------------------------------
# Protocol-table compilation
# ----------------------------------------------------------------------
def _compile_fill(rules) -> Callable[[BusTransaction], CoherenceState]:
    """Turn ordered (condition, state) fill rules into one closure."""
    if len(rules) == 1:  # validated: the last (here only) rule is "always"
        state = rules[0][1]
        return lambda txn: state

    def _memory_unshared(txn: BusTransaction) -> bool:
        return txn.supplier_kind is AGENT_MEMORY and not txn.shared

    def _unshared(txn: BusTransaction) -> bool:
        return not txn.shared

    conditions = {"memory_unshared": _memory_unshared, "unshared": _unshared}
    compiled = tuple(
        (None if condition == "always" else conditions[condition], state)
        for condition, state in rules
    )

    def fill(txn: BusTransaction) -> CoherenceState:
        for condition, state in compiled:
            if condition is None or condition(txn):
                return state
        raise CacheError("fill rules exhausted")  # unreachable: validated

    return fill


class _CompiledProtocol:
    """A :class:`ProtocolSpec` flattened into hot-path dispatch tables."""

    __slots__ = (
        "spec", "dirty", "writable", "write_hit_next", "read_fill",
        "upgrade_fill", "write_miss_fill", "write_miss_op", "snoop_table",
        "snarf_state",
    )

    def __init__(self, spec: ProtocolSpec):
        self.spec = spec
        self.dirty = frozenset(spec.dirty_states)
        self.writable = frozenset(spec.writable_states)
        self.write_hit_next = dict(spec.write_hit_next)
        self.read_fill = _compile_fill(spec.read_fill)
        self.upgrade_fill = _compile_fill(spec.write_upgrade_fill)
        self.write_miss_fill = _compile_fill(spec.write_miss_fill)
        self.write_miss_op = spec.write_miss_op
        #: (state, op) -> (next_state, response-or-None, forbidden, writes_back).
        #: Responses are shared immutable-by-convention instances; the bus
        #: only reads them, so one allocation per rule serves every snoop.
        self.snoop_table: Dict[tuple, tuple] = {}
        for key, rule in spec.snoop_rules.items():
            response = None
            if rule.supplies_data or rule.shared:
                response = SnoopResponse(rule.supplies_data, rule.shared)
            self.snoop_table[key] = (rule.next_state, response, rule.forbidden, rule.writes_back)
        self.snarf_state = STATE_SHARED if STATE_SHARED in spec.states else None


#: Compiled engines memoised per protocol name; a plugin name that is
#: unregistered and registered again names a different spec object and
#: recompiles.
_ENGINE_CACHE: Dict[str, Tuple[ProtocolSpec, _CompiledProtocol]] = {}  # repro: allow[MUTSTATE] memo keyed by protocol spec identity, machine-free


def _engine_for(name: str) -> _CompiledProtocol:
    spec = protocol_spec(name)
    cached = _ENGINE_CACHE.get(name)
    if cached is not None and cached[0] is spec:
        return cached[1]
    engine = _CompiledProtocol(spec)
    _ENGINE_CACHE[name] = (spec, engine)
    return engine


class CoherentCache:
    """A direct-mapped, write-allocate coherent cache attached to a node bus."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        interconnect: NodeInterconnect,
        params: MachineParams,
        addrmap: AddressMap,
        size_bytes: int,
        agent_kind: AgentKind = AgentKind.PROCESSOR,
        bus_kind: BusKind = BusKind.MEMORY,
        snarfing: bool = False,
    ):
        if size_bytes % params.cache_block_bytes != 0:
            raise CacheError("cache size must be a whole number of blocks")
        self.sim = sim
        self.name = name
        self.interconnect = interconnect
        self.params = params
        self.addrmap = addrmap
        self.agent_kind = agent_kind
        self.bus_kind = bus_kind
        self.snarfing = snarfing
        self.block_bytes = params.cache_block_bytes
        self.num_sets = size_bytes // self.block_bytes
        # Frames are allocated lazily on first touch: building a 2048-set
        # cache per node per experiment point is pure construction overhead
        # for the (common) runs that touch a fraction of the sets.
        self._sets: List[Optional[_BlockEntry]] = [None] * self.num_sets
        self.stats = Counter()
        # The active protocol table, compiled into dispatch dicts.
        engine = _engine_for(params.protocol)
        self.protocol: ProtocolSpec = engine.spec
        self._dirty = engine.dirty
        self._writable = engine.writable
        self._write_hit_next = engine.write_hit_next
        self._read_fill = engine.read_fill
        self._upgrade_fill = engine.upgrade_fill
        self._write_miss_fill = engine.write_miss_fill
        self._write_miss_op = engine.write_miss_op
        self._snoop_table = engine.snoop_table
        self._snarf_state = engine.snarf_state
        # What a miss costs beyond its bus occupancy: only a processor cache
        # sees the extra miss latency (device caches pipeline their accesses).
        self._miss_tail_cycles = CACHE_HIT_CYCLES + (
            PROCESSOR_MISS_EXTRA_CYCLES if self.agent_kind is AGENT_PROCESSOR else 0
        )
        self._counts = self.stats.raw
        #: Optional hook invoked (synchronously) after this cache snoops a
        #: transaction from another agent.  CNI devices use it to implement
        #: virtual polling.
        self.snoop_listener: Optional[Callable[[BusTransaction], None]] = None
        interconnect.attach(self)

    # ------------------------------------------------------------------
    # Geometry helpers
    # ------------------------------------------------------------------
    def _locate(self, block_addr: int) -> Tuple[int, int]:
        index = (block_addr // self.block_bytes) % self.num_sets
        tag = block_addr // (self.block_bytes * self.num_sets)
        return index, tag

    def _block_base(self, index: int, tag: int) -> int:
        return (tag * self.num_sets + index) * self.block_bytes

    def _entry(self, index: int) -> _BlockEntry:
        """The frame at ``index``, allocating it on first touch."""
        entry = self._sets[index]
        if entry is None:
            entry = self._sets[index] = _BlockEntry()
        return entry

    def probe_state(self, address: int) -> CoherenceState:
        """Current coherence state of the block containing ``address``."""
        block = self.addrmap.block_address(address)
        index, tag = self._locate(block)
        entry = self._sets[index]
        if entry is not None and entry.matches(tag):
            return entry.state
        return STATE_INVALID

    # ------------------------------------------------------------------
    # Home protocol (caches are never a home)
    # ------------------------------------------------------------------
    def is_home(self, address: int) -> bool:
        return False

    # ------------------------------------------------------------------
    # Processor-side operations (generators)
    # ------------------------------------------------------------------
    def read(self, address: int, size: int):
        """Read ``size`` bytes starting at ``address`` through the cache."""
        if not self.addrmap.is_cachable(address):
            raise CacheError(f"cached read of uncachable address {address:#x}")
        for block in self.addrmap.blocks_covering(address, size):
            yield from self.read_block(block)

    def write(self, address: int, size: int):
        """Write ``size`` bytes starting at ``address`` through the cache."""
        if not self.addrmap.is_cachable(address):
            raise CacheError(f"cached write of uncachable address {address:#x}")
        for block in self.addrmap.blocks_covering(address, size):
            yield from self.write_block(block)

    def read_block(self, block_addr: int):
        """Obtain a readable (S or better) copy of a single block."""
        block_bytes = self.block_bytes
        block_addr -= block_addr % block_bytes
        block_number = block_addr // block_bytes
        index = block_number % self.num_sets
        tag = block_number // self.num_sets
        entry = self._sets[index]
        if entry is None:
            entry = self._sets[index] = _BlockEntry()
        if entry.tag == tag and entry.state is not STATE_INVALID:
            self._counts["read_hits"] += 1
            yield CACHE_HIT_CYCLES
            return
        self._counts["read_misses"] += 1
        yield from self._evict_if_needed(entry, index)
        txn = yield from self.interconnect.transaction(
            self, OP_READ_SHARED, block_addr, block_bytes
        )
        entry.tag = tag
        entry.state = self._read_fill(txn)
        self._counts["state_transitions"] += 1
        yield self._miss_tail_cycles

    def write_block(self, block_addr: int):
        """Obtain write permission for a single block."""
        block_bytes = self.block_bytes
        block_addr -= block_addr % block_bytes
        block_number = block_addr // block_bytes
        index = block_number % self.num_sets
        tag = block_number // self.num_sets
        entry = self._sets[index]
        if entry is None:
            entry = self._sets[index] = _BlockEntry()
        if entry.tag == tag and entry.state is not STATE_INVALID:
            next_state = self._write_hit_next.get(entry.state)
            if next_state is not None:
                # Silent store hit (M stays M, MESI-style E->M, ...).
                self._counts["write_hits"] += 1
                if next_state is not entry.state:
                    entry.state = next_state
                    self._counts["state_transitions"] += 1
                yield CACHE_HIT_CYCLES
                return
            # Valid but not silently writable: upgrade (invalidate others).
            # The guard re-validates our copy at bus-grant time — if a
            # concurrent transaction invalidated it while we arbitrated, the
            # upgrade would claim ownership of data we no longer hold, so it
            # aborts and the write falls back to a full write miss.
            self._counts["write_upgrades"] += 1
            txn = yield from self.interconnect.transaction(
                self, OP_UPGRADE, block_addr, block_bytes,
                guard=lambda: entry.matches(tag),
            )
            if txn is not None:
                next_state = self._upgrade_fill(txn)
                if next_state is not entry.state:
                    entry.state = next_state
                    self._counts["state_transitions"] += 1
                yield CACHE_HIT_CYCLES
                return
            self._counts["upgrade_races"] += 1
        else:
            self._counts["write_misses"] += 1
        yield from self._evict_if_needed(entry, index)
        txn = yield from self.interconnect.transaction(
            self, self._write_miss_op, block_addr, block_bytes
        )
        entry.tag = tag
        entry.state = self._write_miss_fill(txn)
        self._counts["state_transitions"] += 1
        yield self._miss_tail_cycles

    def write_block_full(self, block_addr: int):
        """Obtain write permission for a block that will be written in full.

        Devices (and full-line store hardware) do not need the old contents
        of a block they are about to overwrite completely, so a miss costs
        only an address-phase invalidation rather than a data fetch.  This is
        how a CNI acquires write permission for queue blocks it is filling
        with an arriving message (paper Section 2.1/2.2).
        """
        block_addr = self.addrmap.block_address(block_addr)
        index, tag = self._locate(block_addr)
        entry = self._entry(index)
        if entry.matches(tag):
            if entry.state in self._writable:
                self._counts["write_hits"] += 1
                next_state = self._write_hit_next[entry.state]
                if next_state is not entry.state:
                    entry.state = next_state
                    self._counts["state_transitions"] += 1
                yield CACHE_HIT_CYCLES
                return
            self._counts["write_upgrades"] += 1
            txn = yield from self.interconnect.transaction(
                self, OP_UPGRADE, block_addr, self.block_bytes,
                guard=lambda: entry.matches(tag),
            )
            if txn is not None:
                next_state = self._upgrade_fill(txn)
                if next_state is not entry.state:
                    entry.state = next_state
                    self._counts["state_transitions"] += 1
                yield CACHE_HIT_CYCLES
                return
            self._counts["upgrade_races"] += 1
        else:
            self._counts["write_misses_full_block"] += 1
        yield from self._evict_if_needed(entry, index)
        txn = yield from self.interconnect.transaction(
            self, OP_UPGRADE, block_addr, self.block_bytes
        )
        entry.tag = tag
        entry.state = self._upgrade_fill(txn)
        self._counts["state_transitions"] += 1
        yield CACHE_HIT_CYCLES

    def flush_block(self, block_addr: int):
        """Write a dirty block back to its home and drop it (explicit flush)."""
        block_addr = self.addrmap.block_address(block_addr)
        index, tag = self._locate(block_addr)
        entry = self._sets[index]
        if entry is None or not entry.matches(tag):
            return
        if entry.state in self._dirty:
            txn = yield from self.interconnect.transaction(
                self, OP_WRITEBACK, block_addr, self.block_bytes,
                guard=lambda: entry.state in self._dirty,
            )
            if txn is not None:
                self._counts["explicit_flushes"] += 1
            else:
                # Invalidated while arbitrating: the data is no longer ours
                # to write back (the new owner carries it).
                self._counts["flush_races"] += 1
        if entry.state is not STATE_INVALID:
            entry.state = STATE_INVALID
            self._counts["state_transitions"] += 1

    def invalidate_block(self, block_addr: int) -> None:
        """Locally drop a block without any bus traffic (device-internal use)."""
        block_addr = self.addrmap.block_address(block_addr)
        index, tag = self._locate(block_addr)
        entry = self._sets[index]
        if entry is not None and entry.matches(tag):
            entry.state = STATE_INVALID
            self._counts["state_transitions"] += 1

    def _evict_if_needed(self, entry: _BlockEntry, index: int):
        if entry.state is STATE_INVALID or entry.tag is None:
            # Clear any stale tag before the frame is refilled.  An
            # invalidated frame keeps its tag so data snarfing can
            # resurrect the block — but once a miss starts repurposing the
            # frame, a snarf during the refill's bus wait would claim a
            # block this cache is about to overwrite (a stale hit reported
            # to the requester).  See tests/test_protocols.py.
            entry.tag = None
            return
        victim_addr = self._block_base(index, entry.tag)
        if entry.state in self._dirty:
            # Guarded like the explicit flush: if a snooped invalidation
            # takes the block while we wait for the bus, the new owner holds
            # the only dirty copy and our writeback must not happen (it
            # would look like two dirty owners to the new owner's snooper).
            txn = yield from self.interconnect.transaction(
                self, OP_WRITEBACK, victim_addr, self.block_bytes,
                guard=lambda: entry.state in self._dirty,
            )
            if txn is not None:
                self._counts["writebacks"] += 1
            else:
                self._counts["writeback_races"] += 1
        else:
            self._counts["clean_evictions"] += 1
        if entry.state is not STATE_INVALID:
            entry.state = STATE_INVALID
            self._counts["state_transitions"] += 1
        entry.tag = None

    # ------------------------------------------------------------------
    # Snooping
    # ------------------------------------------------------------------
    def snoop(self, txn: BusTransaction) -> Optional[SnoopResponse]:
        """Observe another agent's transaction.

        Returns ``None`` (which the bus treats exactly like an all-default
        :class:`SnoopResponse`) whenever this cache neither supplies data
        nor reports the block shared, so the common miss path allocates
        nothing.  The reaction itself is a table lookup on the active
        protocol's ``(state, op)`` snoop rules.
        """
        op = txn.op
        if op is OP_UNCACHED_READ or op is OP_UNCACHED_WRITE:
            return None
        if not txn.cachable:
            return None
        block_number = txn.block_address // self.block_bytes
        index = block_number % self.num_sets
        tag = block_number // self.num_sets
        entry = self._sets[index]
        response = None

        if entry is None or entry.tag != tag or entry.state is STATE_INVALID:
            # Data snarfing (paper Section 5.1.2): pick up data flying by on
            # the bus when an *invalid* frame still carries the matching
            # tag.  The invalid-state check is explicit — a bare tag match
            # would also cover valid frames, which never reach this branch
            # but would make the guard silently wrong if the enclosing
            # condition ever changed.
            if (
                self.snarfing
                and entry is not None
                and entry.state is STATE_INVALID
                and entry.tag == tag
                and self._snarf_state is not None
                and (op is OP_WRITEBACK or op is OP_READ_SHARED)
            ):
                entry.state = self._snarf_state
                self._counts["snarfed_blocks"] += 1
                self._counts["state_transitions"] += 1
                response = SnoopResponse(shared=True)
        else:
            action = self._snoop_table.get((entry.state, op))
            if action is not None:
                next_state, response, forbidden, writes_back = action
                if forbidden is not None:
                    raise CacheError(f"{self.name}: {forbidden} ({txn.describe()})")
                counts = self._counts
                if next_state is not entry.state:
                    entry.state = next_state
                    counts["state_transitions"] += 1
                    counts["snoop_transitions"] += 1
                    if next_state is STATE_INVALID:
                        counts["snoop_invalidations"] += 1
                if writes_back:
                    counts["snoop_writebacks"] += 1
        listener = self.snoop_listener
        if listener is not None:
            listener(txn)
        return response

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def hit_rate(self) -> float:
        hits = self.stats.get("read_hits") + self.stats.get("write_hits")
        misses = self.stats.get("read_misses") + self.stats.get("write_misses")
        total = hits + misses
        return hits / total if total else 0.0

    def __repr__(self) -> str:
        return (
            f"<CoherentCache {self.name} {self.num_sets} blocks "
            f"({self.protocol.name}) on {self.bus_kind}>"
        )


class MainMemory:
    """Main-memory home agent for the DRAM address range.

    Memory never initiates transactions; it supplies data when no cache owns
    a block and absorbs writebacks.  It can also be configured as the home
    for additional address ranges (the CNI16Qm queue pages are ordinary
    pinned DRAM pages, so they fall in the DRAM range already).
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        interconnect: NodeInterconnect,
        params: MachineParams,
        addrmap: AddressMap,
    ):
        self.sim = sim
        self.name = name
        self.params = params
        self.addrmap = addrmap
        self.agent_kind = AGENT_MEMORY
        self.bus_kind = BUS_MEMORY
        self.stats = Counter()
        self._counts = self.stats.raw
        interconnect.attach(self)

    def is_home(self, address: int) -> bool:
        return self.addrmap.is_dram(address)

    def snoop(self, txn: BusTransaction) -> Optional[SnoopResponse]:
        if txn.home is self:  # equivalent to is_home(), without the range checks
            op = txn.op
            if op is OP_WRITEBACK:
                self._counts["writebacks_accepted"] += 1
            elif op is OP_READ_SHARED or op is OP_READ_EXCLUSIVE:
                self._counts["reads_observed"] += 1
        return None  # memory never supplies ahead of a cache, never shares

    def __repr__(self) -> str:
        return f"<MainMemory {self.name}>"
