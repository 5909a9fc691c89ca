"""Snooping bus interconnect for one node.

A node has a coherent memory bus and, optionally, a coherent I/O bus behind
an I/O bridge (paper Section 4.1).  Both buses support a single outstanding
transaction.  Table-2 occupancies for the I/O bus already include the
corresponding memory-bus occupancy, so a transaction that involves an
I/O-bus agent holds *both* buses for the I/O occupancy period.

The I/O bridge behaviour follows the paper: when transactions are initiated
simultaneously on the two buses, the I/O-side transaction is NACKed and
retried (with the retry guaranteed to make progress).  We model the NACK as
an explicit backoff penalty plus a deadlock-free ordered re-acquisition of
the two buses.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

from repro.common.addrmap import AddressMap
from repro.common.params import MachineParams, occupancy as table2_occupancy
from repro.common.types import (
    AGENT_MEMORY,
    AGENT_PROCESSOR,
    BUS_CACHE,
    BUS_IO,
    BUS_MEMORY,
    OP_READ_EXCLUSIVE,
    OP_READ_SHARED,
    OP_UNCACHED_READ,
    OP_UNCACHED_WRITE,
    BusKind,
    BusOp,
    BusTransaction,
)
from repro.sim import Counter, Resource, Simulator

#: Cycles an I/O-side initiator waits after being NACKed by the bridge.
NACK_BACKOFF_CYCLES = 20

#: Per-op / per-bus stat keys, precomputed once instead of formatted on
#: every transaction (the bus transaction path is the simulator's hottest).
_TXN_OP_KEY = {op: f"txn_{op.value}" for op in BusOp}  # repro: allow[MUTSTATE] constant per-op stat-key table, built once at import
_TXN_BUS_KEY = {bus: f"txn_on_{bus.value}" for bus in BusKind}  # repro: allow[MUTSTATE] constant per-bus stat-key table, built once at import


class BusError(RuntimeError):
    """Raised for protocol violations on the bus."""


class NodeInterconnect:
    """The coherent buses of a single node plus the snooping agent set."""

    def __init__(
        self,
        sim: Simulator,
        params: MachineParams,
        addrmap: AddressMap,
        name: str = "node",
        with_io_bus: bool = False,
        with_cache_bus: bool = False,
    ):
        self.sim = sim
        self.params = params
        self.addrmap = addrmap
        self.name = name
        self.membus = Resource(sim, name=f"{name}.membus")
        self.iobus: Optional[Resource] = (
            Resource(sim, name=f"{name}.iobus") if with_io_bus else None
        )
        self.cachebus: Optional[Resource] = (
            Resource(sim, name=f"{name}.cachebus") if with_cache_bus else None
        )
        self._agents: List[object] = []
        #: Memoised per-initiator snooper lists (everyone but the initiator),
        #: keyed by id(initiator); cleared on attach/detach.
        self._snoopers_cache: dict = {}
        #: Memoised address -> (home agent, block address, cachable) lookups
        #: (cleared on attach/detach).
        self._addr_cache: dict = {}
        #: Memoised Table-2 occupancy lookups, keyed by
        #: (op, timing bus, initiator kind, supplier kind, data_from_memory).
        self._occupancy_cache: dict = {}
        # Preallocated (timing_bus, resources) pairs: the resource lists are
        # only ever iterated by transaction(), never mutated, so every
        # transaction can share them instead of allocating its own.
        self._mem_buses = (BUS_MEMORY, [self.membus])
        self._io_buses = (
            (BUS_IO, [self.membus, self.iobus]) if self.iobus is not None else None
        )
        self._cache_buses = (
            (BUS_CACHE, [self.cachebus]) if self.cachebus is not None else None
        )
        # Home-node directory, when the active protocol asks for one.  The
        # default protocol short-circuits so the common path never imports
        # the protocol kit from here.
        self.directory = None
        self._dir_lookup_cycles = 0
        if params.protocol != "moesi":
            from repro.coherence.protocols import protocol_spec

            if protocol_spec(params.protocol).directory:
                from repro.coherence.directory import HomeDirectory

                self.directory = HomeDirectory()
                self._dir_lookup_cycles = params.directory_lookup_cycles
        self.stats = Counter()
        self._counts = self.stats.raw

    # ------------------------------------------------------------------
    # Agent registration
    # ------------------------------------------------------------------
    def attach(self, agent: object) -> None:
        """Attach a snooping agent (cache, memory controller or NI device).

        Agents must expose ``name``, ``agent_kind``, ``bus_kind``,
        ``snoop(txn) -> SnoopResponse`` and ``is_home(address) -> bool``.
        """
        for attr in ("agent_kind", "bus_kind", "snoop", "is_home"):
            if not hasattr(agent, attr):
                raise BusError(f"agent {agent!r} lacks required attribute {attr!r}")
        self._agents.append(agent)
        self._addr_cache.clear()
        self._snoopers_cache.clear()

    def detach(self, agent: object) -> None:
        self._agents.remove(agent)
        self._addr_cache.clear()
        self._snoopers_cache.clear()

    @property
    def agents(self) -> Iterable[object]:
        return tuple(self._agents)

    def home_agent(self, address: int) -> object:
        return self._addr_info(address)[0]

    def _addr_info(self, address: int) -> tuple:
        """(home agent, block address, cachable) for ``address``, memoised."""
        info = self._addr_cache.get(address)
        if info is not None:
            return info
        addrmap = self.addrmap
        for agent in self._agents:
            if agent.is_home(address):
                block_address = address - (address % addrmap.block_bytes)
                info = (agent, block_address, addrmap.is_cachable(block_address))
                self._addr_cache[address] = info
                return info
        raise BusError(f"no home agent for address {address:#x} on {self.name}")

    # ------------------------------------------------------------------
    # Bus selection
    # ------------------------------------------------------------------
    def _buses_for(self, txn: BusTransaction, home: object) -> tuple:
        """Return (bus_kind_for_timing, resources_to_hold)."""
        initiator_bus = getattr(txn.initiator, "bus_kind", BUS_MEMORY)
        home_bus = home.bus_kind
        if initiator_bus is BUS_CACHE or home_bus is BUS_CACHE:
            # NI on the dedicated cache bus: private fast path between the
            # processor and the NI that does not occupy the memory bus.
            if self._cache_buses is None:
                # An empty resource list here would let cache-bus
                # transactions run with no mutual exclusion at all.
                raise BusError(f"{self.name} has no cache bus but agent requires one")
            return self._cache_buses
        if initiator_bus is BUS_IO or home_bus is BUS_IO:
            if self._io_buses is None:
                raise BusError(f"{self.name} has no I/O bus but agent requires one")
            return self._io_buses
        return self._mem_buses

    # ------------------------------------------------------------------
    # Transactions
    # ------------------------------------------------------------------
    def transaction(
        self,
        initiator: object,
        op: BusOp,
        address: int,
        size: int,
        guard=None,
    ):
        """Perform one bus transaction.  Generator; returns the transaction.

        The snoop phase runs while the bus is held; every attached agent
        other than the initiator gets to observe (and update its state for)
        the transaction.  The data supplier and resulting occupancy are
        resolved from the snoop responses and the paper's Table 2.  Under a
        directory protocol the broadcast is replaced by a lookup of the
        block's recorded owner/sharers (plus its home).

        ``guard``, if given, is re-evaluated once the buses are held but
        before anything is snooped.  If it returns falsy the transaction
        aborts — buses are released, no agent observes anything, and the
        generator returns ``None`` instead of the transaction.  Caches use
        this to make decide-then-arbitrate sequences (writeback of a dirty
        victim, an upgrade from a valid copy) atomic: a concurrent
        transaction can invalidate the premise during the bus wait, and the
        stale request must then not appear on the bus at all.
        """
        info = self._addr_cache.get(address)
        if info is None:
            info = self._addr_info(address)
        home, block_address, cachable = info
        # Positional construction: this runs for every bus transaction.
        txn = BusTransaction(
            op,
            address,
            size,
            initiator,
            getattr(initiator, "agent_kind", AGENT_PROCESSOR),
            self.sim.now,
            block_address,
            cachable,
            home,
        )
        initiator_bus = getattr(initiator, "bus_kind", BUS_MEMORY)
        if initiator_bus is BUS_MEMORY and home.bus_kind is BUS_MEMORY:
            timing_bus, resources = self._mem_buses
        else:
            timing_bus, resources = self._buses_for(txn, home)

        # ``held`` records exactly what has been acquired so far; the
        # ``finally`` below releases that set and nothing else, so an
        # exception at any yield point (NACK backoff, a bus wait, the snoop
        # phase) can neither leak a bus nor release one we never owned.
        held = []
        counts = self._counts
        try:
            # --- Arbitration ---------------------------------------------
            io_side_initiator = initiator_bus is BUS_IO
            if io_side_initiator and self.membus in resources:
                # The I/O bridge NACKs the I/O-side transaction if the memory
                # bus is busy at the moment the transaction is initiated.
                if self.membus.try_acquire_now():
                    held.append(self.membus)
                else:
                    counts["bridge_nacks"] += 1
                    yield NACK_BACKOFF_CYCLES
                    yield self.membus
                    held.append(self.membus)
                # Memory bus is now held; take the I/O bus in order.
                if self.iobus is not None and self.iobus in resources:
                    yield self.iobus
                    held.append(self.iobus)
            else:
                for resource in resources:
                    if resource is None:
                        continue
                    yield resource
                    held.append(resource)

            # --- Guard ----------------------------------------------------
            if guard is not None and not guard():
                counts["txn_aborted"] += 1
                return None

            # --- Snoop phase ----------------------------------------------
            if op is OP_UNCACHED_READ or op is OP_UNCACHED_WRITE:
                # Uncached register accesses terminate at the home device:
                # caches and memory ignore them without any state change, so
                # only the home's snoop hook can have an effect.
                if home is not initiator:
                    home.snoop(txn)
                txn.supplier = home
                txn.supplier_kind = home.agent_kind
            else:
                directory = self.directory
                if directory is not None and cachable:
                    snoopers = directory.holders(txn, home)
                    counts["dir_lookups"] += 1
                    counts["dir_agents_consulted"] += len(snoopers)
                else:
                    snoopers = self._snoopers_cache.get(id(initiator))
                    if snoopers is None:
                        snoopers = [agent for agent in self._agents if agent is not initiator]
                        if len(snoopers) != len(self._agents):
                            # Attached initiators are kept alive by _agents,
                            # so their id() cannot be recycled while cached.
                            # An unattached initiator gets no cache entry.
                            self._snoopers_cache[id(initiator)] = snoopers
                for agent in snoopers:
                    response = agent.snoop(txn)
                    if response is None:
                        continue
                    if response.supplies_data and txn.supplier is None:
                        txn.supplier = agent
                        txn.supplier_kind = agent.agent_kind
                    if response.shared:
                        txn.shared = True
                if txn.supplier is None and (
                    op is OP_READ_SHARED or op is OP_READ_EXCLUSIVE
                ):
                    txn.supplier = home
                    txn.supplier_kind = home.agent_kind
                    txn.data_from_memory = home.agent_kind is AGENT_MEMORY
                if directory is not None and cachable:
                    directory.record(txn)

            # --- Occupancy ------------------------------------------------
            occ_key = (op, timing_bus, txn.initiator_kind, txn.supplier_kind, txn.data_from_memory)
            occupancy = self._occupancy_cache.get(occ_key)
            if occupancy is None:
                occupancy = table2_occupancy(
                    op,
                    timing_bus,
                    txn.initiator_kind,
                    txn.supplier_kind,
                    data_from_memory=txn.data_from_memory,
                )
                if self.directory is not None and cachable:
                    # The home consults its owner/sharer state before the
                    # data phase; the occupancy cache is per-interconnect,
                    # so folding the penalty into the memoised value is safe.
                    occupancy += self._dir_lookup_cycles
                self._occupancy_cache[occ_key] = occupancy
            counts[_TXN_OP_KEY[op]] += 1
            counts[_TXN_BUS_KEY[timing_bus]] += 1
            counts["txn_total"] += 1
            counts["occupancy_cycles"] += occupancy
            if self.membus in held:
                counts["membus_occupancy_cycles"] += occupancy
            if self.iobus is not None and self.iobus in held:
                counts["iobus_occupancy_cycles"] += occupancy
            yield occupancy
        finally:
            while held:  # release in reverse acquisition order
                held.pop().release()
        return txn

    # ------------------------------------------------------------------
    # Reporting helpers
    # ------------------------------------------------------------------
    def memory_bus_occupancy(self) -> int:
        """Total cycles of memory-bus occupancy accumulated so far."""
        return self.stats.get("membus_occupancy_cycles")

    def io_bus_occupancy(self) -> int:
        return self.stats.get("iobus_occupancy_cycles")
