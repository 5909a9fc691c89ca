"""Tests for the MOESI snooping caches, bus and main memory."""

import pytest

from repro.coherence.bus import BusError, NodeInterconnect
from repro.coherence.cache import CacheError, CoherentCache, MainMemory
from repro.common.addrmap import AddressMap
from repro.common.params import CACHE_HIT_CYCLES, DEFAULT_PARAMS
from repro.common.types import AgentKind, BusKind, BusOp, CoherenceState
from repro.sim import Simulator, start_process


def make_system(num_caches=2, snarfing=False, with_io_bus=False, cache_blocks=64):
    """A small single-node coherence system with N processor-style caches."""
    sim = Simulator()
    params = DEFAULT_PARAMS
    addrmap = AddressMap.for_params(params)
    interconnect = NodeInterconnect(sim, params, addrmap, name="test", with_io_bus=with_io_bus)
    memory = MainMemory(sim, "mem", interconnect, params, addrmap)
    caches = [
        CoherentCache(
            sim,
            f"cache{i}",
            interconnect,
            params,
            addrmap,
            size_bytes=cache_blocks * params.cache_block_bytes,
            agent_kind=AgentKind.PROCESSOR,
            bus_kind=BusKind.MEMORY,
            snarfing=snarfing,
        )
        for i in range(num_caches)
    ]
    return sim, interconnect, memory, caches


def run(sim, gen):
    """Run a generator to completion and return its result."""
    process = start_process(sim, gen)
    sim.run()
    assert process.finished, "generator did not finish"
    if process.exception:
        raise process.exception
    return process.result


ADDR = 0x0010_0000  # a DRAM block address


class TestBasicStates:
    def test_cold_read_from_memory_gives_exclusive(self):
        sim, _, _, (c0, c1) = make_system()
        run(sim, c0.read_block(ADDR))
        assert c0.probe_state(ADDR) is CoherenceState.EXCLUSIVE

    def test_second_reader_gets_shared_and_downgrades_first(self):
        sim, _, _, (c0, c1) = make_system()
        run(sim, c0.read_block(ADDR))
        run(sim, c1.read_block(ADDR))
        assert c1.probe_state(ADDR) is CoherenceState.SHARED
        assert c0.probe_state(ADDR) is CoherenceState.SHARED

    def test_write_miss_gives_modified(self):
        sim, _, _, (c0, c1) = make_system()
        run(sim, c0.write_block(ADDR))
        assert c0.probe_state(ADDR) is CoherenceState.MODIFIED

    def test_write_to_exclusive_is_silent_upgrade(self):
        sim, ic, _, (c0, c1) = make_system()
        run(sim, c0.read_block(ADDR))
        before = ic.stats.get("txn_total")
        run(sim, c0.write_block(ADDR))
        assert c0.probe_state(ADDR) is CoherenceState.MODIFIED
        assert ic.stats.get("txn_total") == before  # no bus transaction needed

    def test_write_to_shared_issues_upgrade(self):
        sim, ic, _, (c0, c1) = make_system()
        run(sim, c0.read_block(ADDR))
        run(sim, c1.read_block(ADDR))
        run(sim, c0.write_block(ADDR))
        assert c0.probe_state(ADDR) is CoherenceState.MODIFIED
        assert c1.probe_state(ADDR) is CoherenceState.INVALID
        assert ic.stats.get("txn_upgrade") == 1

    def test_read_of_modified_block_supplies_and_owns(self):
        sim, _, _, (c0, c1) = make_system()
        run(sim, c0.write_block(ADDR))
        run(sim, c1.read_block(ADDR))
        assert c0.probe_state(ADDR) is CoherenceState.OWNED
        assert c1.probe_state(ADDR) is CoherenceState.SHARED

    def test_read_exclusive_invalidates_other_copies(self):
        sim, _, _, (c0, c1) = make_system()
        run(sim, c0.write_block(ADDR))
        run(sim, c1.write_block(ADDR))
        assert c1.probe_state(ADDR) is CoherenceState.MODIFIED
        assert c0.probe_state(ADDR) is CoherenceState.INVALID

    def test_write_block_full_uses_invalidation_only(self):
        sim, ic, _, (c0, c1) = make_system()
        run(sim, c0.write_block_full(ADDR))
        assert c0.probe_state(ADDR) is CoherenceState.MODIFIED
        assert ic.stats.get("txn_upgrade") == 1
        assert ic.stats.get("txn_read_exclusive") == 0


class TestSingleOwnerInvariant:
    def test_never_two_dirty_copies(self):
        sim, _, _, caches = make_system(num_caches=3)

        def writer(cache):
            for _ in range(4):
                yield from cache.write_block(ADDR)
                yield 7
                yield from cache.read_block(ADDR)

        for cache in caches:
            start_process(sim, writer(cache))
        sim.run()
        dirty = [c for c in caches if c.probe_state(ADDR).is_dirty()]
        assert len(dirty) <= 1

    def test_writable_implies_all_others_invalid(self):
        sim, _, _, caches = make_system(num_caches=3)
        run(sim, caches[0].read_block(ADDR))
        run(sim, caches[1].read_block(ADDR))
        run(sim, caches[2].write_block(ADDR))
        assert caches[2].probe_state(ADDR).is_writable()
        assert caches[0].probe_state(ADDR) is CoherenceState.INVALID
        assert caches[1].probe_state(ADDR) is CoherenceState.INVALID


class TestEvictionsAndFlushes:
    def test_conflicting_dirty_block_written_back(self):
        sim, ic, memory, (c0, c1) = make_system(cache_blocks=4)
        block = DEFAULT_PARAMS.cache_block_bytes
        conflict = ADDR + 4 * block  # maps to the same set in a 4-block cache
        run(sim, c0.write_block(ADDR))
        run(sim, c0.write_block(conflict))
        assert ic.stats.get("txn_writeback") == 1
        assert memory.stats.get("writebacks_accepted") == 1
        assert c0.probe_state(ADDR) is CoherenceState.INVALID

    def test_clean_eviction_has_no_writeback(self):
        sim, ic, _, (c0, c1) = make_system(cache_blocks=4)
        block = DEFAULT_PARAMS.cache_block_bytes
        conflict = ADDR + 4 * block
        run(sim, c0.read_block(ADDR))
        run(sim, c0.read_block(conflict))
        assert ic.stats.get("txn_writeback") == 0

    def test_explicit_flush_writes_back_dirty_block(self):
        sim, ic, _, (c0, c1) = make_system()
        run(sim, c0.write_block(ADDR))
        run(sim, c0.flush_block(ADDR))
        assert c0.probe_state(ADDR) is CoherenceState.INVALID
        assert ic.stats.get("txn_writeback") == 1

    def test_flush_of_absent_block_is_noop(self):
        sim, ic, _, (c0, c1) = make_system()
        run(sim, c0.flush_block(ADDR))
        assert ic.stats.get("txn_total") == 0

    def test_local_invalidate_drops_without_traffic(self):
        sim, ic, _, (c0, c1) = make_system()
        run(sim, c0.read_block(ADDR))
        before = ic.stats.get("txn_total")
        c0.invalidate_block(ADDR)
        assert c0.probe_state(ADDR) is CoherenceState.INVALID
        assert ic.stats.get("txn_total") == before


class TestMultiBlockAccess:
    def test_read_spanning_blocks_touches_each(self):
        sim, _, _, (c0, c1) = make_system()
        run(sim, c0.read(ADDR + 32, 128))
        block = DEFAULT_PARAMS.cache_block_bytes
        for offset in (0, block, 2 * block):
            assert c0.probe_state(ADDR + offset).is_valid()

    def test_uncachable_address_rejected(self):
        sim, _, _, (c0, c1) = make_system()
        with pytest.raises(CacheError):
            run(sim, c0.read(0x9000_0000, 8))

    def test_hit_rate_reporting(self):
        sim, _, _, (c0, c1) = make_system()
        run(sim, c0.read_block(ADDR))
        run(sim, c0.read_block(ADDR))
        assert 0.0 < c0.hit_rate() <= 1.0


class TestTimingCosts:
    def test_read_miss_slower_than_hit(self):
        sim, _, _, (c0, c1) = make_system()
        t0 = sim.now
        run(sim, c0.read_block(ADDR))
        miss_time = sim.now - t0
        t1 = sim.now
        run(sim, c0.read_block(ADDR))
        hit_time = sim.now - t1
        assert miss_time > hit_time
        assert hit_time <= 2 * CACHE_HIT_CYCLES

    def test_memory_bus_occupancy_accumulates(self):
        sim, ic, _, (c0, c1) = make_system()
        run(sim, c0.read_block(ADDR))
        assert ic.memory_bus_occupancy() >= 42


class TestDataSnarfing:
    def test_snarf_on_writeback_with_tag_match(self):
        sim, _, _, (c0, c1) = make_system(snarfing=True, cache_blocks=4)
        block = DEFAULT_PARAMS.cache_block_bytes
        conflict = ADDR + 4 * block
        # c0 reads the block, then c1 takes it exclusively (c0 -> invalid with
        # a matching tag), dirties it and finally evicts it.
        run(sim, c0.read_block(ADDR))
        run(sim, c1.write_block(ADDR))
        assert c0.probe_state(ADDR) is CoherenceState.INVALID
        run(sim, c1.write_block(conflict))  # evicts ADDR -> writeback
        assert c0.probe_state(ADDR) is CoherenceState.SHARED
        assert c0.stats.get("snarfed_blocks") == 1

    def test_no_snarf_when_disabled(self):
        sim, _, _, (c0, c1) = make_system(snarfing=False, cache_blocks=4)
        block = DEFAULT_PARAMS.cache_block_bytes
        conflict = ADDR + 4 * block
        run(sim, c0.read_block(ADDR))
        run(sim, c1.write_block(ADDR))
        run(sim, c1.write_block(conflict))
        assert c0.probe_state(ADDR) is CoherenceState.INVALID
        assert c0.stats.get("snarfed_blocks") == 0


class TestInterconnect:
    def test_agent_without_interface_rejected(self):
        sim = Simulator()
        params = DEFAULT_PARAMS
        addrmap = AddressMap.for_params(params)
        ic = NodeInterconnect(sim, params, addrmap)
        with pytest.raises(BusError):
            ic.attach(object())

    def test_no_home_for_unmapped_address(self):
        sim, ic, _, _ = make_system()
        with pytest.raises(BusError):
            ic.home_agent(0xF000_0000)

    def test_transaction_counters(self):
        sim, ic, _, (c0, c1) = make_system()
        run(sim, c0.read_block(ADDR))
        assert ic.stats.get("txn_read_shared") == 1
        assert ic.stats.get("txn_total") == 1
        assert ic.stats.get("txn_on_memory") == 1


class _FakeInitiator:
    """A minimal bus initiator pinned to a particular bus."""

    def __init__(self, bus_kind, name="fake"):
        self.name = name
        self.agent_kind = AgentKind.PROCESSOR
        self.bus_kind = bus_kind

    def is_home(self, address):
        return False

    def snoop(self, txn):
        return None


class TestCacheBusGuard:
    """Regression: a cache-bus agent on a node built without a cache bus
    used to get an *empty* resource list — transactions then ran with no
    mutual exclusion at all.  It must raise BusError instead."""

    def test_cache_bus_agent_without_cache_bus_raises(self):
        sim, ic, _, _ = make_system()
        assert ic.cachebus is None
        initiator = _FakeInitiator(BusKind.CACHE)
        gen = ic.transaction(initiator, BusOp.READ_SHARED, ADDR, 64)
        with pytest.raises(BusError, match="no cache bus"):
            next(gen)

    def test_cache_bus_transactions_hold_the_cache_bus(self):
        sim = Simulator()
        params = DEFAULT_PARAMS
        addrmap = AddressMap.for_params(params)
        ic = NodeInterconnect(sim, params, addrmap, name="test", with_cache_bus=True)
        MainMemory(sim, "mem", ic, params, addrmap)
        initiator = _FakeInitiator(BusKind.CACHE)

        def txn():
            yield from ic.transaction(initiator, BusOp.READ_SHARED, ADDR, 64)

        start_process(sim, txn())
        start_process(sim, txn())
        sim.run()
        assert ic.cachebus.total_acquisitions == 2
        assert ic.cachebus.in_use == 0
        # Serialized: the two occupancies never overlapped.
        assert ic.cachebus.busy_cycles == ic.stats.get("occupancy_cycles")


class TestHeldReleaseExactness:
    """Regression: the transaction's cleanup must release exactly the buses
    it actually acquired, whatever yield point an exception arrives at."""

    def _io_system(self):
        sim, ic, memory, caches = make_system(with_io_bus=True)
        return sim, ic

    def test_exception_while_waiting_for_iobus_releases_membus(self):
        sim, ic = self._io_system()
        # The test holds the I/O bus, so the transaction will acquire the
        # memory bus and then block waiting for the I/O bus.
        assert ic.iobus.try_acquire_now()
        gen = ic.transaction(_FakeInitiator(BusKind.IO), BusOp.READ_SHARED, ADDR, 128)
        waiting_on = next(gen)
        assert waiting_on is ic.iobus
        assert ic.membus.in_use == 1  # acquired by the transaction
        gen.close()  # exception (GeneratorExit) at the acquire point
        # The membus the transaction held must be released...
        assert ic.membus.in_use == 0
        # ...and the I/O bus we hold must NOT have been released for us.
        assert ic.iobus.in_use == 1

    def test_exception_during_nack_backoff_releases_nothing(self):
        sim, ic = self._io_system()
        # The test holds the memory bus: the I/O-side initiator is NACKed.
        assert ic.membus.try_acquire_now()
        gen = ic.transaction(_FakeInitiator(BusKind.IO), BusOp.READ_SHARED, ADDR, 128)
        backoff = next(gen)
        from repro.coherence.bus import NACK_BACKOFF_CYCLES

        assert backoff == NACK_BACKOFF_CYCLES
        assert ic.stats["bridge_nacks"] == 1
        # Killing the transaction during the backoff must not release the
        # memory bus it never acquired (that would be an unheld release).
        gen.close()
        assert ic.membus.in_use == 1
        assert ic.iobus.in_use == 0

    def test_mid_snoop_exception_releases_exactly_held(self):
        sim, ic, _, (c0, c1) = make_system()

        class ExplodingAgent:
            name = "exploder"
            agent_kind = AgentKind.MEMORY
            bus_kind = BusKind.MEMORY

            def is_home(self, address):
                return False

            def snoop(self, txn):
                raise RuntimeError("boom")

        ic.attach(ExplodingAgent())
        start_process(sim, c0.read_block(ADDR))
        with pytest.raises(RuntimeError, match="boom"):
            sim.run()
        # The bus the transaction held was released exactly once; the bus is
        # immediately usable again.
        assert ic.membus.in_use == 0
        assert ic.iobus is None or ic.iobus.in_use == 0

    def test_bus_usable_after_mid_snoop_exception(self):
        sim, ic, _, (c0, c1) = make_system()

        class ExplodeOnce:
            name = "explode-once"
            agent_kind = AgentKind.MEMORY
            bus_kind = BusKind.MEMORY
            armed = True

            def is_home(self, address):
                return False

            def snoop(self, txn):
                if self.armed:
                    self.armed = False
                    raise RuntimeError("boom")
                return None

        ic.attach(ExplodeOnce())
        start_process(sim, c0.read_block(ADDR))
        with pytest.raises(RuntimeError):
            sim.run()
        run(sim, c1.read_block(ADDR))  # completes normally
        assert c1.probe_state(ADDR).is_valid()
