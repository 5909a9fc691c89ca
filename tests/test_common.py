"""Tests for machine parameters, address map and shared types."""

from dataclasses import fields

import pytest

from repro.common.addrmap import AddressMap, RegionAllocator
from repro.common.params import (
    _SCALAR_FIELDS,
    DEFAULT_PARAMS,
    PROCESSOR_MHZ,
    UNCACHED_LOAD_CYCLES,
    MachineParams,
    ParameterError,
    cycles_to_us,
    occupancy,
)
from repro.common.types import AddressRange, AgentKind, BusKind, BusOp, CoherenceState, NetworkMessage


class TestMachineParams:
    def test_defaults_match_paper_section_4_1(self):
        p = DEFAULT_PARAMS
        assert PROCESSOR_MHZ == 200
        assert p.num_nodes == 16
        assert p.cache_block_bytes == 64
        assert p.processor_cache_bytes == 256 * 1024
        assert p.network_message_bytes == 256
        assert p.network_header_bytes == 12
        assert p.network_latency_cycles == 100
        assert p.sliding_window == 4

    def test_table2_occupancies(self):
        assert occupancy(BusOp.UNCACHED_READ, BusKind.CACHE, AgentKind.PROCESSOR) == 4
        assert occupancy(BusOp.UNCACHED_READ, BusKind.MEMORY, AgentKind.PROCESSOR) == 28
        assert occupancy(BusOp.UNCACHED_READ, BusKind.IO, AgentKind.PROCESSOR) == 48
        assert occupancy(BusOp.UNCACHED_WRITE, BusKind.CACHE, AgentKind.PROCESSOR) == 4
        assert occupancy(BusOp.UNCACHED_WRITE, BusKind.MEMORY, AgentKind.PROCESSOR) == 12
        assert occupancy(BusOp.UNCACHED_WRITE, BusKind.IO, AgentKind.PROCESSOR) == 32

    def test_cache_to_cache_direction_matters_on_io_bus(self):
        from_cni = occupancy(
            BusOp.READ_SHARED, BusKind.IO, AgentKind.PROCESSOR, AgentKind.NI_DEVICE
        )
        to_cni = occupancy(
            BusOp.READ_SHARED, BusKind.IO, AgentKind.NI_DEVICE, AgentKind.PROCESSOR
        )
        assert from_cni == 76
        assert to_cni == 62

    def test_memory_supplies_at_42_cycles(self):
        assert occupancy(
            BusOp.READ_SHARED, BusKind.MEMORY, AgentKind.PROCESSOR, AgentKind.MEMORY,
            data_from_memory=True,
        ) == 42

    def test_derived_quantities(self):
        p = DEFAULT_PARAMS
        assert cycles_to_us(1) * 1000.0 == 5.0  # a 5 ns cycle
        assert p.network_payload_bytes == 244
        assert p.blocks_per_network_message == 4
        assert p.processor_cache_blocks == 4096
        assert cycles_to_us(200) == 1.0

    def test_max_local_cq_bandwidth_near_paper_value(self):
        # The paper's value is 144 MB/s; ours should be in the same regime.
        assert 100.0 <= DEFAULT_PARAMS.max_local_cq_bandwidth_mbps() <= 200.0

    def test_fixed_machine_tables_are_read_only(self):
        with pytest.raises(TypeError):
            UNCACHED_LOAD_CYCLES[BusKind.MEMORY] = 56

    def test_every_field_is_type_checked(self):
        assert [name for name, _ in _SCALAR_FIELDS] == [
            f.name for f in fields(MachineParams)
        ]
        assert len(fields(MachineParams)) == 18

    def test_with_overrides_returns_new_validated_instance(self):
        p = DEFAULT_PARAMS.with_overrides(num_nodes=4)
        assert p.num_nodes == 4
        assert DEFAULT_PARAMS.num_nodes == 16

    @pytest.mark.parametrize(
        "overrides",
        [
            {"cache_block_bytes": 60},
            {"processor_cache_bytes": 1000},
            {"network_header_bytes": 300},
            {"network_message_bytes": 100},
            {"num_nodes": 0},
            {"sliding_window": 0},
        ],
    )
    def test_invalid_parameters_rejected(self, overrides):
        with pytest.raises(ParameterError):
            DEFAULT_PARAMS.with_overrides(**overrides)


class TestAddressRange:
    def test_contains_and_size(self):
        r = AddressRange(100, 200)
        assert r.contains(100)
        assert r.contains(199)
        assert not r.contains(200)
        assert r.size == 100

    def test_empty_range_rejected(self):
        with pytest.raises(ValueError):
            AddressRange(10, 10)

    def test_overlaps(self):
        assert AddressRange(0, 10).overlaps(AddressRange(5, 15))
        assert not AddressRange(0, 10).overlaps(AddressRange(10, 20))


class TestAddressMap:
    def test_region_classification(self, addrmap):
        assert addrmap.is_dram(0x1000)
        assert addrmap.is_cachable(0x1000)
        assert addrmap.is_ni_homed(0x8000_0000)
        assert addrmap.is_cachable(0x8000_0000)
        assert addrmap.is_uncached(0x9000_0000)
        assert not addrmap.is_cachable(0x9000_0000)

    def test_block_arithmetic(self, addrmap):
        assert addrmap.block_address(0x1234) == 0x1200
        assert addrmap.block_offset(0x1234) == 0x34
        blocks = list(addrmap.blocks_covering(0x10, 0x100))
        assert blocks == [0x0, 0x40, 0x80, 0xC0, 0x100]

    def test_blocks_covering_empty(self, addrmap):
        assert list(addrmap.blocks_covering(0x100, 0)) == []

    def test_blocks_covering_within_one_block(self, addrmap):
        assert list(addrmap.blocks_covering(0x104, 8)) == [0x100]


class TestRegionAllocator:
    def test_block_aligned_allocation(self, addrmap):
        alloc = RegionAllocator(AddressRange(0x1000, 0x2000), 64)
        a = alloc.allocate_blocks(2)
        b = alloc.allocate_blocks(1)
        assert a % 64 == 0
        assert b == a + 128

    def test_exhaustion_raises(self):
        alloc = RegionAllocator(AddressRange(0, 128), 64)
        alloc.allocate_blocks(2)
        with pytest.raises(MemoryError):
            alloc.allocate_blocks(1)

    def test_invalid_size_rejected(self):
        alloc = RegionAllocator(AddressRange(0, 128), 64)
        with pytest.raises(ValueError):
            alloc.allocate(0)


class TestTypes:
    def test_coherence_state_predicates(self):
        assert CoherenceState.MODIFIED.is_dirty()
        assert CoherenceState.OWNED.is_dirty()
        assert not CoherenceState.SHARED.is_dirty()
        assert CoherenceState.MODIFIED.is_writable()
        assert CoherenceState.EXCLUSIVE.is_writable()
        assert not CoherenceState.OWNED.is_writable()
        assert not CoherenceState.INVALID.is_valid()

    def test_network_message_validation(self):
        with pytest.raises(ValueError):
            NetworkMessage(source=0, dest=1, payload_bytes=-1)

    def test_bus_kind_string(self):
        assert str(BusKind.MEMORY) == "memory"
