"""Tests for node assembly, the machine builder and the processor model."""

import pytest

from conftest import build_machine
from repro.common.types import BusKind, CoherenceState
from repro.node.machine import Machine, WorkloadHangError
from repro.node.node import NodeConfig


class TestMachineConstruction:
    def test_default_machine_has_sixteen_nodes(self):
        machine = Machine()
        assert len(machine.nodes) == 16
        assert len(machine.messaging) == 16

    def test_build_helper_configures_all_nodes(self):
        machine = Machine.build("CNI512Q", "io", num_nodes=4)
        assert len(machine.nodes) == 4
        for node in machine.nodes:
            assert node.config.ni_name == "CNI512Q"
            assert node.config.ni_bus is BusKind.IO
            assert node.interconnect.iobus is not None

    def test_build_accepts_bus_enum(self):
        machine = Machine.build("NI2w", BusKind.CACHE, num_nodes=2)
        assert machine.nodes[0].interconnect.cachebus is not None

    def test_heterogeneous_node_configs(self):
        configs = [NodeConfig(ni_name="NI2w"), NodeConfig(ni_name="CNI4")]
        machine = Machine(num_nodes=2, node_configs=configs)
        assert machine.nodes[0].config.ni_name == "NI2w"
        assert machine.nodes[1].config.ni_name == "CNI4"

    def test_wrong_number_of_node_configs_rejected(self):
        with pytest.raises(ValueError):
            Machine(num_nodes=3, node_configs=[NodeConfig()])

    def test_each_node_has_private_address_space_components(self):
        machine = Machine.build("CNI16Qm", "memory", num_nodes=3)
        caches = {id(node.proc_cache) for node in machine.nodes}
        interconnects = {id(node.interconnect) for node in machine.nodes}
        assert len(caches) == 3
        assert len(interconnects) == 3

    def test_describe_mentions_device_and_bus(self):
        text = Machine.build("CNI4", "memory", num_nodes=2).describe()
        assert "CNI4" in text and "memory" in text


class TestRunPrograms:
    def test_programs_as_list_and_dict(self):
        machine = build_machine(num_nodes=2)
        done = []

        def prog(i):
            yield 100
            done.append(i)

        machine.run_programs({1: prog(1)}, max_cycles=10_000)
        assert done == [1]

    def test_wrong_program_count_rejected(self):
        machine = build_machine(num_nodes=2)
        with pytest.raises(ValueError):
            machine.run_programs([iter(())])

    def test_hang_detection(self):
        machine = build_machine(num_nodes=2)

        def stuck():
            while True:
                yield 1000

        def quick():
            yield 10

        with pytest.raises(WorkloadHangError):
            machine.run_programs([stuck(), quick()], max_cycles=50_000)

    def test_completion_time_is_latest_program_finish(self):
        machine = build_machine(num_nodes=2)

        def short():
            yield 50

        def long():
            yield 5000

        cycles = machine.run_programs([short(), long()], max_cycles=100_000)
        assert cycles >= 5000

    def test_start_is_idempotent(self):
        machine = build_machine(num_nodes=2)
        machine.start()
        machine.start()
        assert machine.run(until=100) <= 100


class TestProcessor:
    def test_compute_advances_time_and_stats(self):
        machine = build_machine(num_nodes=2)
        cpu = machine.nodes[0].processor

        def prog():
            yield from cpu.compute(1234)

        machine.run_programs({0: prog()}, max_cycles=10_000)
        assert cpu.stats.get("compute_cycles") == 1234

    def test_touch_read_write_use_the_cache(self):
        machine = build_machine(num_nodes=2)
        node = machine.nodes[0]
        addr = node.dram_allocator.allocate_blocks(4)

        def prog():
            yield from node.processor.touch_write(addr, 256)
            yield from node.processor.touch_read(addr, 256)

        machine.run_programs({0: prog()}, max_cycles=100_000)
        assert node.proc_cache.probe_state(addr) is CoherenceState.MODIFIED
        assert node.processor.stats.get("data_writes") == 1
        assert node.processor.stats.get("data_reads") == 1

    def test_finished_flag(self):
        machine = build_machine(num_nodes=2)
        cpu = machine.nodes[0].processor
        assert not cpu.finished()

        def prog():
            yield 10

        machine.run_programs({0: prog()}, max_cycles=1_000)
        assert cpu.finished()


class TestNodeReporting:
    def test_stats_snapshot_keys(self):
        machine = build_machine(num_nodes=2)
        snapshot = machine.nodes[0].stats_snapshot()
        assert set(snapshot) == {"bus", "proc_cache", "processor", "ni"}

    def test_bus_occupancy_totals(self):
        machine = build_machine("NI2w", "memory", num_nodes=2)
        from conftest import run_stream

        run_stream(machine, payload_bytes=64, count=4)
        assert machine.total_memory_bus_occupancy() > 0
        assert machine.total_io_bus_occupancy() == 0

    def test_io_bus_occupancy_counted_when_present(self):
        machine = build_machine("CNI512Q", "io", num_nodes=2)
        from conftest import run_stream

        run_stream(machine, payload_bytes=64, count=4)
        assert machine.total_io_bus_occupancy() > 0
