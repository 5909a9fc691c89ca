"""Tests for the five macrobenchmark communication skeletons."""

import pytest

from repro.apps import create_workload, workload_names
from repro.apps.appbt import face_neighbours, grid_dimensions
from repro.apps.spsolve import build_layered_dag
from repro.apps.workload import Workload, WorkloadResult
from repro.node.machine import Machine

import random

SMALL = dict(num_nodes=4)
WORKLOAD_NAMES = workload_names("macro")


def small_machine(ni_name="CNI16Qm", bus="memory", num_nodes=4):
    return Machine.build(ni_name, bus, num_nodes=num_nodes)


def small_workload(name, **extra):
    tiny = {
        "spsolve": dict(num_elements=48),
        "gauss": dict(rounds=3, elimination_cycles=2000),
        "em3d": dict(nodes_per_proc=12, iterations=2),
        "moldyn": dict(iterations=1, force_cycles=5000),
        "appbt": dict(iterations=1, blocks_per_face=2, hot_spot_blocks=2, cell_compute_cycles=4000),
    }
    kwargs = dict(tiny[name])
    kwargs.update(extra)
    return create_workload(name, **kwargs)


class TestRegistry:
    def test_five_macrobenchmarks_in_paper_order(self):
        assert WORKLOAD_NAMES == ["spsolve", "gauss", "em3d", "moldyn", "appbt"]

    def test_unknown_workload_rejected(self):
        with pytest.raises(ValueError):
            create_workload("linpack")

    def test_metadata_matches_table3(self):
        expectations = {
            "spsolve": ("Fine-Grain Messages", "3720 elements"),
            "gauss": ("One-To-All Broadcast", "512x512 matrix"),
            "em3d": ("Fine-Grain Messages", "1K nodes"),
            "moldyn": ("Bulk Reduction", "2048 particles"),
            "appbt": ("Near neighbor", "24x24x24 cubes"),
        }
        for name, (comm, input_prefix) in expectations.items():
            workload = create_workload(name)
            assert workload.key_communication == comm
            assert workload.paper_input.startswith(input_prefix.split(",")[0])

    def test_invalid_scale_rejected(self):
        with pytest.raises(ValueError):
            create_workload("gauss", scale=0)


class TestWorkloadCompletion:
    @pytest.mark.parametrize("name", WORKLOAD_NAMES)
    def test_completes_on_cni_machine(self, name):
        machine = small_machine()
        result = small_workload(name).run(machine, max_cycles=400_000_000)
        assert isinstance(result, WorkloadResult)
        assert result.cycles > 0
        assert result.workload == name
        assert result.user_messages > 0

    @pytest.mark.parametrize("name", WORKLOAD_NAMES)
    def test_completes_on_ni2w_machine(self, name):
        machine = small_machine("NI2w")
        result = small_workload(name).run(machine, max_cycles=400_000_000)
        assert result.cycles > 0

    @pytest.mark.parametrize("name", ["spsolve", "gauss"])
    def test_completes_on_io_bus(self, name):
        machine = small_machine("CNI512Q", "io")
        result = small_workload(name).run(machine, max_cycles=600_000_000)
        assert result.cycles > 0

    def test_all_network_messages_delivered(self):
        machine = small_machine()
        small_workload("em3d").run(machine, max_cycles=400_000_000)
        stats = machine.network_stats()
        assert stats["messages_delivered"] == stats["messages_injected"]

    def test_single_node_machine_degenerates_gracefully(self):
        machine = Machine.build("CNI16Qm", "memory", num_nodes=1)
        result = small_workload("gauss").run(machine, max_cycles=100_000_000)
        assert result.cycles > 0


class TestDeterminism:
    def test_same_seed_same_cycle_count(self):
        first = small_workload("spsolve").run(small_machine(), max_cycles=400_000_000)
        second = small_workload("spsolve").run(small_machine(), max_cycles=400_000_000)
        assert first.cycles == second.cycles

    def test_different_seed_changes_spsolve_traffic(self):
        base = small_workload("spsolve").run(small_machine(), max_cycles=400_000_000)
        other = small_workload("spsolve", seed=999).run(small_machine(), max_cycles=400_000_000)
        assert base.cycles != other.cycles or base.network_messages != other.network_messages


class TestWorkloadStructure:
    def test_spsolve_dag_is_acyclic_and_covered(self):
        rng = random.Random(7)
        dag = build_layered_dag(60, 8, 3, rng, num_procs=4)
        assert len(dag) == 60
        # Every edge goes "forward" so firing can never deadlock: verify by
        # topological simulation.
        pending = {n.node_id: n.in_degree for n in dag}
        frontier = [n.node_id for n in dag if n.in_degree == 0]
        fired = 0
        while frontier:
            node_id = frontier.pop()
            fired += 1
            for dest in dag[node_id].out_edges:
                pending[dest] -= 1
                if pending[dest] == 0:
                    frontier.append(dest)
        assert fired == len(dag)

    def test_spsolve_owners_round_robin(self):
        rng = random.Random(7)
        dag = build_layered_dag(16, 4, 2, rng, num_procs=4)
        assert {n.owner for n in dag} == {0, 1, 2, 3}

    def test_appbt_grid_dimensions(self):
        assert grid_dimensions(16) == (4, 2, 2)
        assert grid_dimensions(8) == (2, 2, 2)
        nx, ny, nz = grid_dimensions(5)
        assert nx * ny * nz >= 5

    def test_appbt_neighbours_symmetric(self):
        dims = grid_dimensions(16)
        for proc in range(16):
            for neighbour in face_neighbours(proc, dims):
                assert proc in face_neighbours(neighbour, dims)
                assert neighbour != proc

    def test_gauss_broadcast_volume(self):
        machine = small_machine()
        workload = small_workload("gauss", rounds=4)
        result = workload.run(machine, max_cycles=400_000_000)
        pivot_bytes = sum(
            ml.stats.get("user_bytes_sent") for ml in machine.messaging
        )
        # 4 rounds, each broadcasting a 2 KB row to 3 other nodes (plus the
        # 8-byte barrier traffic).
        assert pivot_bytes >= 4 * 3 * 2048

    def test_moldyn_ring_message_count(self):
        machine = small_machine()
        workload = small_workload("moldyn", iterations=1)
        workload.run(machine, max_cycles=400_000_000)
        reduce_messages = sum(
            ml.stats.get("user_messages_sent") for ml in machine.messaging
        )
        # One reduction = P steps, each node sending one 1.5 KB contribution,
        # plus P barrier arrivals/releases.
        assert reduce_messages >= 4 * 4

    def test_appbt_hot_spot_receives_more(self):
        machine = small_machine(num_nodes=8)
        workload = small_workload("appbt", iterations=1)
        workload.run(machine, max_cycles=600_000_000)
        received = [ml.stats.get("user_messages_received") for ml in machine.messaging]
        assert received[0] > sum(received[1:]) / (len(received) - 1)

    def test_scaled_helper(self):
        assert Workload.scaled(100, 0.25) == 25
        assert Workload.scaled(1, 0.01, minimum=1) == 1

    def test_describe_input_mentions_scale(self):
        assert "scale=0.5" in create_workload("gauss", scale=0.5).describe_input()


class TestSpeedupDirection:
    def test_cni_beats_ni2w_on_gauss(self):
        """The headline macro claim, checked at a tiny scale: a CQ-based CNI
        on the memory bus outperforms the conventional NI2w."""
        ni2w = small_workload("gauss", rounds=4).run(
            small_machine("NI2w"), max_cycles=600_000_000
        )
        cni = small_workload("gauss", rounds=4).run(
            small_machine("CNI16Qm"), max_cycles=600_000_000
        )
        assert cni.cycles < ni2w.cycles

    def test_cni_reduces_memory_bus_occupancy_on_moldyn(self):
        ni2w = small_workload("moldyn").run(small_machine("NI2w"), max_cycles=600_000_000)
        cni = small_workload("moldyn").run(small_machine("CNI512Q"), max_cycles=600_000_000)
        assert cni.memory_bus_occupancy < ni2w.memory_bus_occupancy
