"""Tests for coherent I/O-bus placement and the I/O bridge behaviour."""


from conftest import build_machine, run_ping_pong, run_stream


class TestIOBusPlacement:
    def test_io_bus_transactions_occupy_both_buses(self):
        machine = build_machine("CNI512Q", "io", num_nodes=2)
        run_stream(machine, payload_bytes=64, count=6)
        node = machine.nodes[0]
        assert node.interconnect.io_bus_occupancy() > 0
        # Table-2 I/O occupancies include the memory-bus cycles, so the
        # memory bus is held for the same transactions.
        assert node.interconnect.memory_bus_occupancy() >= node.interconnect.io_bus_occupancy()

    def test_io_bus_uses_io_occupancies(self):
        mem = build_machine("NI2w", "memory", num_nodes=2)
        io = build_machine("NI2w", "io", num_nodes=2)
        mem_cycles, _ = run_ping_pong(mem, 64, rounds=4)
        io_cycles, _ = run_ping_pong(io, 64, rounds=4)
        assert io_cycles > mem_cycles

    def test_bridge_nacks_counted_under_contention(self):
        """Simultaneous processor and device transactions make the bridge
        NACK the I/O side at least occasionally during a mutual flood."""
        machine = build_machine("CNI512Q", "io", num_nodes=2)
        ml_list = machine.messaging
        counts = {0: 0, 1: 0}
        for node_id, ml in enumerate(ml_list):
            ml.register_handler(
                "flood",
                lambda m, s, n, b, node_id=node_id: counts.__setitem__(node_id, counts[node_id] + 1),
            )

        def program(node_id):
            ml = ml_list[node_id]
            for _ in range(15):
                yield from ml.send_active_message(1 - node_id, "flood", 244)
            while counts[node_id] < 15:
                got = yield from ml.poll()
                if not got:
                    yield 20

        machine.run_programs([program(0), program(1)], max_cycles=600_000_000)
        total_nacks = sum(node.interconnect.stats["bridge_nacks"] for node in machine.nodes)
        assert counts == {0: 15, 1: 15}
        assert total_nacks > 0

    def test_cache_bus_does_not_touch_memory_bus(self):
        machine = build_machine("NI2w", "cache", num_nodes=2)
        run_stream(machine, payload_bytes=64, count=5)
        node = machine.nodes[0]
        # NI traffic runs on the dedicated cache bus; the memory bus only
        # sees the (tiny) software-buffer traffic, if any.
        assert node.interconnect.stats.get("txn_on_cache") > 0
        assert node.interconnect.stats.get("txn_on_memory") <= 2

    def test_cni512q_io_beats_ni2w_io(self):
        ni2w_cycles, _ = run_ping_pong(build_machine("NI2w", "io"), 128, rounds=5)
        cni_cycles, _ = run_ping_pong(build_machine("CNI512Q", "io"), 128, rounds=5)
        assert cni_cycles < ni2w_cycles
