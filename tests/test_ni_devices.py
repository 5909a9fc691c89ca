"""Behavioural tests for the five network-interface devices."""

import pytest

from conftest import build_machine, run_ping_pong, run_stream
from repro.common.types import BusKind
from repro.sim import start_process


ALL_DEVICES = ["NI2w", "CNI4", "CNI16Q", "CNI512Q", "CNI16Qm"]
MEMORY_AND_IO = [
    ("NI2w", "memory"),
    ("CNI4", "memory"),
    ("CNI16Q", "memory"),
    ("CNI512Q", "memory"),
    ("CNI16Qm", "memory"),
    ("NI2w", "io"),
    ("CNI4", "io"),
    ("CNI16Q", "io"),
    ("CNI512Q", "io"),
    ("NI2w", "cache"),
]


class TestAllDevicesDeliverMessages:
    @pytest.mark.parametrize("ni_name,bus", MEMORY_AND_IO)
    def test_ping_pong_completes(self, ni_name, bus):
        machine = build_machine(ni_name, bus, num_nodes=2)
        cycles, state = run_ping_pong(machine, payload_bytes=64, rounds=3)
        assert state["pings"] == 3
        assert state["pongs"] == 3
        assert cycles > 0

    @pytest.mark.parametrize("ni_name", ALL_DEVICES)
    def test_streaming_delivers_everything_in_order(self, ni_name):
        machine = build_machine(ni_name, "memory", num_nodes=2)
        assert run_stream(machine, payload_bytes=256, count=12) == 12
        fabric_stats = machine.network_stats()
        assert fabric_stats["messages_delivered"] == fabric_stats["messages_injected"]

    @pytest.mark.parametrize("ni_name", ALL_DEVICES)
    def test_large_messages_are_fragmented_and_reassembled(self, ni_name):
        machine = build_machine(ni_name, "memory", num_nodes=2)
        ml0, ml1 = machine.messaging
        assert ml0.fragments_needed(2048) == 9
        received = []
        ml1.register_handler("bulk", lambda ml, s, n, b: received.append(n))

        def sender():
            yield from ml0.send_active_message(1, "bulk", 2048)

        def receiver():
            while not received:
                got = yield from ml1.poll()
                if not got:
                    yield 20

        machine.run_programs([sender(), receiver()], max_cycles=50_000_000)
        assert received == [2048]
        assert machine.network_stats()["messages_injected"] == 9


class TestDeviceTimingOrdering:
    def test_cni_round_trip_faster_than_ni2w_on_memory_bus(self):
        ni2w_cycles, _ = run_ping_pong(build_machine("NI2w", "memory"), 64, rounds=6)
        cni_cycles, _ = run_ping_pong(build_machine("CNI512Q", "memory"), 64, rounds=6)
        assert cni_cycles < ni2w_cycles

    def test_io_bus_slower_than_memory_bus(self):
        mem_cycles, _ = run_ping_pong(build_machine("CNI512Q", "memory"), 64, rounds=4)
        io_cycles, _ = run_ping_pong(build_machine("CNI512Q", "io"), 64, rounds=4)
        assert io_cycles > mem_cycles

    def test_cache_bus_ni2w_fastest(self):
        cache_cycles, _ = run_ping_pong(build_machine("NI2w", "cache"), 64, rounds=4)
        mem_cycles, _ = run_ping_pong(build_machine("NI2w", "memory"), 64, rounds=4)
        assert cache_cycles < mem_cycles

    def test_cni_uses_less_memory_bus_occupancy_than_ni2w(self):
        m_ni2w = build_machine("NI2w", "memory")
        run_stream(m_ni2w, payload_bytes=244, count=16)
        m_cni = build_machine("CNI512Q", "memory")
        run_stream(m_cni, payload_bytes=244, count=16)
        assert m_cni.total_memory_bus_occupancy() < m_ni2w.total_memory_bus_occupancy()


class TestNI2wSpecifics:
    def test_all_accesses_are_uncached(self):
        machine = build_machine("NI2w", "memory")
        run_stream(machine, payload_bytes=128, count=4)
        node0 = machine.nodes[0]
        assert node0.ni.stats.get("uncached_stores") > 0
        # The processor cache never holds NI data for NI2w.
        assert node0.interconnect.stats.get("txn_read_shared") == 0
        assert node0.interconnect.stats.get("txn_read_exclusive") == 0

    def test_fifo_capacity_limits_outstanding_sends(self):
        machine = build_machine("NI2w", "memory", fifo_messages=2)
        assert machine.nodes[0].ni.fifo_messages == 2
        assert run_stream(machine, payload_bytes=244, count=10) == 10

    def test_empty_poll_costs_a_bus_transaction(self):
        machine = build_machine("NI2w", "memory")
        machine.start()
        ni = machine.nodes[0].ni
        before = machine.nodes[0].interconnect.stats.get("txn_uncached_read")

        def poller():
            result = yield from ni.proc_poll()
            assert result is None

        start_process(machine.sim, poller())
        machine.sim.run()
        after = machine.nodes[0].interconnect.stats.get("txn_uncached_read")
        assert after == before + 1

    def test_uncached_access_without_a_processor_cache_is_an_error(self):
        from repro.ni import NIError

        ni = build_machine("NI2w", "memory").nodes[0].ni
        register = ni.allocate_uncached_register()
        ni._proc_cache = None  # as before Node binds it
        for access in (ni.uncached_load, ni.uncached_store):
            with pytest.raises(NIError, match="processor cache not bound"):
                next(access(register))


class TestCNI4Specifics:
    def test_send_serializes_on_single_cdr_set(self):
        machine = build_machine("CNI4", "memory")
        run_stream(machine, payload_bytes=244, count=8)
        ni0 = machine.nodes[0].ni
        # At least one send found the CDRs busy while the device was pulling
        # the previous message (the serialization behind Figure 7's knee).
        assert ni0.stats.get("messages_sent") == 8
        assert ni0.stats.get("send_full") > 0

    def test_receive_uses_explicit_pop_handshake(self):
        machine = build_machine("CNI4", "memory")
        run_stream(machine, payload_bytes=64, count=5)
        ni1 = machine.nodes[1].ni
        assert ni1.stats.get("recv_pops") == 5
        assert ni1.stats.get("messages_received") == 5

    def test_message_blocks_move_as_cache_blocks(self):
        machine = build_machine("CNI4", "memory")
        run_stream(machine, payload_bytes=244, count=4)
        node1 = machine.nodes[1]
        # The receiving processor fetched CDR blocks with coherent reads.
        assert node1.proc_cache.stats.get("read_misses") > 0


class TestCoherentQueueSpecifics:
    def test_empty_poll_generates_no_bus_traffic_once_warm(self):
        """The key CQ property: polling an empty queue hits in the cache."""
        machine = build_machine("CNI16Q", "memory")
        machine.start()
        ni = machine.nodes[0].ni
        node = machine.nodes[0]

        def poller():
            # First poll warms the cache (may miss), the rest must all hit.
            yield from ni.proc_poll()
            before = node.interconnect.stats.get("txn_total")
            for _ in range(10):
                result = yield from ni.proc_poll()
                assert result is None
            after = node.interconnect.stats.get("txn_total")
            assert after == before

        process = start_process(machine.sim, poller())
        machine.sim.run()
        assert process.finished and process.exception is None

    def test_send_uses_one_uncached_store_per_message(self):
        machine = build_machine("CNI512Q", "memory")
        run_stream(machine, payload_bytes=64, count=6)
        ni0 = machine.nodes[0].ni
        assert ni0.stats.get("uncached_stores") == 6
        assert ni0.stats.get("message_ready_signals") == 6

    def test_queue_functional_state_consistent_after_run(self):
        machine = build_machine("CNI16Q", "memory")
        run_stream(machine, payload_bytes=128, count=10)
        for node in machine.nodes:
            ni = node.ni
            assert ni.send_q.empty()
            assert ni.recv_q.empty()
            assert ni.send_q.occupancy == 0

    def test_small_queue_backpressure_does_not_lose_messages(self):
        machine = build_machine("CNI16Q", "memory")
        # 24 back-to-back messages against a 4-entry receive queue.
        assert run_stream(machine, payload_bytes=244, count=24) == 24
        ni1 = machine.nodes[1].ni
        assert ni1.recv_q.max_occupancy <= ni1.recv_q.capacity

    def test_shadow_refreshes_are_lazy(self):
        machine = build_machine("CNI512Q", "memory")
        run_stream(machine, payload_bytes=64, count=20)
        ni0 = machine.nodes[0].ni
        # With a 128-entry queue and 20 messages, the sender never needs to
        # re-read the head pointer.
        assert ni0.stats.get("send_shadow_refreshes") == 0

    def test_valid_word_commit_order(self):
        """The device re-touches the first block after the body (the valid
        word is committed last)."""
        machine = build_machine("CNI16Q", "memory")
        run_stream(machine, payload_bytes=244, count=3)
        ni1 = machine.nodes[1].ni
        writes = ni1.recv_cache.stats.get("write_hits") + ni1.recv_cache.stats.get(
            "write_upgrades"
        ) + ni1.recv_cache.stats.get("write_misses_full_block")
        # 4 body blocks + 1 valid-word commit per message.
        assert writes >= 5 * 3


class TestCNI16QmOverflow:
    #: Messages consumed promptly (warms the processor cache over the whole
    #: 128-entry receive queue) before the receiver stalls and the burst
    #: overflows to memory.
    WARM_MESSAGES = 135
    BURST_MESSAGES = 55

    def _flood(self, snarfing):
        machine = build_machine("CNI16Qm", "memory", num_nodes=2, snarfing=snarfing)
        ml0, ml1 = machine.messaging
        total = self.WARM_MESSAGES + self.BURST_MESSAGES
        received = {"count": 0}
        ml1.register_handler(
            "data", lambda ml, s, n, b: received.__setitem__("count", received["count"] + 1)
        )

        def sender():
            for _ in range(total):
                yield from ml0.send_active_message(1, "data", 244)

        def receiver():
            # Keep up for the first pass around the queue...
            while received["count"] < self.WARM_MESSAGES:
                got = yield from ml1.poll()
                if not got:
                    yield 20
            # ...then stall so the device cache must overflow to memory.
            yield 40_000
            while received["count"] < total:
                got = yield from ml1.poll()
                if not got:
                    yield 20

        machine.run_programs([sender(), receiver()], max_cycles=400_000_000)
        return machine, received["count"]

    def test_burst_overflows_to_memory_without_loss(self):
        machine, count = self._flood(snarfing=False)
        assert count == self.WARM_MESSAGES + self.BURST_MESSAGES
        ni1 = machine.nodes[1].ni
        # The 16-block device cache cannot hold 40 messages: writebacks to
        # main memory must have happened.
        assert ni1.recv_cache.stats.get("writebacks") > 0
        assert ni1.recv_q.max_occupancy > 4

    def test_receive_queue_larger_than_device_cache(self):
        machine = build_machine("CNI16Qm", "memory")
        ni = machine.nodes[0].ni
        assert ni.recv_q.capacity == 128
        assert ni.recv_cache.num_sets == 16
        assert ni.send_q.capacity == 4

    def test_snarfing_turns_memory_reads_into_hits(self):
        plain, _ = self._flood(snarfing=False)
        snarf, _ = self._flood(snarfing=True)
        snarfed = snarf.nodes[1].proc_cache.stats.get("snarfed_blocks")
        assert snarfed > 0
        assert (
            snarf.nodes[1].proc_cache.stats.get("read_misses")
            < plain.nodes[1].proc_cache.stats.get("read_misses")
        )

    def test_sender_never_software_buffers_with_memory_home(self):
        machine, _ = self._flood(snarfing=False)
        ml0 = machine.messaging[0]
        assert ml0.stats.get("messages_software_buffered") == 0


class TestNodeConfigRestrictions:
    def test_cni16qm_rejected_on_io_bus(self):
        from repro.node.node import NodeConfig, NodeConfigError

        with pytest.raises(NodeConfigError):
            NodeConfig(ni_name="CNI16Qm", ni_bus=BusKind.IO).validate()

    def test_only_ni2w_allowed_on_cache_bus(self):
        from repro.node.node import NodeConfig, NodeConfigError

        with pytest.raises(NodeConfigError):
            NodeConfig(ni_name="CNI4", ni_bus=BusKind.CACHE).validate()
