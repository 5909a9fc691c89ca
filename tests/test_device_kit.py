"""End-to-end tests for the composable device kit: new taxonomy points,
the plugin API, the device-space presets and cache invalidation."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import build_machine, run_ping_pong, run_stream
from repro.api import (
    ExperimentSpec,
    SweepRunner,
    device_space_sweep,
    run_point,
)
from repro.api.spec import SpecError
from repro.common.types import BusKind
from repro.ni import (
    AbstractNI,
    CdrNI,
    DeviceSpec,
    TaxonomyError,
    UncachedNI,
    register_device,
    unregister_device,
)
from repro.ni.primitives import UncachedRecvPort, UncachedSendPort

#: Taxonomy points the paper never evaluated, each built from its plan.
NEW_POINTS = ("NI16w", "NI128Q", "CNI64Q", "CNI16", "CNI4Qm")


class TestNewTaxonomyPointsRun:
    @pytest.mark.parametrize("device", NEW_POINTS)
    def test_macro_workload_completes_through_api(self, device):
        spec = ExperimentSpec(
            kind="macro", device=device, bus="memory",
            workload="em3d", scale=0.25, num_nodes=4,
        )
        metrics = run_point(spec).metrics
        assert metrics["cycles"] > 0
        assert metrics["network_messages"] > 0

    def test_coherent_queue_beats_word_exposed_ni_on_em3d(self):
        cycles = {
            device: run_point(ExperimentSpec(
                kind="macro", device=device, bus="memory",
                workload="em3d", scale=0.25, num_nodes=4,
            )).metrics["cycles"]
            for device in ("NI16w", "CNI64Q")
        }
        assert cycles["CNI64Q"] < cycles["NI16w"]

    @pytest.mark.parametrize("device", NEW_POINTS)
    def test_ping_pong_completes(self, device):
        machine = build_machine(device, "memory", num_nodes=2)
        cycles, state = run_ping_pong(machine, payload_bytes=64, rounds=3)
        assert state["pongs"] == 3 and cycles > 0

    def test_streaming_delivers_in_order_on_generated_devices(self):
        for device in ("NI16w", "CNI64Q"):
            machine = build_machine(device, "memory", num_nodes=2)
            assert run_stream(machine, payload_bytes=244, count=10) == 10

    def test_bigger_coherent_queues_never_slower_to_stream(self):
        """CNI4Q's single-message queue serializes; CNI64Q pipelines."""
        m_small = build_machine("CNI4Q", "memory", num_nodes=2)
        run_stream(m_small, payload_bytes=244, count=16)
        m_big = build_machine("CNI64Q", "memory", num_nodes=2)
        run_stream(m_big, payload_bytes=244, count=16)
        assert m_big.sim.now <= m_small.sim.now


class TestGeneratedDeviceMechanics:
    def test_ni_q_family_pays_explicit_pointer_stores(self):
        """NI{n}Q publishes tail and head pointers with uncached stores."""
        m_q = build_machine("NI16Q", "memory", num_nodes=2)
        run_stream(m_q, payload_bytes=244, count=6)
        m_w = build_machine("NI16w", "memory", num_nodes=2)
        run_stream(m_w, payload_bytes=244, count=6)
        q_tx, w_tx = (m.nodes[0].ni.stats.get("uncached_stores") for m in (m_q, m_w))
        # One extra store per send (tail pointer); the receive side pays on
        # node 1.  Word counts are identical otherwise.
        assert q_tx == w_tx + 6
        q_rx = m_q.nodes[1].ni.stats.get("uncached_stores")
        w_rx = m_w.nodes[1].ni.stats.get("uncached_stores")
        assert q_rx == w_rx + 6

    def test_ni16w_fifo_scales_with_exposed_words(self):
        machine = build_machine("NI16w", "memory", num_nodes=2)
        assert machine.nodes[0].ni.fifo_messages == 32  # 2 per exposed word

    def test_cni16_exposes_multiple_cdr_slots(self):
        machine = build_machine("CNI16", "memory", num_nodes=2)
        ni = machine.nodes[0].ni
        assert ni.cdr_blocks == 16
        assert ni.send_port.slots == 4
        # Four in-flight messages fit before the sender sees a full device.
        run_stream(machine, payload_bytes=244, count=12)
        assert ni.stats.get("messages_sent") == 12

    def test_cni16_streams_faster_than_cni4(self):
        """Extra CDR slots push out CNI4's single-slot serialization knee."""
        m4 = build_machine("CNI4", "memory", num_nodes=2)
        run_stream(m4, payload_bytes=244, count=16)
        m16 = build_machine("CNI16", "memory", num_nodes=2)
        run_stream(m16, payload_bytes=244, count=16)
        assert m16.sim.now < m4.sim.now
        assert m16.nodes[0].ni.stats.get("send_full") < m4.nodes[0].ni.stats.get("send_full")

    def test_cni4qm_overflows_to_memory(self):
        machine = build_machine("CNI4Qm", "memory", num_nodes=2)
        ni = machine.nodes[0].ni
        assert ni.recv_home == "memory"
        assert ni.recv_q.capacity == 32   # 32x factor: 128 blocks / 4
        assert ni.send_q.capacity == 1


class TestGeneratedClassHygiene:
    def test_no_infrastructure_params_leak_into_tunables(self):
        """Neither ``self`` nor the name create_ni passes is a tunable."""
        from repro.ni import TaxonomyError, available_devices

        for info in available_devices():
            assert "ni_self" not in info.tunables and "self" not in info.tunables
            assert "taxonomy_name" not in info.tunables
        with pytest.raises(TaxonomyError):
            ExperimentSpec(device="CNI64Q", ni_kwargs={"taxonomy_name": "x"}).validate()
        with pytest.raises(TaxonomyError):
            ExperimentSpec(device="CNI64Q", ni_kwargs={"ni_self": 1}).validate()

    def test_conflicting_fifo_sizing_kwargs_rejected(self):
        """Both sizing axes at once fail early, at spec/config validation."""
        from repro.ni import TaxonomyError

        with pytest.raises(TaxonomyError, match="only one of"):
            build_machine("NI16w", "memory", num_nodes=2,
                          fifo_messages=4, queue_blocks=64)
        with pytest.raises(TaxonomyError, match="only one of"):
            ExperimentSpec(device="NI128Q",
                           ni_kwargs={"fifo_messages": 4, "queue_blocks": 16}).validate()
        # A single alternative-axis override suppresses the generated
        # default instead of conflicting with it.
        machine = build_machine("NI16w", "memory", num_nodes=2, queue_blocks=64)
        assert machine.nodes[0].ni.fifo_messages == 16
        machine = build_machine("NI128Q", "memory", num_nodes=2, fifo_messages=8)
        assert machine.nodes[0].ni.fifo_messages == 8

    def test_zero_or_negative_queue_blocks_rejected(self):
        from repro.ni import NIError

        for bad in (0, -4):
            with pytest.raises(NIError, match="whole positive number"):
                build_machine("NI16Q", "memory", num_nodes=2, queue_blocks=bad)

    def test_partial_cdr_slot_sizing_rejected(self):
        from repro.ni import NIError

        with pytest.raises(NIError, match="whole number"):
            build_machine("CNI4", "memory", num_nodes=2, cdr_blocks=6)

    def test_case_hint_only_suggests_legal_names(self):
        from repro.ni import TaxonomyError, parse_ni_name

        with pytest.raises(TaxonomyError) as excinfo:
            parse_ni_name("cni4w")  # case-fixed CNI4w is itself illegal
        assert "did you mean" not in str(excinfo.value)
        with pytest.raises(TaxonomyError, match="did you mean 'CNI4'"):
            parse_ni_name("cni4")


#: Whole 4-block network messages, the unit every block-sized axis takes.
_BLOCKS = st.integers(min_value=1, max_value=16).map(lambda k: 4 * k)


@st.composite
def _device_and_overrides(draw):
    """A legal taxonomy name from one of the six name shapes, plus legal
    ``ni_kwargs`` overrides of its family's sizing axes."""
    shape = draw(st.sampled_from(["NI{}w", "NI{}", "NI{}Q", "CNI{}", "CNI{}Q", "CNI{}Qm"]))
    size = draw(st.integers(min_value=1, max_value=16) if shape == "NI{}w" else _BLOCKS)
    overrides = {}
    if shape.startswith("NI"):
        axis = draw(st.sampled_from([None, "fifo_messages", "queue_blocks"]))
        if axis == "fifo_messages":
            overrides[axis] = draw(st.integers(min_value=1, max_value=16))
        elif axis == "queue_blocks":
            overrides[axis] = draw(_BLOCKS)
        if draw(st.booleans()):
            overrides["explicit_pointers"] = draw(st.booleans())
    elif shape == "CNI{}":
        if draw(st.booleans()):
            overrides["cdr_blocks"] = draw(_BLOCKS)
    else:
        for key in ("send_queue_blocks", "recv_queue_blocks", "recv_cache_blocks"):
            if draw(st.booleans()):
                overrides[key] = draw(_BLOCKS)
    return shape.format(size), overrides


class TestOneBuildPath:
    """Every taxonomy name, the paper's five included, is its plan's family
    class sized by the plan overlaid by the caller's ``ni_kwargs``."""

    @given(_device_and_overrides())
    @example(("CNI64Q", {"recv_queue_blocks": 128}))
    @example(("CNI16Q", {"recv_queue_blocks": 128}))
    @example(("NI2w", {"queue_blocks": 16}))
    @settings(max_examples=40, deadline=None)
    def test_built_sizing_is_plan_overlaid_by_overrides(self, drawn):
        name, overrides = drawn
        plan = dict(DeviceSpec.from_name(name).defaults)
        if {"fifo_messages", "queue_blocks"} & set(overrides):
            # One sizing axis overridden: the plan's default on the other goes.
            plan.pop("fifo_messages", None)
            plan.pop("queue_blocks", None)
        want = {**plan, **overrides}
        ni = build_machine(name, "memory", num_nodes=2, **overrides).nodes[0].ni
        if isinstance(ni, UncachedNI):
            fifo = want.get("fifo_messages") or want["queue_blocks"] // 4
            assert ni.fifo_messages == fifo
            assert ni.explicit_pointers == want.get("explicit_pointers", False)
        elif isinstance(ni, CdrNI):
            assert ni.cdr_blocks == want["cdr_blocks"]
        else:
            assert ni.send_q.num_blocks == want["send_queue_blocks"]
            assert ni.recv_q.num_blocks == want["recv_queue_blocks"]
            assert ni.recv_home == want["recv_home"]
            cache_blocks = want.get("recv_cache_blocks", want["recv_queue_blocks"])
            assert ni.recv_cache.num_sets == cache_blocks
            if name.endswith("Q") and "recv_cache_blocks" not in overrides:
                # A device-homed queue is cached whole, whatever its size.
                assert ni.recv_cache.num_sets == ni.recv_q.num_blocks
        assert type(ni) is DeviceSpec.from_name(name).base_class
        assert ni.name == f"node0.{name}"


class TestBusPlacementRules:
    def test_generated_word_devices_allowed_on_cache_bus(self):
        machine = build_machine("NI16w", "cache", num_nodes=2)
        cycles, state = run_ping_pong(machine, payload_bytes=64, rounds=2)
        assert state["pongs"] == 2 and cycles > 0

    def test_generated_block_devices_rejected_on_cache_bus(self):
        from repro.node.node import NodeConfig, NodeConfigError

        for name in ("NI128Q", "CNI64Q"):
            with pytest.raises(NodeConfigError):
                NodeConfig(ni_name=name, ni_bus=BusKind.CACHE).validate()

    def test_generated_qm_devices_rejected_on_io_bus(self):
        from repro.node.node import NodeConfig, NodeConfigError

        with pytest.raises(NodeConfigError):
            NodeConfig(ni_name="CNI4Qm", ni_bus=BusKind.IO).validate()

    def test_generated_q_devices_allowed_on_io_bus(self):
        machine = build_machine("CNI64Q", "io", num_nodes=2)
        cycles, state = run_ping_pong(machine, payload_bytes=64, rounds=2)
        assert state["pongs"] == 2 and cycles > 0


class TestPluginDevices:
    def test_composed_plugin_runs_a_workload(self):
        @register_device("KitTestNI")
        class KitTestNI(AbstractNI):
            def __init__(self, *args, fifo_messages=8, **kwargs):
                super().__init__(*args, **kwargs)
                send_status = self.allocate_uncached_register()
                send_data = self.allocate_uncached_register()
                recv_status = self.allocate_uncached_register()
                recv_data = self.allocate_uncached_register()
                self.send_port = UncachedSendPort(self, send_data, send_status, fifo_messages)
                self.recv_port = UncachedRecvPort(self, recv_data, recv_status, fifo_messages)

        try:
            spec = ExperimentSpec(
                kind="macro", device="KitTestNI", bus="memory",
                workload="em3d", scale=0.25, num_nodes=4,
            )
            assert run_point(spec).metrics["cycles"] > 0
        finally:
            unregister_device("KitTestNI")

    def test_plugin_cannot_shadow_a_generative_point(self):
        from repro.ni import device_class

        generated = device_class("NI8w")

        class CustomNI8w(UncachedNI):
            pass

        # Every legal taxonomy name is a built-in device: its results are
        # stored under its name, so a plugin may not change its physics.
        with pytest.raises(TaxonomyError, match="taxonomy point"):
            register_device("NI8w", CustomNI8w)
        with pytest.raises(TaxonomyError, match="taxonomy point"):
            unregister_device("NI8w")
        assert device_class("NI8w") is generated

    def test_example_plugin_registers_hybrid_device(self):
        """examples/custom_protocol.py's plugin builds and delivers."""
        import importlib.util
        import pathlib

        path = pathlib.Path(__file__).parent.parent / "examples" / "custom_protocol.py"
        loader = importlib.util.spec_from_file_location("custom_protocol", path)
        module = importlib.util.module_from_spec(loader)
        loader.loader.exec_module(module)
        try:
            machine = build_machine("HybridNI", "memory", num_nodes=2)
            # The registered name names the device.
            assert machine.nodes[0].ni.name == "node0.HybridNI"
            assert run_stream(machine, payload_bytes=244, count=6) == 6
            # Coherent send path: message-ready uncached stores, not words.
            assert machine.nodes[0].ni.stats.get("message_ready_signals") == 6
        finally:
            unregister_device("HybridNI")


class TestDeviceSpaceSweep:
    def test_expansion_and_validation(self):
        sweep = device_space_sweep(kind="latency", families=("CNIQ",), sizes=(4, 16))
        devices = [p.device for p in sweep]
        assert devices == ["CNI4Q", "CNI16Q"]
        with pytest.raises(SpecError):
            device_space_sweep(families=("bogus",))

    def test_illegal_size_fails_at_expansion(self):
        from repro.ni import TaxonomyError

        with pytest.raises(TaxonomyError):
            device_space_sweep(families=("CNIQ",), sizes=(6,)).expand()

    def test_runs_across_families(self):
        results = SweepRunner().run(
            device_space_sweep(
                kind="bandwidth", families=("NIw", "CNIQ"), sizes=(4,),
                messages=8, warmup=2,
            )
        )
        by_device = {r.spec.device: r.metrics["bandwidth_mbps"] for r in results}
        assert set(by_device) == {"NI4w", "CNI4Q"}
        assert by_device["CNI4Q"] > by_device["NI4w"]

    def test_coherent_queues_outstream_uncached_queues_at_every_size(self):
        sizes = (4, 16, 64, 512)
        results = SweepRunner().run(
            device_space_sweep(
                kind="bandwidth", families=("NIQ", "CNIQ"), sizes=sizes,
                message_bytes=244, messages=40, warmup=10,
            )
        )
        panel = results.pivot(series="device", x="message_bytes", value="bandwidth_mbps")
        for size in sizes:
            assert panel[f"CNI{size}Q"][244] > panel[f"NI{size}Q"][244], size

    def test_coherent_queue_round_trip_beats_uncached_queue(self):
        results = SweepRunner().run(
            device_space_sweep(
                kind="latency", families=("NIQ", "CNIQ"), sizes=(16,),
                message_bytes=64, iterations=15, warmup=8,
            )
        )
        rtt = {r.spec.device: r.metrics["round_trip_us"] for r in results}
        assert rtt["CNI16Q"] < rtt["NI16Q"]

