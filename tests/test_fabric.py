"""Tests for the pluggable interconnect fabrics.

Four concerns:

* the topology grammar and registry (``FabricSpec`` parsing, auto grid
  shapes, plugin registration, ``MachineParams`` validation);
* unit timing of the topology-aware models (crossbar port serialization,
  mesh dimension-order routing, torus wraparound, link contention,
  per-pair ordering);
* equivalence — ``IdealFabric`` (the default) must be *bit-identical* to
  the pre-refactor fixed-latency physics, and spin-wait elision must stay
  exact on variable-latency fabrics;
* the scalability and network-sensitivity sweep presets.
"""

import pytest

from conftest import run_ping_pong, run_stream
from test_device_golden import DEVICES as GOLDEN_DEVICES
from test_device_golden import GOLDEN
from repro.api import (
    ExperimentSpec,
    SweepRunner,
    network_sensitivity_sweep,
    run_point,
    scalability_sweep,
)
from repro.apps import create_workload
from repro.common.params import DEFAULT_PARAMS, MachineParams, ParameterError
from repro.network import (
    AbstractFabric,
    CrossbarFabric,
    FabricError,
    IdealFabric,
    MeshFabric,
    NetworkError,
    NetworkFabric,
    TorusFabric,
    available_fabrics,
    create_fabric,
    fabric_class,
    parse_fabric,
    register_fabric,
    unregister_fabric,
)
from repro.common.types import NetworkMessage
from repro.node.machine import Machine
from repro.sim import Simulator, start_process


# ----------------------------------------------------------------------
# Grammar
# ----------------------------------------------------------------------
class TestFabricGrammar:
    def test_bare_kinds_parse(self):
        for name in ("ideal", "xbar", "mesh", "torus"):
            spec = parse_fabric(name)
            assert spec.kind == name
            assert not spec.explicit_dims

    def test_explicit_dims_parse(self):
        spec = parse_fabric("mesh4x4")
        assert (spec.kind, spec.width, spec.height) == ("mesh", 4, 4)
        spec = parse_fabric("torus8x8")
        assert (spec.kind, spec.width, spec.height) == ("torus", 8, 8)
        spec = parse_fabric("mesh2x3")
        assert (spec.width, spec.height) == (2, 3)

    def test_unknown_kind_names_field(self):
        with pytest.raises(FabricError, match="kind"):
            parse_fabric("hypercube")

    def test_case_hint(self):
        with pytest.raises(FabricError, match="mesh4x4"):
            parse_fabric("Mesh4x4")

    def test_alias_hint(self):
        with pytest.raises(FabricError, match="xbar"):
            parse_fabric("crossbar")

    def test_dims_on_non_grid_rejected(self):
        with pytest.raises(FabricError, match="dims"):
            parse_fabric("xbar4x4")
        with pytest.raises(FabricError, match="dims"):
            parse_fabric("ideal2x2")

    def test_leading_zero_dims_rejected(self):
        with pytest.raises(FabricError, match="leading zeros"):
            parse_fabric("mesh04x4")

    @pytest.mark.parametrize("padded", [" mesh4x4", "mesh4x4 ", "\tideal"])
    def test_padded_names_rejected_with_canonical_hint(self, padded):
        """' mesh4x4' must not alias 'mesh4x4' into a distinct spec hash."""
        with pytest.raises(FabricError, match=f"write {padded.strip()!r}"):
            parse_fabric(padded)

    def test_non_string_name_rejected(self):
        with pytest.raises(FabricError, match="must be a string"):
            parse_fabric(5)

    def test_zero_dims_rejected(self):
        with pytest.raises(FabricError, match="positive"):
            parse_fabric("mesh0x4")

    def test_garbage_rejected(self):
        for name in ("", "4x4", "mesh4x4x4", "mesh4", "meshx4"):
            with pytest.raises(FabricError):
                parse_fabric(name)

    def test_auto_dims_near_square(self):
        spec = parse_fabric("mesh")
        assert spec.resolve_dims(16) == (4, 4)
        assert spec.resolve_dims(8) == (2, 4)
        assert spec.resolve_dims(12) == (3, 4)
        assert spec.resolve_dims(64) == (8, 8)
        assert spec.resolve_dims(7) == (1, 7)
        assert spec.resolve_dims(2) == (1, 2)

    def test_explicit_dims_must_match_node_count(self):
        with pytest.raises(FabricError, match="16 nodes"):
            parse_fabric("mesh4x4").resolve_dims(8)

    def test_non_grid_has_no_dims(self):
        with pytest.raises(FabricError, match="grid"):
            parse_fabric("ideal").resolve_dims(16)


# ----------------------------------------------------------------------
# MachineParams integration
# ----------------------------------------------------------------------
class TestParamsValidation:
    def test_default_is_ideal(self):
        assert DEFAULT_PARAMS.fabric == "ideal"

    def test_bad_fabric_name_raises(self):
        with pytest.raises(FabricError):
            MachineParams(fabric="hypercube").validate()

    def test_grid_dims_checked_against_num_nodes(self):
        with pytest.raises(FabricError):
            MachineParams(fabric="mesh4x4", num_nodes=8).validate()
        MachineParams(fabric="mesh4x4", num_nodes=16).validate()

    def test_fabric_knob_floors(self):
        with pytest.raises(ParameterError):
            MachineParams(fabric_hop_cycles=0).validate()
        with pytest.raises(ParameterError):
            MachineParams(fabric_link_bytes_per_cycle=0).validate()

    def test_spec_params_reach_the_machine(self):
        spec = ExperimentSpec(
            kind="macro", workload="gauss", num_nodes=4, params={"fabric": "torus2x2"}
        ).validate()
        machine = Machine.from_spec(spec)
        assert isinstance(machine.fabric, TorusFabric)
        assert (machine.fabric.width, machine.fabric.height) == (2, 2)

    def test_fabric_changes_spec_hash(self):
        base = ExperimentSpec(kind="macro", workload="gauss", num_nodes=4)
        meshed = base.with_overrides(params={"fabric": "mesh"})
        assert base.spec_hash() != meshed.spec_hash()


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_builtin_kinds_available(self):
        kinds = {info.kind: info for info in available_fabrics()}
        assert set(kinds) >= {"ideal", "xbar", "mesh", "torus"}
        assert all(info.builtin for info in kinds.values())
        assert kinds["mesh"].cls_name == "MeshFabric"

    def test_fabric_class_unknown_kind(self):
        with pytest.raises(FabricError, match="unknown fabric kind"):
            fabric_class("fattree")

    def test_machine_builds_each_builtin(self):
        expected = {
            "ideal": IdealFabric,
            "xbar": CrossbarFabric,
            "mesh": MeshFabric,
            "torus": TorusFabric,
        }
        for kind, cls in expected.items():
            machine = Machine.build(
                "CNI16Qm", "memory", num_nodes=4,
                params=MachineParams(fabric=kind).validate(),
            )
            assert type(machine.fabric) is cls

    def test_register_plugin_fabric(self):
        @register_fabric("snail")
        class SnailFabric(AbstractFabric):
            """Everything takes 1234 cycles."""

            kind = "snail"

            def delivery_delay(self, message):
                return 1234

            def ack_delay(self, from_node, to_node):
                return 1234

        try:
            params = MachineParams(fabric="snail", num_nodes=2).validate()
            machine = Machine.build("CNI16Qm", "memory", num_nodes=2, params=params)
            assert type(machine.fabric) is SnailFabric
            kinds = {info.kind: info for info in available_fabrics()}
            assert not kinds["snail"].builtin
        finally:
            unregister_fabric("snail")
        with pytest.raises(FabricError):
            MachineParams(fabric="snail", num_nodes=2).validate()

    def test_register_rejects_bad_kind_and_class(self):
        with pytest.raises(FabricError, match="lowercase"):
            register_fabric("Mesh2", IdealFabric)
        with pytest.raises(FabricError, match="AbstractFabric"):
            register_fabric("thing", object)

    def test_builtin_kinds_are_sealed(self):
        with pytest.raises(FabricError, match="built in"):
            register_fabric("mesh", IdealFabric)
        with pytest.raises(FabricError, match="built in"):
            unregister_fabric("mesh")
        assert fabric_class("mesh") is MeshFabric

    def test_network_fabric_alias_is_ideal(self):
        assert NetworkFabric is IdealFabric

    def test_create_fabric_resolves_explicit_dims(self):
        params = MachineParams(fabric="mesh2x2", num_nodes=4).validate()
        fabric = create_fabric(Simulator(), params)
        assert isinstance(fabric, MeshFabric)
        assert (fabric.width, fabric.height) == (2, 2)


class _SetDelayFabric(AbstractFabric):
    """A plugin fabric whose delay hooks return whatever the test sets."""

    kind = "setdelay"
    delivery = 100
    ack = 100

    def delivery_delay(self, message):
        return self.delivery

    def ack_delay(self, from_node, to_node):
        return self.ack


def _two_node_fabric(**delays):
    sim = Simulator()
    fabric = _SetDelayFabric(sim, DEFAULT_PARAMS)
    for hook, delay in delays.items():
        setattr(fabric, hook, delay)
    for node_id in (0, 1):
        fabric.attach(node_id, lambda message: None, lambda source: None)
    return sim, fabric


#: Delays a plugin may return that are not a non-negative ``int``.
BAD_DELAYS = [-40, 100.5, 100.0, True, None]


class TestPluginDelayChecks:
    """A plugin's delays are checked where the fabric schedules them: the
    kernel checks nothing, and a negative delay moves simulated time back."""

    @pytest.mark.parametrize("delay", BAD_DELAYS)
    def test_bad_delivery_delay_rejected_at_injection(self, delay):
        sim, fabric = _two_node_fabric(delivery=delay)
        with pytest.raises(NetworkError, match="delivery_delay must be a non-negative int"):
            fabric.inject(NetworkMessage(source=0, dest=1, payload_bytes=8))
        assert sim.peek() is None

    @pytest.mark.parametrize("delay", BAD_DELAYS)
    def test_bad_ack_delay_rejected_at_send(self, delay):
        sim, fabric = _two_node_fabric(ack=delay)
        with pytest.raises(NetworkError, match="ack_delay must be a non-negative int"):
            fabric.send_ack(1, 0)
        assert sim.peek() is None

    def test_zero_delays_are_accepted(self):
        sim, fabric = _two_node_fabric(delivery=0, ack=0)
        message = NetworkMessage(source=0, dest=1, payload_bytes=8)
        fabric.inject(message)
        fabric.send_ack(1, 0)
        assert sim.run() == 0
        assert message.deliver_time == message.inject_time == 0
        assert fabric.stats.as_dict()["acks_delivered"] == 1

    def test_negative_delay_fails_the_point_instead_of_reporting_it(self):
        # A registered fabric whose delivery_delay is -40 used to move time
        # backwards and still report a plausible round trip.
        @register_fabric("backwards")
        class BackwardsFabric(IdealFabric):
            kind = "backwards"

            def delivery_delay(self, message):
                return -40

        spec = ExperimentSpec(
            kind="latency", device="CNI16Q", message_bytes=64, iterations=4, warmup=1,
            params={"fabric": "backwards"},
        )
        try:
            with pytest.raises(NetworkError, match="got -40"):
                run_point(spec)
        finally:
            unregister_fabric("backwards")


# ----------------------------------------------------------------------
# Timing units
# ----------------------------------------------------------------------
def _grid(kind: str, name: str, num_nodes: int):
    """A directly-constructed grid fabric with sinks on every node."""
    params = MachineParams(fabric=name, num_nodes=num_nodes).validate()
    sim = Simulator()
    fabric = fabric_class(kind)(sim, params, spec=parse_fabric(name))
    inboxes = {}
    for node in range(num_nodes):
        inboxes[node] = []
        fabric.attach(node, inboxes[node].append, lambda src: None)
    return sim, fabric, inboxes


#: Serialization cycles of a 64-byte payload (76 wire bytes at 8 B/cycle).
SER_64 = 10
#: Serialization cycles of the 12-byte ack header.
SER_ACK = 2


class TestCrossbarTiming:
    def _fabric(self, num_nodes=4):
        params = MachineParams(fabric="xbar", num_nodes=num_nodes).validate()
        sim = Simulator()
        fabric = CrossbarFabric(sim, params, spec=parse_fabric("xbar"))
        inboxes = {}
        for node in range(num_nodes):
            inboxes[node] = []
            fabric.attach(node, inboxes[node].append, lambda src: None)
        return sim, fabric, inboxes

    def test_uncontended_delay_is_latency_plus_serialization(self):
        sim, fabric, inboxes = self._fabric()
        message = NetworkMessage(source=0, dest=1, payload_bytes=64)
        fabric.inject(message)
        sim.run()
        assert inboxes[1] == [message]
        assert message.deliver_time == DEFAULT_PARAMS.network_latency_cycles + SER_64

    def test_output_port_serializes_same_source(self):
        sim, fabric, inboxes = self._fabric()
        first = NetworkMessage(source=0, dest=1, payload_bytes=64)
        second = NetworkMessage(source=0, dest=2, payload_bytes=64)
        fabric.inject(first)
        fabric.inject(second)
        sim.run()
        # The second message waits SER_64 cycles for node 0's injection port.
        assert second.deliver_time - first.deliver_time == SER_64
        assert fabric.stats.get("contention_cycles") == SER_64

    def test_input_port_serializes_same_destination(self):
        sim, fabric, inboxes = self._fabric()
        first = NetworkMessage(source=0, dest=2, payload_bytes=64)
        second = NetworkMessage(source=1, dest=2, payload_bytes=64)
        fabric.inject(first)
        fabric.inject(second)
        sim.run()
        assert [m.source for m in inboxes[2]] == [0, 1]
        assert second.deliver_time - first.deliver_time == SER_64

    def test_distinct_pairs_do_not_interfere(self):
        sim, fabric, _ = self._fabric()
        a = NetworkMessage(source=0, dest=1, payload_bytes=64)
        b = NetworkMessage(source=2, dest=3, payload_bytes=64)
        fabric.inject(a)
        fabric.inject(b)
        sim.run()
        assert a.deliver_time == b.deliver_time
        assert fabric.stats.get("contention_cycles") == 0


class TestMeshTiming:
    def test_single_hop_delay(self):
        sim, fabric, inboxes = _grid("mesh", "mesh4x4", 16)
        message = NetworkMessage(source=0, dest=1, payload_bytes=64)
        fabric.inject(message)
        sim.run()
        assert inboxes[1] == [message]
        assert message.deliver_time == DEFAULT_PARAMS.fabric_hop_cycles + SER_64

    def test_corner_to_corner_dimension_order(self):
        sim, fabric, inboxes = _grid("mesh", "mesh4x4", 16)
        # X first (0->1->2->3), then Y (3->7->11->15): six hops.
        assert fabric.route(0, 15) == ((0, 1), (1, 2), (2, 3), (3, 7), (7, 11), (11, 15))
        message = NetworkMessage(source=0, dest=15, payload_bytes=64)
        fabric.inject(message)
        sim.run()
        assert message.deliver_time == 6 * DEFAULT_PARAMS.fabric_hop_cycles + SER_64
        assert fabric.stats.get("hops") == 6

    def test_mesh_does_not_wrap(self):
        _, fabric, _ = _grid("mesh", "mesh4x4", 16)
        assert fabric.hops(0, 3) == 3
        assert fabric.hops(12, 0) == 3

    def test_shared_link_contention(self):
        sim, fabric, _ = _grid("mesh", "mesh1x4", 4)
        a = NetworkMessage(source=0, dest=3, payload_bytes=64)
        b = NetworkMessage(source=1, dest=3, payload_bytes=64)
        fabric.inject(a)
        fabric.inject(b)
        sim.run()
        # a reserves link (1,2) for [8, 18); b's head reaches node 1 at
        # cycle 0 and must wait the remaining 18 cycles of that window.
        assert fabric.stats.get("contention_cycles") > 0
        assert b.deliver_time > a.deliver_time

    def test_per_pair_ordering_preserved(self):
        sim, fabric, inboxes = _grid("mesh", "mesh4x4", 16)
        messages = [
            NetworkMessage(source=0, dest=15, payload_bytes=64, seq=i) for i in range(5)
        ]
        for message in messages:
            fabric.inject(message)
        sim.run()
        assert [m.seq for m in inboxes[15]] == [0, 1, 2, 3, 4]
        times = [m.deliver_time for m in inboxes[15]]
        assert times == sorted(times)
        assert len(set(times)) == len(times)

    def test_ack_takes_reverse_path_with_header_serialization(self):
        sim, fabric, _ = _grid("mesh", "mesh4x4", 16)
        acks = []
        fabric.detach(0)
        fabric.attach(0, lambda m: None, acks.append)
        fabric.send_ack(from_node=15, to_node=0)
        sim.run()
        assert acks == [15]
        assert sim.now == 6 * DEFAULT_PARAMS.fabric_hop_cycles + SER_ACK

    def test_reverse_directions_are_independent_links(self):
        sim, fabric, _ = _grid("mesh", "mesh4x4", 16)
        a = NetworkMessage(source=0, dest=1, payload_bytes=64)
        b = NetworkMessage(source=1, dest=0, payload_bytes=64)
        fabric.inject(a)
        fabric.inject(b)
        sim.run()
        assert a.deliver_time == b.deliver_time
        assert fabric.stats.get("contention_cycles") == 0

    def test_self_send_loops_back(self):
        sim, fabric, inboxes = _grid("mesh", "mesh4x4", 16)
        message = NetworkMessage(source=5, dest=5, payload_bytes=64)
        fabric.inject(message)
        sim.run()
        assert inboxes[5] == [message]
        assert message.deliver_time == DEFAULT_PARAMS.fabric_hop_cycles + SER_64


class TestDeliveryNotices:
    """``announce_to`` and ``min_delivery_delay``: the early warning that
    lets uncached-status polls sleep (see repro.sim.spinwait)."""

    @pytest.mark.parametrize(
        "kind,name,bound",
        [("ideal", "ideal", 100), ("xbar", "xbar", 100), ("mesh", "mesh4x4", 9), ("torus", "torus4x4", 9)],
    )
    def test_min_delivery_delay_bounds_every_message(self, kind, name, bound):
        sim, fabric, _ = _grid(kind, name, 16)
        assert fabric.min_delivery_delay() == bound
        for source in range(16):
            for dest in range(16):
                message = NetworkMessage(source=source, dest=dest, payload_bytes=0)
                assert fabric.delivery_delay(message) >= bound

    def test_inject_announces_to_the_destination_only(self):
        sim, fabric, inboxes = _grid("mesh", "mesh4x4", 16)
        notices = []
        fabric.announce_to(5, lambda: notices.append(sim.now))

        def sender():
            yield 7
            fabric.inject(NetworkMessage(source=0, dest=5, payload_bytes=64))
            fabric.inject(NetworkMessage(source=0, dest=6, payload_bytes=64))

        start_process(sim, sender(), name="sender")
        sim.run()
        assert notices == [7]
        assert inboxes[5][0].deliver_time >= 7 + fabric.min_delivery_delay()
        fabric.detach(5)
        assert fabric._notices == {}

    @pytest.mark.parametrize("plan,expected", [("drop=1", 0), ("dup=1", 2), ("jitter=40", 1)])
    def test_fault_plan_announces_each_transmission(self, plan, expected):
        """A drop is never transmitted, so never announced; a duplicate is a
        second transmission; jitter only delays delivery past the bound."""
        params = MachineParams(
            num_nodes=2, faults=plan, fault_seed=3, reliable_messaging=True
        ).validate()
        sim = Simulator()
        fabric = create_fabric(sim, params)
        assert type(fabric) is IdealFabric
        inbox = []
        fabric.attach(0, lambda m: None, lambda src: None)
        fabric.attach(1, inbox.append, lambda src: None)
        notices = []
        fabric.announce_to(1, lambda: notices.append(sim.now))
        fabric.inject(NetworkMessage(source=0, dest=1, payload_bytes=64))
        sim.run()
        assert notices == [0] * expected
        assert len(inbox) == expected
        assert fabric.min_delivery_delay() == params.network_latency_cycles
        assert all(m.deliver_time >= fabric.min_delivery_delay() for m in inbox)


class TestTorusTiming:
    def test_wraparound_shortens_rows(self):
        _, fabric, _ = _grid("torus", "torus4x4", 16)
        assert fabric.hops(0, 3) == 1      # 0 -> 3 wraps left
        assert fabric.hops(0, 15) == 2     # one wrap per axis
        assert fabric.hops(0, 5) == 2      # interior routes unchanged

    def test_tie_breaks_toward_increasing_coordinates(self):
        _, fabric, _ = _grid("torus", "torus4x4", 16)
        # Distance 2 each way on a 4-ring: the route must take the +x way.
        assert fabric.route(0, 2) == ((0, 1), (1, 2))

    def test_wraparound_delivery_time(self):
        sim, fabric, inboxes = _grid("torus", "torus4x4", 16)
        message = NetworkMessage(source=0, dest=15, payload_bytes=64)
        fabric.inject(message)
        sim.run()
        assert inboxes[15] == [message]
        assert message.deliver_time == 2 * DEFAULT_PARAMS.fabric_hop_cycles + SER_64


# ----------------------------------------------------------------------
# Equivalence: IdealFabric reproduces the pre-refactor golden physics
# ----------------------------------------------------------------------
class TestIdealEquivalence:
    """The explicit ``fabric="ideal"`` path must reproduce the goldens in
    ``test_device_golden.py`` bit-identically.

    Those numbers were captured *before* the pluggable fabric subsystem
    existed, so they pin the pre-refactor fixed-latency physics — unlike
    comparing against a freshly-built default machine, which would be
    tautological (the default fabric *is* ideal).
    """

    @pytest.mark.parametrize("device", GOLDEN_DEVICES)
    def test_ideal_reproduces_latency_goldens(self, device):
        for size in (16, 256):
            spec = ExperimentSpec(
                kind="latency", device=device, bus="memory",
                message_bytes=size, iterations=10, warmup=4, num_nodes=2,
                params={"fabric": "ideal"},
            )
            metrics = run_point(spec).metrics
            assert metrics["round_trip_cycles"] == GOLDEN[device][f"latency_{size}"]

    @pytest.mark.parametrize("device", GOLDEN_DEVICES)
    def test_ideal_reproduces_macro_goldens(self, device):
        spec = ExperimentSpec(
            kind="macro", device=device, bus="memory",
            workload="em3d", scale=0.25, num_nodes=4,
            params={"fabric": "ideal"},
        )
        metrics = run_point(spec).metrics
        entry = GOLDEN[device]
        assert metrics["cycles"] == entry["macro_cycles"]
        assert metrics["memory_bus_occupancy"] == entry["macro_membus"]
        assert metrics["network_messages"] == entry["macro_netmsgs"]

    @pytest.mark.parametrize("device", GOLDEN_DEVICES)
    def test_ideal_reproduces_device_counter_goldens(self, device):
        machine = Machine.build(
            device, "memory", num_nodes=2,
            params=DEFAULT_PARAMS.with_overrides(fabric="ideal"),
        )
        run_stream(machine, payload_bytes=244, count=8)
        entry = GOLDEN[device]
        assert machine.nodes[0].ni.stats.as_dict() == entry["stream_ni0"]
        assert machine.nodes[1].ni.stats.as_dict() == entry["stream_ni1"]
        assert machine.total_memory_bus_occupancy() == entry["stream_membus"]

    def test_ideal_reproduces_ping_pong_golden(self):
        machine = Machine.build(
            "CNI16Qm", "memory", num_nodes=2,
            params=DEFAULT_PARAMS.with_overrides(fabric="ideal"),
        )
        cycles, _ = run_ping_pong(machine, payload_bytes=64, rounds=4)
        assert cycles == GOLDEN["CNI16Qm"]["pingpong_cycles"]

    def test_ideal_delay_is_fixed_for_all_pairs(self):
        params = MachineParams(num_nodes=16).validate()
        sim = Simulator()
        fabric = IdealFabric(sim, params)
        for node in range(3):
            fabric.attach(node, lambda m: None, lambda src: None)
        near = NetworkMessage(source=0, dest=1, payload_bytes=8)
        far = NetworkMessage(source=0, dest=2, payload_bytes=4096)
        assert fabric.delivery_delay(near) == params.network_latency_cycles
        assert fabric.delivery_delay(far) == params.network_latency_cycles
        assert fabric.ack_delay(2, 0) == params.network_latency_cycles


# ----------------------------------------------------------------------
# Spin-wait elision on variable-latency fabrics
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "fabric,device",
    [
        pytest.param(fabric, device, id=fabric if device == "CNI16Qm" else f"{fabric}-{device}")
        for device in ("CNI16Qm", "NI2w", "CNI4")
        for fabric in ("mesh", "torus", "xbar")
    ],
)
def test_spin_elision_parity_on_topology_fabrics(fabric, device):
    """Elision must stay bit-exact when message latencies vary per hop/load.

    The guard never assumes the 100-cycle constant: it sleeps on the
    device arrival signal and reconstructs the spin arithmetic from the
    measured poll period, so a mesh delivery arriving at any cycle must
    produce identical physics with elision on and off.  The uncached
    status polls of NI2w and CNI4 (a 43-cycle body on the memory bus) arm
    only where the fabric's lead exceeds that body: on the crossbar, not on
    the mesh or torus, whose one-hop lead is 13 cycles.
    """
    fingerprints = {}
    events = {}
    for elide in (True, False):
        params = MachineParams(fabric=fabric, spin_elision=elide).validate()
        machine = Machine.build(device, "memory", num_nodes=8, params=params)
        wl = create_workload("gauss", scale=0.25, seed=12345)
        cycles = machine.run_programs(wl.programs(machine), max_cycles=2_000_000_000)
        fingerprints[elide] = {
            "cycles": cycles,
            "membus": machine.total_memory_bus_occupancy(),
            "network": machine.network_stats(),
            "polls": [
                (node.ni.stats.get("polls"), node.ni.stats.get("empty_polls"))
                for node in machine.nodes
            ],
        }
        events[elide] = machine.sim.event_count
        elided = machine.sim.elided_events
    assert fingerprints[True] == fingerprints[False]
    if device == "CNI16Qm" or fabric == "xbar":
        assert events[True] < events[False]  # elision still removes kernel work
    else:
        assert events[True] == events[False]  # the guard never armed
        assert elided == 0


# ----------------------------------------------------------------------
# Sweep presets
# ----------------------------------------------------------------------
class TestSweepPresets:
    def test_scalability_sweep_shape(self):
        sweep = scalability_sweep()
        points = sweep.expand()
        # fabrics x node counts x trio x (baseline + CNI16Qm)
        assert len(points) == 2 * 5 * 3 * 2
        fabrics = {p.params["fabric"] for p in points}
        assert fabrics == {"ideal", "mesh"}
        assert {p.num_nodes for p in points} == {4, 8, 16, 32, 64}
        assert all(p.kind == "macro" for p in points)

    def test_scalability_sweep_runs_4_to_64_nodes_on_mesh_and_ideal(self):
        sweep = scalability_sweep(
            workloads=("gauss",),
            configs=(("CNI16Qm", "memory"),),
            include_baseline=False,
            node_counts=(4, 64),
            scale=0.125,
        )
        results = SweepRunner().run(sweep)
        assert len(results) == 4
        for result in results:
            assert result.metrics["cycles"] > 0
            assert result.metrics["network_messages"] > 0
        # More nodes move more gauss broadcast traffic at either scale.
        panel = results.pivot(series="num_nodes", x="device", value="network_messages")
        assert panel[64]["CNI16Qm"] > panel[4]["CNI16Qm"]

    def test_network_sensitivity_sweep_shape(self):
        sweep = network_sensitivity_sweep()
        points = sweep.expand()
        # fabrics x latencies x workloads x family configs
        assert len(points) == 3 * 3 * 1 * 3
        hops = {
            (p.params["network_latency_cycles"], p.params["fabric_hop_cycles"])
            for p in points
        }
        # Hop latency scales with the wire latency from the 100/8 reference.
        assert hops == {(25, 2), (100, 8), (400, 32)}

    def test_network_sensitivity_latency_actually_bites(self):
        sweep = network_sensitivity_sweep(
            workloads=("gauss",),
            configs=(("CNI16Qm", "memory"),),
            latencies=(25, 400),
            fabrics=("mesh",),
            num_nodes=4,
            scale=0.25,
        )
        results = SweepRunner().run(sweep)
        by_latency = {
            r.spec.params["network_latency_cycles"]: r.metrics["cycles"] for r in results
        }
        assert by_latency[400] > by_latency[25]
