"""Partition-safety analyzer: lint rules, conflict detector, sanitizer, CLI."""

import json
import re

import pytest

from repro.analysis import lint as lint_mod
from repro.analysis import determinism as determinism_mod
from repro.analysis.__main__ import main as analysis_main, matrix_specs
from repro.analysis.conflicts import (
    InstrumentedSimulator,
    TrackedDeque,
    analyze_spec,
    conflict_fixture,
    run_spec_machine,
)
from repro.analysis.determinism import (
    OrderShuffleSimulator,
    _probe_run,
    diff_fingerprints,
    fingerprint_digest,
    machine_fingerprint,
    sanitize_spec,
    strip_elided,
)
from repro.analysis.lint import (
    FIXTURES,
    LintError,
    Rule,
    lint_source,
    lint_tree,
    parse_waivers,
    register_rule,
    unregister_rule,
)
from repro.analysis.ownership import domain_for
from repro.analysis.partitions import EXTERNAL, PartitionResolver, partition_from_name
from repro.analysis.statkeys import generate_registry
from repro.api import ExperimentSpec
from repro.experiments import IO_BUS_DEVICES, MEMORY_BUS_DEVICES
from repro.node.machine import Machine
from repro.sim.engine import Simulator
from repro.sim.process import start_process


SMALL_SPEC = ExperimentSpec(
    kind="macro", device="CNI16Q", bus="memory",
    workload="em3d", scale=0.25, num_nodes=4,
)


# ----------------------------------------------------------------------
# Lint rules
# ----------------------------------------------------------------------
@pytest.mark.parametrize("rule_id", sorted(FIXTURES))
def test_each_rule_fires_on_its_fixture(rule_id):
    relpath, snippet, line = FIXTURES[rule_id]
    findings = lint_source(snippet, relpath)
    assert any(f.rule == rule_id and f.line == line for f in findings), findings


@pytest.mark.parametrize("rule_id", sorted(FIXTURES))
def test_waiver_comment_suppresses_each_rule(rule_id):
    relpath, snippet, line = FIXTURES[rule_id]
    lines = snippet.splitlines()
    lines[line - 1] += f"  # repro: allow[{rule_id}] unit-test waiver"
    findings = lint_source("\n".join(lines) + "\n", relpath)
    hits = [f for f in findings if f.rule == rule_id and f.line == line]
    assert hits and all(f.waived for f in hits)
    assert hits[0].waiver_reason == "unit-test waiver"


def test_lint_self_test_passes():
    assert lint_mod.self_test() == []


def test_cross_rule_ignores_local_variable_attributes():
    # `graph.nodes` on a local is legal; only attribute *chains* reaching
    # another component's .nodes/.messaging are cross-partition.
    findings = lint_source(
        "def local_ok(graph):\n    return graph.nodes\n", "ni/_fixture.py"
    )
    assert not [f for f in findings if f.rule == "CROSS"]


def test_fault_injector_lints_as_part_of_the_fabric():
    assert domain_for("faults/fabric.py") == domain_for("network/fabric.py") == "mediation"
    assert domain_for("faults/plan.py") == "harness"


def test_mutstate_rule_exempts_dunder_exports():
    findings = lint_source(
        '__all__ = ["a", "b"]\n', "ni/_fixture.py"
    )
    assert not [f for f in findings if f.rule == "MUTSTATE"]


_ENUM_LOADS = (
    "from repro.common.types import BusKind, CoherenceState as CS\n"  # 1
    "DEFAULT_BUS = BusKind.MEMORY\n"                                     # 2 module level
    "class Frame:\n"                                                     # 3
    "    state = CS.INVALID\n"                                           # 4 class body
    "    def wipe(self, bus=BusKind.IO, *, to=CS.SHARED):\n"             # 5 defaults
    "        self.valid = lambda: self.state is not CS.INVALID\n"        # 6 lambda body (alias)
    "        return bus is BusKind.CACHE\n"                              # 7 function body
)


@pytest.mark.parametrize(
    "relpath", ["sim/_fixture.py", "ni/_fixture.py", "coherence/bus.py",
                "coherence/cache.py", "coherence/directory.py"],
)
def test_enumattr_flags_only_function_body_loads(relpath):
    findings = [f for f in lint_source(_ENUM_LOADS, relpath) if f.rule == "ENUMATTR"]
    assert [f.line for f in findings] == [6, 7]
    assert "'CS.INVALID'" in findings[0].message


@pytest.mark.parametrize(
    "relpath", ["coherence/protocols/tables.py", "coherence/modelcheck.py",
                "node/node.py", "common/params.py"],
)
def test_enumattr_leaves_build_once_modules_alone(relpath):
    assert not [f for f in lint_source(_ENUM_LOADS, relpath) if f.rule == "ENUMATTR"]


def test_waiver_parser_handles_multiple_rules():
    waivers = parse_waivers(
        ["x = {}  # repro: allow[MUTSTATE, SLOTS] two rules at once"]
    )
    rules, reason = waivers[1]
    assert rules == frozenset({"MUTSTATE", "SLOTS"})
    assert reason == "two rules at once"


def test_unused_waiver_is_a_finding():
    # MUTSTATE fires on the fixture's `_PENDING = {}`, never on `x = 1`.
    findings = lint_source(
        "_PENDING = {}  # repro: allow[MUTSTATE, SLOTS] one used, one not\n"
        "x = 1  # repro: allow[MUTSTATE] nothing here to waive\n",
        "ni/_fixture.py",
    )
    unused = [(f.line, f.message) for f in findings if f.rule == "WAIVER"]
    assert unused == [
        (1, "waiver for SLOTS suppresses no finding on this line"),
        (2, "waiver for MUTSTATE suppresses no finding on this line"),
    ]
    assert not any(f.waived for f in findings if f.rule == "WAIVER")


def test_waiver_syntax_inside_a_string_waives_nothing():
    source = '"""Waive with ``x = {}  # repro: allow[MUTSTATE] reason``."""\n_PENDING = {}\n'
    assert parse_waivers(source.splitlines()) == {}
    findings = lint_source(source, "ni/_fixture.py")
    assert [(f.rule, f.waived) for f in findings] == [("MUTSTATE", False)]


def test_register_rule_plugin():
    class NoTodoRule(Rule):
        id = "NOTODO"
        summary = "test-only rule"

        def applies_to(self, module):
            return True

        def check(self, module, context):
            for i, line in enumerate(module.lines, 1):
                if "TODO" in line:
                    yield i, 0, "TODO found"

    register_rule(NoTodoRule)
    try:
        findings = lint_source("x = 1  # TODO later\n", "ni/_fixture.py")
        assert any(f.rule == "NOTODO" for f in findings)
        with pytest.raises(LintError, match="already registered"):
            register_rule(NoTodoRule)
    finally:
        unregister_rule("NOTODO")
    assert not any(f.rule == "NOTODO" for f in lint_source("x = 1  # TODO\n", "ni/_fixture.py"))


def test_repo_tree_is_lint_clean():
    report = lint_tree()
    assert report.modules_checked > 50
    active = [f.location() + " " + f.rule for f in report.active]
    assert active == [], f"unwaived lint findings: {active}"
    # Every waiver carries a justification.
    assert all(f.waiver_reason for f in report.waived)


def test_stat_key_registry_contains_real_keys():
    registry = generate_registry()
    for key in ("local_deliveries", "barriers", "messages_sent"):
        assert key in registry
    assert "txn_on_memory" in registry  # via the _TXN_BUS_KEY pattern
    assert "no_such_stat_key_xyz" not in registry


# ----------------------------------------------------------------------
# Partition attribution
# ----------------------------------------------------------------------
def test_partition_from_name():
    assert partition_from_name("node3.CNI16Q.extract") == "node3"
    assert partition_from_name("workload-cpu2") == "node2"
    assert partition_from_name("unrelated") is None


def test_partition_map_and_resolver():
    machine = Machine.build(num_nodes=2, ni_name="CNI16Q")
    pmap = machine.partition_map()
    assert set(pmap) == {"fabric", "node0", "node1"}
    resolver = PartitionResolver(machine)
    node0 = machine.nodes[0]
    assert resolver.resolve_owner(node0.ni) == "node0"
    assert resolver.resolve_owner(node0.proc_cache) == "node0"
    assert resolver.resolve_owner(machine.fabric) == "fabric"
    assert resolver.resolve_owner(object()) == EXTERNAL
    # Bound-method resolution: NI delivery callback vs fabric delivery.
    assert resolver.resolve_callback(node0.ni._on_network_message) == "node0"
    assert resolver.resolve_callback(lambda: None) == EXTERNAL


def test_machine_rejects_used_simulator():
    sim = Simulator()
    sim.schedule_call(0, lambda: None, ())
    sim.run()
    with pytest.raises(ValueError):
        Machine.build(num_nodes=2, ni_name="CNI16Q", simulator=sim)


# ----------------------------------------------------------------------
# Conflict detector
# ----------------------------------------------------------------------
def test_conflict_fixture_finds_planted_conflict():
    tracker = conflict_fixture(conflict_cycle=100)
    edge = tracker.edges.get(("node0", "node1", "ni_queue"))
    assert edge is not None
    assert edge.first_cycle == 100
    assert edge.count == 1
    assert edge.example_key == "fixture.queue"
    assert frozenset(("node0", "node1")) in tracker.constraint_pairs()
    # Direct node-to-node sharing is exactly what mediation_only rejects.
    assert tracker.to_dict()["mediation_only"] is False


def test_causally_ordered_accesses_do_not_conflict():
    # node0 writes the queue then wakes node1 in the same cycle; node1's
    # read is a causal descendant of the write, so no conflict edge.
    from repro.sim.process import Signal

    sim = InstrumentedSimulator()
    queue = TrackedDeque(sim.tracker, "ni_queue", "fixture.queue")
    ready = Signal(sim, name="fixture.ready")

    def writer():
        yield 100
        queue.append("payload")
        ready.fire()
        yield 1

    def reader():
        yield ready  # waits from cycle 0; woken same-cycle by the fire
        if queue:
            queue.popleft()
        yield 1

    start_process(sim, writer(), name="node0.fixture")
    start_process(sim, reader(), name="node1.fixture")
    sim.run()
    tracker = sim.finish()
    assert ("node0", "node1", "ni_queue") not in tracker.edges


def test_accesses_outside_events_are_ignored():
    sim = InstrumentedSimulator()
    queue = TrackedDeque(sim.tracker, "ni_queue", "fixture.queue")
    queue.append("setup")  # no event executing: construction-time access
    assert sim.tracker.access_count == 0


def test_delivery_notices_are_fabric_actions_read_by_steady():
    """A notice runs inside the source node's injection event but belongs
    to the fabric; an uncached-poll guard's steady() reads what it wrote.
    A same-cycle pair must surface as a mediation edge, not vanish."""
    sim = InstrumentedSimulator()
    machine = Machine.build("NI2w", "memory", num_nodes=2, simulator=sim)
    tracker = sim.bind_machine(machine)
    tracker.begin_event(100, 1, "node0")  # node0's injection event
    machine.fabric._notices[1]()
    tracker.begin_event(100, 2, "node1")  # node1's poller, same cycle
    assert machine.messaging[1]._recv_spin_guard.steady() is False
    tracker.flush()
    assert machine.nodes[1].ni.announced == 1
    edge = tracker.edges[("fabric", "node1", "fabric")]
    assert edge.example_key == "node1.announced"
    assert tracker.non_mediation_edges() == []


def test_instrumented_macro_matches_plain_kernel():
    tracker, result = analyze_spec(SMALL_SPEC)
    _machine, plain = run_spec_machine(SMALL_SPEC)
    assert result.cycles == plain.cycles
    report = tracker.to_dict()
    assert report["mediation_only"] is True
    # Real conflicts exist (fabric deliveries race node-side polls)...
    assert report["edges"]
    # ...but every edge is mediated: either the fabric is an endpoint, or
    # the racing structure is itself a mediation layer (e.g. node<->node
    # edges on the fabric's injection arbitration).
    for edge in report["edges"]:
        assert (
            "fabric" in edge["partitions"]
            or edge["category"] in ("bus", "directory", "fabric")
        ), edge
    assert set(report["events_by_partition"]) >= {"fabric", "node0", "node1"}


PAPER_CONFIGS = [(device, "memory") for device in MEMORY_BUS_DEVICES] + [
    (device, "io") for device in IO_BUS_DEVICES
]


@pytest.mark.parametrize(
    "device,bus", PAPER_CONFIGS, ids=[f"{d}-{b}" for d, b in PAPER_CONFIGS]
)
def test_hooked_drain_matches_plain_drain(device, bus):
    """With the default hooks, the hooked drain runs the same events in the
    same order as the plain one: equal event count, equal statistics."""
    spec = ExperimentSpec(
        kind="macro", device=device, bus=bus, workload="em3d", scale=0.25, num_nodes=4
    )
    runs = []
    for hooked in (False, True):
        sim = Simulator()
        if hooked:
            sim.enable_hooks()
        machine, result = run_spec_machine(spec, simulator=sim)
        runs.append(
            (sim.event_count, fingerprint_digest(machine_fingerprint(machine, result)))
        )
    assert runs[0] == runs[1]


def test_rejects_non_macro_spec():
    from repro.analysis.conflicts import AnalysisError

    spec = ExperimentSpec(kind="latency", device="CNI16Q", bus="memory")
    with pytest.raises(AnalysisError):
        run_spec_machine(spec)


# ----------------------------------------------------------------------
# Determinism sanitizer
# ----------------------------------------------------------------------
def test_sanitizer_self_test_passes():
    assert determinism_mod.self_test() == []


def test_shuffled_run_is_reproducible_per_seed():
    first = _probe_run(7, dependent=True)
    second = _probe_run(7, dependent=True)
    assert first == second


def test_strip_elided_and_diff():
    base = {"cycles": 10, "elided_cycles": 5, "inner": {"elided_spins": 1, "x": 2}}
    assert strip_elided(base) == {"cycles": 10, "inner": {"x": 2}}
    diffs = diff_fingerprints({"a": 1, "b": [1, 2]}, {"a": 1, "b": [1, 3]})
    assert diffs == ["b[1]: 2 != 3"]


def test_order_shuffle_simulator_groups_by_process_name():
    sim = OrderShuffleSimulator(seed=1)

    def proc():
        yield 1

    process = start_process(sim, proc(), name="node4.worker")
    # The resume callback groups under the process's partition.
    class FakeEvent:
        callback = process._resume

    assert sim.event_group(FakeEvent) == "node4"


def test_sanitize_small_macro_point_is_deterministic():
    # Regression pin (reduced-scale): the fig8-style point must stay
    # bit-identical under shuffled same-cycle tie-breaking.
    outcome = sanitize_spec(SMALL_SPEC, seeds=(11, 23))
    assert outcome.ok, [run.to_dict() for run in outcome.runs]
    # The shuffles genuinely exercised alternative interleaves.
    assert all(run.shuffle_choices > 0 for run in outcome.runs)
    assert outcome.conflict_summary["mediation_only"] is True
    # Derived constraints are empirical; every endpoint is the fabric or a
    # node (node<->node pairs arise from fabric injection arbitration).
    assert outcome.constraints
    assert any("fabric" in pair for pair in outcome.constraints)
    for pair in outcome.constraints:
        for label in pair:
            assert label == "fabric" or re.fullmatch(r"node\d+", label), pair


def test_sanitize_mesh_fabric_point_is_deterministic():
    spec = ExperimentSpec(
        kind="macro", device="CNI4Q", bus="memory",
        workload="gauss", scale=0.25, num_nodes=4,
        params={"fabric": "mesh"},
    )
    outcome = sanitize_spec(spec, seeds=(11,))
    assert outcome.ok, [run.to_dict() for run in outcome.runs]


def test_sanitize_appbt_backpressure_point_is_deterministic():
    # Regression pin for the constraint-closure fixpoint: appbt's hot-spot
    # traffic through the 4-block queue device is the pattern where a
    # shuffled schedule first manufactured fabric<->node races the
    # canonical run never exhibited (full-scale fig8 drifted until the
    # sanitizer learned to close its constraint set over them).
    spec = ExperimentSpec(
        kind="macro", device="CNI4Q", bus="memory",
        workload="appbt", scale=0.25, num_nodes=4,
    )
    outcome = sanitize_spec(spec, seeds=(11, 23))
    assert outcome.ok, [run.to_dict() for run in outcome.runs]
    # Schema: every run reports how many rounds closure took, and any
    # pairs the fixpoint added are surfaced.
    assert all(run.fixpoint_rounds >= 1 for run in outcome.runs)
    payload = outcome.to_dict()
    assert "inferred_constraints" in payload
    assert payload["runs"][0]["fixpoint_rounds"] >= 1


def test_fingerprint_covers_all_stat_surfaces():
    machine, result = run_spec_machine(SMALL_SPEC)
    fingerprint = machine_fingerprint(machine, result)
    assert set(fingerprint) == {
        "cycles", "memory_bus_occupancy", "io_bus_occupancy",
        "user_messages", "network_messages", "network", "coherence",
        "nodes", "messaging",
    }
    blob = json.dumps(fingerprint, sort_keys=True, default=str)
    assert "elided" not in blob


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def test_cli_self_test(capsys):
    assert analysis_main(["--self-test"]) == 0
    assert "planted defects" in capsys.readouterr().out


def test_cli_lint_json(capsys):
    assert analysis_main(["lint", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is True
    assert payload["findings"] == []
    assert payload["modules_checked"] > 50
    assert "counts_by_rule" in payload


def test_cli_statkeys(capsys):
    assert analysis_main(["statkeys", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert "local_deliveries" in payload["literals"]


def test_cli_conflicts_report_shape(tmp_path, capsys):
    out = tmp_path / "partition_conflict_report.json"
    code = analysis_main(
        [
            "conflicts", "--quick", "--out", str(out),
            "--workloads", "em3d", "--devices", "CNI16Q", "--fabrics", "ideal",
        ]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["schema"] == "partition_conflict_report/v1"
    assert payload["mediation_only"] is True
    assert payload["points"]
    point = payload["points"][0]
    assert point["spec"]["workload"] == "em3d"
    assert point["cycles"] > 0
    for edge in payload["merged_edges"]:
        assert len(edge["partitions"]) == 2 and edge["count"] > 0


def test_matrix_specs_cover_full_grid():
    specs = matrix_specs(num_nodes=16, scale=1.0)
    assert len(specs) == 12  # 3 workloads x 2 devices x 2 fabrics
    fabrics = {s.params.get("fabric", "ideal") for s in specs}
    assert fabrics == {"ideal", "mesh4x4"}
    assert {s.device for s in specs} == {"CNI4Q", "CNI16Q"}


def test_run_py_analyze_forwards(capsys):
    from repro.experiments.run import main as run_main

    assert run_main(["analyze", "--self-test"]) == 0
    assert "planted defects" in capsys.readouterr().out
