"""Simulator-idiom lint: rules, waivers, the stat-key registry and the CLI."""

import json

import pytest

from repro.analysis import lint as lint_mod
from repro.analysis.__main__ import main as analysis_main
from repro.analysis.lint import (
    FIXTURES,
    LintContext,
    LintError,
    Rule,
    lint_source,
    lint_tree,
    parse_waivers,
    register_rule,
    unregister_rule,
)
from repro.analysis.ownership import is_kernel_client
from repro.analysis.statkeys import generate_registry


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


def test_fault_injector_lints_as_part_of_the_fabric():
    assert is_kernel_client("faults/fabric.py") and is_kernel_client("network/fabric.py")
    assert not is_kernel_client("faults/plan.py")


#: Trips MUTSTATE (line 1) and SLOTS (line 4) wherever they apply.
_KERNEL_CLIENT_DEFECTS = "_PENDING = {}\n\n\nclass WakeEvent:\n    pass\n"
_KERNEL_CLIENTS = (
    "sim/_fixture.py", "common/_fixture.py", "coherence/_fixture.py",
    "network/_fixture.py", "node/_fixture.py", "node/machine.py", "ni/_fixture.py",
    "msglayer/_fixture.py", "faults/fabric.py",
)
_HARNESS = (
    "api/_fixture.py", "apps/_fixture.py", "experiments/_fixture.py",
    "service/_fixture.py", "traffic/_fixture.py", "faults/plan.py",
    "analysis/_fixture.py",
)


@pytest.fixture(scope="module")
def lint_context():
    # Built once: collecting the stat-key registry scans the whole tree.
    return LintContext(stat_registry=generate_registry())


@pytest.mark.parametrize("relpath", _KERNEL_CLIENTS + _HARNESS)
def test_mutstate_and_slots_check_kernel_clients_only(relpath, lint_context):
    kernel_client = relpath in _KERNEL_CLIENTS
    assert is_kernel_client(relpath) is kernel_client
    findings = lint_source(_KERNEL_CLIENT_DEFECTS, relpath, context=lint_context)
    fired = {(f.rule, f.line) for f in findings if f.rule in ("MUTSTATE", "SLOTS")}
    assert fired == ({("MUTSTATE", 1), ("SLOTS", 4)} if kernel_client else set())


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


def test_run_py_analyze_forwards(capsys):
    from repro.experiments.run import main as run_main

    assert run_main(["analyze", "--self-test"]) == 0
    assert "planted defects" in capsys.readouterr().out
