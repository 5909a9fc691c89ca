"""The one registry rule, checked on all seven plugin tables.

Devices, fabrics, coherence protocols, workloads, experiment kinds, fault
plans and lint rules are each a :class:`repro.common.registry.Registry`:
a built-in name refuses both register and unregister, a plugin name
registers once and is free again after unregister, and an unknown name
raises the table's own error type with a close-match hint.
"""

import os
import subprocess
import sys
from dataclasses import dataclass, replace
from typing import Any, Callable

import pytest

import repro
import repro.traffic  # noqa: F401 — registers the shipped patterns
from repro.analysis.lint import LintError, Rule, register_rule, registered_rules, unregister_rule
from repro.api import ExperimentSpec, SpecError, SweepRunner, kind_spec, register_kind, unregister_kind
from repro.apps import (
    WorkloadError,
    register_workload,
    unregister_workload,
    workload_class,
)
from repro.apps.workload import Workload
from repro.coherence.protocols import (
    ProtocolError,
    protocol_spec,
    register_protocol,
    unregister_protocol,
)
from repro.faults import (
    FaultPlan,
    FaultPlanError,
    FaultRule,
    register_plan,
    resolve_plan,
    unregister_plan,
)
from repro.network import FabricError, IdealFabric, fabric_class, register_fabric, unregister_fabric
from repro.ni import TaxonomyError, UncachedNI, device_class, register_device, unregister_device


def _fabric(name):
    class PluginFabric(IdealFabric):
        pass

    return register_fabric(name, PluginFabric)


def _device(name):
    class PluginNI(UncachedNI):
        pass

    return register_device(name, PluginNI)


def _protocol(name):
    return register_protocol(replace(protocol_spec("msi"), name=name, description="relabelled"))


def _workload(name):
    class PluginWorkload(Workload):
        def programs(self, machine):
            return [iter(()) for _ in machine.nodes]

    return register_workload(name, tags=("macro",))(PluginWorkload)


def _kind(name):
    return register_kind(name, lambda spec: {"value": 1.0})


def _plan(name):
    return register_plan(FaultPlan(name=name, rules=(FaultRule(jitter=400),)))


def _rule(name):
    class PluginRule(Rule):
        id = name

        def check(self, module, context):
            return iter(())

    return register_rule(PluginRule())


@dataclass(frozen=True)
class Table:
    error: type
    builtin: str
    plugin: str
    register: Callable[[str], Any]
    unregister: Callable[[str], None]
    lookup: Callable[[str], Any]


TABLES = {
    "fabric": Table(FabricError, "mesh", "plugintable", _fabric, unregister_fabric, fabric_class),
    "device": Table(TaxonomyError, "CNI16Qm", "PluginNI", _device, unregister_device, device_class),
    "protocol": Table(
        ProtocolError, "msi", "plugin-msi", _protocol, unregister_protocol, protocol_spec
    ),
    "workload": Table(
        WorkloadError, "gauss", "plugin-work", _workload, unregister_workload, workload_class
    ),
    "kind": Table(SpecError, "macro", "plugin-kind", _kind, unregister_kind, kind_spec),
    "plan": Table(FaultPlanError, "jitter", "plugin-plan", _plan, unregister_plan, resolve_plan),
    "rule": Table(
        LintError, "MUTSTATE", "PLUGINRULE", _rule, unregister_rule,
        lambda name: registered_rules()[name],
    ),
}


@pytest.mark.parametrize("table", TABLES.values(), ids=list(TABLES))
def test_one_rule(table):
    # A built-in refuses both register and unregister, and still resolves
    # to the object it resolved to before.
    before = table.lookup(table.builtin)
    with pytest.raises(table.error, match="built in|taxonomy point"):
        table.register(table.builtin)
    with pytest.raises(table.error, match="built in|taxonomy point"):
        table.unregister(table.builtin)
    assert table.lookup(table.builtin) is before
    # A plugin registers once, refuses a second registration, and is free
    # again after unregister.
    table.register(table.plugin)
    try:
        assert table.lookup(table.plugin) is not None
        with pytest.raises(table.error, match="already registered"):
            table.register(table.plugin)
        # An unknown name raises the table's own error, naming the closest
        # registered one.
        typo = table.plugin[:-1]
        with pytest.raises(table.error, match=f"closest match: '{table.plugin}'"):
            table.unregister(typo)
    finally:
        table.unregister(table.plugin)
    with pytest.raises(table.error):
        table.unregister(table.plugin)
    table.register(table.plugin)
    table.unregister(table.plugin)


def test_builtin_fault_plan_cannot_poison_the_store(tmp_path):
    """A plugin may not register over the built-in ``jitter`` plan, so a
    stored ``faults="jitter"`` point always carries the shipped physics."""
    spec = ExperimentSpec(
        kind="traffic", device="CNI16Qm", bus="memory", workload="uniform",
        num_nodes=4, scale=0.25, params={"faults": "jitter"},
    )
    with pytest.raises(FaultPlanError, match="built in"):
        register_plan(FaultPlan(name="jitter", rules=(FaultRule(jitter=400),)))
    cache_dir = str(tmp_path / "cache")
    SweepRunner(cache_dir=cache_dir).run_one(spec)
    stored = SweepRunner(cache_dir=cache_dir).run_one(spec)
    assert stored.cached
    # The inline plan "jitter=40" is the built-in plan's one rule, under a
    # spec hash of its own.
    inline = SweepRunner().run_one(spec.with_overrides(params={"faults": "jitter=40"}))
    assert resolve_plan("jitter").rules == resolve_plan("jitter=40").rules
    assert stored.metrics["cycles"] == inline.metrics["cycles"]


def test_inline_plan_names_are_built_in():
    with pytest.raises(FaultPlanError, match="inline"):
        register_plan(FaultPlan(name="jitter=40", rules=(FaultRule(jitter=400),)))


def test_traffic_patterns_are_sealed_whatever_the_import_order():
    src = os.path.dirname(os.path.dirname(repro.__file__))
    probe = (
        "import repro.traffic, repro.apps\n"
        "from repro.apps import WorkloadError, unregister_workload\n"
        "try:\n"
        "    unregister_workload('uniform')\n"
        "except WorkloadError as exc:\n"
        "    raise SystemExit(0 if 'built in' in str(exc) else 2)\n"
        "raise SystemExit(1)\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    assert subprocess.run([sys.executable, "-c", probe], env=env).returncode == 0
