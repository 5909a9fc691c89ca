"""Fault-injection layer: plan grammar, determinism, recovery, watchdog.

Covers the acceptance criteria of the robustness PR: a lossy plan on a real
topology completes the gauss macrobenchmark through retransmission with
bit-identical reruns, a zero-rate plan is indistinguishable from no plan at
all, the watchdog diagnoses both quiescent deadlocks and spinning stalls
with a wait-for graph, and fault sweeps produce identical results serially
and in parallel.
"""

from __future__ import annotations

import pytest

from repro.api import ExperimentSpec, SweepRunner, fault_sweep, run_point
from repro.apps import DIAGNOSTIC_WORKLOADS, MACROBENCHMARKS, create_workload
from repro.common.params import MachineParams, ParameterError
from repro.faults import (
    FaultPlan,
    FaultPlanError,
    FaultRule,
    parse_inline,
    registered_plans,
    resolve_plan,
    scaled_plan,
)
from repro.node.machine import Machine
from repro.sim import SimulationHangError, WorkloadHangError


def build_machine(device="CNI4Q", num_nodes=8, **params):
    return Machine.build(
        device, "memory", num_nodes=num_nodes,
        params=MachineParams(num_nodes=num_nodes, **params).validate(),
    )


def run_gauss(machine, scale=0.25, seed=12345):
    workload = create_workload("gauss", scale=scale, seed=seed)
    return workload.run(machine, max_cycles=500_000_000)


# ---------------------------------------------------------------------------
# Plan grammar
# ---------------------------------------------------------------------------
class TestPlanGrammar:
    def test_inline_rates_and_jitter(self):
        plan = parse_inline("drop=0.01,dup=0.02,corrupt=0.005,jitter=20")
        rule = plan.rules[0]
        assert rule.drop == 0.01
        assert rule.duplicate == 0.02
        assert rule.corrupt == 0.005
        assert rule.jitter == 20
        assert plan.is_lossy()

    def test_inline_reorder_window_and_down_schedule(self):
        plan = parse_inline("reorder=0.05:40,down=20000/1000")
        rule = plan.rules[0]
        assert rule.reorder == 0.05 and rule.reorder_window == 40
        assert rule.down_period == 20000 and rule.down_cycles == 1000

    def test_link_patterns_match_directionally(self):
        def plan_for(links):
            return FaultPlan(name=links, rules=(FaultRule(links=links, drop=0.5),))

        plan = plan_for("0->1")
        assert plan.rule_for(0, 1) is not None
        assert plan.rule_for(1, 0) is None
        both = plan_for("0<->1")
        assert both.rule_for(0, 1) is not None
        assert both.rule_for(1, 0) is not None
        fan = plan_for("2->*")
        assert fan.rule_for(2, 7) is not None
        assert fan.rule_for(7, 2) is None
        with pytest.raises(FaultPlanError):
            plan_for("x->1")

    def test_invalid_plans_raise(self):
        with pytest.raises(FaultPlanError):
            parse_inline("drop=1.5")
        with pytest.raises(FaultPlanError):
            parse_inline("nonsense=1")
        with pytest.raises(FaultPlanError):
            resolve_plan("no-such-plan")

    def test_builtin_registry_and_scaling(self):
        assert {"zero", "lossy1", "chaos"} <= set(registered_plans())
        assert not resolve_plan("zero").is_lossy()
        assert resolve_plan("lossy1").is_lossy()
        half = scaled_plan(resolve_plan("lossy1"), 0.5)
        assert half.rules[0].drop == pytest.approx(0.005)
        # Scaled plans self-register so specs can name them.
        assert resolve_plan(half.name) is half

    def test_lossy_plan_requires_reliable_messaging(self):
        with pytest.raises(ParameterError):
            MachineParams(faults="lossy1").validate()
        MachineParams(faults="lossy1", reliable_messaging=True).validate()
        # Non-lossy plans (jitter only) need no recovery layer.
        MachineParams(faults="jitter").validate()


# ---------------------------------------------------------------------------
# Determinism and recovery
# ---------------------------------------------------------------------------
class TestFaultDeterminism:
    def test_zero_rate_plan_is_identical_to_no_plan(self):
        plain = run_gauss(build_machine(fabric="mesh"))
        zeroed_machine = build_machine(fabric="mesh", faults="zero")
        zeroed = run_gauss(zeroed_machine)
        assert zeroed.cycles == plain.cycles
        assert zeroed.network_messages == plain.network_messages
        assert zeroed.memory_bus_occupancy == plain.memory_bus_occupancy
        stats = zeroed_machine.fault_stats()
        assert stats["drops"] == 0 if "drops" in stats else True
        assert stats.get("retransmits", 0) == 0

    def test_same_plan_and_seed_is_bit_identical(self):
        outcomes = []
        for _ in range(2):
            machine = build_machine(
                fabric="mesh", faults="lossy1", fault_seed=7, reliable_messaging=True
            )
            result = run_gauss(machine)
            outcomes.append((result, machine.fault_stats(), machine.network_stats()))
        (r1, f1, n1), (r2, f2, n2) = outcomes
        assert r1.cycles == r2.cycles
        assert f1 == f2
        assert n1 == n2

    def test_different_seed_changes_the_fault_pattern(self):
        stats = []
        for seed in (1, 2):
            machine = build_machine(
                fabric="mesh", faults="lossy1", fault_seed=seed, reliable_messaging=True
            )
            run_gauss(machine)
            stats.append(machine.fault_stats())
        assert stats[0] != stats[1]

    def test_acceptance_mesh16_gauss_recovers_through_retransmission(self):
        """The PR's headline scenario: 1% drop + reorder on a 4x4 mesh,
        CNI4Q, fig8 gauss — completes via retransmission, reruns identical."""
        outcomes = []
        for _ in range(2):
            machine = build_machine(
                num_nodes=16, fabric="mesh",
                faults="lossy1", fault_seed=0, reliable_messaging=True,
            )
            result = run_gauss(machine, scale=0.5)
            outcomes.append((result.cycles, machine.fault_stats()))
        (c1, f1), (c2, f2) = outcomes
        assert c1 == c2 and f1 == f2
        assert f1["drops"] > 0
        assert f1["retransmits"] > 0
        assert f1["recoveries"] > 0
        assert f1["retransmit_giveups"] == 0
        assert f1["recovery_latency"]["count"] == f1["recoveries"]


# ---------------------------------------------------------------------------
# Watchdog
# ---------------------------------------------------------------------------
class TestWatchdog:
    def test_hang_is_diagnostic_not_a_macrobenchmark(self):
        assert "hang" in DIAGNOSTIC_WORKLOADS
        assert "hang" not in MACROBENCHMARKS

    def test_quiescent_deadlock_yields_wait_for_graph(self):
        machine = build_machine(num_nodes=4)
        workload = create_workload("hang", mode="quiesce")
        with pytest.raises(SimulationHangError) as excinfo:
            workload.run(machine, max_cycles=50_000_000)
        report = excinfo.value.report
        assert report["kind"] == "quiescent"
        assert report["unfinished"]
        assert any("signal" in line for line in report["wait_for"])
        # Subclass relationship keeps every legacy hang handler working.
        assert isinstance(excinfo.value, WorkloadHangError)

    def test_spinning_stall_is_detected(self):
        machine = build_machine(num_nodes=4, spin_elision=False)
        workload = create_workload("hang", mode="spin")
        with pytest.raises(SimulationHangError) as excinfo:
            workload.run(machine, max_cycles=50_000_000)
        assert excinfo.value.report["kind"] == "stall"

    def test_hang_spec_runs_through_the_api(self):
        spec = ExperimentSpec(
            kind="macro", device="CNI4Q", bus="memory", num_nodes=4,
            workload="hang", max_cycles=50_000_000,
        ).validate()
        with pytest.raises(SimulationHangError):
            run_point(spec)


# ---------------------------------------------------------------------------
# Fault sweeps through the runner
# ---------------------------------------------------------------------------
class TestFaultSweep:
    def test_serial_and_parallel_jobs_agree(self):
        sweep = fault_sweep(
            workloads=("gauss",), num_nodes=4, scale=0.25,
            plans=("lossy1",), seeds=(3, 4),
        )
        serial = SweepRunner(jobs=1).run(sweep)
        parallel = SweepRunner(jobs=2).run(sweep)
        assert [r.metrics for r in serial] == [r.metrics for r in parallel]

    @pytest.mark.parametrize(
        "kind, workload, device",
        [("macro", "gauss", "CNI4Q"), ("traffic", "uniform", "CNI16Qm")],
    )
    def test_fault_metrics_surface_only_under_a_plan(self, kind, workload, device):
        sweep = fault_sweep(
            workloads=(workload,), configs=((device, "memory"),), num_nodes=4,
            scale=0.25, plans=("lossy1",), seeds=(0,),
        )
        faulty = SweepRunner().run([p.with_overrides(kind=kind) for p in sweep.points])[0]
        assert faulty.metrics["fault_retransmits"] > 0
        assert faulty.metrics["fault_drops"] > 0
        plain = SweepRunner().run(
            [
                ExperimentSpec(
                    kind=kind, device=device, bus="memory", num_nodes=4,
                    workload=workload, scale=0.25, params={"fabric": "mesh"},
                )
            ]
        )[0]
        assert not any(key.startswith("fault_") for key in plain.metrics)

    def test_fault_plan_folds_into_the_spec_hash(self):
        base = dict(
            kind="macro", device="CNI4Q", bus="memory", num_nodes=4,
            workload="gauss", scale=0.25,
        )
        plain = ExperimentSpec(**base, params={"fabric": "mesh"})
        faulty = ExperimentSpec(
            **base,
            params={
                "fabric": "mesh", "faults": "lossy1", "fault_seed": 0,
                "reliable_messaging": True,
            },
        )
        reseeded = ExperimentSpec(
            **base,
            params={
                "fabric": "mesh", "faults": "lossy1", "fault_seed": 1,
                "reliable_messaging": True,
            },
        )
        hashes = {plain.spec_hash(), faulty.spec_hash(), reseeded.spec_hash()}
        assert len(hashes) == 3
