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
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.traffic  # noqa: F401 — register the shipped patterns
from repro.api import ExperimentSpec, SweepRunner, fault_sweep, run_point
from repro.apps import create_workload
from repro.apps.registry import workload_names
from repro.apps.workload import run_spec
from repro.common.params import MachineParams, ParameterError
from repro.common.types import NetworkMessage
from repro.faults import (
    FaultInjector,
    FaultPlan,
    FaultPlanError,
    FaultRule,
    parse_inline,
    registered_plans,
    resolve_plan,
)
from repro.network.registry import create_fabric, fabric_class
from repro.node.machine import Machine
from repro.sim import SimulationHangError, Simulator, WorkloadHangError


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

    def test_builtin_registry(self):
        assert {"zero", "lossy1", "chaos"} <= set(registered_plans())
        assert not resolve_plan("zero").is_lossy()
        assert resolve_plan("lossy1").is_lossy()
        # A plan name resolves only if it is registered at import time or is
        # inline grammar, so it means the same in every process.
        with pytest.raises(FaultPlanError):
            resolve_plan("lossy1*0.5")

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
# Faults inside the fabric
# ---------------------------------------------------------------------------
PAPER_DEVICES = ("NI2w", "CNI4", "CNI16Q", "CNI512Q", "CNI16Qm")


@st.composite
def _small_workload_points(draw):
    kind = draw(st.sampled_from(("macro", "traffic")))
    return dict(
        kind=kind,
        workload=draw(st.sampled_from(workload_names(kind))),
        device=draw(st.sampled_from(PAPER_DEVICES)),
        num_nodes=draw(st.integers(4, 8)),
        scale=draw(st.sampled_from((0.1, 0.2))),
        fabric=draw(st.sampled_from(("ideal", "xbar", "mesh", "torus"))),
    )


def _observed(point, **params):
    spec = ExperimentSpec(
        kind=point["kind"], workload=point["workload"], device=point["device"],
        bus="memory", num_nodes=point["num_nodes"], scale=point["scale"],
        params={"fabric": point["fabric"], **params},
    ).validate()
    machine, result = run_spec(spec)
    return {
        "cycles": result.cycles,
        "network": machine.network_stats(),
        "memory_bus_occupancy": result.memory_bus_occupancy,
        "io_bus_occupancy": result.io_bus_occupancy,
        "events": machine.sim.event_count,
    }


class TestFaultsInsideTheFabric:
    @given(_small_workload_points())
    @settings(max_examples=20, deadline=None)
    def test_zero_plan_is_no_plan(self, point):
        """The zero plan's all-zero links pass straight through: not one
        event, delivery or bus cycle differs from running without a plan."""
        assert _observed(point, faults="zero") == _observed(point)

    @pytest.mark.parametrize("kind", ["ideal", "xbar", "mesh", "torus"])
    def test_the_fabric_carries_the_plan(self, kind):
        machine = build_machine(
            num_nodes=4, fabric=kind, faults="lossy1", fault_seed=2,
            reliable_messaging=True,
        )
        assert type(machine.fabric) is fabric_class(kind)
        assert machine.partition_map()["fabric"] == (machine.fabric,)
        faults = machine.fabric.faults
        assert isinstance(faults, FaultInjector)
        assert (faults.plan, faults.seed) == (resolve_plan("lossy1"), 2)
        assert build_machine(num_nodes=4, fabric=kind).fabric.faults is None

    def test_extra_delay_summary_matches_the_delays_added(self):
        params = MachineParams(
            num_nodes=2, faults="dup=0.2,jitter=40", fault_seed=5,
            reliable_messaging=True,
        ).validate()
        sim = Simulator()
        fabric = create_fabric(sim, params)
        inbox = []
        fabric.attach(0, lambda message: None, lambda source: None)
        fabric.attach(1, inbox.append, lambda source: None)
        for _ in range(50):
            fabric.inject(NetworkMessage(source=0, dest=1, payload_bytes=64))
        sim.run()
        stats = fabric.faults.fault_stats()
        assert len(inbox) == 50 + stats["duplicates"]
        # Every message was injected at cycle 0; what arrived later than the
        # fabric's latency was held back by the fault layer.
        extras = [m.deliver_time - params.network_latency_cycles for m in inbox]
        extras = [extra for extra in extras if extra]
        assert len(extras) == stats["delayed"] + stats["duplicates"]
        assert stats["extra_delay_mean"] == round(sum(extras) / len(extras), 3)
        assert stats["extra_delay_max"] == float(max(extras))


# ---------------------------------------------------------------------------
# Watchdog
# ---------------------------------------------------------------------------
class TestWatchdog:
    def test_hang_is_diagnostic_not_a_macrobenchmark(self):
        assert "hang" in workload_names("diagnostic")
        assert "hang" not in workload_names("macro")

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
