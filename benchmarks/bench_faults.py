"""Fault-layer overhead benchmark: the zero-rate plan must be ~free.

Whenever a plan is configured the fabric hands every network message to
the plan's ``FaultInjector``, so its no-op cost is the tax every fault
experiment pays before injecting a single fault.  This benchmark
A/B-compares the same gauss run with no plan versus ``faults="zero"`` (all
rates zero) and
gates the **median of the per-round wall-clock ratios**.  The repeats run
in rounds of one run per configuration; each round runs plain and
zero-plan back to back, and they take turns going first, so a drift in
host speed over the measurement lands on both sides of a round's ratio
alike.  A single run caught in a short fast or slow spell of the host moves
one round's ratio, which the median discards; a minimum per side would
pick that run up on one side only and put it on the gated ratio.

Physics is gated too: the zero-rate run must complete in *exactly* the
same number of simulated cycles as the plain run (the fault layer may cost
wall-clock, never simulated time), and a ``lossy1`` run is measured
informationally — cycles, retransmits, recovery count — so the report
tracks the cost of actual recovery, not just the pass-through.

CI perf-smoke gate::

    PYTHONPATH=src python benchmarks/bench_faults.py --quick --check \
        --max-overhead 1.05 --json BENCH_faults.json
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from time import perf_counter

from repro.apps import create_workload
from repro.common.params import MachineParams
from repro.node.machine import Machine

DEVICE = "CNI4Q"

FULL = {"num_nodes": 16, "scale": 1.0, "repeats": 5}
QUICK = {"num_nodes": 8, "scale": 0.25, "repeats": 5}


def run_once(num_nodes: int, scale: float, **param_overrides) -> dict:
    """One gauss run; returns cycles, wall seconds, and fault stats."""
    params = MachineParams(num_nodes=num_nodes, fabric="mesh", **param_overrides)
    machine = Machine.build(DEVICE, "memory", num_nodes=num_nodes, params=params.validate())
    workload = create_workload("gauss", scale=scale, seed=12345)
    start = perf_counter()
    result = workload.run(machine, max_cycles=2_000_000_000)
    wall = perf_counter() - start
    return {
        "cycles": result.cycles,
        "wall_s": wall,
        "fault_stats": machine.fault_stats() if params.faults else None,
    }


#: ``MachineParams`` overrides of each measured configuration.
CONFIGS = {
    "plain": {},
    "zero": {"faults": "zero"},
    "lossy1": {"faults": "lossy1", "fault_seed": 0, "reliable_messaging": True},
}
#: Run order of the even and the odd rounds.
ROUND_ORDERS = (("plain", "zero", "lossy1"), ("zero", "plain", "lossy1"))


def measure(num_nodes: int, scale: float, repeats: int) -> dict:
    """Wall clock of every round per configuration (cycles must not vary)."""
    runs = {name: [] for name in CONFIGS}
    for i in range(repeats):
        for name in ROUND_ORDERS[i % 2]:
            runs[name].append(run_once(num_nodes, scale, **CONFIGS[name]))
    report = {}
    for name, taken in runs.items():
        best = min(taken, key=lambda run: run["wall_s"])
        report[name] = {
            "cycles": best["cycles"],
            "deterministic": len({run["cycles"] for run in taken}) == 1,
            "wall_s_min": best["wall_s"],
            "wall_s_all": [run["wall_s"] for run in taken],
            "fault_stats": best["fault_stats"],
        }
    return report


def run_all(num_nodes: int, scale: float, repeats: int) -> dict:
    measured = measure(num_nodes, scale, repeats)
    plain, zero, lossy = measured["plain"], measured["zero"], measured["lossy1"]
    round_ratios = [z / p for z, p in zip(zero["wall_s_all"], plain["wall_s_all"])]
    overhead = statistics.median(round_ratios)
    recovery_cost = lossy["cycles"] / plain["cycles"] if plain["cycles"] else 0.0
    return {
        "device": DEVICE,
        "num_nodes": num_nodes,
        "scale": scale,
        "repeats": repeats,
        "plain": plain,
        "zero": zero,
        "lossy1": lossy,
        "zero_overhead": overhead,
        "zero_overhead_rounds": round_ratios,
        "zero_cycles_identical": zero["cycles"] == plain["cycles"],
        "all_deterministic": all(m["deterministic"] for m in (plain, zero, lossy)),
        "lossy1_cycle_cost": recovery_cost,
    }


# ----------------------------------------------------------------------
# pytest entry
# ----------------------------------------------------------------------
def test_zero_rate_fault_overhead(benchmark):
    from _util import single_run

    report = single_run(
        benchmark, run_all, QUICK["num_nodes"], QUICK["scale"], QUICK["repeats"]
    )
    print()
    print(
        f"zero-plan overhead: {report['zero_overhead']:.3f}x, "
        f"lossy1 cycle cost: {report['lossy1_cycle_cost']:.3f}x "
        f"({report['lossy1']['fault_stats']['retransmits']} retransmits)"
    )
    assert report["zero_cycles_identical"]
    assert report["all_deterministic"]
    assert report["lossy1"]["fault_stats"]["recoveries"] > 0


# ----------------------------------------------------------------------
# CLI (CI perf-smoke gate)
# ----------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--quick", action="store_true",
                        help=f"reduced run ({QUICK['num_nodes']} nodes, scale {QUICK['scale']})")
    parser.add_argument("--check", action="store_true",
                        help="exit non-zero on overhead or physics failures")
    parser.add_argument("--max-overhead", type=float, default=1.05,
                        help="fail --check if the median per-round zero-plan/plain "
                             "wall-clock ratio exceeds this")
    parser.add_argument("--repeats", type=int, default=None,
                        help="wall-clock repeats per side (default: 5)")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="write the report as JSON")
    args = parser.parse_args(argv)

    config = dict(QUICK if args.quick else FULL)
    if args.repeats is not None:
        config["repeats"] = args.repeats
    report = run_all(config["num_nodes"], config["scale"], config["repeats"])
    report["max_overhead"] = args.max_overhead

    stats = report["lossy1"]["fault_stats"]
    print(f"{'configuration':14s} {'cycles':>12s} {'wall(min)':>10s}")
    for name in ("plain", "zero", "lossy1"):
        row = report[name]
        print(f"{name:14s} {row['cycles']:>12,} {row['wall_s_min']:>9.3f}s")
    print(
        f"zero-plan overhead: {report['zero_overhead']:.3f}x median of rounds "
        f"{', '.join(f'{r:.3f}' for r in report['zero_overhead_rounds'])} "
        f"(gate {args.max_overhead:g}x), lossy1 cycle cost: "
        f"{report['lossy1_cycle_cost']:.3f}x, retransmits: "
        f"{stats['retransmits']}, recoveries: {stats['recoveries']}"
    )

    if args.json:
        with open(args.json, "w") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
        print(f"wrote {args.json}")

    if args.check:
        failures = []
        if not report["zero_cycles_identical"]:
            failures.append(
                f"zero-plan cycles {report['zero']['cycles']:,} != "
                f"plain {report['plain']['cycles']:,}"
            )
        if not report["all_deterministic"]:
            failures.append("cycle counts varied across repeats")
        if report["zero_overhead"] > args.max_overhead:
            failures.append(
                f"zero-plan overhead {report['zero_overhead']:.3f}x exceeds "
                f"{args.max_overhead:g}x"
            )
        if stats["recoveries"] <= 0:
            failures.append("lossy1 run recovered nothing — fault layer inert?")
        if stats["retransmit_giveups"] > 0:
            failures.append(f"{stats['retransmit_giveups']} retransmit give-ups")
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1 if failures else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
