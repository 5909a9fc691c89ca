"""Spin-wait elision A/B: kernel events executed with elision on vs off.

Runs the Figure-8 macro mix at the paper's machine configuration (16
nodes, full-scale skeletons) twice per device — once with
``spin_elision`` on (the default) and once with the preserved spinning
path — *in the same process*, and reports:

* kernel events executed and events elided per configuration,
* the executed-event reduction on the coherent-queue devices (the
  taxonomy points whose empty polls are cached, so every steady one is
  elidable),
* wall-clock for each mode, per row and for the whole mix (the control
  row's pair shows what a guard that never arms costs in host time).

Every pair is also checked for **bit-identical simulated physics**:
completion cycles, memory- and I/O-bus occupancy, and the device poll
counters must match exactly between the two modes — elision may only
remove kernel work, never change what the machine did.

The mix is the communication-bound trio of the Figure-8 macrobenchmarks
(gauss, em3d, appbt — Table 3's fine-grain/bursty/hot-spot patterns) on
the five paper devices over the ideal fabric.  NI2w and CNI4 poll
uncached status registers: each empty poll occupies the bus, and it
elides only because the fabric's delivery notice warns the node 104
cycles ahead, longer than the 43-cycle poll body.  Memory-bus NI2w on
the mesh (``mesh4x4`` at 16 nodes) runs as the control row: a one-hop
lead of 13 cycles is shorter than that body, so the guard must refuse to
arm and the row must show *zero* elision.

As a CLI this doubles as a CI perf-smoke gate::

    PYTHONPATH=src python benchmarks/bench_polling.py --check --quick --json BENCH_polling.json

``--check`` exits non-zero if any configuration's simulated physics
differ between modes, if the coherent-queue aggregate shows fewer than
``--min-speedup`` (default 2x) executed-event reduction, if an elidable
row elides nothing, or if the control row elides anything.
"""

from __future__ import annotations

import argparse
import json
import sys
from time import perf_counter

from repro.apps import create_workload
from repro.common.params import DEFAULT_PARAMS
from repro.node.machine import Machine

#: The Figure-8 communication-bound macro trio (Table 3): fine-grain
#: messages (em3d via a custom update protocol), one-to-all broadcasts
#: (gauss) and hot-spot request/reply traffic (appbt).
FIG8_MIX = ("gauss", "em3d", "appbt")
#: Coherent-queue devices: cached empty polls, elidable (paper Sections 3-5).
CQ_DEVICES = ("CNI16Q", "CNI512Q", "CNI16Qm")
#: Uncached-status pollers: elidable on the ideal fabric through delivery
#: notices, whose 104-cycle lead exceeds the 43-cycle memory-bus poll body.
UNCACHED_DEVICES = ("NI2w", "CNI4")
#: Control configuration: the same poll against the mesh's 13-cycle lead,
#: where the guard must refuse to arm.
CONTROL = ("NI2w", "mesh")

#: Full configuration: the paper's 16-node machine at skeleton scale 1.0.
FULL = {"num_nodes": 16, "scale": 1.0}
#: Reduced configuration for CI smoke runs.
QUICK = {"num_nodes": 8, "scale": 0.5}


def run_config(
    device: str, workload_name: str, elide: bool, num_nodes: int, scale: float,
    fabric: str = "ideal",
):
    """One (device, workload) run; returns a comparable physics dict + costs."""
    params = DEFAULT_PARAMS.with_overrides(spin_elision=elide, fabric=fabric)
    machine = Machine.build(device, "memory", num_nodes=num_nodes, params=params)
    workload = create_workload(workload_name, scale=scale)
    start = perf_counter()
    cycles = machine.run_programs(workload.programs(machine), max_cycles=2_000_000_000)
    wall_s = perf_counter() - start
    poll_counters = []
    for node in machine.nodes:
        stats = node.ni.stats
        poll_counters.append((stats.get("polls"), stats.get("empty_polls")))
    return {
        "physics": {
            "cycles": cycles,
            "memory_bus_occupancy": machine.total_memory_bus_occupancy(),
            "io_bus_occupancy": machine.total_io_bus_occupancy(),
            "poll_counters": poll_counters,
        },
        "events": machine.sim.event_count,
        "elided_events": machine.sim.elided_events,
        "elided_cycles": machine.sim.elided_cycles,
        "wall_s": wall_s,
    }


def run_ab(num_nodes: int, scale: float, devices=None, workloads=FIG8_MIX) -> dict:
    """A/B every (device, fabric, workload) point; returns the structured report.

    ``devices`` defaults to the five paper devices on the ideal fabric plus
    the control configuration; a bare device name means the ideal fabric.
    """
    if devices is None:
        configs = [(device, "ideal") for device in CQ_DEVICES + UNCACHED_DEVICES] + [CONTROL]
    else:
        configs = [(device, "ideal") for device in devices]
    rows = []
    mismatches = []
    for device, fabric in configs:
        for workload_name in workloads:
            on = run_config(device, workload_name, True, num_nodes, scale, fabric)
            off = run_config(device, workload_name, False, num_nodes, scale, fabric)
            if on["physics"] != off["physics"]:
                mismatches.append(f"{device}/{fabric}/{workload_name}")
            rows.append(
                {
                    "device": device,
                    "fabric": fabric,
                    "workload": workload_name,
                    "elidable": (device, fabric) != CONTROL,
                    "cycles": on["physics"]["cycles"],
                    "events_off": off["events"],
                    "events_on": on["events"],
                    "elided_events": on["elided_events"],
                    "elided_cycles": on["elided_cycles"],
                    "event_reduction": (
                        off["events"] / on["events"] if on["events"] else 0.0
                    ),
                    "wall_s_off": off["wall_s"],
                    "wall_s_on": on["wall_s"],
                    "physics_identical": on["physics"] == off["physics"],
                }
            )
    cq_rows = [row for row in rows if row["device"] in CQ_DEVICES]
    cq_off = sum(row["events_off"] for row in cq_rows)
    cq_on = sum(row["events_on"] for row in cq_rows)
    total_off = sum(row["events_off"] for row in rows)
    total_on = sum(row["events_on"] for row in rows)
    wall_on = sum(row["wall_s_on"] for row in rows)
    wall_off = sum(row["wall_s_off"] for row in rows)
    elided = sum(row["elided_events"] for row in rows)
    return {
        "num_nodes": num_nodes,
        "scale": scale,
        "rows": rows,
        "mismatches": mismatches,
        "unelided": [
            f"{row['device']}/{row['fabric']}/{row['workload']}"
            for row in rows
            if row["elidable"] and not row["elided_events"]
        ],
        "control_elided": [
            f"{row['device']}/{row['fabric']}/{row['workload']}"
            for row in rows
            if not row["elidable"] and row["elided_events"]
        ],
        "cq_events_off": cq_off,
        "cq_events_on": cq_on,
        "cq_event_reduction": cq_off / cq_on if cq_on else 0.0,
        "events_off": total_off,
        "events_on": total_on,
        "elided_events": elided,
        "elided_fraction": elided / (total_on + elided) if total_on + elided else 0.0,
        "wall_s_off": wall_off,
        "wall_s_on": wall_on,
        "events_per_sec_on": total_on / wall_on if wall_on else 0.0,
        "events_per_sec_off": total_off / wall_off if wall_off else 0.0,
    }


# ----------------------------------------------------------------------
# pytest entries
# ----------------------------------------------------------------------
def test_polling_elision_ab(benchmark):
    from _util import single_run

    report = single_run(benchmark, run_ab, QUICK["num_nodes"], QUICK["scale"])
    print(
        f"\nSpin-elision A/B (quick): CQ events {report['cq_events_off']:,} -> "
        f"{report['cq_events_on']:,} ({report['cq_event_reduction']:.2f}x), "
        f"elided fraction {report['elided_fraction']:.1%}"
    )
    assert report["mismatches"] == []
    assert report["cq_event_reduction"] >= 1.5  # quick mix spins less than full
    # Every elidable row, NI2w and CNI4 included, elides; the control row
    # (NI2w against the mesh's too-short lead) elides nothing.
    assert report["unelided"] == []
    assert report["control_elided"] == []
    assert any(not row["elidable"] for row in report["rows"])


# ----------------------------------------------------------------------
# CLI (CI perf-smoke gate)
# ----------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--quick", action="store_true",
                        help=f"reduced mix ({QUICK['num_nodes']} nodes, scale {QUICK['scale']})")
    parser.add_argument("--check", action="store_true",
                        help="exit non-zero on physics drift, < --min-speedup, an "
                             "elidable row eliding nothing or the control row eliding")
    parser.add_argument("--min-speedup", type=float, default=2.0,
                        help="required executed-event reduction on the CQ aggregate")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="write the report as JSON")
    args = parser.parse_args(argv)

    config = QUICK if args.quick else FULL
    report = run_ab(config["num_nodes"], config["scale"])

    header = (
        f"{'device':9s} {'fabric':6s} {'workload':9s} {'cycles':>10s} {'events off':>11s} "
        f"{'events on':>10s} {'elided':>9s} {'reduction':>9s} {'wall off':>8s} {'wall on':>8s}"
    )
    print(header)
    for row in report["rows"]:
        flag = "" if row["physics_identical"] else "  PHYSICS DRIFT"
        if not row["elidable"]:
            flag += "  (control)"
        print(
            f"{row['device']:9s} {row['fabric']:6s} {row['workload']:9s} {row['cycles']:>10,} "
            f"{row['events_off']:>11,} {row['events_on']:>10,} "
            f"{row['elided_events']:>9,} {row['event_reduction']:>8.2f}x "
            f"{row['wall_s_off']:>7.2f}s {row['wall_s_on']:>7.2f}s{flag}"
        )
    print(
        f"\ncoherent-queue aggregate: {report['cq_events_off']:,} -> "
        f"{report['cq_events_on']:,} executed events "
        f"({report['cq_event_reduction']:.2f}x reduction)"
    )
    print(
        f"whole mix: {report['elided_events']:,} events elided "
        f"({report['elided_fraction']:.1%} of the spinning total), "
        f"wall {report['wall_s_off']:.2f}s -> {report['wall_s_on']:.2f}s"
    )

    if args.json:
        with open(args.json, "w") as fh:
            json.dump(report, fh, indent=2)

    if args.check:
        if report["mismatches"]:
            print(f"FAIL: simulated physics drifted: {report['mismatches']}", file=sys.stderr)
            return 1
        if report["unelided"]:
            print(f"FAIL: elidable rows elided nothing: {report['unelided']}", file=sys.stderr)
            return 1
        if report["control_elided"]:
            print(
                f"FAIL: the guard armed on control rows: {report['control_elided']}",
                file=sys.stderr,
            )
            return 1
        floor = args.min_speedup
        if report["cq_event_reduction"] < floor:
            print(
                f"FAIL: coherent-queue event reduction "
                f"{report['cq_event_reduction']:.2f}x is below the {floor:g}x floor",
                file=sys.stderr,
            )
            return 1
        print(f"check passed: {report['cq_event_reduction']:.2f}x >= {floor:g}x floor")
    return 0


if __name__ == "__main__":
    sys.exit(main())
