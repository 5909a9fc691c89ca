"""Command-line entry point to regenerate the paper's tables and figures.

Usage::

    python -m repro.experiments.run tables
    python -m repro.experiments.run fig6 [--quick] [--jobs 4]
    python -m repro.experiments.run fig7 [--quick] [--jobs 4]
    python -m repro.experiments.run fig8 [--quick] [--scale 0.5] [--nodes 16]
    python -m repro.experiments.run occupancy [--quick]
    python -m repro.experiments.run scalability [--quick] [--jobs 4]
    python -m repro.experiments.run netsense [--quick] [--jobs 4]
    python -m repro.experiments.run protocols [--quick] [--jobs 4]
    python -m repro.experiments.run faults [--quick] [--jobs 4]
    python -m repro.experiments.run traffic [--quick] [--jobs 4]
    python -m repro.experiments.run all [--quick] [--json results.json]
    python -m repro.experiments.run analyze {lint,statkeys,conflicts,determinism} [...]
    python -m repro.experiments.run serve [--port 8042] [--jobs 4] [...]
    python -m repro.experiments.run cache {stats,ls,gc,pin,unpin} [...]

``all`` regenerates the paper artifacts (tables + figures).  The
beyond-the-paper sweeps are separate commands: ``scalability`` re-runs the
fig8 macro trio from 4 to 64 nodes on the ideal and mesh fabrics,
``netsense`` sweeps latency x topology x device family, ``protocols``
re-runs the macro trio under every shipped coherence rule table, and
``faults`` runs macro workloads under deterministic fault-injection plans
with the reliable messaging layer recovering lost traffic, ``traffic``
sweeps the registered synthetic traffic generators (uniform, hotspot,
transpose, bursty) and fine-grain patterns (allreduce, halo, psrpc, kv)
over device x bus cells (all powered by the :mod:`repro.api` presets; the
nightly CI pipeline drives them with ``--json`` to archive the structured
results).

``--point-timeout S``, ``--max-retries N`` and ``--fail-fast`` harden long
sweeps: points run on workers even without ``--jobs``, a hung or crashed
point costs only its own worker (killed and replaced) and is retried, and
at worst one point is recorded failed instead of wedging the sweep.

Every experiment goes through :mod:`repro.api`: ``--jobs N`` fans the sweep
out over N worker processes (a point that fails on a worker is recorded
failed, not raised), ``--cache-dir`` (default ``.repro-cache``)
memoises every simulated point on disk so re-running a figure is
near-instant, ``--no-cache`` disables that, and ``--json PATH`` writes the
full structured :class:`~repro.api.ResultSet` (plus table rows, when tables
were regenerated) to ``PATH``.

The on-disk memo is a :class:`~repro.service.store.ResultStore` — the same
sharded content-addressed store ``serve`` (the HTTP experiment service,
see :mod:`repro.service`) reads and writes, so figures regenerated here are
served warm over the wire and vice versa; ``cache`` administers it
(``stats``/``ls``/``gc``/``pin``/``unpin``).  Flat ``<kind>-<key>.json``
files that older versions left in the cache directory are ignored.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import List, Optional

from repro.api import (
    SweepRunner,
    fault_sweep,
    network_sensitivity_sweep,
    paper_tables,
    protocol_sweep,
    scalability_sweep,
    speedups,
)
from repro.experiments import figures, report
from repro.service.store import DEFAULT_CACHE_DIR


def _print(text: str) -> None:
    sys.stdout.write(text)
    sys.stdout.flush()


_TABLE_TITLES = {
    "table1": "Table 1: Network interface devices",
    "table2": "Table 2: Bus occupancy (processor cycles)",
    "table3": "Table 3: Macrobenchmarks",
    "table4": "Table 4: CNI vs other network interfaces",
}


def run_tables() -> dict:
    rows = paper_tables()
    for key in sorted(_TABLE_TITLES):
        _print(report.format_table(rows[key], _TABLE_TITLES[key]))
        _print("\n")
    return rows


def run_fig6(quick: bool, runner: SweepRunner) -> None:
    series = figures.figure6_latency(quick=quick, runner=runner)
    _print(
        report.format_figure(
            series,
            "Figure 6: round-trip latency (microseconds) vs message size (bytes)",
            x_label="device",
        )
    )


def run_fig7(quick: bool, runner: SweepRunner) -> None:
    series = figures.figure7_bandwidth(quick=quick, runner=runner)
    _print(
        report.format_figure(
            series,
            "Figure 7: relative bandwidth (fraction of 2-processor max) vs message size (bytes)",
            x_label="device",
        )
    )


def run_fig8(quick: bool, scale: float, nodes: int, runner: SweepRunner) -> None:
    series = figures.figure8_macro(quick=quick, scale=scale, num_nodes=nodes, runner=runner)
    _print(report.format_speedups(series, "Figure 8: macrobenchmark speedup over NI2w on the memory bus"))


def run_occupancy(quick: bool, scale: float, nodes: int, runner: SweepRunner) -> None:
    series = figures.occupancy_reduction(quick=quick, scale=scale, num_nodes=nodes, runner=runner)
    rows = []
    for workload, values in series.items():
        row = {"workload": workload}
        row.update({device: f"{value:.1%}" for device, value in values.items()})
        rows.append(row)
    _print(report.format_table(rows, "Memory-bus occupancy reduction vs NI2w (Section 5.2)"))


def run_scalability(quick: bool, runner: SweepRunner) -> None:
    """Node-count scalability: the fig8 macro trio per (fabric, scale)."""
    if quick:
        sweep = scalability_sweep(
            workloads=("gauss", "em3d"), node_counts=(4, 8, 16), scale=0.25
        )
    else:
        sweep = scalability_sweep()
    results = runner.run(sweep)
    rows = []
    for fabric in sorted({r.spec.params.get("fabric", "ideal") for r in results}):
        subset = results.filter(lambda r, f=fabric: r.spec.params.get("fabric") == f)
        for num_nodes in sorted({r.spec.num_nodes for r in subset}):
            cell = subset.filter(num_nodes=num_nodes)
            for workload in sorted({r.spec.workload for r in cell}):
                row = {"fabric": fabric, "nodes": num_nodes, "workload": workload}
                gains = speedups(cell, workload)
                for config, gain in sorted(gains.items()):
                    row[config] = f"{gain:.2f}x"
                rows.append(row)
    _print(report.format_table(rows, "Scalability: speedup over NI2w/memory per (fabric, node count)"))


def run_netsense(quick: bool, runner: SweepRunner) -> None:
    """Network sensitivity: latency x topology x device family."""
    if quick:
        sweep = network_sensitivity_sweep(
            latencies=(25, 100), fabrics=("ideal", "mesh"), num_nodes=8, scale=0.25
        )
    else:
        sweep = network_sensitivity_sweep()
    results = runner.run(sweep)
    rows = []
    for result in results:
        params = result.spec.params
        rows.append(
            {
                "fabric": params.get("fabric", "ideal"),
                "latency": params.get("network_latency_cycles", 100),
                "workload": result.spec.workload,
                "config": result.spec.config,
                "cycles": f"{result.metrics['cycles']:,.0f}",
            }
        )
    _print(report.format_table(rows, "Network sensitivity: completion cycles by latency x topology x device"))


def run_faults(quick: bool, runner: SweepRunner) -> None:
    """Fault-injection axis: macro runs per (plan, seed) with recovery stats."""
    if quick:
        sweep = fault_sweep(
            workloads=("gauss",), num_nodes=8, scale=0.25, seeds=(0,)
        )
    else:
        sweep = fault_sweep(
            workloads=("gauss", "em3d"), plans=("zero", "lossy1", "lossy5"), seeds=(0, 1)
        )
    results = runner.run(sweep)
    rows = []
    for result in results:
        params = result.spec.params
        row = {
            "plan": params.get("faults", ""),
            "seed": params.get("fault_seed", 0),
            "workload": result.spec.workload,
            "config": result.spec.config,
        }
        if result.error is not None:
            row["cycles"] = "FAILED"
            row["error"] = result.error
        else:
            row["cycles"] = f"{result.metrics['cycles']:,.0f}"
            row["drops"] = f"{result.metrics.get('fault_drops', 0):,.0f}"
            row["retransmits"] = f"{result.metrics.get('fault_retransmits', 0):,.0f}"
            row["recoveries"] = f"{result.metrics.get('fault_recoveries', 0):,.0f}"
        rows.append(row)
    _print(report.format_table(rows, "Fault injection: macro completion and recovery per (plan, seed)"))


def run_protocols(quick: bool, runner: SweepRunner) -> None:
    """Coherence-protocol axis: the macro trio per registered rule table."""
    if quick:
        sweep = protocol_sweep(workloads=("gauss",), num_nodes=8, scale=0.25)
    else:
        sweep = protocol_sweep()
    results = runner.run(sweep)
    rows = []
    for protocol in sorted({r.spec.params.get("protocol", "moesi") for r in results}):
        subset = results.filter(
            lambda r, p=protocol: r.spec.params.get("protocol") == p
        )
        for workload in sorted({r.spec.workload for r in subset}):
            for result in subset.filter(workload=workload):
                rows.append(
                    {
                        "protocol": protocol,
                        "workload": workload,
                        "config": result.spec.config,
                        "cycles": f"{result.metrics['cycles']:,.0f}",
                        "membus occ": f"{result.metrics['memory_bus_occupancy']:,.0f}",
                    }
                )
    _print(report.format_table(rows, "Coherence protocols: macro completion cycles per rule table"))


def run_traffic(quick: bool, runner: SweepRunner) -> None:
    """Synthetic-traffic axis: registered patterns x (device, bus)."""
    from repro.api import traffic_sweep

    if quick:
        sweep = traffic_sweep(
            patterns=("uniform", "hotspot", "allreduce"),
            num_nodes=8,
            scale=0.25,
        )
    else:
        sweep = traffic_sweep()
    results = runner.run(sweep)
    rows = []
    for result in results:
        row = {
            "pattern": result.spec.workload,
            "config": result.spec.config,
        }
        if result.error is not None:
            row["cycles"] = "FAILED"
            row["error"] = result.error
        else:
            metrics = result.metrics
            row["cycles"] = f"{metrics['cycles']:,.0f}"
            row["messages"] = f"{metrics['network_messages']:,.0f}"
            row["msgs/kcyc"] = f"{metrics.get('messages_per_kcycle', 0.0):.2f}"
            row["MB/s"] = f"{metrics.get('delivered_mbps', 0.0):.1f}"
        rows.append(row)
    _print(report.format_table(rows, "Synthetic traffic: delivered load per pattern x configuration"))


def _progress(completed: int, total: int, result) -> None:
    sys.stderr.write(f"\r  [{completed}/{total}] {result.spec.describe():<60}")
    if completed == total:
        sys.stderr.write("\n")
    sys.stderr.flush()


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "analyze":
        # Partition-safety analyzer: lint / conflicts / determinism.
        from repro.analysis.__main__ import main as analysis_main

        return analysis_main(argv[1:])
    if argv and argv[0] == "serve":
        # HTTP experiment service over the shared result store.
        from repro.service.__main__ import main as serve_main

        return serve_main(argv[1:])
    if argv and argv[0] == "cache":
        # Store admin: stats / ls / gc / pin / unpin.
        from repro.service.admin import main as admin_main

        return admin_main(argv[1:])
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument(
        "experiment",
        choices=["tables", "fig6", "fig7", "fig8", "occupancy", "scalability", "netsense", "protocols", "faults", "traffic", "all"],
        help="which experiment to regenerate",
    )
    parser.add_argument("--quick", action="store_true", help="smaller, faster sweep")
    parser.add_argument("--scale", type=float, default=1.0, help="macrobenchmark problem scale")
    parser.add_argument("--nodes", type=int, default=16, help="number of nodes for macrobenchmarks")
    parser.add_argument("--jobs", type=int, default=1, help="worker processes for sweep execution")
    parser.add_argument("--json", metavar="PATH", help="write structured results to PATH")
    parser.add_argument(
        "--cache-dir",
        default=DEFAULT_CACHE_DIR,
        help=f"on-disk result cache directory (default: {DEFAULT_CACHE_DIR})",
    )
    parser.add_argument("--no-cache", action="store_true", help="disable the on-disk result cache")
    parser.add_argument("--progress", action="store_true", help="report per-point progress on stderr")
    parser.add_argument(
        "--point-timeout", type=float, default=None, metavar="S",
        help="wall-clock budget per point in seconds; overruns are killed and "
        "recorded as failed instead of hanging the sweep",
    )
    parser.add_argument(
        "--max-retries", type=int, default=0,
        help="re-run a crashed or timed-out point this many times before recording failure",
    )
    parser.add_argument(
        "--fail-fast", action="store_true",
        help="abort the sweep on the first failed point (exit nonzero)",
    )
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error("--jobs must be >= 1")
    if args.max_retries < 0:
        parser.error("--max-retries must be >= 0")

    runner = SweepRunner(
        jobs=args.jobs,
        cache_dir=None if args.no_cache else args.cache_dir,
        progress=_progress if args.progress else None,
        point_timeout_s=args.point_timeout,
        max_retries=args.max_retries,
        fail_fast=args.fail_fast,
    )

    start = time.time()
    table_rows = None
    if args.experiment in ("tables", "all"):
        table_rows = run_tables()
    if args.experiment in ("fig6", "all"):
        run_fig6(args.quick, runner)
    if args.experiment in ("fig7", "all"):
        run_fig7(args.quick, runner)
    if args.experiment in ("fig8", "all"):
        run_fig8(args.quick, args.scale, args.nodes, runner)
    if args.experiment in ("occupancy", "all"):
        run_occupancy(args.quick, args.scale, args.nodes, runner)
    if args.experiment == "scalability":
        run_scalability(args.quick, runner)
    if args.experiment == "netsense":
        run_netsense(args.quick, runner)
    if args.experiment == "protocols":
        run_protocols(args.quick, runner)
    if args.experiment == "faults":
        run_faults(args.quick, runner)
    if args.experiment == "traffic":
        run_traffic(args.quick, runner)
    elapsed = time.time() - start

    if args.json:
        payload = runner.history.to_dict()
        payload["experiment"] = args.experiment
        payload["elapsed_s"] = elapsed
        payload["cache"] = runner.cache_stats()
        if table_rows is not None:
            payload["tables"] = table_rows
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, sort_keys=True, indent=2)
        _print(f"(wrote {len(runner.history)} results to {args.json})\n")

    _print(f"\n(done in {elapsed:.1f}s)\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
