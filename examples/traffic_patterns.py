#!/usr/bin/env python
"""Synthetic traffic, trace recording, and the plugin path for both registries.

Three things in one script:

1. **Traffic patterns as first-class workloads** — run the registered
   synthetic generators (uniform, hotspot, transpose, bursty) and the
   fine-grain patterns (allreduce, halo, psrpc, kv) across device cells
   with the same declarative sweep API the paper figures use.

2. **Trace recording** — capture one pattern's NI message stream to a
   trace file and read it back: an export of who sent how many bytes to
   whom, for looking into a run's traffic.

3. **The plugin path** — registries are open: a custom workload
   (``@register_workload``) and a custom experiment kind
   (``register_kind``) drop into the same sweep machinery with no core
   edits, exactly like the device/fabric/protocol kits.

Run with::

    python examples/traffic_patterns.py [--nodes 8] [--scale 0.25] [--jobs 2]
"""

import argparse
import os
import tempfile

from repro.api import ExperimentSpec, SweepRunner, register_kind, traffic_sweep, unregister_kind
from repro.api.runner import run_point
from repro.apps import available_workloads, register_workload, unregister_workload
from repro.experiments.report import format_table
from repro.traffic import TrafficWorkload, Phase, Send
from repro.trace import read_trace, record_trace

import repro.traffic  # noqa: F401 — registers the shipped patterns


def traffic_table(args) -> None:
    """Part 1: the shipped patterns across two device cells."""
    runner = SweepRunner(jobs=args.jobs)
    sweep = traffic_sweep(num_nodes=args.nodes, scale=args.scale)
    results = runner.run(sweep)
    rows = [
        {
            "pattern": r.spec.workload,
            "config": r.spec.config,
            "cycles": f"{r.metrics['cycles']:,.0f}",
            "messages": f"{r.metrics['network_messages']:,.0f}",
            "MB/s": f"{r.metrics.get('delivered_mbps', 0.0):.1f}",
        }
        for r in results
    ]
    print(format_table(rows, "Shipped traffic patterns x device"))


def record_demo(args) -> None:
    """Part 2: record a hotspot run's message stream and summarise it."""
    spec = ExperimentSpec(
        kind="traffic",
        device="CNI16Qm",
        bus="memory",
        workload="hotspot",
        num_nodes=args.nodes,
        scale=args.scale,
    )
    with tempfile.TemporaryDirectory() as tmp:
        summary = record_trace(spec, os.path.join(tmp, "hotspot.json.gz"))
        _, events = read_trace(summary.path)
    received = [0] * summary.num_nodes
    for stream in events:
        for _dt, dest, _nbytes in stream:
            received[dest] += 1
    print(
        f"recorded {summary.messages:,} messages / {summary.payload_bytes:,} payload "
        f"bytes of {spec.describe()} ({summary.cycles:,} cycles, digest "
        f"{summary.digest[:12]})\nmessages received per node: {received}\n"
    )


def plugin_demo(args) -> None:
    """Part 3: a custom workload and a custom kind through the registries."""

    @register_workload(tags=("traffic",))
    class RingTraffic(TrafficWorkload):
        """Each node streams to its clockwise ring neighbour."""

        name = "ring"
        key_communication = "Ring neighbour stream"

        def plan(self, num_nodes):
            count = self.scaled(16, self.scale)
            plans = []
            for node in range(num_nodes):
                sends = tuple(
                    Send(dest=(node + 1) % num_nodes, user_bytes=128, gap=40)
                    for _ in range(count)
                )
                plans.append([Phase(sends=sends, expect=count)])
            return plans

    def measure_ring_rtt(spec):
        """A custom kind: run the pattern, report one derived number."""
        from repro.traffic.measure import run_traffic_point

        metrics = run_traffic_point(spec)
        metrics["cycles_per_message"] = metrics["cycles"] / max(
            1.0, metrics["network_messages"]
        )
        return metrics

    register_kind(
        "ring-rtt",
        measure_ring_rtt,
        validate=lambda spec: None,
        describe=lambda spec: f"ring x{spec.scale:g} on {spec.num_nodes} nodes",
    )
    try:
        assert "ring" in available_workloads(tag="traffic")
        spec = ExperimentSpec(
            kind="ring-rtt",
            device="CNI16Qm",
            bus="memory",
            workload="ring",
            num_nodes=args.nodes,
            scale=args.scale,
        )
        result = run_point(spec)
        print(
            f"custom kind {spec.kind!r} / custom workload {spec.workload!r}: "
            f"{result.metrics['cycles_per_message']:.0f} cycles/message "
            f"({result.metrics['network_messages']:.0f} messages)\n"
        )
    finally:
        # Plugins unregister cleanly; the built-in surface is untouched.
        unregister_kind("ring-rtt")
        unregister_workload("ring")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--nodes", type=int, default=8)
    parser.add_argument("--scale", type=float, default=0.25)
    parser.add_argument("--jobs", type=int, default=1)
    args = parser.parse_args()
    traffic_table(args)
    record_demo(args)
    plugin_demo(args)


if __name__ == "__main__":
    main()
