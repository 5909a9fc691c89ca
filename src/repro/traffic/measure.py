"""Measure hook for ``kind="traffic"`` experiment points.

Runs a registered traffic pattern on the machine a spec describes and
reports network-centric metrics: beyond the macro run's cycles, bus
occupancies and fault totals, the fabric's delivered payload, the
achieved message rate and (on grid fabrics) hop and contention totals —
the numbers a contention study actually plots.
"""

from __future__ import annotations

from typing import Dict

from repro.apps.workload import run_spec, workload_metrics

#: Simulated processor clock in cycles per microsecond (200 MHz, the
#: paper's machine; same constant the workload layer uses for display).
CYCLES_PER_US = 200.0


def run_traffic_point(spec) -> Dict[str, float]:
    """Execute one traffic point; pure function of the validated spec."""
    machine, result = run_spec(spec)
    metrics = workload_metrics(machine, result)
    net = machine.network_stats()
    cycles = metrics["cycles"]
    metrics["user_messages"] = float(result.user_messages)
    metrics["messages_delivered"] = float(net.get("messages_delivered", 0))
    metrics["payload_bytes"] = float(net.get("payload_bytes", 0))
    if cycles > 0:
        metrics["messages_per_kcycle"] = 1000.0 * metrics["network_messages"] / cycles
        # bytes/cycle x 200 cycles/us = bytes/us = MB/s.
        metrics["delivered_mbps"] = metrics["payload_bytes"] * CYCLES_PER_US / cycles
    for key in ("hops", "contention_cycles"):
        # Grid fabrics only: fault-free ideal/xbar results stay key-stable.
        if key in net:
            metrics[f"fabric_{key}"] = float(net[key])
    return metrics
