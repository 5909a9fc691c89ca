"""One-shot helper: capture golden values for tests/test_device_golden.py.

Run from the repo root with ``PYTHONPATH=src:tests python tests/_capture_golden.py``.
The output JSON is pasted into test_device_golden.py as GOLDEN.

``PYTHONPATH=src:tests python tests/_capture_golden.py counters > tests/golden_counters.json``
captures the counter golden instead: every counter of every node's bus
agents, interconnect, processor and NI on the ``COUNTER_CONFIGS`` x
``COUNTER_WORKLOADS`` macro points of conftest.py, one owner per line.
"""

import json
import sys

from conftest import (
    COUNTER_CONFIGS,
    COUNTER_WORKLOADS,
    build_machine,
    counter_snapshot,
    run_ping_pong,
    run_stream,
)
from repro.api import ExperimentSpec, run_point

DEVICES = ("NI2w", "CNI4", "CNI16Q", "CNI512Q", "CNI16Qm")


def device_golden() -> dict:
    golden = {}
    for device in DEVICES:
        entry = {}
        for size in (16, 256):
            spec = ExperimentSpec(
                kind="latency", device=device, bus="memory",
                message_bytes=size, iterations=10, warmup=4, num_nodes=2,
            )
            entry[f"latency_{size}"] = run_point(spec).metrics["round_trip_cycles"]
        spec = ExperimentSpec(
            kind="macro", device=device, bus="memory",
            workload="em3d", scale=0.25, num_nodes=4,
        )
        metrics = run_point(spec).metrics
        entry["macro_cycles"] = metrics["cycles"]
        entry["macro_membus"] = metrics["memory_bus_occupancy"]
        entry["macro_netmsgs"] = metrics["network_messages"]

        machine = build_machine(device, "memory", num_nodes=2)
        cycles, _ = run_ping_pong(machine, payload_bytes=64, rounds=4)
        entry["pingpong_cycles"] = cycles

        machine = build_machine(device, "memory", num_nodes=2)
        run_stream(machine, payload_bytes=244, count=8)
        entry["stream_ni0"] = machine.nodes[0].ni.stats.as_dict()
        entry["stream_ni1"] = machine.nodes[1].ni.stats.as_dict()
        entry["stream_membus"] = machine.total_memory_bus_occupancy()
        golden[device] = entry
    return golden


def counter_golden_text() -> str:
    """``{"<workload>/<config>": {"<owner>": {counter: value}}}``, one owner a line."""
    points = []
    for workload in COUNTER_WORKLOADS:
        for config in COUNTER_CONFIGS:
            snapshot = counter_snapshot(config, workload)
            owners = ",\n".join(
                f"  {json.dumps(owner)}: {json.dumps(snapshot[owner], sort_keys=True)}"
                for owner in sorted(snapshot)
            )
            points.append(f" {json.dumps(f'{workload}/{config}')}: {{\n{owners}\n }}")
    return "{\n" + ",\n".join(points) + "\n}"


if __name__ == "__main__":
    if sys.argv[1:] == ["counters"]:
        print(counter_golden_text())
    else:
        print(json.dumps(device_golden(), indent=1, sort_keys=True))
