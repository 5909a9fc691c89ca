"""Golden-value tests: the five paper devices are bit-identical across refactors.

The numbers below were captured from the pre-device-kit implementation (the
hand-written NI2w/CNI4/CNI16Q/CNI512Q/CNI16Qm classes) and pin the exact
cycle counts, bus occupancies and device-counter values of representative
Figure 6 (latency) and Figure 8 (macro) runs.  The composable device kit
must assemble devices that reproduce these stats exactly — any drift means
the refactor changed simulated behaviour, not just code structure.

Audited after the software-buffer readback fix (MessagingLayer.poll now
re-reads a drained message from the address it was copied to, not the
buffer base): a regeneration via tests/_capture_golden.py reproduced every
pinned value bit-for-bit, because none of the golden scenarios blocks long
enough to fall back to user-space buffering.  The fix itself is pinned by
tests/test_spin_elision.py.  Spin-wait elision (on by default) is likewise
invisible here by design: golden runs must not depend on the toggle.

``golden_counters.json`` pins every counter, not only cycles and NI
counters: each node's interconnect, processor, NI, caches and memory on
gauss and em3d over ``COUNTER_CONFIGS`` (conftest.py).  A dropped or
misspelt counter on the bus, cache or NI paths fails it.
"""

import json
from pathlib import Path

import pytest

from conftest import (
    COUNTER_CONFIGS,
    COUNTER_WORKLOADS,
    build_machine,
    counter_snapshot,
    run_ping_pong,
    run_stream,
)
from repro.api import ExperimentSpec, run_point

GOLDEN = {
    "CNI16Q": {
        "latency_16": 694.6,
        "latency_256": 1825.5,
        "macro_cycles": 12378.0,
        "macro_membus": 21266.0,
        "macro_netmsgs": 123.0,
        "pingpong_cycles": 4785,
        "stream_membus": 4448,
        "stream_ni0": {
            "message_ready_signals": 8,
            "messages_injected": 8,
            "messages_sent": 8,
            "send_shadow_refreshes": 2,
            "uncached_stores": 8
        },
        "stream_ni1": {
            "acks_returned": 8,
            "empty_polls": 28,
            "messages_accepted": 8,
            "messages_received": 8,
            "network_arrivals": 8,
            "polls": 36,
            "recv_shadow_refreshes": 2
        }
    },
    "CNI16Qm": {
        "latency_16": 746.8,
        "latency_256": 2120.0,
        "macro_cycles": 11767.0,
        "macro_membus": 21808.0,
        "macro_netmsgs": 123.0,
        "pingpong_cycles": 4785,
        "stream_membus": 5078,
        "stream_ni0": {
            "message_ready_signals": 8,
            "messages_injected": 8,
            "messages_sent": 8,
            "send_shadow_refreshes": 2,
            "uncached_stores": 8
        },
        "stream_ni1": {
            "acks_returned": 8,
            "empty_polls": 32,
            "messages_accepted": 8,
            "messages_received": 8,
            "network_arrivals": 8,
            "polls": 40
        }
    },
    "CNI4": {
        "latency_16": 930.0,
        "latency_256": 2224.0,
        "macro_cycles": 16464.0,
        "macro_membus": 31566.0,
        "macro_netmsgs": 123.0,
        "pingpong_cycles": 5152,
        "stream_membus": 5468,
        "stream_ni0": {
            "empty_polls": 7,
            "messages_injected": 8,
            "messages_sent": 8,
            "polls": 7,
            "send_full": 21,
            "send_ready_signals": 8,
            "uncached_loads": 36,
            "uncached_stores": 8
        },
        "stream_ni1": {
            "acks_returned": 8,
            "empty_polls": 13,
            "messages_accepted": 8,
            "messages_received": 8,
            "network_arrivals": 8,
            "polls": 21,
            "recv_pops": 8,
            "uncached_loads": 29,
            "uncached_stores": 8
        }
    },
    "CNI512Q": {
        "latency_16": 738.0,
        "latency_256": 2167.6,
        "macro_cycles": 12183.0,
        "macro_membus": 19116.0,
        "macro_netmsgs": 123.0,
        "pingpong_cycles": 4785,
        "stream_membus": 4930,
        "stream_ni0": {
            "message_ready_signals": 8,
            "messages_injected": 8,
            "messages_sent": 8,
            "uncached_stores": 8
        },
        "stream_ni1": {
            "acks_returned": 8,
            "empty_polls": 32,
            "messages_accepted": 8,
            "messages_received": 8,
            "network_arrivals": 8,
            "polls": 40
        }
    },
    "NI2w": {
        "latency_16": 904.0,
        "latency_256": 5101.0,
        "macro_cycles": 15190.0,
        "macro_membus": 26576.0,
        "macro_netmsgs": 123.0,
        "pingpong_cycles": 6884,
        "stream_membus": 11024,
        "stream_ni0": {
            "messages_injected": 8,
            "messages_sent": 8,
            "uncached_loads": 8,
            "uncached_stores": 256
        },
        "stream_ni1": {
            "acks_returned": 8,
            "empty_polls": 12,
            "messages_accepted": 8,
            "messages_received": 8,
            "network_arrivals": 8,
            "polls": 20,
            "recv_fifo_full_stalls": 2,
            "uncached_loads": 276
        }
    }
}

DEVICES = sorted(GOLDEN)


@pytest.mark.parametrize("device", DEVICES)
@pytest.mark.parametrize("size", [16, 256])
def test_latency_pinned(device, size):
    spec = ExperimentSpec(
        kind="latency", device=device, bus="memory",
        message_bytes=size, iterations=10, warmup=4, num_nodes=2,
    )
    metrics = run_point(spec).metrics
    assert metrics["round_trip_cycles"] == GOLDEN[device][f"latency_{size}"]


@pytest.mark.parametrize("device", DEVICES)
def test_macro_pinned(device):
    spec = ExperimentSpec(
        kind="macro", device=device, bus="memory",
        workload="em3d", scale=0.25, num_nodes=4,
    )
    metrics = run_point(spec).metrics
    entry = GOLDEN[device]
    assert metrics["cycles"] == entry["macro_cycles"]
    assert metrics["memory_bus_occupancy"] == entry["macro_membus"]
    assert metrics["network_messages"] == entry["macro_netmsgs"]


@pytest.mark.parametrize("device", DEVICES)
def test_ping_pong_pinned(device):
    machine = build_machine(device, "memory", num_nodes=2)
    cycles, _ = run_ping_pong(machine, payload_bytes=64, rounds=4)
    assert cycles == GOLDEN[device]["pingpong_cycles"]


@pytest.mark.parametrize("device", DEVICES)
def test_stream_device_counters_pinned(device):
    """Every per-device counter after a fixed stream run, both endpoints."""
    machine = build_machine(device, "memory", num_nodes=2)
    run_stream(machine, payload_bytes=244, count=8)
    entry = GOLDEN[device]
    assert machine.nodes[0].ni.stats.as_dict() == entry["stream_ni0"]
    assert machine.nodes[1].ni.stats.as_dict() == entry["stream_ni1"]
    assert machine.total_memory_bus_occupancy() == entry["stream_membus"]


COUNTER_GOLDEN = json.loads((Path(__file__).parent / "golden_counters.json").read_text())


@pytest.mark.parametrize("config", sorted(COUNTER_CONFIGS))
@pytest.mark.parametrize("workload", COUNTER_WORKLOADS)
def test_every_counter_pinned(workload, config):
    """Every counter of every bus agent, interconnect, processor and NI."""
    assert counter_snapshot(config, workload) == COUNTER_GOLDEN[f"{workload}/{config}"]
