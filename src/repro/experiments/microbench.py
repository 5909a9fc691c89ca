"""Microbenchmarks: process-to-process round-trip latency and bandwidth.

These reproduce the two microbenchmarks of Section 5.1: messages travel
from a user buffer in the sending processor's cache, through the NI and the
network, to a user buffer in the receiving processor's cache (so the
numbers include the messaging-layer overhead, as in the paper).  Results
are steady-state averages over many iterations after a warm-up period.

:func:`measure_latency` and :func:`measure_bandwidth` are the measure
functions of the ``latency`` and ``bandwidth`` experiment kinds: each
builds the machine a validated spec describes, runs node 0 against node 1
and returns the kind's metrics dict.
"""

from __future__ import annotations

from typing import Dict, List

from repro.node.machine import Machine


class MicrobenchmarkError(RuntimeError):
    """Raised when a microbenchmark cannot complete."""


#: Message sizes (user payload bytes) of Figure 6.
FIG6_MESSAGE_SIZES = (8, 16, 32, 64, 128, 256)
#: Message sizes (user payload bytes) of Figure 7.
FIG7_MESSAGE_SIZES = (8, 16, 64, 256, 512, 1024, 2048, 4096)

#: Poll backoff used by the microbenchmark loops (cycles).
_POLL_BACKOFF = 10


def measure_latency(spec) -> Dict[str, float]:
    """Steady-state process-to-process round-trip latency (Figure 6)."""
    machine = Machine.from_spec(spec)
    ml0, ml1 = machine.messaging[0], machine.messaging[1]
    warmup = spec.resolved_warmup()
    total_rounds = warmup + spec.iterations

    pongs = {"count": 0}
    pings = {"count": 0}
    samples: List[int] = []

    ml1.register_handler(
        "ping",
        lambda ml, src, nbytes, body: _count_and_reply(ml, src, nbytes, pings),
    )
    ml0.register_handler("pong", lambda ml, src, nbytes, body: pongs.__setitem__("count", pongs["count"] + 1))

    def sender():
        sim = machine.sim
        for round_index in range(total_rounds):
            start = sim.now
            yield from ml0.send_active_message(1, "ping", spec.message_bytes)
            yield from ml0.poll_wait(
                lambda round_index=round_index: pongs["count"] > round_index,
                backoff=_POLL_BACKOFF,
            )
            if round_index >= warmup:
                samples.append(sim.now - start)

    def responder():
        yield from ml1.poll_wait(
            lambda: pings["count"] >= total_rounds, backoff=_POLL_BACKOFF
        )

    max_cycles = spec.max_cycles if spec.max_cycles is not None else 400_000_000
    machine.run_programs({0: sender(), 1: responder()}, max_cycles=max_cycles)
    if len(samples) != spec.iterations:
        raise MicrobenchmarkError(
            f"expected {spec.iterations} samples, collected {len(samples)}"
        )
    round_trip_cycles = sum(samples) / len(samples)
    round_trip_us = round_trip_cycles / 200.0  # 200 MHz processor clock
    return {
        "round_trip_cycles": round_trip_cycles,
        "round_trip_us": round_trip_us,
        "one_way_us": round_trip_us / 2.0,
        "iterations": float(spec.iterations),
    }


def _count_and_reply(ml, source: int, nbytes: int, pings: dict):
    pings["count"] += 1
    yield from ml.send_active_message(source, "pong", nbytes)


def measure_bandwidth(spec) -> Dict[str, float]:
    """Steady-state process-to-process bandwidth (Figure 7).

    Node 0 streams ``spec.messages`` user messages of ``spec.message_bytes``
    each to node 1 after a warm-up stream; the measured interval runs from
    the first measured send to the receipt of the last message at node 1.
    """
    machine = Machine.from_spec(spec)
    ml0, ml1 = machine.messaging[0], machine.messaging[1]
    warmup = spec.resolved_warmup()
    total = warmup + spec.messages

    received = {"count": 0, "end": None}

    def on_data(ml, src, nbytes, body):
        received["count"] += 1
        if received["count"] == total:
            received["end"] = machine.sim.now
        return None

    ml1.register_handler("data", on_data)

    marks = {}

    def sender():
        for index in range(total):
            if index == warmup:
                marks["start"] = machine.sim.now
            yield from ml0.send_active_message(1, "data", spec.message_bytes)

    def receiver():
        yield from ml1.poll_wait(
            lambda: received["count"] >= total, backoff=_POLL_BACKOFF
        )

    max_cycles = spec.max_cycles if spec.max_cycles is not None else 800_000_000
    machine.run_programs({0: sender(), 1: receiver()}, max_cycles=max_cycles)
    if received["end"] is None or "start" not in marks:
        raise MicrobenchmarkError("bandwidth run did not complete")
    total_cycles = max(1, received["end"] - marks["start"])
    bytes_per_cycle = (spec.message_bytes * spec.messages) / total_cycles
    bandwidth_mbps = bytes_per_cycle * 200.0  # bytes/us == MB/s at 200 MHz
    max_bandwidth_mbps = machine.params.max_local_cq_bandwidth_mbps()
    return {
        "total_cycles": float(total_cycles),
        "bandwidth_mbps": bandwidth_mbps,
        "relative_bandwidth": (
            bandwidth_mbps / max_bandwidth_mbps if max_bandwidth_mbps > 0 else 0.0
        ),
        "max_bandwidth_mbps": max_bandwidth_mbps,
        "messages": float(spec.messages),
    }
