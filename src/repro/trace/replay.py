"""Replay a recorded message stream through any device x fabric point.

Replay is the sweep accelerator: instead of re-simulating the workload's
software (messaging-layer overhead cycles, handler dispatch, fragment
reassembly, spin loops), each node's program drives the recorded network
messages straight into the NI hardware model — ``proc_try_send`` for the
send side, ``proc_poll`` to consume arrivals — so the wire traffic, the
device's bus/queue behaviour and the fabric contention are all exercised
at a fraction of the event count.

Two pacing modes: ``"recorded"`` (default) re-issues each message at its
recorded inter-send gap, preserving the original burst structure on the
new target; ``"asap"`` drops the gaps and lets backpressure set the pace
(a saturation probe).

Same-config fidelity: the replayed stream *is* the recorded stream, so
``messages_injected`` and ``payload_bytes`` match the trace exactly on
any target that accepts it (asserted in tests, gated in bench_traffic).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Generator, List, Sequence

from repro.apps.registry import register_workload
from repro.apps.workload import Workload, run_spec, workload_metrics
from repro.common.types import NetworkMessage
from repro.node.machine import Machine
from repro.trace.format import read_header, read_trace

#: Retry delays when the NI refuses a send (window or queue full).  The
#: first retry matches the messaging layer's software cadence; sustained
#: backpressure backs off exponentially so a long-blocked replayer does
#: not burn an uncached status read every 20 cycles (the refusal signal
#: differs per device — window ack vs send-FIFO space — so a bounded
#: probe is the one mechanism that is correct for all of them).
BLOCKED_SEND_BACKOFF_MIN = 20
BLOCKED_SEND_BACKOFF_MAX = 2560

PACING_MODES = ("recorded", "asap")


@register_workload(tags=("trace",))
class TraceReplayWorkload(Workload):
    """Replays a trace file's per-node message streams (see module doc)."""

    name = "replay"
    key_communication = "Recorded stream"
    paper_input = "message-level trace"

    def __init__(
        self,
        scale: float = 1.0,
        seed: int = 12345,
        trace: str = "",
        pacing: str = "recorded",
    ):
        super().__init__(scale=scale, seed=seed)
        if not trace:
            raise ValueError("trace replay needs trace=<path to a recorded trace>")
        if pacing not in PACING_MODES:
            raise ValueError(f"unknown pacing {pacing!r}; choose from {PACING_MODES}")
        self.trace = trace
        self.pacing = pacing

    def programs(self, machine: Machine) -> Sequence[Generator]:
        header, events = read_trace(self.trace)
        num_nodes = len(machine.nodes)
        if header["num_nodes"] != num_nodes:
            raise ValueError(
                f"trace {self.trace!r} was recorded on {header['num_nodes']} "
                f"nodes; this machine has {num_nodes}"
            )
        expected = [0] * num_nodes
        for stream in events:
            for _dt, dest, _nbytes in stream:
                expected[dest] += 1
        sim = machine.sim
        paced = self.pacing == "recorded"

        def program(node_id: int, stream: List[List[int]]):
            ni = machine.nodes[node_id].ni
            # Absolute recorded send times: pacing against the original
            # timeline (not the previous *replayed* send) means a late or
            # blocked send never pushes the rest of the schedule — no
            # cumulative drift on slower targets.
            times: List[int] = []
            clock = 0
            for dt, _dest, _nbytes in stream:
                clock += dt
                times.append(clock)
            index = 0
            received = 0
            backoff = BLOCKED_SEND_BACKOFF_MIN
            drained_fires = -1
            pending = None
            while index < len(stream) or received < expected[node_id]:
                # Sampled before draining: the device fires arrival_signal
                # the moment a message becomes pollable, so an unchanged
                # count after an empty drain proves nothing slipped in
                # during the drain's own bus cycles (no lost wake-up).
                fires = ni.arrival_signal.fire_count
                if fires != drained_fires:
                    drained_fires = fires
                    # Drain arrivals: consuming keeps the remote senders'
                    # windows moving, which is the fetch-deadlock avoidance
                    # the messaging layer implements in software.  Skipped
                    # when the fire count says nothing has arrived since
                    # the last drain — an empty poll is a real uncached
                    # bus read on programmed-I/O devices, not free.
                    while True:
                        message = yield from ni.proc_poll()
                        if message is None:
                            break
                        if not message.is_ack:
                            received += 1
                if index < len(stream):
                    if paced and sim.now < times[index]:
                        # Not due yet: sleep straight to the send time in
                        # one event.  Arrivals queue in the NI meanwhile;
                        # the wake-up drain above keeps senders unblocked.
                        yield times[index] - sim.now
                        continue
                    if pending is None:
                        _dt, dest, nbytes = stream[index]
                        pending = NetworkMessage(
                            source=node_id,
                            dest=dest,
                            payload_bytes=nbytes,
                            seq=index,
                        )
                    accepted = yield from ni.proc_try_send(pending)
                    if accepted:
                        index += 1
                        pending = None
                        backoff = BLOCKED_SEND_BACKOFF_MIN
                    else:
                        yield backoff
                        backoff = min(backoff * 2, BLOCKED_SEND_BACKOFF_MAX)
                elif (
                    received < expected[node_id]
                    and ni.arrival_signal.fire_count == fires
                ):
                    # Everything sent; park on the device's arrival signal
                    # until the next message becomes visible (one event per
                    # arrival instead of a poll/backoff spin).  Guarded by
                    # the fire-count bracket: if a message landed mid-drain
                    # we loop and drain again instead of sleeping past it.
                    yield ni.arrival_signal

        return [program(node_id, events[node_id]) for node_id in range(num_nodes)]


def run_replay_point(spec) -> Dict[str, float]:
    """Measure hook for ``kind="replay"`` experiment points.

    Replays ``spec.workload_kwargs['trace']`` on the machine the spec
    describes and reports the fabric counters next to the trace's own
    totals, so fidelity (`network_messages == trace_messages`,
    ``payload_bytes == trace_payload_bytes``) is visible in every result.
    """
    # A replay point always runs the replay workload, whatever it names.
    machine, result = run_spec(replace(spec, workload=TraceReplayWorkload.name))
    metrics = workload_metrics(machine, result)
    header = read_header(spec.workload_kwargs["trace"])
    net = machine.network_stats()
    cycles = metrics["cycles"]
    metrics["messages_delivered"] = float(net.get("messages_delivered", 0))
    metrics["payload_bytes"] = float(net.get("payload_bytes", 0))
    metrics["trace_messages"] = float(header["messages"])
    metrics["trace_payload_bytes"] = float(header["payload_bytes"])
    if cycles > 0:
        metrics["messages_per_kcycle"] = 1000.0 * metrics["network_messages"] / cycles
    for key in ("hops", "contention_cycles"):
        if key in net:
            metrics[f"fabric_{key}"] = float(net[key])
    return metrics
