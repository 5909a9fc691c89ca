"""Record the NI-level message stream of one workload run.

The hook point is each node's ``ni.proc_try_send``: the moment the NI
*accepts* a network message from the processor side.  That stream is
exactly what replay re-issues — it includes every fragment the messaging
layer produced (data, requests, replies, barrier traffic) and excludes
what the wire never carries (local deliveries, hardware acks, elided
spins).  Times are recorded as per-node deltas between accepted sends,
so replay can approximate the original pacing on any target device.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict

from repro.trace.format import write_trace

#: Spec kinds whose runs can be recorded: workload-driven simulations.
RECORDABLE_KINDS = ("macro", "traffic")


@dataclass(frozen=True)
class TraceSummary:
    """What one recording produced."""

    path: str
    cycles: int
    messages: int
    payload_bytes: int
    num_nodes: int
    digest: str


def record_trace(spec, path: str) -> TraceSummary:
    """Run ``spec``'s workload once, recording its message stream to
    ``path``.  Returns a :class:`TraceSummary` of what was captured."""
    from repro.api.spec import SpecError
    from repro.apps.workload import run_spec
    from repro.node.machine import Machine

    spec = spec.validate()
    if spec.kind not in RECORDABLE_KINDS:
        raise SpecError(
            f"cannot record kind {spec.kind!r}; recording captures a workload "
            f"run (kinds {RECORDABLE_KINDS})"
        )

    machine = Machine.from_spec(spec)
    num_nodes = len(machine.nodes)
    sim = machine.sim
    events = [[] for _ in range(num_nodes)]
    last_send = [0] * num_nodes
    for node in machine.nodes:
        original = node.ni.proc_try_send

        def recording_send(message, _original=original, _node=node.node_id):
            accepted = yield from _original(message)
            if accepted and not message.is_ack:
                now = sim.now
                events[_node].append(
                    [now - last_send[_node], message.dest, message.payload_bytes]
                )
                last_send[_node] = now
            return accepted

        # Instance-level wrap: only this machine records, and the device
        # model underneath is untouched (timing identical to an unrecorded
        # run — recording is pure observation).
        node.ni.proc_try_send = recording_send

    _, result = run_spec(spec, machine)

    header = write_trace(path, config=_recording_config(spec), events=events)
    return TraceSummary(
        path=path,
        cycles=result.cycles,
        messages=header["messages"],
        payload_bytes=header["payload_bytes"],
        num_nodes=num_nodes,
        digest=header["digest"],
    )


def _recording_config(spec) -> Dict[str, Any]:
    """Provenance stored in the trace header: where the stream came from.

    Informational except for ``num_nodes`` (validated against replay
    specs); replay deliberately accepts any device/bus/fabric target.
    """
    return {
        "kind": spec.kind,
        "workload": spec.workload,
        "scale": spec.scale,
        "seed": spec.resolved_seed(),
        "device": spec.device,
        "bus": spec.bus,
        "snarfing": spec.snarfing,
        "num_nodes": spec.num_nodes,
        "spec_hash": spec.spec_hash(),
    }
