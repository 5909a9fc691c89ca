"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

from collections.abc import Mapping

import pytest

from repro.api import ExperimentSpec
from repro.apps.workload import run_spec
from repro.common import params as machine_module
from repro.common.addrmap import AddressMap
from repro.common.params import DEFAULT_PARAMS, MachineParams
from repro.node.machine import Machine
from repro.sim import Simulator


@pytest.fixture
def params() -> MachineParams:
    return DEFAULT_PARAMS


@pytest.fixture
def addrmap(params) -> AddressMap:
    return AddressMap.for_params(params)


@pytest.fixture
def sim() -> Simulator:
    return Simulator()


#: The paper's fixed machine (Section 4.1, Table 2): module constants of
#: :mod:`repro.common.params` under these names upper-cased, and no
#: ``MachineParams`` field, so no spec can override them.
FIXED_MACHINE_CONSTANTS = (
    "processor_mhz", "cache_hit_cycles", "uncached_access_bytes", "memory_barrier_cycles",
    "uncached_word_processing_cycles", "block_copy_cycles", "processor_miss_extra_cycles",
    "uncached_load_cycles", "uncached_store_cycles", "cache_to_cache_from_cni_cycles",
    "cache_to_cache_to_cni_cycles", "memory_to_cache_cycles", "invalidation_cycles",
    "writeback_cycles", "cache_to_cache_proc_cycles", "uncached_load_extra_cycles",
)


def fixed_constant_override(name: str) -> dict:
    """``params`` naming a fixed constant with its own value, as JSON holds it."""
    value = getattr(machine_module, name.upper())
    if isinstance(value, Mapping):
        value = {bus.value: cycles for bus, cycles in value.items()}
    return {name: value}


def build_machine(ni_name="CNI16Qm", bus="memory", num_nodes=2, snarfing=False, **ni_kwargs):
    """Convenience machine builder used across test modules."""
    return Machine.build(ni_name, bus, num_nodes=num_nodes, snarfing=snarfing, ni_kwargs=ni_kwargs)


def run_ping_pong(machine: Machine, payload_bytes: int = 64, rounds: int = 3, max_cycles: int = 50_000_000):
    """Run a simple ping-pong between nodes 0 and 1; returns (cycles, pongs)."""
    ml0, ml1 = machine.messaging[0], machine.messaging[1]
    state = {"pongs": 0, "pings": 0}

    def on_ping(ml, src, nbytes, body):
        state["pings"] += 1
        yield from ml.send_active_message(src, "pong", nbytes)

    def on_pong(ml, src, nbytes, body):
        state["pongs"] += 1
        return None

    ml1.register_handler("ping", on_ping)
    ml0.register_handler("pong", on_pong)

    def node0():
        for i in range(rounds):
            yield from ml0.send_active_message(1, "ping", payload_bytes)
            while state["pongs"] <= i:
                got = yield from ml0.poll()
                if not got:
                    yield 20

    def node1():
        while state["pings"] < rounds:
            got = yield from ml1.poll()
            if not got:
                yield 20

    cycles = machine.run_programs([node0(), node1()], max_cycles=max_cycles)
    return cycles, state


#: Macro points whose every counter is pinned (tests/test_device_golden.py):
#: label -> ExperimentSpec overrides.  The five memory-bus devices, CNI512Q
#: on the I/O bus (bridge NACKs), processor-cache data snarfing and the
#: directory protocol; each runs gauss and em3d at 4 nodes, scale 0.25.
COUNTER_CONFIGS = {
    "NI2w": {"device": "NI2w"},
    "CNI4": {"device": "CNI4"},
    "CNI16Q": {"device": "CNI16Q"},
    "CNI512Q": {"device": "CNI512Q"},
    "CNI16Qm": {"device": "CNI16Qm"},
    "CNI512Q@io": {"device": "CNI512Q", "bus": "io"},
    "CNI16Qm+snarfing": {"device": "CNI16Qm", "snarfing": True},
    "CNI16Qm+dir-msi": {"device": "CNI16Qm", "params": {"protocol": "dir-msi"}},
}
COUNTER_WORKLOADS = ("gauss", "em3d")


def counter_snapshot(config: str, workload: str) -> dict:
    """Run one counter-golden point; every counter it leaves, by owner name.

    Owners are each node's interconnect (``node<i>.bus``), processor
    (``node<i>.cpu``), NI and every bus agent with counters: the processor
    cache, the device caches and main memory.
    """
    spec = ExperimentSpec(
        kind="macro", workload=workload, scale=0.25, num_nodes=4, **COUNTER_CONFIGS[config]
    ).validate()
    machine, result = run_spec(spec)
    snapshot = {"cycles": result.cycles}
    for node in machine.nodes:
        snapshot[f"{node.interconnect.name}.bus"] = node.interconnect.stats.as_dict()
        snapshot[f"{node.interconnect.name}.cpu"] = node.processor.stats.as_dict()
        snapshot[node.ni.name] = node.ni.stats.as_dict()
        for agent in node.interconnect.agents:
            stats = getattr(agent, "stats", None)
            if stats is not None:
                snapshot[agent.name] = stats.as_dict()
    return snapshot


def run_stream(machine: Machine, payload_bytes: int = 256, count: int = 10, max_cycles: int = 80_000_000):
    """Stream ``count`` messages from node 0 to node 1; returns received count."""
    ml0, ml1 = machine.messaging[0], machine.messaging[1]
    state = {"received": 0}
    ml1.register_handler(
        "data", lambda ml, src, nbytes, body: state.__setitem__("received", state["received"] + 1)
    )

    def sender():
        for _ in range(count):
            yield from ml0.send_active_message(1, "data", payload_bytes)

    def receiver():
        while state["received"] < count:
            got = yield from ml1.poll()
            if not got:
                yield 20

    machine.run_programs([sender(), receiver()], max_cycles=max_cycles)
    return state["received"]
