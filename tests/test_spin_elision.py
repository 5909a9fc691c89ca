"""Spin-wait elision: bit-identical timing, exact resume, and bookkeeping.

The elision subsystem (:mod:`repro.sim.spinwait`) must be *invisible* in
simulated physics: every cycle count, bus occupancy and device counter has
to match the spinning simulation exactly, with only the kernel-event count
shrinking.  These tests pin that equivalence at three levels:

* kernel-level: a scripted producer/consumer pair swept over every fire
  alignment (before the first boundary, during the first measured
  iteration, exactly on a boundary, mid-backoff) completes at the same
  simulated time with and without elision;
* machine-level: an on/off grid over the coherent NI devices and two
  macro workloads compares cycles, occupancies and poll counters;
* policy-level: uncached-poll devices (NI2w, CNI4 — whose polls occupy
  the bus) never elide, and ``max_cycles`` expiring mid-sleep still
  raises :class:`WorkloadHangError` in both modes.
"""

import pytest

from conftest import build_machine
from repro.apps import create_workload
from repro.common.params import DEFAULT_PARAMS
from repro.node.machine import Machine, WorkloadHangError
from repro.sim import SPIN_EMPTY, SPIN_PROGRESS, Signal, Simulator, SpinGuard, spin_wait, start_process

ELIDED_KEYS = ("elided_spins", "elided_events", "elided_cycles")


# ----------------------------------------------------------------------
# Kernel-level exact-resume sweep
# ----------------------------------------------------------------------
def _scripted_wait(fire_at: int, elide: bool, backoff: int = 20):
    """One consumer spinning/sleeping for a flag a producer sets at ``fire_at``.

    The producer mirrors the timing shape of a device-side snoop: its final
    hop is scheduled one cycle before the fire, so at a boundary tie the
    spinning consumer's wake-up (scheduled a whole backoff earlier) runs
    first — exactly the ordering the elision arithmetic assumes.

    Returns (completion_time, executed_events, elided_events).
    """
    sim = Simulator()
    state = {"ready": False, "done_at": None}
    signal = Signal(sim, "arrival")
    txn = {"txn_total": 0}

    def producer():
        if fire_at > 1:
            yield fire_at - 1
        yield 1
        state["ready"] = True
        signal.fire()

    def body():
        found = state["ready"]  # observed at the iteration boundary
        yield 1
        return SPIN_PROGRESS if found else SPIN_EMPTY

    guard = None
    if elide:
        guard = SpinGuard(
            sim, signal, lambda: not state["ready"], counters=(), txn_counts=txn,
            device_stats={"elided_spins": 0, "elided_events": 0, "elided_cycles": 0},
        )

    def consumer():
        yield from spin_wait(sim, lambda: state["ready"], body, backoff, guard)
        state["done_at"] = sim.now

    start_process(sim, producer(), name="producer")
    start_process(sim, consumer(), name="consumer")
    sim.run()
    return state["done_at"], sim.event_count, sim.elided_events


@pytest.mark.parametrize("fire_at", list(range(2, 140)))
def test_scripted_wait_is_cycle_exact_for_every_fire_alignment(fire_at):
    """Sweep the fire time across several spin periods: before the first
    boundary, during the first measured iteration, exactly on boundaries,
    and inside backoff windows — completion time must never change."""
    spin_done, spin_events, _ = _scripted_wait(fire_at, elide=False)
    elided_done, elided_events, elided = _scripted_wait(fire_at, elide=True)
    assert elided_done == spin_done
    # The wake machinery (signal resume + two-hop realignment) costs at
    # most three events; everything beyond that must be savings.
    assert elided_events <= spin_events + 3


def test_scripted_wait_actually_elides_long_waits():
    spin_done, spin_events, _ = _scripted_wait(500, elide=False)
    elided_done, elided_events, elided = _scripted_wait(500, elide=True)
    assert elided_done == spin_done
    assert elided > 0
    assert elided_events < spin_events - 10  # dozens of iterations slept through


def test_resume_margin_executes_the_fire_boundary():
    """With resume_margin=1 a fire exactly on an iteration boundary resumes
    *at* that boundary (the blocked-send observation sits one cycle into
    the iteration); with margin 0 that boundary is elided and the wait
    resumes one period later (the poll-loop rule)."""

    def run(margin):
        sim = Simulator()
        state = {"ready": False, "done_at": None}
        signal = Signal(sim, "arrival")

        def producer():
            # Boundaries of the 21-cycle grid below fall at 0, 21, 42, 63;
            # fire exactly on the 63 boundary (with the one-cycle hop that
            # mirrors device-side scheduling).
            yield 62
            yield 1
            state["ready"] = True
            signal.fire()

        def body():
            found = state["ready"]
            yield 1
            return SPIN_PROGRESS if found else SPIN_EMPTY

        guard = SpinGuard(
            sim, signal, lambda: not state["ready"], counters=(),
            txn_counts={}, device_stats={"elided_spins": 0, "elided_events": 0, "elided_cycles": 0},
            resume_margin=margin,
        )

        def consumer():
            yield from spin_wait(sim, lambda: state["ready"], body, 20, guard)
            state["done_at"] = sim.now

        start_process(sim, producer(), name="p")
        start_process(sim, consumer(), name="c")
        sim.run()
        return state["done_at"]

    assert run(0) == 84  # fire boundary elided; resume one period later
    assert run(1) == 63  # fire boundary executed for real


# ----------------------------------------------------------------------
# Machine-level on/off equivalence grid
# ----------------------------------------------------------------------
def _run_macro(device: str, workload_name: str, elide: bool):
    params = DEFAULT_PARAMS.with_overrides(spin_elision=elide)
    machine = Machine.build(device, "memory", num_nodes=4, params=params)
    workload = create_workload(workload_name, scale=0.25)
    cycles = machine.run_programs(workload.programs(machine), max_cycles=2_000_000_000)
    per_node = []
    for node in machine.nodes:
        ni_stats = node.ni.stats.as_dict()
        for key in ELIDED_KEYS:
            ni_stats.pop(key, None)
        per_node.append(
            {
                "ni": ni_stats,
                "cache": node.proc_cache.stats.as_dict(),
                "bus": node.interconnect.stats.as_dict(),
            }
        )
    return {
        "cycles": cycles,
        "membus": machine.total_memory_bus_occupancy(),
        "iobus": machine.total_io_bus_occupancy(),
        "nodes": per_node,
        "ml": [ml.stats.as_dict() for ml in machine.messaging],
    }, machine


@pytest.mark.parametrize("device", ["CNI4", "CNI16Q", "CNI512Q", "CNI16Qm"])
@pytest.mark.parametrize("workload_name", ["gauss", "em3d"])
def test_elision_is_bit_identical(device, workload_name):
    """Each coherent NI device x two workloads: cycles, occupancies, poll
    counters and every other physics counter match the spinning run."""
    on, machine_on = _run_macro(device, workload_name, elide=True)
    off, machine_off = _run_macro(device, workload_name, elide=False)
    assert on == off
    assert machine_off.sim.elided_events == 0
    if device != "CNI4":  # CQ devices actually elide on these workloads
        assert machine_on.sim.elided_events > 0
        assert machine_on.sim.event_count < machine_off.sim.event_count


def test_cni4_uncached_status_polls_never_elide():
    """CNI4 polls through an uncached status register — bus traffic every
    iteration, so nothing may be elided even with the toggle on."""
    _, machine = _run_macro("CNI4", "gauss", elide=True)
    assert machine.sim.elided_events == 0
    assert machine.spin_elision_stats() == {
        "elided_events": 0, "elided_cycles": 0, "elided_spins": 0,
    }


def test_ni2w_is_never_elided():
    _, machine = _run_macro("NI2w", "gauss", elide=True)
    assert machine.sim.elided_events == 0
    assert machine.sim.elided_cycles == 0
    for node in machine.nodes:
        for key in ELIDED_KEYS:
            assert node.ni.stats.get(key) == 0


# ----------------------------------------------------------------------
# Edge cases
# ----------------------------------------------------------------------
@pytest.mark.parametrize("elide", [True, False])
def test_max_cycles_expiring_mid_sleep_raises_hang_error(elide):
    """A wait whose message never comes must still surface as a hang —
    identically whether the waiter is spinning or sleeping on the signal."""
    params = DEFAULT_PARAMS.with_overrides(spin_elision=elide)
    machine = Machine.build("CNI16Qm", "memory", num_nodes=2, params=params)
    ml0, ml1 = machine.messaging

    def sender():
        yield from ml0.processor.compute(10)

    def stuck_receiver():
        yield from ml1.poll_wait(lambda: False)

    with pytest.raises(WorkloadHangError):
        machine.run_programs([sender(), stuck_receiver()], max_cycles=100_000)


def test_toggle_off_restores_pure_spinning():
    params = DEFAULT_PARAMS.with_overrides(spin_elision=False)
    machine = Machine.build("CNI16Qm", "memory", num_nodes=2, params=params)
    for ml in machine.messaging:
        assert ml._recv_spin_guard is None
        assert ml._send_spin_guard is None


def test_device_home_drain_keeps_spinning():
    """Blocked senders that drain through proc_poll (device-homed queues)
    observe the receive queue too deep into each retry to resume exactly,
    so only the drain-free CNI16Qm gets a send-side guard."""
    for device, expect_send_guard in (("CNI16Q", False), ("CNI512Q", False), ("CNI16Qm", True)):
        machine = Machine.build(device, "memory", num_nodes=2)
        ml = machine.messaging[0]
        assert ml._recv_spin_guard is not None, device
        assert (ml._send_spin_guard is not None) is expect_send_guard, device


# ----------------------------------------------------------------------
# Stats surfacing
# ----------------------------------------------------------------------
def test_run_profile_reports_elision_counters():
    _, machine = _run_macro("CNI16Qm", "gauss", elide=True)
    profile = machine.sim.run_profile(max_events=0)
    assert "elided_events" in profile and "elided_cycles" in profile

    workload = create_workload("gauss", scale=0.25)
    machine2 = Machine.build("CNI16Qm", "memory", num_nodes=4)
    machine2.run_programs(workload.programs(machine2), profile=True)
    assert machine2.last_profile["elided_events"] > 0
    assert machine2.last_profile["elided_cycles"] > 0


def test_machine_and_node_rollups_expose_elision():
    _, machine = _run_macro("CNI16Qm", "gauss", elide=True)
    rollup = machine.spin_elision_stats()
    assert rollup["elided_events"] == machine.sim.elided_events > 0
    assert rollup["elided_cycles"] == machine.sim.elided_cycles > 0
    assert rollup["elided_spins"] > 0
    # The per-device counters flow through the existing node snapshots.
    snapshots = [node.stats_snapshot()["ni"] for node in machine.nodes]
    assert sum(snap.get("elided_spins", 0) for snap in snapshots) == rollup["elided_spins"]


# ----------------------------------------------------------------------
# Software-buffer readback regression (messaging.py bugfix)
# ----------------------------------------------------------------------
def test_software_buffered_messages_are_reread_from_their_own_address():
    """A drained message is copied to a rotating user-space buffer address;
    the later poll must re-read that same address (the old code always
    re-read the buffer base, touching cache lines the copy never used)."""
    machine = build_machine("CNI16Q", "memory", num_nodes=2)
    ml0, ml1 = machine.messaging
    counts = {0: 0, 1: 0}
    for node_id, ml in enumerate(machine.messaging):
        ml.register_handler(
            "flood",
            lambda m, s, n, b, node_id=node_id: counts.__setitem__(node_id, counts[node_id] + 1),
        )

    buffer_ops = {0: {"writes": [], "reads": []}, 1: {"writes": [], "reads": []}}
    for node_id, ml in enumerate(machine.messaging):
        base = ml._software_buffer_base
        limit = base + 256 * machine.params.cache_block_bytes
        proc = ml.processor
        orig_write, orig_read = proc.touch_write, proc.touch_read

        def touch_write(addr, size, _o=orig_write, _log=buffer_ops[node_id], _b=base, _l=limit):
            if _b <= addr < _l:
                _log["writes"].append(addr)
            return _o(addr, size)

        def touch_read(addr, size, _o=orig_read, _log=buffer_ops[node_id], _b=base, _l=limit):
            if _b <= addr < _l:
                _log["reads"].append(addr)
            return _o(addr, size)

        proc.touch_write, proc.touch_read = touch_write, touch_read

    n_messages = 30

    def program(node_id):
        ml = machine.messaging[node_id]
        for _ in range(n_messages):
            yield from ml.send_active_message(1 - node_id, "flood", 244)
        yield from ml.poll_wait(lambda: counts[node_id] >= n_messages)

    machine.run_programs([program(0), program(1)], max_cycles=400_000_000)
    assert counts == {0: n_messages, 1: n_messages}
    buffered = sum(ml.stats.get("messages_software_buffered") for ml in machine.messaging)
    assert buffered > 0, "scenario must actually exercise software buffering"
    for node_id in (0, 1):
        writes, reads = buffer_ops[node_id]["writes"], buffer_ops[node_id]["reads"]
        # every buffered message is read back once, from the address it was
        # written to, in FIFO order
        assert reads == writes[: len(reads)]
        if len(writes) > 1:
            assert len(set(writes)) > 1  # the rotating buffer actually rotates
