"""Spin-wait elision: bit-identical timing, exact resume, and bookkeeping.

The elision subsystem (:mod:`repro.sim.spinwait`) must be *invisible* in
simulated physics: every cycle count, bus occupancy and device counter has
to match the spinning simulation exactly, with only the kernel-event count
shrinking.  These tests pin that equivalence at three levels:

* kernel-level: a scripted producer/consumer pair swept over every fire
  alignment (before the first boundary, during the first measured
  iteration, exactly on a boundary, mid-backoff) completes at the same
  simulated time with and without elision; a second sweep does the same
  for a poll that holds a bus, woken by a notice sent ahead of the
  change, and also compares the bus's tallies;
* machine-level: an on/off grid over the NI devices (the uncached-status
  pollers NI2w and CNI4 included, on the memory and I/O buses and under
  delay jitter) and two macro workloads compares cycles, occupancies and
  poll counters;
* policy-level: an uncached-poll guard refuses to arm where the fabric's
  lead is too short for the poll body (memory-bus NI2w on a mesh), an
  uncached poller stays awake while its own send port (CDR or coherent
  queue, as in examples/custom_protocol.py's ``HybridNI``) has a pull to
  make, no guard is built under reliable messaging, a delivery notice
  holds the destination's guard unsteady until the message is visible, and
  ``max_cycles`` expiring mid-sleep still raises :class:`WorkloadHangError`
  in both modes.
"""

import importlib.util
import pathlib

import pytest

from conftest import build_machine
from repro.apps import create_workload
from repro.common.params import DEFAULT_PARAMS
from repro.ni import unregister_device
from repro.ni.base import DEVICE_PROCESSING_CYCLES
from repro.node.machine import Machine, WorkloadHangError
from repro.sim import (
    SPIN_EMPTY,
    SPIN_PROGRESS,
    Resource,
    Signal,
    Simulator,
    SpinGuard,
    spin_wait,
    start_process,
)

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
# Kernel-level sweep for a bus-holding poll woken by an early notice
# ----------------------------------------------------------------------
#: The scripted poll below: hold the bus, stall, then observe.
HOLD, STALL, BACKOFF = 12, 5, 20
BODY = HOLD + STALL
PERIOD = BODY + BACKOFF


def _scripted_bus_wait(notice_at: int, notice_lead: int, guard_lead=None, pull_at=None):
    """A consumer polls a flag through a bus it shares with a producer.

    Each poll iteration holds the bus for ``HOLD`` cycles, stalls ``STALL``
    cycles and only then observes the flag (the shape of an uncached status
    load).  The producer plays the fabric and the device side: it announces
    the change at ``notice_at``, and ``notice_lead`` cycles later it takes
    the same bus for a few cycles (a CDR write) and sets the flag.  Like the
    NI's extraction process, it schedules that bus request from the
    message's delivery, ``DEVICE_PROCESSING_CYCLES`` ahead.  ``guard_lead``
    None runs the plain spinning loop; otherwise the consumer sleeps behind
    a guard claiming that lead.  ``pull_at`` adds device-side work that is
    pending from the start (a send pull): it keeps the port unsteady until
    it has taken the bus at ``pull_at`` and released it, and fires the
    signal only when it takes the bus, as a snooped transaction does.

    Returns (done_at, producer bus grant time, bus tallies, poll counters,
    executed events, elided events, steady() calls).
    """
    sim = Simulator()
    bus = Resource(sim, "bus")
    signal = Signal(sim, "arrival")
    state = {
        "announced": 0, "ready": False, "pulling": False, "done_at": None, "granted_at": None,
    }
    counts = {"txn_total": 0, "polls": 0, "empty_polls": 0}
    steady_calls = [0]

    def steady():
        steady_calls[0] += 1
        return not (state["announced"] or state["ready"] or state["pulling"])

    def pull():
        state["pulling"] = True
        yield pull_at
        yield bus
        signal.fire()
        yield HOLD + 9
        bus.release()
        state["pulling"] = False

    def producer():
        if notice_at:
            yield notice_at
        state["announced"] += 1
        signal.fire()
        yield notice_lead - DEVICE_PROCESSING_CYCLES  # in flight
        yield DEVICE_PROCESSING_CYCLES  # accepted by the device side
        yield bus
        state["granted_at"] = sim.now
        yield 3
        bus.release()
        state["announced"] -= 1
        state["ready"] = True
        signal.fire()

    def body():
        counts["polls"] += 1
        yield bus
        yield HOLD
        bus.release()
        counts["txn_total"] += 1
        yield STALL
        if state["ready"]:
            return SPIN_PROGRESS
        counts["empty_polls"] += 1
        return SPIN_EMPTY

    guard = None
    if guard_lead is not None:
        guard = SpinGuard(
            sim, signal, steady, counters=(counts,), txn_counts=counts,
            device_stats={"elided_spins": 0, "elided_events": 0, "elided_cycles": 0},
            lead=guard_lead, resources=(bus,),
        )

    def consumer():
        yield from spin_wait(sim, lambda: state["ready"], body, BACKOFF, guard)
        state["done_at"] = sim.now

    start_process(sim, producer(), name="producer")
    start_process(sim, consumer(), name="consumer")
    if pull_at is not None:
        start_process(sim, pull(), name="pull")
    sim.run()
    return (
        state["done_at"], state["granted_at"], (bus.total_acquisitions, bus.busy_cycles),
        counts, sim.event_count, sim.elided_events, steady_calls[0],
    )


@pytest.mark.parametrize("notice_lead", [BODY + 1, BODY + 9, PERIOD + 7])
def test_bus_holding_poll_resumes_exactly_for_every_notice_alignment(notice_lead):
    """Sweep the notice over every cycle of five poll periods: with a lead
    longer than the poll body the elided run must finish at the same cycle,
    grant the producer the bus at the same cycle and leave the same bus
    tallies and counters as the spinning run, while actually eliding."""
    elided_total = 0
    for notice_at in range(5 * PERIOD):
        spin = _scripted_bus_wait(notice_at, notice_lead)
        slept = _scripted_bus_wait(notice_at, notice_lead, guard_lead=notice_lead)
        assert slept[:4] == spin[:4], notice_at
        assert slept[4] <= spin[4] + 3, notice_at
        elided_total += slept[5]
    assert elided_total > 0


def test_iteration_starting_while_the_device_holds_the_bus_never_arms():
    """An iteration that waits out a device transaction measures a stretched
    body; arming on it would replay the wrong period.  steady() must hold
    at the iteration's start, not just at its end."""
    for pull_at in range(1, 2 * PERIOD):
        spin = _scripted_bus_wait(6 * PERIOD, PERIOD + 7, pull_at=pull_at)
        slept = _scripted_bus_wait(6 * PERIOD, PERIOD + 7, guard_lead=PERIOD + 7, pull_at=pull_at)
        assert slept[:4] == spin[:4], pull_at
        assert slept[5] > 0


@pytest.mark.parametrize("guard_lead", [1, BODY - 1, BODY])
def test_guard_with_lead_not_beyond_the_body_never_arms(guard_lead):
    """Where the lead does not exceed the body, a poll could still be on the
    bus or observing when the announced change lands: the guard must keep
    spinning, executing exactly the spinning run's events."""
    for notice_at in range(0, 5 * PERIOD, 3):
        spin = _scripted_bus_wait(notice_at, BODY)
        guarded = _scripted_bus_wait(notice_at, BODY, guard_lead=guard_lead)
        assert guarded[:5] == spin[:5], notice_at
        assert guarded[5] == 0
        if notice_at >= PERIOD:
            # The first iteration is clean and shows the body is too long:
            # the rest of the wait spins without measuring.
            assert guarded[6] == 2, notice_at


# ----------------------------------------------------------------------
# Machine-level on/off equivalence grid
# ----------------------------------------------------------------------
def _run_macro(device: str, workload_name: str, elide: bool, bus: str = "memory", **overrides):
    params = DEFAULT_PARAMS.with_overrides(spin_elision=elide, **overrides)
    machine = Machine.build(device, bus, num_nodes=4, params=params)
    workload = create_workload(workload_name, scale=0.25)
    cycles = machine.run_programs(workload.programs(machine), max_cycles=2_000_000_000)
    per_node = []
    for node in machine.nodes:
        ni_stats = node.ni.stats.as_dict()
        for key in ELIDED_KEYS:
            ni_stats.pop(key, None)
        interconnect = node.interconnect
        buses = (interconnect.membus, interconnect.iobus, interconnect.cachebus)
        per_node.append(
            {
                "ni": ni_stats,
                "cache": node.proc_cache.stats.as_dict(),
                "bus": interconnect.stats.as_dict(),
                "bus_tallies": [
                    (bus.total_acquisitions, bus.busy_cycles) for bus in buses if bus is not None
                ],
                "processor": node.processor.stats.as_dict(),
            }
        )
    return {
        "cycles": cycles,
        "membus": machine.total_memory_bus_occupancy(),
        "iobus": machine.total_io_bus_occupancy(),
        "nodes": per_node,
        "ml": [ml.stats.as_dict() for ml in machine.messaging],
        "network": machine.network_stats(),
    }, machine


def _assert_bit_identical_and_elided(device, workload_name, bus="memory", **overrides):
    on, machine_on = _run_macro(device, workload_name, True, bus, **overrides)
    off, machine_off = _run_macro(device, workload_name, False, bus, **overrides)
    assert on == off
    assert machine_off.sim.elided_events == 0
    assert machine_on.sim.elided_events > 0
    assert machine_on.sim.event_count < machine_off.sim.event_count


@pytest.mark.parametrize("device", ["NI2w", "CNI4", "CNI16Q", "CNI512Q", "CNI16Qm"])
@pytest.mark.parametrize("workload_name", ["gauss", "em3d"])
def test_elision_is_bit_identical(device, workload_name):
    """Each paper NI device x two workloads: cycles, occupancies, bus
    tallies, poll counters and every other physics counter match the
    spinning run, and every device elides (the uncached-status pollers
    NI2w and CNI4 through delivery notices)."""
    _assert_bit_identical_and_elided(device, workload_name)


@pytest.mark.parametrize("device", ["NI2w", "CNI4"])
def test_io_bus_uncached_polls_elide_bit_identically(device):
    """An I/O-bus status poll holds both buses for 73 cycles, still inside
    the ideal fabric's 104-cycle lead."""
    _assert_bit_identical_and_elided(device, "gauss", bus="io")


@pytest.mark.parametrize("device", ["NI2w", "CNI4", "CNI16Qm"])
def test_elision_is_bit_identical_under_delay_jitter(device):
    """The non-lossy ``jitter`` plan keeps guards and delays when messages
    become visible; jitter only ever adds to the announced lead."""
    _assert_bit_identical_and_elided(device, "gauss", faults="jitter")


def test_uncached_poll_guard_refuses_to_arm_when_lead_is_too_short():
    """Memory-bus NI2w on mesh4x4: a 43-cycle poll body against a lead of
    one hop plus device processing (13 cycles).  The guard exists but never
    arms, so nothing is elided and the run executes the spinning events."""
    runs = {}
    for elide in (True, False):
        params = DEFAULT_PARAMS.with_overrides(spin_elision=elide, fabric="mesh4x4")
        machine = Machine.build("NI2w", "memory", num_nodes=16, params=params)
        workload = create_workload("gauss", scale=0.1)
        cycles = machine.run_programs(workload.programs(machine), max_cycles=2_000_000_000)
        runs[elide] = (cycles, machine.sim.event_count, machine.total_memory_bus_occupancy())
        if elide:
            guard = machine.messaging[0]._recv_spin_guard
            assert guard is not None
            assert guard.lead == params.fabric_hop_cycles + 1 + DEVICE_PROCESSING_CYCLES
            assert machine.spin_elision_stats() == {
                "elided_events": 0, "elided_cycles": 0, "elided_spins": 0,
            }
    assert runs[True] == runs[False]


@pytest.fixture
def hybrid_device():
    """``HybridNI`` from examples/custom_protocol.py: a coherent-queue send
    port paired with an uncached-FIFO receive port, registered for the
    test's duration."""
    path = pathlib.Path(__file__).parent.parent / "examples" / "custom_protocol.py"
    loader = importlib.util.spec_from_file_location("custom_protocol", path)
    module = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(module)
    yield "HybridNI"
    unregister_device("HybridNI")


def test_uncached_poller_beside_a_coherent_queue_sender_elides_bit_identically(hybrid_device):
    _assert_bit_identical_and_elided(hybrid_device, "gauss")


@pytest.mark.parametrize("device", ["CNI4", "HybridNI"])
@pytest.mark.parametrize("compute", [20_000 + 7 * k for k in range(9)])
def test_uncached_poller_stays_awake_while_its_own_send_waits_to_be_pulled(
    hybrid_device, device, compute
):
    """Node 0 leaves a message in its send port behind a full window and
    polls for the reply.  Its device pulls that message over node 0's bus as
    soon as node 1 drains and acks, and no notice announces the pull, so the
    poller must keep spinning until the send side is idle
    (``SendPort.device_idle``): for a CDR sender (CNI4), and for the
    coherent-queue sender of ``HybridNI``, whose pull's snoop wakes the
    poller, which must then not sleep again."""
    runs = {}
    for elide in (True, False):
        params = DEFAULT_PARAMS.with_overrides(spin_elision=elide)
        machine = Machine.build(device, "memory", num_nodes=2, params=params)
        ml0, ml1 = machine.messaging
        got = {0: 0, 1: 0}
        for node_id, ml in enumerate(machine.messaging):
            ml.register_handler(
                "msg", lambda m, src, n, b, node_id=node_id: got.__setitem__(node_id, got[node_id] + 1)
            )

        def sender():
            for _ in range(12):
                yield from ml0.send_active_message(1, "msg", 64)
            yield from ml0.poll_wait(lambda: got[0] >= 1)

        def receiver():
            yield from ml1.processor.compute(compute)
            yield from ml1.poll_wait(lambda: got[1] >= 12)
            yield from ml1.send_active_message(0, "msg", 8)

        cycles = machine.run_programs([sender(), receiver()], max_cycles=50_000_000)
        runs[elide] = (
            cycles,
            machine.total_memory_bus_occupancy(),
            [node.ni.stats.get("polls") for node in machine.nodes],
            [node.interconnect.stats.as_dict() for node in machine.nodes],
        )
    assert runs[True] == runs[False]


@pytest.mark.parametrize("device", ["NI2w", "CNI4"])
def test_reliable_messaging_builds_no_uncached_poll_guard(device):
    """Reliable messaging keeps every loop spinning (a parked poller would
    miss its retransmission deadlines), so no guard and no notices."""
    params = DEFAULT_PARAMS.with_overrides(reliable_messaging=True)
    machine = Machine.build(device, "memory", num_nodes=2, params=params)
    for ml in machine.messaging:
        assert ml._recv_spin_guard is None
        assert ml._send_spin_guard is None
    assert machine.fabric._notices == {}


def test_delivery_notice_unsteadies_the_uncached_poll_guard_until_visible():
    """A notice the fabric sends at injection counts the message as announced
    to its destination alone and fires that node's arrival signal, so the
    destination's uncached-poll guard reads its poll as not steady until the
    receive port makes the message visible."""
    machine = Machine.build("NI2w", "memory", num_nodes=2)
    ni0, ni1 = (node.ni for node in machine.nodes)
    guard = machine.messaging[1]._recv_spin_guard
    assert guard.steady() is True
    fires = ni1.arrival_signal.fire_count
    machine.fabric._notices[1]()
    assert (ni0.announced, ni1.announced) == (0, 1)
    assert ni1.arrival_signal.fire_count == fires + 1
    assert guard.steady() is False
    ni1._note_visible()
    assert ni1.announced == 0
    assert guard.steady() is True


# ----------------------------------------------------------------------
# Edge cases
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "device,elide",
    [
        pytest.param(device, elide, id=str(elide) if device == "CNI16Qm" else f"{device}-{elide}")
        for device in ("CNI16Qm", "NI2w")
        for elide in (True, False)
    ],
)
def test_max_cycles_expiring_mid_sleep_raises_hang_error(device, elide):
    """A wait whose message never comes must still surface as a hang —
    identically whether the waiter is spinning or sleeping on the signal."""
    params = DEFAULT_PARAMS.with_overrides(spin_elision=elide)
    machine = Machine.build(device, "memory", num_nodes=2, params=params)
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
