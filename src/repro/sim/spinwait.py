"""Cycle-exact elision of busy-poll spin loops.

Every blocking wait in the messaging layer and the workload skeletons has
the same shape: poll, and if nothing was there, back off a fixed number of
cycles and poll again.  On the coherent-queue network interfaces the empty
poll is a *cached* read — the paper's virtual-polling argument (Sections
3–5): while the queue is empty the poll hits in the processor cache and
generates **no bus traffic**.  Such an iteration is provably idempotent:
it advances local counters, costs a deterministic number of cycles, and
interacts with nothing else in the machine.  Simulating it event by event
is pure kernel overhead.

:func:`spin_wait` runs the poll loop but *elides* the idempotent steady
state.  It executes each iteration for real while the machine is moving;
once an iteration completes as a **pure cached empty poll** (no bus
transaction, and the port's spin state unchanged) it measures the
iteration period ``P`` and the per-iteration counter deltas once, then
sleeps on the port's arrival signal instead of re-polling.  When the
signal fires at ``t_f`` — a snooped bus transaction touched the
processor's cache, or the device changed the queue state — the waiter
resumes at the exact spin-iteration boundary the spinning process would
have woken at:

    ``resume = t0 + n * P``  with the smallest ``n`` such that
    ``resume > t_f``

(the iteration whose poll coincides with ``t_f`` still observes the *old*
cache state, because its wake-up event was scheduled a whole backoff
earlier than the snoop, so it is elided too).  The ``n`` skipped
iterations are reconstructed arithmetically: their counter deltas are
applied ``n``-fold and the kernel's ``elided_events`` / ``elided_cycles``
tallies advance by what the spinning process would have executed.  The
final resume is scheduled in two hops so that the last scheduling action
happens in the same cycle (``resume - backoff``) the spinning loop would
have scheduled it from, keeping same-cycle event ordering — and therefore
bus-arbitration FIFO order — identical to the spinning simulation.

Uncached status polls (the NI2w and CNI4 families) occupy the bus on every
iteration, so they are never pure.  They still elide exactly when the
guard has a *lead*.  The fabric announces each message to its destination
when it fixes the delivery time (``AbstractFabric.announce_to``), at least
``lead`` cycles before the message can be visible to a poll or make the
device side use the bus.  While nothing announced is pending and the
device side is idle, the poller is the only agent on its bus, so an empty
poll repeats identically: the guard accepts its bus transactions, replays
the interconnect counters and the held buses' acquisition and busy-cycle
tallies with the other deltas, and sleeps until a notice.  Resuming at the
first boundary strictly after the notice means every elided iteration
observes, and has released its bus, at most ``body < lead`` cycles after
the notice, before anything announced can matter.  The resumed iteration
may meet the device side at the bus in the same cycle; it still goes first,
as when spinning, because the device schedules that request from the
delivery, only ``DEVICE_PROCESSING_CYCLES`` (less than a backoff) ahead.
Where the body is not shorter than the lead (memory-bus polls on the mesh
and torus fabrics, whose minimum delivery is one hop) the guard never arms:
the first clean iteration that shows it ends measuring for the rest of the
wait, and the loop spins as it would without a guard.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Sequence

#: Body return values understood by :func:`spin_wait`.  ``SPIN_PROGRESS``
#: and ``SPIN_EMPTY`` intentionally equal ``True`` and ``False`` so plain
#: poll bodies can return their boolean directly.
SPIN_PROGRESS = 1  #: the body consumed something; retry without backoff
SPIN_EMPTY = 0     #: nothing there; back off (candidate for elision)
SPIN_TRANSIENT = 2  #: nothing there, but the body is not yet in its steady
#: regime (e.g. the first send retries before the drain kicks in); back off
#: without arming the elider.


class SpinGuard:
    """What a wait site needs to make its spin loop elidable.

    Parameters
    ----------
    sim:
        The simulator (elision totals are accumulated on it).
    signal:
        Fired whenever the sleeping processor's observable state may have
        changed: the node's arrival signal, wired to the processor cache's
        snoop listener and the device-side queue transitions.
    steady:
        Zero-argument predicate: True while re-running the measured
        iteration would provably produce the same pure empty poll (polled
        cache lines still valid, queue state unchanged).
    counters:
        Raw counter dicts mutated by a pure iteration (processor cache,
        device, messaging layer, processor); their per-iteration deltas are
        measured once and replayed arithmetically for elided iterations.
    txn_counts:
        The node interconnect's raw counter dict; without a ``lead``, a
        changed ``txn_total`` across an iteration means the poll touched a
        bus and is not pure.
    device_stats:
        The NI's raw counter dict, where ``elided_spins`` /
        ``elided_events`` / ``elided_cycles`` are recorded.
    probes:
        Zero-argument callables returning monotonic counts of *asynchronous*
        node activity that leaves no bus transaction behind (fabric
        deliveries, window acks, device-side signal fires).  If any probe
        moves across a measured iteration, the counter deltas are polluted
        by someone else's increments and the iteration is not armed.
    resume_margin:
        How far (in cycles) *into* an iteration the spinning loop observes
        the watched state.  ``0`` — the poll-loop case — means a spinning
        iteration whose boundary coincides with the fire still sees the old
        state (its wake-up was scheduled a whole backoff before the snoop)
        and is elided.  ``1`` — the blocked-send case, whose head-pointer
        check executes one cycle into the iteration — means that iteration
        would already observe the change, so the wait resumes *at* the fire
        boundary instead of one period past it.  Without a ``lead``, a wait
        site whose observation point sits deeper than one cycle into the
        iteration cannot be elided exactly and must not get a guard at all.
    lead:
        ``None`` for a poll that touches no bus.  For an uncached-status
        poll woken by delivery notices, the fewest cycles from a notice
        until the announced message can be visible or make the device side
        use the bus (``AbstractNI.wire_delivery_notices``).  An iteration
        then arms despite its bus transactions when ``steady()`` held at its
        start and at its end, no probe moved, and its body (start to the
        observation at its end) is shorter than the lead; an iteration
        that passes the rest of these tests with a body not shorter than
        the lead ends measuring for the rest of the wait.  ``counters``
        must then include the interconnect's.
    resources:
        The buses a lead guard's poll may hold; their
        ``total_acquisitions`` and ``busy_cycles`` deltas are replayed
        with the counter deltas.
    """

    __slots__ = (
        "sim", "signal", "steady", "counters", "txn_counts", "device_stats",
        "probes", "resume_margin", "lead", "resources",
    )

    def __init__(
        self,
        sim,
        signal,
        steady: Callable[[], bool],
        counters: Sequence[Dict[str, int]],
        txn_counts: Dict[str, int],
        device_stats: Dict[str, int],
        probes: Sequence[Callable[[], int]] = (),
        resume_margin: int = 0,
        lead: Optional[int] = None,
        resources: Sequence = (),
    ):
        self.sim = sim
        self.signal = signal
        self.steady = steady
        self.counters = tuple(counters)
        self.txn_counts = txn_counts
        self.device_stats = device_stats
        self.probes = tuple(probes)
        self.resume_margin = resume_margin
        self.lead = lead
        self.resources = tuple(resources)

    def probe_state(self) -> tuple:
        return tuple(probe() for probe in self.probes)

    def note_elided(self, iterations: int, events_per_iter: int, period: int) -> None:
        """Record ``iterations`` spin iterations skipped by sleeping."""
        sim = self.sim
        events = iterations * events_per_iter
        cycles = iterations * period
        sim.elided_events += events
        sim.elided_cycles += cycles
        stats = self.device_stats
        stats["elided_spins"] += iterations
        stats["elided_events"] += events
        stats["elided_cycles"] += cycles


def spin_wait(sim, predicate, body, backoff: int, guard: SpinGuard = None):
    """Generator: ``while not predicate(): if not body(): wait(backoff)``.

    ``body`` is a factory returning a fresh generator per iteration whose
    return value is one of the ``SPIN_*`` constants (a plain bool works for
    poll bodies).  Without a ``guard`` this is exactly the classic spinning
    loop; with one, steady pure-empty iterations are elided as described in
    the module docstring.  Either way the simulated timeline is
    bit-identical.
    """
    if guard is None:
        while not predicate():
            result = yield from body()
            if result != SPIN_PROGRESS:
                yield backoff
        return

    signal = guard.signal
    steady = guard.steady
    txn_counts = guard.txn_counts
    counters = guard.counters
    lead = guard.lead
    resources = guard.resources
    # Counter snapshots, refreshed in place each measured iteration (the
    # counters only ever gain keys), so measuring allocates no dict copies.
    before = [{} for _ in counters]
    spin_only = False
    while not predicate():
        if spin_only or (lead is not None and not steady()):
            # Something is announced or visible, or the device side has
            # work, or the poll observes too late for the lead: this
            # iteration cannot arm, so it runs unmeasured.
            result = yield from body()
            if result != SPIN_PROGRESS:
                yield backoff
            continue
        start = sim.now
        txn_before = txn_counts.get("txn_total", 0)
        probes_before = guard.probe_state()
        for snapshot, counter in zip(before, counters):
            snapshot.update(counter)
        held_before = [(bus.total_acquisitions, bus.busy_cycles) for bus in resources]
        # Run one iteration for real, counting the kernel events it takes
        # (the generator is stepped manually so each resume is observable).
        gen = body()
        events = 0
        value = None
        while True:
            try:
                command = gen.send(value)
            except StopIteration as stop:
                result = stop.value
                break
            events += 1
            value = yield command
        if result == SPIN_PROGRESS:
            continue
        arm_time = sim.now
        if (
            result == SPIN_TRANSIENT
            # A poll that touched a bus (uncached or missed) is not pure.
            or (lead is None and txn_counts.get("txn_total", 0) != txn_before)
            or guard.probe_state() != probes_before
            or not steady()
        ):
            # The poll is not repeatable, the body is still settling,
            # asynchronous activity (a fabric delivery, an ack, a
            # device-side transition) overlapped the measurement, or the
            # machine state moved under the poll: keep spinning for real.
            yield backoff
            continue
        if lead is not None and arm_time - start >= lead:
            # The poll may observe up to its body's end, and that must come
            # before an announced message can matter.  Nothing else ran
            # on the bus during this iteration, so every empty poll of this
            # wait takes as long: spin for the rest of it, unmeasured.
            spin_only = True
            yield backoff
            continue

        # --- Armed: the iteration just completed was an empty poll that
        # repeating with unchanged state reproduces exactly, so measure it
        # once and sleep instead of spinning.
        deltas = []
        for snapshot, counter in zip(before, counters):
            deltas.append(
                {
                    key: value_ - snapshot.get(key, 0)
                    for key, value_ in counter.items()
                    if value_ != snapshot.get(key, 0)
                }
            )
        held_deltas = [
            (bus.total_acquisitions - acquisitions, bus.busy_cycles - busy)
            for bus, (acquisitions, busy) in zip(resources, held_before)
        ]
        period = (arm_time - start) + backoff
        events_per_iter = events + 1  # the body's resumes plus the backoff wake
        first_boundary = arm_time + backoff

        # Sleep until the machine state actually moves.  The steady() check
        # and the signal wait run inside one kernel event, so no state
        # change can slip between them; spurious fires (snooped traffic on
        # unrelated lines) just re-enter the sleep.
        while True:
            yield signal
            if not steady():
                break
        fire_time = sim.now

        # The spinning process would observe the change at the first
        # iteration boundary strictly after (fire - resume_margin): with
        # margin 0 a poll *at* the fire cycle was scheduled a whole backoff
        # earlier than the snoop that fired, so it still sees the old cache
        # state and spins on; with margin 1 the observation sits one cycle
        # into the iteration, so the boundary coinciding with the fire must
        # be executed for real.
        effective_fire = fire_time - guard.resume_margin
        if effective_fire < first_boundary:
            elided = 0
            resume_at = first_boundary
        else:
            elided = (effective_fire - first_boundary) // period + 1
            resume_at = first_boundary + elided * period
        if elided:
            for counter, delta in zip(counters, deltas):
                for key, increment in delta.items():
                    counter[key] += increment * elided
            for bus, (acquisitions, busy) in zip(resources, held_deltas):
                bus.total_acquisitions += acquisitions * elided
                bus.busy_cycles += busy * elided
            guard.note_elided(elided, events_per_iter, period)

        # Resume in two hops so the final leg is scheduled from the same
        # cycle (resume_at - backoff) the spinning loop would have used,
        # preserving same-cycle event ordering after the wake-up.
        schedule_cycle = resume_at - backoff
        if fire_time <= schedule_cycle:
            if fire_time < schedule_cycle:
                yield schedule_cycle - fire_time
            yield backoff
        else:
            yield resume_at - fire_time
