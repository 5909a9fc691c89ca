"""Discrete-event simulation engine.

The engine is a small, dependency-free kernel in the spirit of SimPy.  Time
is an integer number of processor cycles.  :meth:`Simulator.schedule_call`
is the one way to schedule: it queues ``fn(*args)`` ``delay`` cycles from
now.  Most code waits through generator-based processes instead (see
:mod:`repro.sim.process`), which schedule through the same call.

Pending events live in a bucket queue with one bucket per cycle (a calendar
queue in the sense of Brown, "Calendar Queues", CACM 31(10), 1988):

* ``_lane`` is the list of ``(callback, args)`` entries of the cycle now
  running; a zero-delay schedule appends to it;
* ``_buckets`` maps each future cycle to its list of entries, in schedule
  order;
* ``_times`` is a heap of the distinct cycles that have a bucket, so it
  compares plain ints and sees each pending cycle once, however many events
  that cycle holds.

Execution order is exactly the ``(time, seq)`` order of one global heap
keyed by schedule order, without a ``seq`` field.  A bucket's list order is
schedule order, and every entry waiting in a cycle's bucket was scheduled
in an earlier cycle, so it precedes every zero-delay entry scheduled during
that cycle, which the lane appends after it.  The plain drain runs the lane
in place (a list iterator sees the entries appended while it runs), then
makes the next cycle's bucket the lane.  It builds no event record; only
the hooked drain does, one per event (see :meth:`Simulator._pull_batch`).
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from typing import Any, Callable, Dict, Optional


class SimulationError(RuntimeError):
    """Raised for misuse of the simulation kernel."""


def _as_cycles(value: Any, what: str = "delay") -> int:
    """Coerce a delay to int cycles, rejecting fractional values.

    A float such as ``0.5`` used to be silently truncated to ``0`` by
    ``int()``; that turns a half-cycle delay into "immediately", which is
    never what the caller meant.  Integral floats (``2.0``) are accepted.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SimulationError(f"{what} must be an integer number of cycles, got {value!r}")
    if isinstance(value, float):
        if not value.is_integer():
            raise SimulationError(
                f"{what} must be a whole number of cycles, got {value!r} "
                "(fractional delays are not representable; round explicitly)"
            )
        return int(value)
    return value


class _ScheduledEvent:
    """One event as the hooked drain's hooks see it (see :meth:`Simulator._pull_batch`)."""

    __slots__ = ("time", "seq", "callback", "args")

    def __init__(self, time: int, seq: int, callback: Callable, args: tuple) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args


class Simulator:
    """Event-driven simulator with integer cycle timestamps.

    The public surface is deliberately small:

    * :meth:`schedule_call` to queue a callback,
    * :meth:`run` to drain the event queue (up to an optional horizon) and
      :meth:`peek` for the time of the next pending event,
    * :attr:`now` for the current simulated time: a plain attribute that
      only the two drains write (read it, never assign it).

    Processes are layered on top in :mod:`repro.sim.process`.
    """

    def __init__(self) -> None:
        self._lane: list = []  # (callback, args) entries of the cycle `now`
        self._buckets: Dict[int, list] = {}  # future cycle -> its entries
        self._times: list = []  # heap of the cycles in _buckets
        #: Current simulated time in processor cycles.
        self.now = 0
        self._running = False
        self.event_count = 0
        # Spin-wait elision statistics (accumulated by repro.sim.spinwait):
        # kernel events and simulated cycles that provably idempotent
        # busy-poll iterations would have executed but did not, because the
        # waiting process slept on an arrival signal instead.
        self.elided_events = 0
        self.elided_cycles = 0
        # Instrumentation seam (repro.analysis).  When _hooked is True the
        # drain switches to _drain_hooked, which pulls each cycle's events
        # into per-group batches and routes every execution through the
        # overridable event_group/pick_next/on_enqueue/on_execute hooks.
        # The plain path pays exactly one attribute test per drain call.
        self._hooked = False
        self._batch: Dict[Any, deque] = {}
        self._batch_count = 0
        self._pulled = 0  # records _pull_batch has built: the next one's seq
        self._current_event: Optional[_ScheduledEvent] = None

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule_call(self, delay: int, callback: Callable, args: tuple = ()) -> None:
        """Schedule ``callback(*args)`` to run ``delay`` cycles from now.

        This is the kernel's only way to schedule, and it checks nothing:
        every caller passes ``delay`` as a non-negative ``int`` and ``args``
        as a pre-built tuple.  No handle is returned and the event cannot be
        cancelled; it is one ``(callback, args)`` entry appended to the lane
        (``delay == 0``) or to its cycle's bucket.  Processes check the
        delays they are given (``yield n`` in :mod:`repro.sim.process`) and
        fabrics the delays their models return before they get here.
        """
        if delay == 0:
            self._lane.append((callback, args))
        else:
            at = self.now + delay
            bucket = self._buckets.get(at)
            if bucket is None:
                self._buckets[at] = [(callback, args)]
                heappush(self._times, at)
            else:
                bucket.append((callback, args))

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def peek(self) -> Optional[int]:
        """Return the time of the next pending event, or ``None`` if idle."""
        if self._lane or self._batch_count:
            # Entries left in the lane, or already pulled into the hooked
            # drain's batch, are pending at the current cycle.
            return self.now
        times = self._times
        return times[0] if times else None

    def run(self, until: Optional[int] = None) -> int:
        """Run events until the queue drains or ``until`` is reached.
        Returns the final simulated time.  ``until`` may not lie before
        :attr:`now`: simulated time never moves backwards."""
        if self._running:
            raise SimulationError("Simulator.run() is not reentrant")
        if until is not None and until < self.now:
            raise SimulationError(
                f"run(until={until}) lies before now={self.now}; time cannot move backwards"
            )
        self._running = True
        try:
            self._drain(until)
        finally:
            self._running = False
        return self.now

    def _drain(self, until: Optional[int]) -> None:
        """Execute pending events in (time, seq) order.

        ``ran`` counts the lane entries already run.  The ``finally`` deletes
        them from the lane, so a raising callback leaves exactly the entries
        after it pending, and flushes ``event_count`` (accumulated locally,
        saving an attribute store per event on the hottest loop in the
        simulator).
        """
        if self._hooked:
            self._drain_hooked(until)
            return
        lane = self._lane
        times = self._times
        buckets = self._buckets
        executed = 0
        ran = 0
        try:
            while True:
                for callback, args in lane:
                    ran += 1
                    callback(*args)
                if not times:
                    break
                t = times[0]
                if until is not None and t > until:
                    self.now = until
                    break
                heappop(times)
                executed += ran
                ran = 0
                self.now = t
                lane = self._lane = buckets.pop(t)
        finally:
            del lane[:ran]
            self.event_count += executed + ran

    # ------------------------------------------------------------------
    # Instrumented execution (repro.analysis)
    # ------------------------------------------------------------------
    def enable_hooks(self) -> None:
        """Switch the drain to the hooked path (see the hook methods below).

        Subclasses that override :meth:`event_group` / :meth:`pick_next` /
        :meth:`on_enqueue` / :meth:`on_execute` call this once after
        construction; the plain hot path is untouched until then.
        """
        self._hooked = True

    def event_group(self, event: _ScheduledEvent) -> Any:
        """Hook: the batch group an event belongs to (default: one group).

        The hooked drain keeps one FIFO deque per group for the current
        cycle; :meth:`pick_next` chooses among the group heads.
        """
        return None

    def pick_next(self) -> _ScheduledEvent:
        """Hook: pop the next event of the current cycle's batch.

        The default reproduces the canonical global ``(time, seq)`` order:
        among all group heads, the smallest ``seq`` runs first.  Called only
        when ``_batch_count > 0``; implementations must pop and return one
        event from one of the ``_batch`` deques.
        """
        best_dq = None
        best_seq = None
        for dq in self._batch.values():
            if dq:
                seq = dq[0].seq
                if best_seq is None or seq < best_seq:
                    best_seq = seq
                    best_dq = dq
        return best_dq.popleft()

    def on_enqueue(self, event: _ScheduledEvent, parent: Optional[_ScheduledEvent]) -> None:
        """Hook: ``event`` joined the current cycle's batch.

        ``parent`` is the event whose callback scheduled it (``None`` for
        events that were already pending when the cycle began, or that were
        scheduled from outside the drain).
        """

    def on_execute(self, event: _ScheduledEvent) -> None:
        """Hook: ``event`` is about to run (``self.now`` already advanced)."""

    def _pull_batch(self) -> None:
        """Move the lane's entries into the group deques as event records.

        Called when a cycle opens and again after every executed callback,
        so same-cycle events scheduled *during* execution are attributed to
        the event that scheduled them (``self._current_event``) — the
        intra-cycle causality the conflict detector needs.  Each record is
        built here, once, and is never reused, since hook implementations
        key side tables by record identity.  Its ``seq`` counts pulls: the
        lane is in schedule order and is pulled in that order, so ``seq``
        order is the canonical order.
        """
        lane = self._lane
        if not lane:
            return
        now = self.now
        seq = self._pulled
        batch = self._batch
        parent = self._current_event
        for callback, args in lane:
            event = _ScheduledEvent(now, seq, callback, args)
            seq += 1
            self.on_enqueue(event, parent)
            group = self.event_group(event)
            dq = batch.get(group)
            if dq is None:
                dq = batch[group] = deque()
            dq.append(event)
        self._pulled = seq
        self._batch_count += len(lane)
        lane.clear()

    def _drain_hooked(self, until: Optional[int]) -> None:
        """Instrumented twin of :meth:`_drain`.

        Differences from the plain path: events are pulled into per-group
        batches as records (see :meth:`_pull_batch`), and execution order
        within a cycle is delegated to :meth:`pick_next`.  A cycle's batch
        is drained before the horizon is checked again, so only a raising
        callback leaves events in it; they stay pending (see :meth:`peek`)
        and the next drain runs them first.
        """
        times = self._times
        executed = 0
        try:
            while True:
                if not self._batch_count:
                    if not self._lane:
                        if not times:
                            break
                        t = times[0]
                        if until is not None and t > until:
                            self.now = until
                            break
                        heappop(times)
                        self.now = t
                        self._lane = self._buckets.pop(t)
                    self._pull_batch()
                event = self.pick_next()
                self._batch_count -= 1
                executed += 1
                self._current_event = event
                self.on_execute(event)
                event.callback(*event.args)
                # Pull before clearing: same-cycle events scheduled by this
                # callback are children of the event that just ran.
                self._pull_batch()
                self._current_event = None
        finally:
            self._current_event = None
            self.event_count += executed
