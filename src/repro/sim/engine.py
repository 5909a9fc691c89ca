"""Discrete-event simulation engine.

The engine is a small, dependency-free kernel in the spirit of SimPy.  Time
is an integer number of processor cycles.  :meth:`Simulator.schedule_call`
is the one way to schedule: it queues ``fn(*args)`` ``delay`` cycles from
now.  Most code waits through generator-based processes instead (see
:mod:`repro.sim.process`), which schedule through the same call.

Internally the kernel keeps two scheduling structures:

* a binary heap of ``(time, seq, event)`` tuples for future events — tuple
  entries keep heap comparisons in C (``seq`` is unique, so the event object
  itself is never compared), and
* a same-cycle FIFO *lane* (a deque) for events scheduled with zero delay.
  Zero-delay events dominate process execution (resource grants, signal
  wake-ups, process starts), and the lane turns each of them into an O(1)
  append/popleft instead of two O(log n) heap operations.

The two structures are merged by ``(time, seq)`` when events are popped, so
the execution order is exactly the order a single global heap would produce.
Event records are slotted objects recycled through a free pool.  No handle
to a record leaves the kernel and no event can be cancelled, so the plain
drain returns every record to the pool the moment it runs.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from typing import Any, Callable, Dict, Optional


class SimulationError(RuntimeError):
    """Raised for misuse of the simulation kernel."""


#: Upper bound on the event free pool (events beyond this are left to GC).
_POOL_MAX = 8192


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
    """A single event record (pooled; see module docstring)."""

    __slots__ = ("time", "seq", "callback", "args")

    def __init__(self) -> None:
        self.time = 0
        self.seq = 0
        self.callback: Optional[Callable] = None
        self.args: tuple = ()


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
        self._queue: list = []  # heap of (time, seq, event)
        self._lane: deque = deque()  # same-cycle FIFO lane
        self._free: list = []  # event free pool
        self._seq = 0
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
        self._batch_time = 0
        self._current_event: Optional[_ScheduledEvent] = None

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule_call(self, delay: int, callback: Callable, args: tuple = ()) -> None:
        """Schedule ``callback(*args)`` to run ``delay`` cycles from now.

        This is the kernel's only way to schedule, and it checks nothing:
        every caller passes ``delay`` as a non-negative ``int`` and ``args``
        as a pre-built tuple.  No handle is returned and the event cannot be
        cancelled; its record comes from the free pool and goes back to it
        the moment it runs.  Processes check the delays they are given
        (``yield n`` in :mod:`repro.sim.process`) before they get here.
        """
        free = self._free
        if free:
            event = free.pop()
        else:
            event = _ScheduledEvent()
        event.callback = callback
        event.args = args
        seq = self._seq
        self._seq = seq + 1
        event.seq = seq
        if delay == 0:
            event.time = self.now
            self._lane.append(event)
        else:
            at = self.now + delay
            event.time = at
            heappush(self._queue, (at, seq, event))

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def peek(self) -> Optional[int]:
        """Return the time of the next pending event, or ``None`` if idle."""
        if self._batch_count:
            # Events already pulled into the hooked drain's cycle batch are
            # no longer in the lane/heap but are still pending.
            return self._batch_time
        queue = self._queue
        lane = self._lane
        if lane:
            t = lane[0].time
            if queue and queue[0][0] < t:
                return queue[0][0]
            return t
        if queue:
            return queue[0][0]
        return None

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

        ``event_count`` is accumulated locally and flushed in the ``finally``
        (so it stays correct when a callback raises), saving one attribute
        store per event on the hottest loop in the simulator.
        """
        if self._hooked:
            self._drain_hooked(until)
            return
        queue = self._queue
        lane = self._lane
        free = self._free
        time_limit = until if until is not None else float("inf")
        executed = 0
        try:
            while True:
                # --- select the next event across lane and heap -----------
                if lane:
                    event = lane[0]
                    from_heap = False
                    if queue:
                        top = queue[0]
                        if top[0] < event.time or (top[0] == event.time and top[1] < event.seq):
                            event = top[2]
                            from_heap = True
                elif queue:
                    event = queue[0][2]
                    from_heap = True
                else:
                    break
                if event.time > time_limit:
                    self.now = until
                    break
                # --- execute ----------------------------------------------
                if from_heap:
                    heappop(queue)
                else:
                    lane.popleft()
                self.now = event.time
                executed += 1
                callback = event.callback
                args = event.args
                # No per-event pool-cap check or reference nulling here: the
                # pool can never exceed the peak number of simultaneously
                # queued events (each recycle is preceded by a pop), and
                # stale callback/args refs live only until the record is
                # reused.  The cap is enforced once per drain, below.
                free.append(event)
                callback(*args)
        finally:
            self.event_count += executed
            if len(free) > _POOL_MAX:
                del free[_POOL_MAX:]

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
        """Move every pending event at the batch cycle into the group deques.

        Called when a cycle opens and again after every executed callback,
        so same-cycle events scheduled *during* execution are attributed to
        the event that scheduled them (``self._current_event``) — the
        intra-cycle causality the conflict detector needs.
        """
        t = self._batch_time
        lane = self._lane
        queue = self._queue
        pulled = []
        while lane and lane[0].time == t:
            pulled.append(lane.popleft())
        while queue and queue[0][0] == t:
            pulled.append(heappop(queue)[2])
        batch = self._batch
        parent = self._current_event
        for event in pulled:
            self.on_enqueue(event, parent)
            group = self.event_group(event)
            dq = batch.get(group)
            if dq is None:
                dq = batch[group] = deque()
            dq.append(event)
        self._batch_count += len(pulled)

    def _drain_hooked(self, until: Optional[int]) -> None:
        """Instrumented twin of :meth:`_drain`.

        Differences from the plain path: events are pulled cycle-at-a-time
        into per-group batches, execution order within a cycle is delegated
        to :meth:`pick_next`, and executed records are **never** recycled —
        hook implementations key side tables by event identity, and a pooled
        record reused mid-cycle would alias its predecessor.  A cycle's
        batch is drained before the horizon is checked again, so only a
        raising callback leaves events in it; they stay pending (see
        :meth:`peek`) and the next drain runs them first.
        """
        time_limit = until if until is not None else float("inf")
        executed = 0
        try:
            while True:
                if not self._batch_count:
                    t = self.peek()
                    if t is None:
                        break
                    if t > time_limit:
                        self.now = until
                        break
                    self._batch_time = t
                    self._current_event = None
                    self._pull_batch()
                    continue
                event = self.pick_next()
                self._batch_count -= 1
                self.now = event.time
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
