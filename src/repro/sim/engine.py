"""Discrete-event simulation engine.

The engine is a small, dependency-free kernel in the spirit of SimPy.  Time
is an integer number of processor cycles.  Components schedule callbacks on
the event queue; higher-level code usually uses generator-based processes
(see :mod:`repro.sim.process`) instead of raw callbacks.

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
Event records are slotted objects recycled through a free pool; only events
whose handle escapes through the public :meth:`Simulator.schedule` /
:meth:`Simulator.schedule_at` API are exempt from recycling, which keeps
:meth:`Simulator.cancel` safe on stale handles.
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
    """Coerce a delay/timestamp to int cycles, rejecting fractional values.

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
    """A single event record (pooled; see module docstring).

    Cancellation is implemented by flagging the record rather than removing
    it from its queue, which keeps :meth:`Simulator.cancel` O(1).
    """

    __slots__ = ("time", "seq", "callback", "args", "cancelled", "recyclable")

    def __init__(self) -> None:
        self.time = 0
        self.seq = 0
        self.callback: Optional[Callable] = None
        self.args: tuple = ()
        self.cancelled = False
        self.recyclable = False


class Simulator:
    """Event-driven simulator with integer cycle timestamps.

    The public surface is deliberately small:

    * :meth:`schedule` / :meth:`cancel` for raw callbacks,
    * :meth:`schedule_call` — the allocation-light fast path used by the
      process layer and other kernel clients (no handle, not cancellable),
    * :meth:`run` to drain the event queue,
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
    # Event allocation
    # ------------------------------------------------------------------
    def _new_event(self) -> _ScheduledEvent:
        free = self._free
        if free:
            event = free.pop()
            event.cancelled = False
            return event
        return _ScheduledEvent()

    def _enqueue(self, delay: int, event: _ScheduledEvent) -> None:
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
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: int, callback: Callable, *args: Any) -> _ScheduledEvent:
        """Schedule ``callback(*args)`` to run ``delay`` cycles from now.

        Returns a handle accepted by :meth:`cancel`.  ``delay`` must be a
        non-negative whole number of cycles; fractional delays raise
        :class:`SimulationError` instead of being truncated.
        """
        if type(delay) is not int:
            delay = _as_cycles(delay)
        if delay < 0:
            raise SimulationError(f"cannot schedule an event in the past (delay={delay})")
        event = self._new_event()
        event.callback = callback
        event.args = args
        event.recyclable = False  # the handle escapes; never recycle it
        self._enqueue(delay, event)
        return event

    def schedule_at(self, time: int, callback: Callable, *args: Any) -> _ScheduledEvent:
        """Schedule ``callback(*args)`` at an absolute simulated time."""
        if type(time) is not int:
            time = _as_cycles(time, what="absolute time")
        if time < self.now:
            raise SimulationError(f"cannot schedule at {time}, current time is {self.now}")
        return self.schedule(time - self.now, callback, *args)

    def schedule_call(self, delay: int, callback: Callable, args: tuple = ()) -> None:
        """Fast-path scheduling for trusted kernel clients.

        ``delay`` must already be a non-negative ``int`` and ``args`` a
        pre-built tuple.  No handle is returned: the event record is pooled
        and recycled the moment it runs, so it must not be cancelled.  The
        process layer, the network fabric and the bus schedule through this
        entry point; user code should prefer :meth:`schedule`.
        """
        # Body is _new_event() + _enqueue() inlined: this runs once per
        # kernel event and the two extra frames are measurable.  Events in
        # the free pool always have recyclable=True and cancelled=False, so
        # neither flag needs rewriting on reuse.
        free = self._free
        if free:
            event = free.pop()
        else:
            event = _ScheduledEvent()
            event.recyclable = True
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

    def cancel(self, event: _ScheduledEvent) -> None:
        """Cancel a previously scheduled event (no-op if already run)."""
        event.cancelled = True

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _skim_cancelled(self) -> None:
        """Drop cancelled events from the heads of both queues."""
        queue = self._queue
        lane = self._lane
        free = self._free
        while queue and queue[0][2].cancelled:
            event = heappop(queue)[2]
            if event.recyclable and len(free) < _POOL_MAX:
                event.callback = None
                event.args = ()
                event.cancelled = False
                free.append(event)
        while lane and lane[0].cancelled:
            event = lane.popleft()
            if event.recyclable and len(free) < _POOL_MAX:
                event.callback = None
                event.args = ()
                event.cancelled = False
                free.append(event)

    def peek(self) -> Optional[int]:
        """Return the time of the next pending event, or ``None`` if idle."""
        if self._batch_count:
            # Events already pulled into the hooked drain's cycle batch are
            # no longer in the lane/heap but are still pending.
            return self._batch_time
        self._skim_cancelled()
        queue = self._queue
        lane = self._lane
        if lane:
            if queue:
                top = queue[0]
                head = lane[0]
                if top[0] < head.time or (top[0] == head.time and top[1] < head.seq):
                    return top[0]
            return lane[0].time
        if queue:
            return queue[0][0]
        return None

    def step(self) -> bool:
        """Run the next pending event.  Returns False if the queue is empty."""
        return self._drain(None, 1) == 1

    def run(self, until: Optional[int] = None, max_events: Optional[int] = None) -> int:
        """Run events until the queue drains, ``until`` is reached, or
        ``max_events`` have executed.  Returns the final simulated time."""
        if self._running:
            raise SimulationError("Simulator.run() is not reentrant")
        self._running = True
        try:
            self._drain(until, max_events)
        finally:
            self._running = False
        return self.now

    def _drain(self, until: Optional[int], max_events: Optional[int]) -> int:
        """Execute pending events in (time, seq) order; returns the count.

        ``event_count`` is accumulated locally and flushed in the ``finally``
        (so it stays correct when a callback raises), saving one attribute
        store per event on the hottest loop in the simulator.
        """
        if self._hooked:
            return self._drain_hooked(until, max_events)
        queue = self._queue
        lane = self._lane
        free = self._free
        time_limit = until if until is not None else float("inf")
        event_limit = max_events if max_events is not None else float("inf")
        executed = 0
        try:
            while True:
                # --- select the next live event across lane and heap ------
                if lane:
                    head = lane[0]
                    if head.cancelled:
                        lane.popleft()
                        if head.recyclable and len(free) < _POOL_MAX:
                            head.callback = None
                            head.args = ()
                            head.cancelled = False
                            free.append(head)
                        continue
                    if queue:
                        top = queue[0]
                        if top[0] < head.time or (top[0] == head.time and top[1] < head.seq):
                            event = top[2]
                            from_heap = True
                        else:
                            event = head
                            from_heap = False
                    else:
                        event = head
                        from_heap = False
                elif queue:
                    event = queue[0][2]
                    from_heap = True
                else:
                    break
                if from_heap and event.cancelled:
                    heappop(queue)
                    if event.recyclable and len(free) < _POOL_MAX:
                        event.callback = None
                        event.args = ()
                        event.cancelled = False
                        free.append(event)
                    continue
                # --- limits -----------------------------------------------
                if event.time > time_limit:
                    self.now = until
                    break
                if executed >= event_limit:
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
                if event.recyclable:
                    # No per-event pool-cap check or reference nulling here:
                    # the pool can never exceed the peak number of
                    # simultaneously queued events (each recycle is preceded
                    # by a pop), and stale callback/args refs live only
                    # until the record is reused.  The cap is enforced once
                    # per drain, below.
                    free.append(event)
                callback(*args)
        finally:
            self.event_count += executed
            if len(free) > _POOL_MAX:
                del free[_POOL_MAX:]
        return executed

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
        batch = self._batch
        parent = self._current_event
        pulled = 0
        while lane and lane[0].time == t:
            event = lane.popleft()
            if event.cancelled:
                self._recycle_one(event)
                continue
            self.on_enqueue(event, parent)
            group = self.event_group(event)
            dq = batch.get(group)
            if dq is None:
                dq = batch[group] = deque()
            dq.append(event)
            pulled += 1
        while queue and queue[0][0] == t:
            event = heappop(queue)[2]
            if event.cancelled:
                self._recycle_one(event)
                continue
            self.on_enqueue(event, parent)
            group = self.event_group(event)
            dq = batch.get(group)
            if dq is None:
                dq = batch[group] = deque()
            dq.append(event)
            pulled += 1
        self._batch_count += pulled

    def _recycle_one(self, event: _ScheduledEvent) -> None:
        if event.recyclable and len(self._free) < _POOL_MAX:
            event.callback = None
            event.args = ()
            event.cancelled = False
            self._free.append(event)

    def _drain_hooked(self, until: Optional[int], max_events: Optional[int]) -> int:
        """Instrumented twin of :meth:`_drain`.

        Differences from the plain path: events are pulled cycle-at-a-time
        into per-group batches, execution order within a cycle is delegated
        to :meth:`pick_next`, and executed records are **never** recycled —
        hook implementations key side tables by event identity, and a pooled
        record re-issued mid-cycle would alias its predecessor.  Batch
        leftovers persist on the instance so ``step()``/``max_events``
        interruptions resume exactly where they stopped.
        """
        lane = self._lane
        queue = self._queue
        time_limit = until if until is not None else float("inf")
        event_limit = max_events if max_events is not None else float("inf")
        executed = 0
        try:
            while True:
                if not self._batch_count:
                    self._skim_cancelled()
                    if lane:
                        t = lane[0].time
                        if queue and queue[0][0] < t:
                            t = queue[0][0]
                    elif queue:
                        t = queue[0][0]
                    else:
                        break
                    if t > time_limit:
                        self.now = until
                        break
                    self._batch_time = t
                    self._current_event = None
                    self._pull_batch()
                    continue
                if self._batch_time > time_limit:
                    # Leftover batch from an interrupted drain lies beyond
                    # this call's horizon; leave it pending.
                    self.now = until
                    break
                if executed >= event_limit:
                    break
                event = self.pick_next()
                self._batch_count -= 1
                if event.cancelled:
                    continue
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
        return executed
