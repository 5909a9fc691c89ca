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
that cycle, which the lane appends after it.  The drain runs the lane
in place (a list iterator sees the entries appended while it runs), then
makes the next cycle's bucket the lane.  It builds no event record.
"""

from __future__ import annotations

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


class Simulator:
    """Event-driven simulator with integer cycle timestamps.

    The public surface is deliberately small:

    * :meth:`schedule_call` to queue a callback,
    * :meth:`run` to drain the event queue (up to an optional horizon) and
      :meth:`peek` for the time of the next pending event,
    * :attr:`now` for the current simulated time: a plain attribute that
      only the drain writes (read it, never assign it).

    Processes are layered on top in :mod:`repro.sim.process`.
    """

    def __init__(self) -> None:
        self._lane: list = []  # (callback, args) entries of the cycle `now`
        self._buckets: Dict[int, list] = {}  # future cycle -> its entries
        self._times: list = []  # heap of the cycles in _buckets
        #: Current simulated time in processor cycles; only the drain writes it.
        self.now = 0
        self._running = False
        self.event_count = 0
        # Spin-wait elision statistics (accumulated by repro.sim.spinwait):
        # kernel events and simulated cycles that provably idempotent
        # busy-poll iterations would have executed but did not, because the
        # waiting process slept on an arrival signal instead.
        self.elided_events = 0
        self.elided_cycles = 0

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
        if self._lane:
            # Entries left in the lane are pending at the current cycle.
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
