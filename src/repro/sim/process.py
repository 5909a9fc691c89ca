"""Generator-based simulation processes.

A :class:`Process` wraps a Python generator.  The generator ``yield``s
what it waits for, and the kernel resumes it when that is satisfied.  There
are three kinds of yield:

* ``yield n`` — wait ``n`` cycles.  ``n`` is a non-negative whole number:
  a plain ``int``, or an integral float such as ``2.0``.  A negative or
  fractional delay raises :class:`~repro.sim.engine.SimulationError`;
* ``yield resource`` (a :class:`Resource`) — wait for FIFO ownership of the
  resource; the value sent back is the resource;
* ``yield signal`` (a :class:`Signal`) — wait for the signal's next firing;
  the value sent back is the payload.

Sub-generators compose with plain ``yield from``.  Every resumption is one
scheduled kernel event, so ``Simulator.event_count`` is a stable measure of
process activity.  ``yield n`` is the hottest schedule in the simulator, so
:meth:`Process._resume` enqueues it inline: it appends the process's one
prebuilt ``(callback, args)`` entry to the kernel's lane (``n == 0``) or to
the bucket of cycle ``now + n`` (see :mod:`repro.sim.engine`).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Generator, Optional

from heapq import heappush as _heappush

from repro.sim.engine import SimulationError, Simulator, _as_cycles

#: Shared argument tuple for the overwhelmingly common "resume with None"
#: case (plain delays), so the hot path allocates no per-event tuple.
_NONE_ARGS = (None,)


class Signal:
    """A broadcast signal that wakes every waiting process when fired.

    A signal may fire any number of times; each firing wakes the processes
    that were waiting at that moment and passes them the payload.
    """

    def __init__(self, sim: Simulator, name: str = "signal"):
        self._sim = sim
        self.name = name
        self._waiters: list = []
        self.fire_count = 0

    def fire(self, payload: Any = None) -> None:
        """Wake all current waiters, delivering ``payload`` to each."""
        self.fire_count += 1
        waiters = self._waiters
        if not waiters:
            return
        self._waiters = []
        schedule_call = self._sim.schedule_call
        args = _NONE_ARGS if payload is None else (payload,)
        for process in waiters:
            schedule_call(0, process._resume, args)

    @property
    def waiter_count(self) -> int:
        return len(self._waiters)


class Resource:
    """A FIFO resource with integer capacity (default 1, i.e. a mutex).

    Used to model buses: a bus transaction acquires the bus, holds it for the
    occupancy period, then releases it.  The wait queue is a deque, so both
    enqueueing a waiter and granting the next one are O(1).
    """

    def __init__(self, sim: Simulator, name: str = "resource", capacity: int = 1):
        if capacity < 1:
            raise SimulationError("resource capacity must be >= 1")
        self._sim = sim
        self.name = name
        self.capacity = capacity
        self._in_use = 0
        self._wait_queue: deque = deque()
        self._grant_args = (self,)  # reused for every grant event
        # Statistics
        self.total_acquisitions = 0
        self.busy_cycles = 0
        self._last_acquire_time: Optional[int] = None

    @property
    def in_use(self) -> int:
        return self._in_use

    def _request(self, process: "Process") -> None:
        if self._in_use < self.capacity:
            self._grant(process)
        else:
            self._wait_queue.append(process)

    def _grant(self, process: "Process") -> None:
        self._in_use += 1
        self.total_acquisitions += 1
        if self._in_use == 1:
            self._last_acquire_time = self._sim.now
        self._sim.schedule_call(0, process._resume, self._grant_args)

    def release(self) -> None:
        """Release one unit of the resource (called directly, not yielded)."""
        if self._in_use <= 0:
            raise SimulationError(f"release of idle resource {self.name!r}")
        self._in_use -= 1
        if self._in_use == 0 and self._last_acquire_time is not None:
            self.busy_cycles += self._sim.now - self._last_acquire_time
            self._last_acquire_time = None
        if self._wait_queue and self._in_use < self.capacity:
            self._grant(self._wait_queue.popleft())

    def try_acquire_now(self) -> bool:
        """Immediately acquire the resource if free (used for NACK modelling).

        Returns True and takes ownership if the resource is idle and nothing
        is queued; otherwise returns False without waiting.
        """
        if self._in_use < self.capacity and not self._wait_queue:
            self._in_use += 1
            self.total_acquisitions += 1
            if self._in_use == 1:
                self._last_acquire_time = self._sim.now
            return True
        return False


class Process:
    """A running simulation process wrapping a generator."""

    _ids = 0

    def __init__(self, sim: Simulator, generator: Generator, name: str = ""):
        Process._ids += 1
        self.pid = Process._ids
        self.name = name or f"process-{self.pid}"
        self._sim = sim
        self._gen = generator
        self._send = generator.send
        # Prebind the bound method once: every wake-up site (delays, signal
        # fires, resource grants) would otherwise materialise a fresh bound
        # method per event.
        self._resume = self._resume
        # The kernel entry of every plain-delay resume, built once: kernel
        # entries are immutable, so one tuple serves all of them.
        self._wakeup = (self._resume, _NONE_ARGS)
        self.finished = False
        self.result: Any = None
        self.exception: Optional[BaseException] = None
        self.finished_at: Optional[int] = None
        # Kick off on the next event boundary so construction never runs user
        # code synchronously.
        sim.schedule_call(0, self._resume, _NONE_ARGS)

    def __repr__(self) -> str:
        state = "finished" if self.finished else "running"
        return f"<Process {self.name} ({state})>"

    def _resume(self, value: Any) -> None:
        if self.finished:
            return
        try:
            command = self._send(value)
        except StopIteration as stop:
            self._finish(stop.value)
            return
        except BaseException as exc:  # surface errors loudly
            self.exception = exc
            self._finish(None)
            raise
        # Inline dispatch for the three yields, most frequent first; exact
        # type checks keep this a couple of comparisons per event.  Integral
        # floats and errors fall through to _dispatch.
        cls = command.__class__
        if cls is int:
            if command < 0:
                raise SimulationError(
                    f"process {self.name!r} yielded a negative delay: {command}"
                )
            # Inlined Simulator.schedule_call: this is the hottest statement
            # in the whole simulator, so it queues directly into the
            # kernel's lane or bucket rather than paying another call frame.
            sim = self._sim
            if command == 0:
                sim._lane.append(self._wakeup)
            else:
                at = sim.now + command
                bucket = sim._buckets.get(at)
                if bucket is None:
                    sim._buckets[at] = [self._wakeup]
                    _heappush(sim._times, at)
                else:
                    bucket.append(self._wakeup)
        elif cls is Resource:
            command._request(self)
        elif cls is Signal:
            command._waiters.append(self)
        else:
            self._dispatch(command)

    def _dispatch(self, command: Any) -> None:
        """Slow path: a delay that is not a plain ``int``, or an error."""
        if not isinstance(command, (int, float)):
            raise SimulationError(
                f"process {self.name!r} yielded an unsupported command: {command!r}"
            )
        cycles = _as_cycles(command)
        if cycles < 0:
            raise SimulationError(
                f"process {self.name!r} yielded a negative delay: {command}"
            )
        self._sim.schedule_call(cycles, self._resume, _NONE_ARGS)

    def _finish(self, result: Any) -> None:
        self.finished = True
        self.result = result
        self.finished_at = self._sim.now


def start_process(sim: Simulator, generator: Generator, name: str = "") -> Process:
    """Convenience wrapper to launch a generator as a process."""
    return Process(sim, generator, name=name)
