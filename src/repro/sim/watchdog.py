"""Engine-level hang watchdog: structured detection of stuck workloads.

Instead of one blind ``sim.run(until=max_cycles)`` that spins to the cycle
limit and reports nothing, :class:`Watchdog` drives the kernel in bounded
chunks with ``run(until=...)`` and ``peek()``, and diagnoses the two ways a
simulation stops making progress:

* **quiescent-but-not-done** — the event queues drained but workload
  processes are still unfinished (a deadlock: everyone parked on a signal
  or resource that will never fire or free).  The watchdog dumps a wait-for
  graph of the parked processes built by introspecting the machine's
  partition map, and raises :class:`SimulationHangError`.
* **busy stall** — events keep executing but a caller-supplied progress
  fingerprint (delivered messages, finished processes, …) has not changed
  for :data:`DEFAULT_STALL_CYCLES` simulated cycles (an unelided spin loop, a
  retransmission storm that can never succeed).  Also
  :class:`SimulationHangError`, with the stuck fingerprint in the report.

Chunked driving is bit-identical to one long ``run()``: ``run(until=t)``
executes exactly the events with time <= t and never reorders, so the
event stream, statistics and end time match the unchunked run (the
determinism pin in ``tests/test_faults.py`` holds this).

:class:`WorkloadHangError` lives here (moved from ``repro.node.machine``,
which re-exports it); :class:`SimulationHangError` subclasses it so
existing ``except WorkloadHangError`` call sites catch both.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.sim.engine import Simulator
from repro.sim.process import Process, Resource, Signal


class WorkloadHangError(RuntimeError):
    """Raised when a workload fails to complete (deadlock or cycle limit)."""


class SimulationHangError(WorkloadHangError):
    """A structured hang diagnosis with a machine-readable ``report``.

    ``report`` keys: ``kind`` (``"quiescent"`` or ``"stall"``), ``cycle``,
    ``unfinished`` (process names), ``wait_for`` (wait-for graph lines,
    quiescent hangs only) and ``fingerprint`` (stalls only).
    """

    def __init__(self, message: str, report: Dict[str, object]):
        super().__init__(message)
        self.report = report


#: How often (simulated cycles) the watchdog regains control to check
#: progress.  Chunk boundaries add no events, so this is cheap.
DEFAULT_CHECK_INTERVAL = 50_000
#: How long (simulated cycles) the progress fingerprint may stay frozen
#: while events execute before the run is declared stalled.
DEFAULT_STALL_CYCLES = 2_000_000


def _wait_holders(obj: object) -> Iterable[object]:
    """``obj`` itself plus its direct attributes that can park processes."""
    if isinstance(obj, (Signal, Resource)):
        yield obj
    d = getattr(obj, "__dict__", None)
    if isinstance(d, dict):
        for value in d.values():
            if isinstance(value, (Signal, Resource)):
                yield value


def wait_for_graph(
    processes: Sequence[Process],
    partitions: Optional[Dict[str, tuple]] = None,
) -> List[str]:
    """Describe what each unfinished process is parked on.

    ``partitions`` is an ownership map (label -> owned objects, e.g.
    ``Machine.partition_map()``); the waitables are discovered from the
    waited-on side (signal waiter lists and resource queues), so
    building the graph costs nothing on the simulation hot path.
    """
    parked: Dict[int, List[str]] = {}
    by_id: Dict[int, Process] = {}
    seen: set = set()
    for label, objs in (partitions or {}).items():
        for obj in objs:
            for holder in _wait_holders(obj):
                if id(holder) in seen:
                    continue
                seen.add(id(holder))
                if isinstance(holder, Signal):
                    waiters = list(holder._waiters)
                    what = f"signal {holder.name!r}"
                else:
                    waiters = list(holder._wait_queue)
                    what = f"resource {holder.name!r}"
                for proc in waiters:
                    parked.setdefault(id(proc), []).append(f"{what} [{label}]")
                    by_id[id(proc)] = proc
    lines = []
    for proc in processes:
        if proc.finished:
            continue
        on = parked.pop(id(proc), None)
        if on:
            lines.append(f"{proc.name} -> {', '.join(on)}")
        else:
            lines.append(f"{proc.name} -> parked on an untracked waitable")
    # Non-workload processes (device pollers, service loops) that are also
    # parked: context for reading the graph, listed after the stuck ones.
    for pid, on in parked.items():
        proc = by_id[pid]
        if not proc.finished:
            lines.append(f"{proc.name} -> {', '.join(on)} (background)")
    return lines


class Watchdog:
    """Drive ``sim`` in chunks until done, hung, or the cycle limit.

    Parameters
    ----------
    sim, processes:
        The kernel and the workload processes whose completion defines
        "done".  Trailing non-workload events still run to quiescence,
        exactly like a plain ``sim.run`` (statistics stay bit-identical).
    max_cycles:
        Hard simulated-cycle limit (the legacy backstop); ``None`` runs
        until quiescence or a hang is diagnosed.
    progress:
        Zero-arg callable returning a comparable fingerprint of workload
        progress.  ``None`` disables busy-stall detection.
    partitions:
        Zero-arg callable returning an ownership map for the wait-for
        graph (evaluated only when a quiescent hang is diagnosed).
    """

    def __init__(
        self,
        sim: Simulator,
        processes: Sequence[Process],
        *,
        max_cycles: Optional[int] = None,
        progress: Optional[Callable[[], Tuple]] = None,
        partitions: Optional[Callable[[], Dict[str, tuple]]] = None,
    ):
        self.sim = sim
        self.processes = list(processes)
        self.max_cycles = max_cycles
        self.progress = progress
        self.partitions = partitions

    # ------------------------------------------------------------------
    def run(self) -> int:
        """Run to completion; returns the end time.  Raises
        :class:`SimulationHangError` on a diagnosed hang; hitting
        ``max_cycles`` with events pending returns normally (the caller
        owns the classic cycle-limit check).
        """
        sim = self.sim
        last_fp: Optional[Tuple] = None
        stalled_for = 0
        while True:
            chunk_start = sim.now
            target = chunk_start + DEFAULT_CHECK_INTERVAL
            if self.max_cycles is not None:
                target = min(target, self.max_cycles)
            events_before = sim.event_count
            sim.run(until=target)
            executed = sim.event_count - events_before
            if sim.peek() is None:
                break  # drained — same stop condition as one long run()
            if self.max_cycles is not None and sim.now >= self.max_cycles:
                break  # cycle limit with events pending — legacy backstop
            if executed and self.progress is not None:
                fp = self.progress()
                fp = (fp, sum(1 for p in self.processes if p.finished))
                if fp == last_fp:
                    stalled_for += sim.now - chunk_start
                    if stalled_for >= DEFAULT_STALL_CYCLES:
                        self._raise_stalled(fp)
                else:
                    stalled_for = 0
                    last_fp = fp
        unfinished = [p for p in self.processes if not p.finished]
        if unfinished and sim.peek() is None:
            self._raise_quiescent(unfinished)
        return sim.now

    # ------------------------------------------------------------------
    def _raise_quiescent(self, unfinished: Sequence[Process]) -> None:
        partitions = self.partitions() if self.partitions is not None else None
        graph = wait_for_graph(self.processes, partitions)
        names = [p.name for p in unfinished]
        report = {
            "kind": "quiescent",
            "cycle": self.sim.now,
            "unfinished": names,
            "wait_for": graph,
        }
        detail = "; ".join(graph[:6])
        raise SimulationHangError(
            f"simulation quiescent at cycle {self.sim.now} with "
            f"{len(names)} unfinished processes — wait-for graph: {detail}",
            report,
        )

    def _raise_stalled(self, fingerprint: Tuple) -> None:
        names = [p.name for p in self.processes if not p.finished]
        report = {
            "kind": "stall",
            "cycle": self.sim.now,
            "unfinished": names,
            "fingerprint": fingerprint,
            "stall_cycles": DEFAULT_STALL_CYCLES,
        }
        raise SimulationHangError(
            f"no workload progress for {DEFAULT_STALL_CYCLES} cycles at cycle "
            f"{self.sim.now} while events keep executing ({len(names)} "
            "unfinished processes; likely an unelided spin or retry storm)",
            report,
        )
