"""Execution engine for experiment specs: one point, or whole sweeps.

:func:`run_point` hands an :class:`ExperimentSpec` to its kind's measure
function (see :mod:`repro.api.kinds`) and returns a :class:`RunResult`.

:class:`SweepRunner` executes many points: it deduplicates repeated specs,
consults the on-disk :class:`~repro.service.store.ResultStore`, runs the
remaining points in this process or on worker processes that are reused
from point to point (each runs the same pure function, so serial and
parallel execution give identical results; a point that fails on a worker
is carried as ``RunResult.error``), and reports progress through an
optional callback.  Every result the runner produces is also appended to
``runner.history`` so a caller can serialise everything computed through
the runner.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
import time
from typing import (
    TYPE_CHECKING, Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union,
)

from repro.api.kinds import measure_point, point_cost
from repro.api.results import ResultSet, RunResult
from repro.api.spec import ExperimentSpec, SweepSpec, as_points

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.service.store import ResultStore

#: Progress callback signature: ``(completed, total, result)``.
ProgressFn = Callable[[int, int, RunResult], None]


def run_point(spec: ExperimentSpec) -> RunResult:
    """Execute one experiment point and return its structured result.

    This is a pure function of the (validated) spec: running the same spec
    twice — in this process or another — yields identical metrics, which is
    what makes both the result cache and parallel execution safe.  Dispatch
    goes through the kind registry (:mod:`repro.api.kinds`), so plugin
    kinds run through the exact same path as the built-ins.
    """
    spec = spec.validate()
    started = time.perf_counter()
    metrics = measure_point(spec)
    return RunResult(spec=spec, metrics=metrics, elapsed_s=time.perf_counter() - started)


def _open_store(directory: Union[str, "os.PathLike[str]"]) -> "ResultStore":
    # Imported on use: ``import repro.api`` must not load the service layer.
    from repro.service.store import ResultStore

    return ResultStore(os.fspath(directory))


def _run_point_payload(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Worker entry point: dict in, dict out, so payloads pickle trivially.

    When the sweep is cached, the worker itself consults and fills the
    on-disk store: each completed point persists immediately (a crashed
    sweep keeps its partial results) and a point another process finished
    meanwhile — e.g. a concurrent service batch sharing the store — is
    served instead of re-simulated.  The worker's cache traffic comes back
    in ``"cache"`` so the parent can fold it into its own counters.  Worker
    stores have no byte budget: the owning process enforces it once per
    sweep, so parallel writers cannot evict each other's fresh entries.
    """
    spec = ExperimentSpec.from_dict(payload["spec"])
    counters = {"hits": 0, "stores": 0}
    desc = payload.get("cache")
    cache = None if desc is None else _open_store(desc["directory"])
    if cache is not None:
        hit = cache.get(spec)
        if hit is not None:
            counters["hits"] = 1
            return {"result": hit.to_dict(), "cache": counters}
    result = run_point(spec)
    if cache is not None:
        cache.put(result)
        counters["stores"] = 1
    return {"result": result.to_dict(), "cache": counters}


class SweepFailure(RuntimeError):
    """A point failed under ``fail_fast``; carries the failed result."""

    def __init__(self, result: RunResult):
        super().__init__(f"{result.spec.describe()}: {result.error}")
        self.result = result


#: Base of the exponential backoff between attempts of a failing point:
#: retry ``n`` waits ``RETRY_BACKOFF_S * 2 ** (n - 1)`` seconds.
RETRY_BACKOFF_S = 0.25


def _worker_main(conn: Any) -> None:
    """Worker process body: run point payloads from ``conn`` until a ``None``.

    A point that raises (including simulator hangs surfaced as errors) is
    answered with ``("error", message)`` and the worker takes the next
    point.  A worker that dies without answering (segfault, ``os._exit``,
    OOM-kill) is diagnosed from its exit code by the parent.
    """
    for payload in iter(conn.recv, None):
        try:
            reply = ("ok", _run_point_payload(payload))
        except Exception as exc:  # noqa: BLE001 — the pipe is the report
            reply = ("error", f"{type(exc).__name__}: {exc}")
        conn.send(reply)


class _Worker:
    """One long-lived worker process and the parent's end of its pipe."""

    __slots__ = ("proc", "conn", "index", "deadline")

    def __init__(self, ctx: Any):
        self.conn, child_conn = ctx.Pipe()
        self.proc = ctx.Process(target=_worker_main, args=(child_conn,), daemon=True)
        self.proc.start()
        child_conn.close()
        #: Index of the point being run, or ``None`` while idle.
        self.index: Optional[int] = None
        self.deadline: Optional[float] = None

    def stop(self, kill: bool = False) -> None:
        """Retire the worker: a stop message, or SIGKILL when ``kill``.

        Never SIGTERM: a worker forked from the service inherits its
        draining SIGTERM handler.  Closing the pipe is no signal either,
        because workers forked later hold copies of the parent's end.
        """
        if not kill:
            try:
                self.conn.send(None)
                self.proc.join(1.0)
            except OSError:
                pass  # the worker is already gone
        if self.proc.exitcode is None:
            self.proc.kill()
        self.proc.join()
        self.conn.close()


def _run_points(
    pending: Sequence[ExperimentSpec],
    jobs: int,
    cache_desc: Optional[Dict[str, Any]],
    timeout_s: Optional[float],
    max_retries: int,
) -> Iterator[Tuple[ExperimentSpec, RunResult, Optional[Dict[str, int]]]]:
    """Run ``pending`` on up to ``jobs`` long-lived worker processes.

    Yields ``(spec, result, worker_cache_stats)`` as points finish; the
    stats are ``None`` for a failed point.  Points are dispatched most
    expensive first: spec order tends to put the heavy macro points last,
    and one picked up while the other workers drain serializes the tail.
    The parent sleeps in ``multiprocessing.connection.wait`` on every
    worker's pipe and process sentinel, until the nearest deadline or
    retry time.  A point that raises comes back as an error from a worker
    that stays in service; a point that kills its worker or overruns
    ``timeout_s`` costs only that worker, which is replaced on demand.
    Each failure is retried up to ``max_retries`` times, after
    ``RETRY_BACKOFF_S * 2 ** (attempt - 1)`` seconds, before the point is
    yielded with ``error`` set.
    """
    # Imported on use: ``import repro.api`` stays light, as for the store.
    from multiprocessing import connection

    ctx = multiprocessing.get_context()
    queue = sorted(range(len(pending)), key=lambda i: point_cost(pending[i]), reverse=True)
    attempts = [0] * len(pending)
    retry_at = [0.0] * len(pending)
    workers: List[_Worker] = []
    try:
        while queue or any(w.index is not None for w in workers):
            for index in [i for i in queue if retry_at[i] <= time.monotonic()]:
                worker = next((w for w in workers if w.index is None), None)
                if worker is None and len(workers) < jobs:
                    worker = _Worker(ctx)
                    workers.append(worker)
                if worker is None:
                    break
                queue.remove(index)
                worker.index = index
                try:
                    worker.conn.send({"spec": pending[index].to_dict(), "cache": cache_desc})
                except OSError:
                    pass  # died while idle: its sentinel reports the crash
                if timeout_s is not None:
                    worker.deadline = time.monotonic() + timeout_s

            wakeups = [w.deadline for w in workers if w.deadline is not None]
            if len(workers) < jobs or any(w.index is None for w in workers):
                wakeups += [retry_at[i] for i in queue]
            timeout = max(0.0, min(wakeups) - time.monotonic()) if wakeups else None
            ready = set(connection.wait(
                [w.conn for w in workers] + [w.proc.sentinel for w in workers], timeout
            ))

            now = time.monotonic()
            for worker in list(workers):
                index, dead = worker.index, worker.proc.sentinel in ready
                if worker.conn in ready or dead:
                    status, reply = "crashed", None
                    # Read the pipe before judging the exit: a worker that
                    # answered and then died still finished its point.
                    if worker.conn.poll():
                        try:
                            status, reply = worker.conn.recv()
                        except (EOFError, OSError):
                            pass
                elif worker.deadline is not None and now >= worker.deadline:
                    status, reply = "timed out", None
                else:
                    continue
                worker.index = worker.deadline = None
                if dead or status not in ("ok", "error"):
                    workers.remove(worker)
                    worker.stop(kill=True)
                if index is None:
                    continue  # an idle worker died; it is replaced on demand
                if status == "ok":
                    yield pending[index], RunResult.from_dict(reply["result"]), reply["cache"]
                    continue
                if status == "error":
                    error = str(reply)
                elif status == "timed out":
                    error = f"point timed out after {timeout_s:g}s"
                else:
                    error = f"worker crashed (exit code {worker.proc.exitcode})"
                attempts[index] += 1
                if attempts[index] <= max_retries:
                    backoff = RETRY_BACKOFF_S * 2 ** (attempts[index] - 1)
                    retry_at[index] = time.monotonic() + backoff
                    queue.append(index)
                else:
                    failed = RunResult(
                        spec=pending[index], error=f"{error} (attempts={attempts[index]})"
                    )
                    yield pending[index], failed, None
    finally:
        # fail_fast (or a closed consumer) abandons the generator with
        # points in flight: kill their workers rather than leak them.
        for worker in workers:
            worker.stop(kill=worker.index is not None)


def run_point_guarded(
    spec: ExperimentSpec,
    timeout_s: Optional[float] = None,
    max_retries: int = 0,
) -> Tuple[RunResult, Optional[Dict[str, int]]]:
    """Run one point on one worker process, with timeout and retry.

    :class:`SweepRunner`'s scheduler for a single point, and the contract
    the HTTP service's per-request timeout builds on: the worker either
    returns a result, raises (error comes back over the pipe), crashes
    (diagnosed from the exit code) or overruns ``timeout_s`` (killed).
    Failures are retried up to ``max_retries`` times with exponential
    backoff; the final failure is reported as a :class:`RunResult` with
    ``error`` set — never an exception — so one sick point cannot take
    down its caller.

    Returns ``(result, worker_cache_stats)``; the stats are ``None`` when
    the point failed (a failed point writes nothing to any cache).
    """
    [(_, result, stats)] = _run_points([spec.validate()], 1, None, timeout_s, max_retries)
    return result, stats


class SweepRunner:
    """Runs sweeps of experiment points, in this process or on workers.

    ``jobs=1`` without a timeout or retries runs points in this process,
    where an exception raised by a point propagates; that is the reference
    path.  Otherwise up to ``jobs`` worker processes live for the sweep and
    are reused from point to point; a point that fails on a worker (it
    raises, crashes its worker or overruns the timeout) is carried as
    ``RunResult.error``, never cached, and the rest of the sweep goes on.

    Parameters
    ----------
    jobs:
        Number of worker processes; ``1`` (the default) runs in-process
        unless a timeout or retries are set.
    cache_dir:
        The on-disk result store, or ``None`` to disable caching.  A
        directory path builds a :class:`~repro.service.store.ResultStore`
        there; a store instance is used as is.
    progress:
        Optional ``(completed, total, result)`` callback, invoked once per
        unique point as its result becomes available.
    point_timeout_s:
        Wall-clock budget per point.  Setting it (or ``max_retries``)
        switches execution to *guarded* mode: points run on workers even
        at ``jobs=1``, and a worker that overruns is killed and replaced,
        so a hung simulation costs one point, not the sweep.
    max_retries:
        How many times a crashed/timed-out/raising point is re-run before
        it is recorded as failed (``RunResult.error``).
    fail_fast:
        Raise :class:`SweepFailure` on the first failed point instead of
        carrying it in the result set.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache_dir: Optional[Union[str, "os.PathLike[str]", "ResultStore"]] = None,
        progress: Optional[ProgressFn] = None,
        point_timeout_s: Optional[float] = None,
        max_retries: int = 0,
        fail_fast: bool = False,
    ):
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        if point_timeout_s is not None and point_timeout_s <= 0:
            raise ValueError("point_timeout_s must be positive")
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        self.jobs = jobs
        if isinstance(cache_dir, (str, os.PathLike)):
            cache_dir = _open_store(cache_dir)
        self.cache: Optional["ResultStore"] = cache_dir
        self.progress = progress
        self.point_timeout_s = point_timeout_s
        self.max_retries = max_retries
        self.fail_fast = fail_fast
        #: Failed points recorded across this runner's lifetime.
        self.failures = 0
        #: Every result produced through this runner, in completion order.
        self.history = ResultSet()

    @property
    def guarded(self) -> bool:
        """Whether points run on worker processes even at ``jobs=1``."""
        return self.point_timeout_s is not None or self.max_retries > 0

    # ------------------------------------------------------------------
    def run(
        self, sweep: Union[SweepSpec, ExperimentSpec, Sequence[ExperimentSpec]]
    ) -> ResultSet:
        """Execute every point of ``sweep``; returns results in point order.

        Duplicate points (same spec hash) are executed once and fanned back
        out, so e.g. a Figure 8 sweep that names the NI2w/memory baseline in
        several panels only simulates it once.
        """
        points = as_points(sweep)
        order: List[str] = []
        unique: Dict[str, ExperimentSpec] = {}
        for spec in points:
            key = spec.spec_hash()
            order.append(key)
            if key not in unique:
                unique[key] = spec

        # Memo levels: results already produced through this runner (e.g. a
        # previous figure's sweep sharing points), then the on-disk store.
        known = self.history.by_hash() if len(self.history) else {}
        resolved: Dict[str, RunResult] = {}
        pending: List[ExperimentSpec] = []
        for key, spec in unique.items():
            hit = known.get(key)
            if hit is None and self.cache is not None:
                hit = self.cache.get(spec)
            if hit is not None:
                resolved[key] = hit
            else:
                pending.append(spec)

        total = len(unique)
        completed = 0
        for result in resolved.values():
            completed += 1
            if self.progress is not None:
                self.progress(completed, total, result)

        if self.guarded or self.jobs > 1:
            cache_desc = None if self.cache is None else {"directory": self.cache.directory}
            completions = _run_points(
                pending, self.jobs, cache_desc, self.point_timeout_s, self.max_retries
            )
        else:
            completions = ((spec, run_point(spec), None) for spec in pending)
        with contextlib.closing(completions):
            for spec, result, worker_stats in completions:
                resolved[spec.spec_hash()] = result
                if result.error is not None:
                    # Failed points are carried, never cached: a later run must
                    # recompute them rather than be served the failure.
                    self.failures += 1
                elif self.cache is not None:
                    if worker_stats is None:
                        # Serial execution: this process writes the entry.
                        self.cache.put(result)
                    else:
                        # The worker already wrote (or re-read) the entry; fold
                        # its counters in.  A worker hit means another process
                        # filled the key after our pre-check counted a miss —
                        # reclassify, so hits+misses still sum to one event per
                        # point and ``--jobs`` reports the same totals as serial.
                        self.cache.hits += worker_stats.get("hits", 0)
                        self.cache.misses -= worker_stats.get("hits", 0)
                        self.cache.stores += worker_stats.get("stores", 0)
                completed += 1
                if self.progress is not None:
                    self.progress(completed, total, result)
                if result.error is not None and self.fail_fast:
                    raise SweepFailure(result)

        if self.cache is not None:
            # Parallel workers never evict; settle the store's byte budget
            # once, here, with every fresh entry already landed.
            self.cache.enforce_budget()

        # History follows point order (not completion order) so the record
        # of a sweep is identical whether points came from cache, workers
        # or the local process.
        for key in unique:
            self._record(resolved[key])
        results = ResultSet([resolved[key] for key in order])
        results.cache_stats = self.cache_stats()
        return results

    def run_one(self, spec: ExperimentSpec) -> RunResult:
        """Run (or fetch from cache) a single point."""
        return self.run([spec])[0]

    def _record(self, result: RunResult) -> None:
        self.history.append(result)

    def cache_stats(self) -> Dict[str, int]:
        return self.cache.stats() if self.cache is not None else {"hits": 0, "misses": 0}

    def __repr__(self) -> str:
        cache = self.cache.directory if self.cache is not None else None
        return f"<SweepRunner jobs={self.jobs} cache={cache!r} history={len(self.history)}>"
