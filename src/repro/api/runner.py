"""Execution engine for experiment specs: one point, or whole sweeps.

:func:`run_point` maps an :class:`ExperimentSpec` onto the underlying
simulator entry points (the Figure 6/7 microbenchmarks and the Figure 8
macrobenchmark runner) and returns a :class:`RunResult`.

:class:`SweepRunner` executes many points: it deduplicates repeated specs,
consults the on-disk :class:`~repro.service.store.ResultStore`, fans the
remaining points out to ``multiprocessing`` workers when ``jobs > 1`` (each
worker runs the same pure function, so serial and parallel execution give
identical results), and reports progress through an optional callback.
Every result the runner produces is also appended to ``runner.history`` so
a caller can serialise everything computed through the runner.
"""

from __future__ import annotations

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


def _machine_overrides(spec: ExperimentSpec) -> Dict[str, Any]:
    """Machine-shape kwargs shared by every engine entry point."""
    out: Dict[str, Any] = {"ni_kwargs": dict(spec.ni_kwargs)}
    if spec.params:
        out["params"] = spec.machine_params()
    if spec.max_cycles is not None:
        out["max_cycles"] = spec.max_cycles
    return out


def _run_latency(spec: ExperimentSpec) -> Dict[str, float]:
    from repro.experiments.microbench import round_trip_latency

    result = round_trip_latency(
        spec.device,
        spec.bus,
        spec.message_bytes,
        iterations=spec.iterations,
        warmup=spec.resolved_warmup(),
        snarfing=spec.snarfing,
        num_nodes=spec.num_nodes,
        **_machine_overrides(spec),
    )
    return {
        "round_trip_cycles": result.round_trip_cycles,
        "round_trip_us": result.round_trip_us,
        "one_way_us": result.one_way_us,
        "iterations": float(result.iterations),
    }


def _run_bandwidth(spec: ExperimentSpec) -> Dict[str, float]:
    from repro.experiments.microbench import bandwidth

    result = bandwidth(
        spec.device,
        spec.bus,
        spec.message_bytes,
        messages=spec.messages,
        warmup=spec.resolved_warmup(),
        snarfing=spec.snarfing,
        num_nodes=spec.num_nodes,
        **_machine_overrides(spec),
    )
    return {
        "total_cycles": float(result.total_cycles),
        "bandwidth_mbps": result.bandwidth_mbps,
        "relative_bandwidth": result.relative_bandwidth,
        "max_bandwidth_mbps": result.max_bandwidth_mbps,
        "messages": float(result.messages),
    }


def _run_macro(spec: ExperimentSpec) -> Dict[str, float]:
    from repro.experiments.macro import run_macrobenchmark

    workload_kwargs = dict(spec.workload_kwargs)
    workload_kwargs.setdefault("seed", spec.resolved_seed())
    overrides = _machine_overrides(spec)
    overrides.setdefault("max_cycles", 2_000_000_000)
    result = run_macrobenchmark(
        spec.workload,
        spec.device,
        spec.bus,
        num_nodes=spec.num_nodes,
        scale=spec.scale,
        snarfing=spec.snarfing,
        workload_kwargs=workload_kwargs,
        **overrides,
    )
    metrics = {
        "cycles": float(result.cycles),
        "memory_bus_occupancy": float(result.memory_bus_occupancy),
        "io_bus_occupancy": float(result.io_bus_occupancy),
        "network_messages": float(result.network_messages),
    }
    if result.fault_stats:
        # Only fault-plan runs grow these keys, so fault-free results (and
        # their cache entries / goldens) are byte-identical to before the
        # fault layer existed.
        for key, value in result.fault_stats.items():
            if key in ("plan", "seed"):
                continue  # spec inputs, not measurements
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                metrics[f"fault_{key}"] = float(value)
        recovery = result.fault_stats.get("recovery_latency")
        if isinstance(recovery, dict):
            metrics["fault_recovery_p95"] = float(recovery.get("p95", 0.0))
    return metrics


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


def _run_point_indexed(item: Tuple[int, Dict[str, Any]]) -> Tuple[int, Dict[str, Any]]:
    """Indexed worker entry point for unordered parallel completion."""
    index, payload = item
    return index, _run_point_payload(payload)


class SweepFailure(RuntimeError):
    """A point failed under ``fail_fast``; carries the failed result."""

    def __init__(self, result: RunResult):
        super().__init__(f"{result.spec.describe()}: {result.error}")
        self.result = result


def _guarded_child(conn: Any, payload: Dict[str, Any]) -> None:
    """Child-process entry for guarded execution: ship outcome over a pipe.

    Any exception (including simulator hangs surfaced as errors) comes back
    as ``("error", message)`` instead of a traceback on stderr and a
    nonzero exit the parent has to guess about.  A child that dies without
    sending anything (segfault, ``os._exit``, OOM-kill) is diagnosed from
    its exit code by the parent.
    """
    try:
        out = _run_point_payload(payload)
        conn.send(("ok", out))
    except BaseException as exc:  # noqa: BLE001 — the pipe is the report
        try:
            conn.send(("error", f"{type(exc).__name__}: {exc}"))
        except OSError:
            pass
    finally:
        conn.close()


class _GuardedPoint:
    """One in-flight guarded child process."""

    __slots__ = ("index", "proc", "conn", "deadline")

    def __init__(self, index: int, proc: Any, conn: Any, deadline: Optional[float]):
        self.index = index
        self.proc = proc
        self.conn = conn
        self.deadline = deadline


def _spawn_guarded(
    index: int,
    spec: ExperimentSpec,
    cache_desc: Optional[Dict[str, Any]],
    timeout_s: Optional[float],
) -> _GuardedPoint:
    ctx = multiprocessing.get_context()
    parent_conn, child_conn = ctx.Pipe(duplex=False)
    proc = ctx.Process(
        target=_guarded_child,
        args=(child_conn, {"spec": spec.to_dict(), "cache": cache_desc}),
        daemon=True,
    )
    proc.start()
    child_conn.close()
    deadline = None if timeout_s is None else time.monotonic() + timeout_s
    return _GuardedPoint(index, proc, parent_conn, deadline)


def _reap_guarded(point: _GuardedPoint, kill: bool = False) -> None:
    """Shut a guarded child down hard and release its pipe."""
    try:
        if kill and point.proc.is_alive():
            point.proc.terminate()
            point.proc.join(1.0)
            if point.proc.is_alive():
                point.proc.kill()
        point.proc.join(1.0)
    except (OSError, ValueError):
        pass
    try:
        point.conn.close()
    except OSError:
        pass


def run_point_guarded(
    spec: ExperimentSpec,
    timeout_s: Optional[float] = None,
    max_retries: int = 0,
    retry_backoff_s: float = 0.25,
    cache_desc: Optional[Dict[str, Any]] = None,
) -> Tuple[RunResult, Optional[Dict[str, int]]]:
    """Run one point in a disposable child process, with timeout and retry.

    The contract :class:`SweepRunner`'s robustness options and the HTTP
    service's per-request timeout build on: the child either returns a
    result, raises (error comes back over the pipe), crashes (diagnosed
    from the exit code) or overruns ``timeout_s`` (killed).  Failures are
    retried up to ``max_retries`` times with exponential backoff; the final
    failure is reported as a :class:`RunResult` with ``error`` set — never
    an exception — so one sick point cannot take down a sweep.

    Returns ``(result, worker_cache_stats)``; the stats are ``None`` when
    the point failed (a failed point writes nothing to any cache).
    """
    spec = spec.validate()
    attempts = 0
    error = "unknown failure"
    while attempts <= max_retries:
        if attempts:
            time.sleep(retry_backoff_s * (2 ** (attempts - 1)))
        attempts += 1
        point = _spawn_guarded(0, spec, cache_desc, timeout_s)
        try:
            budget = None if point.deadline is None else max(0.0, point.deadline - time.monotonic())
            if point.conn.poll(budget):
                try:
                    status, payload = point.conn.recv()
                except (EOFError, OSError):
                    status, payload = "error", f"worker crashed (exit code {point.proc.exitcode})"
                if status == "ok":
                    return RunResult.from_dict(payload["result"]), payload["cache"]
                error = str(payload)
            elif point.proc.is_alive():
                error = f"point timed out after {timeout_s:g}s"
            else:
                error = f"worker crashed (exit code {point.proc.exitcode})"
        finally:
            _reap_guarded(point, kill=True)
    return (
        RunResult(spec=spec, error=f"{error} (attempts={attempts})"),
        None,
    )


class SweepRunner:
    """Runs sweeps of experiment points, serially or in parallel.

    Parameters
    ----------
    jobs:
        Number of worker processes; ``1`` (the default) runs in-process.
    cache_dir:
        The on-disk result store, or ``None`` to disable caching.  A
        directory path builds a :class:`~repro.service.store.ResultStore`
        there; a store instance is used as is.
    progress:
        Optional ``(completed, total, result)`` callback, invoked once per
        unique point as its result becomes available.
    point_timeout_s:
        Wall-clock budget per point.  Setting it (or ``max_retries``)
        switches execution to *guarded* mode: every point runs in a
        disposable child process that is killed on overrun, so a hung
        simulation costs one point, not the sweep.
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
        retry_backoff_s: float = 0.25,
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
        self.retry_backoff_s = retry_backoff_s
        #: Failed points recorded across this runner's lifetime.
        self.failures = 0
        #: Every result produced through this runner, in completion order.
        self.history = ResultSet()

    @property
    def guarded(self) -> bool:
        """Whether points run in disposable child processes."""
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

        if self.guarded and pending:
            completions = self._run_guarded(pending)
        elif self.jobs > 1 and len(pending) > 1:
            completions = self._run_parallel(pending)
        else:
            completions = ((spec, run_point(spec), None) for spec in pending)
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

    # ------------------------------------------------------------------
    @staticmethod
    def _point_cost(spec: ExperimentSpec) -> float:
        """Rough relative wall-clock cost of one experiment point.

        Delegates to the kind registry's per-kind cost hooks (the historic
        heuristics live there); used only to order parallel work.
        """
        return point_cost(spec)

    def _cache_descriptor(self) -> Optional[Dict[str, Any]]:
        """How a worker process should rebuild this runner's store."""
        return None if self.cache is None else {"directory": self.cache.directory}

    def _run_parallel(
        self, pending: Sequence[ExperimentSpec]
    ) -> Iterator[Tuple[ExperimentSpec, RunResult, Dict[str, int]]]:
        """Yield ``(spec, result, worker_cache_stats)`` as workers finish.

        ``imap_unordered`` streams completions (so progress callbacks fire
        per point, not after the whole batch); the caller re-keys results
        by spec hash, so completion order does not matter.  Points are fed
        to the pool most-expensive first: spec order tends to put the heavy
        macro points last, and a straggler macro point picked up when the
        rest of the pool is already draining serializes the whole tail.
        """
        cache_desc = self._cache_descriptor()
        payloads = [
            (index, {"spec": spec.to_dict(), "cache": cache_desc})
            for index, spec in enumerate(pending)
        ]
        payloads.sort(key=lambda item: self._point_cost(pending[item[0]]), reverse=True)
        workers = min(self.jobs, len(payloads))
        with multiprocessing.Pool(processes=workers) as pool:
            for index, data in pool.imap_unordered(_run_point_indexed, payloads):
                yield (
                    pending[index],
                    RunResult.from_dict(data["result"]),
                    data["cache"],
                )

    def _run_guarded(
        self, pending: Sequence[ExperimentSpec]
    ) -> Iterator[Tuple[ExperimentSpec, RunResult, Optional[Dict[str, int]]]]:
        """Yield completions from disposable per-point child processes.

        Unlike :meth:`_run_parallel`'s shared ``multiprocessing.Pool``, each
        point gets its own process, so a crash or kill takes down exactly
        one point; overruns of ``point_timeout_s`` are terminated; failures
        are retried ``max_retries`` times with exponential backoff before a
        failed :class:`RunResult` is yielded.  Up to ``jobs`` children run
        concurrently (``jobs=1`` degrades to guarded serial execution).
        """
        cache_desc = self._cache_descriptor()
        queue: List[int] = sorted(
            range(len(pending)),
            key=lambda index: self._point_cost(pending[index]),
            reverse=True,
        )
        attempts: Dict[int, int] = {}
        retry_at: Dict[int, float] = {}
        active: Dict[int, _GuardedPoint] = {}
        try:
            while queue or active:
                now = time.monotonic()
                eligible = [i for i in queue if retry_at.get(i, 0.0) <= now]
                while eligible and len(active) < self.jobs:
                    index = eligible.pop(0)
                    queue.remove(index)
                    active[index] = _spawn_guarded(
                        index, pending[index], cache_desc, self.point_timeout_s
                    )
                progressed = False
                for index in list(active):
                    point = active[index]
                    error: Optional[str] = None
                    if point.conn.poll(0):
                        try:
                            status, payload = point.conn.recv()
                        except (EOFError, OSError):
                            status, payload = (
                                "error",
                                f"worker crashed (exit code {point.proc.exitcode})",
                            )
                        if status == "ok":
                            del active[index]
                            _reap_guarded(point)
                            progressed = True
                            yield (
                                pending[index],
                                RunResult.from_dict(payload["result"]),
                                payload["cache"],
                            )
                            continue
                        error = str(payload)
                    elif not point.proc.is_alive():
                        error = f"worker crashed (exit code {point.proc.exitcode})"
                    elif point.deadline is not None and now >= point.deadline:
                        error = f"point timed out after {self.point_timeout_s:g}s"
                    else:
                        continue
                    del active[index]
                    _reap_guarded(point, kill=True)
                    progressed = True
                    attempts[index] = attempts.get(index, 0) + 1
                    if attempts[index] <= self.max_retries:
                        retry_at[index] = time.monotonic() + self.retry_backoff_s * (
                            2 ** (attempts[index] - 1)
                        )
                        queue.append(index)
                    else:
                        yield (
                            pending[index],
                            RunResult(
                                spec=pending[index],
                                error=f"{error} (attempts={attempts[index]})",
                            ),
                            None,
                        )
                if not progressed:
                    time.sleep(0.01)
        finally:
            # fail_fast (or a closed consumer) abandons the generator with
            # children still running; kill them rather than leak them.
            for point in active.values():
                _reap_guarded(point, kill=True)

    def _record(self, result: RunResult) -> None:
        self.history.append(result)

    def cache_stats(self) -> Dict[str, int]:
        return self.cache.stats() if self.cache is not None else {"hits": 0, "misses": 0}

    def __repr__(self) -> str:
        cache = self.cache.directory if self.cache is not None else None
        return f"<SweepRunner jobs={self.jobs} cache={cache!r} history={len(self.history)}>"
