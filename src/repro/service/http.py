"""Stdlib HTTP serving layer over the result store and dedup registry.

The service exposes the whole experiment stack over the wire with nothing
beyond ``http.server``:

* ``POST /run`` — one :class:`~repro.api.ExperimentSpec` as JSON in, its
  :class:`~repro.api.RunResult` entry as JSON out.  Warm keys are served
  straight from the store; cold keys are arbitrated through the
  :class:`~repro.service.dedup.InFlightRegistry` so N concurrent identical
  requests trigger exactly one simulation.  ``?wait=0`` returns ``202`` with
  a ``Location: /result/<key>`` to poll instead of blocking.  A follower
  fails as its leader did: ``504`` after a timeout, ``500`` otherwise.
* ``GET /result/<key>`` — the pure read path: one store file read, a strong
  ETag (sha256 of the entry bytes), and ``304 Not Modified`` under
  ``If-None-Match``.  No spec parsing, no Machine construction.  ``202``
  while the key is in flight, ``404`` otherwise.
* ``POST /batch`` — a :class:`~repro.api.SweepSpec` (or explicit point
  list); returns ``202`` with a batch id.  ``GET /batch/<id>`` reports
  progress; ``GET /batch/<id>/stream`` streams one NDJSON line per
  completed point until the batch finishes.  Its points run ``--jobs`` at
  a time, each cold key led or followed as a ``POST /run`` would be.
* ``GET /stats`` — hit/miss/store/eviction counters, dedup counters,
  request counters, uptime.

A cold key is led one way, whoever asks: ``InFlightRegistry.lead`` around
``ExperimentService._simulate``, which runs, stores and counts the point.
A point runs on a worker process when ``--jobs`` is above 1 or a timeout or
retries are set, and in this process otherwise.

Every fixed-length response leaves in one write on a socket with
``TCP_NODELAY`` set, and carries a ``Server-Timing`` header saying where the
request's time went (see :class:`_RequestTrace`).

Run it with ``python -m repro.service`` (see :mod:`repro.service.__main__`).
"""

from __future__ import annotations

import hashlib
import itertools
import json
import re
import sys
import threading
import time
from collections import deque
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple
from urllib.parse import parse_qs, urlparse

from repro.api.kinds import point_cost
from repro.api.results import RunResult
from repro.api.runner import run_point_guarded, run_point_here
from repro.api.spec import ExperimentSpec, SpecError, SweepSpec
from repro.service.dedup import DedupError, InFlightRegistry
from repro.service.store import CorruptEntryError, ResultStore

_KEY_RE = re.compile(r"^[0-9a-f]{64}$")

#: The order a batch settles its points in, by how each key was joined.
_BATCH_ORDER = {"store": 0, "leader": 1, "follower": 2}


class PointTimeoutError(RuntimeError):
    """A simulation exceeded the service's per-point wall-clock budget."""


class _Batch:
    """Progress state for one submitted sweep."""

    def __init__(self, batch_id: str, total: int):
        self.id = batch_id
        self.total = total
        self.completed = 0
        self.failed = 0
        self.events: List[Dict[str, Any]] = []
        self.done = False
        self.keys: List[str] = []
        self.cond = threading.Condition()
        self.started = time.time()
        self.elapsed_s: Optional[float] = None

    def record(self, event: Dict[str, Any]) -> None:
        with self.cond:
            self.completed += 1
            if event.get("failed"):
                self.failed += 1
            event["completed"] = self.completed
            event["total"] = self.total
            self.events.append(event)
            if self.completed == self.total:
                self.done = True
                self.elapsed_s = time.time() - self.started
            self.cond.notify_all()

    def snapshot(self) -> Dict[str, Any]:
        with self.cond:
            return {
                "batch": self.id,
                "total": self.total,
                "completed": self.completed,
                "failed": self.failed,
                "done": self.done,
                # A point fails on its own (``failed``); the batch never does.
                "error": None,
                "keys": list(self.keys),
                "elapsed_s": (
                    self.elapsed_s if self.elapsed_s is not None
                    else time.time() - self.started
                ),
            }


class ExperimentService:
    """The service core: store + dedup registry + batch tracking.

    Everything the HTTP handler does goes through methods here, so the
    service is equally drivable in-process (tests, benchmarks) and over
    the wire.
    """

    def __init__(
        self,
        store: ResultStore,
        jobs: int = 1,
        verbose: bool = False,
        point_timeout_s: Optional[float] = None,
        max_retries: int = 0,
    ):
        self.store = store
        self.registry = InFlightRegistry()
        #: Points a batch runs at a time; above 1, every point (a cold
        #: ``POST /run`` too) runs on a worker process.
        self.jobs = jobs
        self.verbose = verbose
        #: Wall-clock budget per simulated point; ``None`` means unbounded.
        #: When set, points run in disposable child processes that are
        #: killed on overrun — a hung spec costs one point (504 / a failed
        #: batch entry), never a wedged worker thread.
        self.point_timeout_s = point_timeout_s
        #: Crashed/timed-out points are retried this many times before
        #: being reported failed.
        self.max_retries = max_retries
        #: Set during graceful shutdown: new work is refused with 503 while
        #: running batches drain.
        self.draining = False
        #: Set when the drain's grace has run out: batches start no further
        #: point, since the process exits and would orphan its worker.
        self.closed = False
        self.started = time.time()
        self._counter_lock = threading.Lock()
        self.counters: Dict[str, int] = {
            "requests": 0,
            "run_requests": 0,
            "runs_started": 0,
            "runs_completed": 0,
            "run_errors": 0,
            "failed_points": 0,
            "dedup_served": 0,
            "store_served": 0,
            "responses_304": 0,
            "batches": 0,
            "async_runs": 0,
        }
        self._batches: Dict[str, _Batch] = {}
        self._batch_seq = itertools.count(1)
        self._batch_lock = threading.Lock()

    def bump(self, counter: str, by: int = 1) -> None:
        with self._counter_lock:
            self.counters[counter] = self.counters.get(counter, 0) + by

    # ------------------------------------------------------------------
    # Spec parsing
    # ------------------------------------------------------------------
    @staticmethod
    def parse_spec(body: Any) -> ExperimentSpec:
        """A validated spec from a request body (bare spec or ``{"spec": …}``)."""
        if isinstance(body, dict) and isinstance(body.get("spec"), dict):
            body = body["spec"]
        return ExperimentSpec.from_dict(body).validate()

    @staticmethod
    def parse_sweep(body: Any) -> List[ExperimentSpec]:
        """Validated points from a batch body: a SweepSpec dict, an explicit
        ``{"points": […]}``, or a bare JSON list of spec dicts."""
        if isinstance(body, list):
            body = {"points": body}
        if not isinstance(body, dict):
            raise SpecError("batch body must be a SweepSpec object or a list of specs")
        return SweepSpec.from_dict(body).expand()

    # ------------------------------------------------------------------
    # Runs: every cold key is led by InFlightRegistry.lead around _simulate
    # ------------------------------------------------------------------
    def _simulate(self, spec: ExperimentSpec) -> RunResult:
        """Run one point, store it and count it; the only code that does.

        The point runs on a worker process when ``jobs`` is above 1 or a
        timeout or retries are set, as a sweep's points would, otherwise in
        this process.  A failure from either is counted and raised alike:
        :class:`PointTimeoutError` for an overrun, else ``RuntimeError``
        with the worker's wording of the error.
        """
        self.bump("runs_started")
        if self.jobs > 1 or self.point_timeout_s is not None or self.max_retries > 0:
            result, _ = run_point_guarded(
                spec, timeout_s=self.point_timeout_s, max_retries=self.max_retries
            )
        else:
            result = run_point_here(spec)
        if result.error is not None:
            self.bump("failed_points")
            if "timed out" in result.error:
                raise PointTimeoutError(result.error)
            raise RuntimeError(result.error)
        self.store.put(result)
        self.bump("runs_completed")
        return result

    def run_spec(self, spec: ExperimentSpec) -> Tuple[str, str]:
        """Execute (or dedupe, or fetch) one spec; returns ``(key, role)``.

        Blocks until the result is in the store.  Role is ``"store"`` for a
        warm hit, ``"leader"`` for the caller that simulated, ``"follower"``
        for a caller that waited on this process's leader for the key.  The
        warm check is counter-neutral: the HTTP handler has already counted
        the request's hit or miss in the one read that serves a warm key,
        and calls this only on a miss.
        """
        key = self.store.cache_key(spec)
        try:
            _, role = self.registry.run_or_wait(
                key,
                compute=lambda: self._simulate(spec),
                fetch=lambda: self.store.peek(spec),
            )
        except BaseException:
            self.bump("run_errors")
            raise
        self._count_served(role)
        return key, role

    def _join(self, key: str, spec: ExperimentSpec) -> Tuple[str, Any]:
        """Claim ``key`` before a 202 names it, so a poll that lands ahead
        of the work finds it stored or in flight, never a 404.

        Counts the store hit or miss.  Returns ``("store", result)``,
        ``("leader", None)`` when the caller now leads the key's flight, or
        ``("follower", flight)``.
        """
        result = self.store.get(spec)
        if result is not None:
            return "store", result
        flight = self.registry.join(key)
        return ("leader", None) if flight is None else ("follower", flight)

    def _settle(self, key: str, spec: ExperimentSpec, role: str, held: Any) -> RunResult:
        """The result of a joined key: stored, led here, or its leader's.

        Counts it; a failure comes back as ``RunResult.error``.
        """
        try:
            if role == "leader":
                result = self.registry.lead(key, lambda: self._simulate(spec))
            else:
                result = held.wait() if role == "follower" else held
        except Exception as exc:
            self.bump("run_errors")
            return RunResult(spec=spec, error=str(exc))
        self._count_served(role)
        return result

    def _count_served(self, role: str) -> None:
        if role != "leader":  # a leader's run is counted by _simulate
            self.bump("store_served" if role == "store" else "dedup_served")

    def start_async_run(self, spec: ExperimentSpec) -> str:
        """Kick off a background run (deduplicated); returns the key.

        Only a leader starts a thread; a warm key or a follower is counted
        once, here, and polled like any other.
        """
        key = self.store.cache_key(spec)
        self.bump("async_runs")
        role, held = self._join(key, spec)
        if role == "leader":
            threading.Thread(
                target=self._settle, args=(key, spec, role, held),
                name=f"run-{key[:8]}", daemon=True,
            ).start()
        else:
            self._count_served(role)
        return key

    # ------------------------------------------------------------------
    # Batches
    # ------------------------------------------------------------------
    def submit_batch(self, points: List[ExperimentSpec]) -> _Batch:
        """Join every point's key, then settle them on ``jobs`` threads.

        Warm keys go first, then the keys the batch leads, most expensive
        first, then the ones it follows.  A lead never waits, so batches
        following each other's keys cannot deadlock.  The threads are
        daemons, so a point still running cannot hold the process open
        past the SIGTERM grace period.
        """
        unique: Dict[str, ExperimentSpec] = {}
        for spec in points:
            unique.setdefault(self.store.cache_key(spec), spec)
        with self._batch_lock:
            seq = next(self._batch_seq)
        digest = hashlib.sha256(
            "".join(unique).encode("ascii")
        ).hexdigest()[:12]
        batch = _Batch(f"b{seq:04d}-{digest}", total=len(unique))
        batch.keys = list(unique)
        claims = deque(sorted(
            ((key, spec, *self._join(key, spec)) for key, spec in unique.items()),
            key=lambda claim: (_BATCH_ORDER[claim[2]], -point_cost(claim[1])),
        ))
        with self._batch_lock:
            self._batches[batch.id] = batch
        self.bump("batches")
        for n in range(min(self.jobs, len(claims))):
            threading.Thread(
                target=self._run_batch, args=(batch, claims),
                name=f"batch-{batch.id}-{n}", daemon=True,
            ).start()
        return batch

    def get_batch(self, batch_id: str) -> Optional[_Batch]:
        with self._batch_lock:
            return self._batches.get(batch_id)

    def _run_batch(self, batch: _Batch, claims: Deque[tuple]) -> None:
        """One of a batch's threads: settle its joined keys until none is left."""
        while not self.closed:
            try:
                key, spec, role, held = claims.popleft()
            except IndexError:
                return
            batch.record(_point_event(key, self._settle(key, spec, role, held)))

    # ------------------------------------------------------------------
    # Graceful shutdown
    # ------------------------------------------------------------------
    def drain(self, grace_s: float = 30.0) -> Dict[str, Any]:
        """Stop accepting work and wait out running batches.

        The SIGTERM path: new ``POST /run``/``POST /batch`` requests are
        refused with 503 the moment draining starts; batches already
        running get up to ``grace_s`` seconds to finish, and start no point
        after that.  Returns a small report for logging.
        """
        self.draining = True
        deadline = time.monotonic() + max(0.0, grace_s)
        while time.monotonic() < deadline:
            with self._batch_lock:
                active = [b for b in self._batches.values() if not b.done]
            if not active:
                break
            for batch in active:
                with batch.cond:
                    budget = deadline - time.monotonic()
                    if budget <= 0:
                        break
                    if not batch.done:
                        batch.cond.wait(min(0.25, budget))
        self.closed = True
        with self._batch_lock:
            unfinished = sum(1 for b in self._batches.values() if not b.done)
        return {"unfinished_batches": unfinished}

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        with self._batch_lock:
            batches = {
                "submitted": self.counters["batches"],  # repro: allow[STATKEY] service request counter, produced dynamically via bump()
                "active": sum(1 for b in self._batches.values() if not b.done),
            }
        store = self.store.stats()
        dedup = self.registry.stats()
        with self._counter_lock:
            service = dict(self.counters)
        return {
            "uptime_s": time.time() - self.started,
            "jobs": self.jobs,
            "draining": self.draining,
            "point_timeout_s": self.point_timeout_s,
            # Headline counters, flattened for quick scraping.
            "hits": store["hits"],
            "misses": store["misses"],
            "evictions": store["evictions"],
            "deduped": dedup["deduped"],
            "store": store,
            "dedup": dedup,
            "service": service,
            "batches": batches,
        }


def _point_event(key: str, result: RunResult) -> Dict[str, Any]:
    event = {
        "key": key,
        "kind": result.spec.kind,
        "config": result.spec.config,
        "describe": result.spec.describe(),
        "cached": result.cached,
        "elapsed_s": result.elapsed_s,
    }
    if result.error is not None:
        event["failed"] = True
        event["error"] = result.error
    return event


def _etag_matches(header: Optional[str], etag: str) -> bool:
    if header is None:
        return False
    if header.strip() == "*":
        return True
    for candidate in header.split(","):
        candidate = candidate.strip()
        if candidate.startswith("W/"):
            candidate = candidate[2:]
        if candidate.strip('"') == etag:
            return True
    return False


class _RequestTrace:
    """Where one request's time went: its ``Server-Timing`` header and its
    ``--verbose`` log line."""

    __slots__ = ("started", "store_s", "run_s", "status", "role", "key")

    def __init__(self) -> None:
        self.started = time.perf_counter()
        #: Time in store reads.
        self.store_s = 0.0
        #: Time inside ``run_spec`` on a cold key, simulating or waiting on
        #: dedup; ``None`` when the request ran nothing.
        self.run_s: Optional[float] = None
        self.status: Optional[int] = None
        self.role: Optional[str] = None
        self.key: Optional[str] = None

    def server_timing(self) -> str:
        """``store``, ``run`` (cold keys only) and ``total`` so far, in ms.

        Each part is truncated to whole microseconds, so ``store + run <=
        total`` holds in the header as it does in time.
        """
        parts = [("store", self.store_s)]
        if self.run_s is not None:
            parts.append(("run", self.run_s))
        parts.append(("total", time.perf_counter() - self.started))
        return ", ".join(f"{name};dur={int(s * 1e6) / 1000:.3f}" for name, s in parts)


class ServiceHandler(BaseHTTPRequestHandler):
    """Routes requests into the bound :class:`ExperimentService`."""

    service: ExperimentService  # bound by make_server()
    protocol_version = "HTTP/1.1"
    server_version = "repro-service/1.0"
    # Keep-alive clients delay their ACKs, so with Nagle's algorithm on a
    # response written in two parts waits ~40 ms for its second part.
    # Fixed-length responses are written whole (_send_bytes); the NDJSON
    # stream wants each event on the wire as soon as it is written.
    disable_nagle_algorithm = True

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    def log_message(self, format: str, *args: Any) -> None:
        if self.service.verbose:
            BaseHTTPRequestHandler.log_message(self, format, *args)

    def log_request(self, code: Any = "-", size: Any = "-") -> None:
        pass  # a routed request logs one JSON line instead, in _serve()

    def _serve(self, route: Callable[[Any], None]) -> None:
        self.service.bump("requests")
        self.trace = _RequestTrace()
        try:
            route(urlparse(self.path))
        except (BrokenPipeError, ConnectionResetError):
            self.close_connection = True
        if self.service.verbose:
            trace = self.trace
            line = {
                "method": self.command,
                "path": self.path,
                "status": trace.status,
                "role": trace.role,
                "ms": round(1000.0 * (time.perf_counter() - trace.started), 3),
            }
            if trace.key is not None:
                line["key"] = trace.key
            sys.stderr.write(json.dumps(line, sort_keys=True) + "\n")

    def _send_json(
        self, code: int, payload: Any, headers: Optional[Dict[str, str]] = None
    ) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self._send_bytes(code, body, headers)

    def _send_bytes(
        self, code: int, body: bytes, headers: Optional[Dict[str, str]] = None
    ) -> None:
        """A fixed-length response, status line to body, in one write."""
        self.trace.status = code
        self.send_response(code)
        if body:
            self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.send_header("Server-Timing", self.trace.server_timing())
        # end_headers() would write the header block on its own.  An
        # HTTP/0.9 request has no header block, only the body.
        if self.request_version != "HTTP/0.9":
            self._headers_buffer.append(b"\r\n")
            body = b"".join(self._headers_buffer) + body
            self._headers_buffer = []
        self.wfile.write(body)

    def _read_entry(
        self, key: str, spec: Optional[ExperimentSpec] = None
    ) -> Optional[Tuple[bytes, str]]:
        started = time.perf_counter()
        try:
            return self.service.store.read_entry(key, spec)
        finally:
            self.trace.store_s += time.perf_counter() - started

    def _run_spec(self, spec: ExperimentSpec) -> Tuple[str, str]:
        started = time.perf_counter()
        try:
            return self.service.run_spec(spec)
        finally:
            self.trace.run_s = time.perf_counter() - started

    def _send_error_json(self, code: int, message: str) -> None:
        self._send_json(code, {"error": message})

    def _read_body(self) -> Optional[Any]:
        length = self.headers.get("Content-Length")
        if length is None:
            self._send_error_json(411, "Content-Length required")
            return None
        try:
            raw = self.rfile.read(int(length))
            return json.loads(raw.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            self._send_error_json(400, "request body is not valid JSON")
            return None

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 (http.server naming)
        self._serve(self._route_get)

    def do_POST(self) -> None:  # noqa: N802
        self._serve(self._route_post)

    def _route_get(self, url: Any) -> None:
        parts = [p for p in url.path.split("/") if p]
        if url.path in ("/stats", "/stats/"):
            self._send_json(200, self.service.stats())
        elif url.path in ("/", "/healthz"):
            self._send_json(200, {"status": "ok", "uptime_s": time.time() - self.service.started})
        elif len(parts) == 2 and parts[0] == "result":
            self._get_result(parts[1])
        elif len(parts) == 2 and parts[0] == "batch":
            self._get_batch(parts[1])
        elif len(parts) == 3 and parts[0] == "batch" and parts[2] == "stream":
            self._stream_batch(parts[1])
        else:
            self._send_error_json(404, f"no such endpoint: GET {url.path}")

    def _route_post(self, url: Any) -> None:
        if url.path in ("/run", "/run/"):
            self._post_run(url)
        elif url.path in ("/batch", "/batch/"):
            self._post_batch()
        else:
            self._send_error_json(404, f"no such endpoint: POST {url.path}")

    # ------------------------------------------------------------------
    # Endpoints
    # ------------------------------------------------------------------
    def _get_result(self, key: str) -> None:
        if not _KEY_RE.match(key):
            self._send_error_json(400, "result keys are 64 hex characters")
            return
        self.trace.key = key
        try:
            entry = self._read_entry(key)
        except CorruptEntryError as exc:
            # The entry was torn on disk; it has been quarantined, so a
            # retry recomputes the point instead of re-reading garbage.
            self._send_json(503, {"error": str(exc)}, {"Retry-After": "1"})
            return
        if entry is not None:
            data, etag = entry
            self.trace.role = "store"
            if _etag_matches(self.headers.get("If-None-Match"), etag):
                self.service.bump("responses_304")
                self._send_bytes(304, b"", {"ETag": f'"{etag}"'})
                return
            self._send_bytes(200, data, {"ETag": f'"{etag}"', "Cache-Control": "max-age=0, must-revalidate"})
            return
        if self.service.registry.in_flight(key):
            self._send_json(202, {"status": "running", "key": key})
            return
        self._send_error_json(404, f"no result for key {key[:12]}…")

    def _post_run(self, url: Any) -> None:
        body = self._read_body()
        if body is None:
            return
        if self.service.draining:
            self._send_json(503, {"error": "service is draining"}, {"Retry-After": "5"})
            return
        self.service.bump("run_requests")
        try:
            spec = self.service.parse_spec(body)
        except (ValueError, TypeError) as exc:  # every grammar error is a ValueError
            self._send_error_json(400, f"invalid spec: {exc}")
            return
        query = parse_qs(url.query)
        wait = query.get("wait", ["1"])[0].lower() not in ("0", "false", "no")
        if not wait:
            key = self.trace.key = self.service.start_async_run(spec)
            self._send_json(
                202,
                {"status": "running", "key": key, "location": f"/result/{key}"},
                {"Location": f"/result/{key}"},
            )
            return
        key = self.trace.key = self.service.store.cache_key(spec)
        # A warm key is served from this one read; a miss is counted here.
        entry = self._read_entry(key, spec)
        if entry is not None:
            self.service.bump("store_served")
            role = "store"
        else:
            try:
                key, role = self._run_spec(spec)
            except Exception as exc:
                # A follower answers as its leader did: 504 or 500.
                cause = exc.__cause__ if isinstance(exc, DedupError) else exc
                if isinstance(cause, PointTimeoutError):
                    self._send_error_json(504, f"simulation timed out: {exc}")
                else:
                    self._send_error_json(500, f"simulation failed: {type(exc).__name__}: {exc}")
                return
            try:
                entry = self._read_entry(key)
            except CorruptEntryError as exc:
                self._send_json(503, {"error": str(exc)}, {"Retry-After": "1"})
                return
        self.trace.role = role
        if entry is None:
            self._send_error_json(503, "result evicted before it could be served; retry")
            return
        data, etag = entry
        self._send_bytes(
            200, data, {"ETag": f'"{etag}"', "X-Repro-Role": role, "Location": f"/result/{key}"}
        )

    def _post_batch(self) -> None:
        body = self._read_body()
        if body is None:
            return
        if self.service.draining:
            self._send_json(503, {"error": "service is draining"}, {"Retry-After": "5"})
            return
        try:
            points = self.service.parse_sweep(body)
        except (ValueError, TypeError) as exc:
            self._send_error_json(400, f"invalid sweep: {exc}")
            return
        if not points:
            self._send_error_json(400, "batch expands to zero points")
            return
        batch = self.service.submit_batch(points)
        self._send_json(
            202,
            {
                "batch": batch.id,
                "points": batch.total,
                "keys": batch.keys,
                "location": f"/batch/{batch.id}",
                "stream": f"/batch/{batch.id}/stream",
            },
            {"Location": f"/batch/{batch.id}"},
        )

    def _get_batch(self, batch_id: str) -> None:
        batch = self.service.get_batch(batch_id)
        if batch is None:
            self._send_error_json(404, f"no such batch {batch_id!r}")
            return
        self._send_json(200, batch.snapshot())

    def _stream_batch(self, batch_id: str) -> None:
        batch = self.service.get_batch(batch_id)
        if batch is None:
            self._send_error_json(404, f"no such batch {batch_id!r}")
            return
        self.trace.status = 200
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Cache-Control", "no-store")
        self.send_header("Connection", "close")
        self.send_header("Server-Timing", self.trace.server_timing())
        self.end_headers()
        self.close_connection = True
        sent = 0
        while True:
            with batch.cond:
                while len(batch.events) <= sent and not batch.done:
                    batch.cond.wait(0.25)
                events = batch.events[sent:]
                done = batch.done
            sent += len(events)
            for event in events:
                self.wfile.write(json.dumps(event, sort_keys=True).encode("utf-8") + b"\n")
            self.wfile.flush()
            if done:
                self.wfile.write(
                    json.dumps(
                        {"done": True, **batch.snapshot()}, sort_keys=True
                    ).encode("utf-8")
                    + b"\n"
                )
                self.wfile.flush()
                return


#: How often ``serve_forever`` checks for a ``shutdown()`` request, in
#: seconds.  socketserver's default of 0.5 s made every shutdown wait up
#: to half a second: in tests, and between SIGTERM and the drain.
SERVE_POLL_S = 0.05


class ServiceServer(ThreadingHTTPServer):
    """The service's HTTP server: a deep accept backlog, a short poll."""

    # Dedup fan-in means hundreds of identical requests arriving in the
    # same instant is the expected load shape.
    request_queue_size = 128
    daemon_threads = True

    def serve_forever(self, poll_interval: float = SERVE_POLL_S) -> None:
        super().serve_forever(poll_interval)


def make_server(
    service: ExperimentService, host: str = "127.0.0.1", port: int = 0
) -> ServiceServer:
    """A ready-to-serve :class:`ServiceServer` bound to ``service``.

    ``port=0`` picks an ephemeral port; read it back from
    ``server.server_address``.
    """
    handler = type("BoundServiceHandler", (ServiceHandler,), {"service": service})
    return ServiceServer((host, port), handler)
