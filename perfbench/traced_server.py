"""``python -m repro.service`` with spans around each layer's public calls.

Usage::

    python3 perfbench/traced_server.py SPANS.json [repro.service arguments...]

Wraps the handler's ``do_GET``/``do_POST``, ``ExperimentSpec.validate``,
``run_point_guarded``, the ``ResultStore`` read and write calls and
``InFlightRegistry.run_or_wait`` before calling the service's own ``main``.
Spans are kept in memory and written to ``SPANS.json`` when the server exits.
A span carries the phase and request id the benchmark's client sent in the
``X-Bench-Phase`` / ``X-Bench-Request`` headers, so nested spans can be
joined to the client's latency for the same request.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import threading
import time
from typing import Any, Callable, Dict, List

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench.common import require_checkout  # noqa: E402

SPANS: List[Dict[str, Any]] = []
_current = threading.local()


def _record(name: str, started: float, **extra: Any) -> None:
    SPANS.append({
        "name": name,
        "ms": 1000.0 * (time.perf_counter() - started),
        "phase": getattr(_current, "phase", None),
        "req": getattr(_current, "req", None),
        **extra,
    })


def _span(name: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        started = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            _record(name, started)

    return wrapper


def _handler_span(fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(self: Any) -> None:
        _current.phase = self.headers.get("X-Bench-Phase")
        _current.req = self.headers.get("X-Bench-Request")
        started = time.perf_counter()
        try:
            fn(self)
        finally:
            _record("handler", started, method=self.command)
            _current.phase = _current.req = None

    return wrapper


def _dedup_span(fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        started = time.perf_counter()
        role = "error"
        try:
            result, role = fn(*args, **kwargs)
            return result, role
        finally:
            _record("run_or_wait", started, role=role)

    return wrapper


def _guarded_span(fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        started = time.perf_counter()
        result, stats = fn(*args, **kwargs)
        _record("guarded", started, elapsed_ms=1000.0 * (result.elapsed_s or 0.0))
        return result, stats

    return wrapper


def install() -> None:
    from repro.api.spec import ExperimentSpec
    from repro.service import http
    from repro.service.dedup import InFlightRegistry
    from repro.service.store import ResultStore

    http.ServiceHandler.do_GET = _handler_span(http.ServiceHandler.do_GET)
    http.ServiceHandler.do_POST = _handler_span(http.ServiceHandler.do_POST)
    http.run_point_guarded = _guarded_span(http.run_point_guarded)
    ExperimentSpec.validate = _span("validate", ExperimentSpec.validate)
    for name in ("get", "peek", "read_entry"):
        setattr(ResultStore, name, _span("store_read", getattr(ResultStore, name)))
    ResultStore.put = _span("store_put", ResultStore.put)
    InFlightRegistry.run_or_wait = _dedup_span(InFlightRegistry.run_or_wait)


def main(argv: List[str]) -> int:
    require_checkout()
    spans_path, service_args = argv[0], argv[1:]
    install()
    from repro.service.__main__ import main as service_main

    try:
        return service_main(service_args)
    finally:
        with open(spans_path, "w", encoding="utf-8") as handle:
            json.dump(SPANS, handle)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
