"""Serve experiments over HTTP: ``python -m repro.service``.

Examples::

    python -m repro.service --port 8042
    python -m repro.service --store-dir .repro-cache --budget-mb 512 --jobs 4

The store directory is shared with the CLI's ``--cache-dir``, so results
computed by ``python -m repro.experiments.run`` are served warm and vice
versa.
"""

from __future__ import annotations

import argparse
import signal
import sys
import threading
from typing import List, Optional

from repro.api.cache import DEFAULT_CACHE_DIR
from repro.service.http import ExperimentService, make_server
from repro.service.store import ResultStore


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address (default: 127.0.0.1)")
    parser.add_argument(
        "--port", type=int, default=8042,
        help="port to listen on; 0 picks an ephemeral port (default: 8042)",
    )
    parser.add_argument(
        "--store-dir", default=DEFAULT_CACHE_DIR,
        help=f"result-store directory (default: {DEFAULT_CACHE_DIR})",
    )
    parser.add_argument(
        "--budget-mb", type=float, default=None,
        help="LRU byte budget for the store in MiB (default: unbounded)",
    )
    parser.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes per batch sweep (default: 1)",
    )
    parser.add_argument(
        "--point-timeout-s", type=float, default=None,
        help="wall-clock budget per simulated point; overruns are killed and "
        "reported 504 / failed (default: unbounded)",
    )
    parser.add_argument(
        "--max-retries", type=int, default=0,
        help="retries for crashed or timed-out points before reporting failure (default: 0)",
    )
    parser.add_argument(
        "--grace-s", type=float, default=30.0,
        help="seconds to let running batches drain on SIGTERM (default: 30)",
    )
    parser.add_argument("--verbose", action="store_true", help="log every request")
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error("--jobs must be >= 1")
    if args.max_retries < 0:
        parser.error("--max-retries must be >= 0")

    budget = None if args.budget_mb is None else int(args.budget_mb * 1024 * 1024)
    store = ResultStore(args.store_dir, budget_bytes=budget)
    service = ExperimentService(
        store,
        jobs=args.jobs,
        verbose=args.verbose,
        point_timeout_s=args.point_timeout_s,
        max_retries=args.max_retries,
    )
    server = make_server(service, host=args.host, port=args.port)
    host, port = server.server_address[:2]

    def handle_term(signum: int, frame: object) -> None:
        # Refuse new work immediately; stop the accept loop from a helper
        # thread (server.shutdown blocks until serve_forever exits, so it
        # must not run on the signal frame).
        service.draining = True
        threading.Thread(target=server.shutdown, name="sigterm-shutdown", daemon=True).start()

    # Install the handler before the banner: the banner is the readiness
    # signal, and a supervisor may SIGTERM the instant it sees it.
    previous = signal.signal(signal.SIGTERM, handle_term)
    print(
        f"repro experiment service on http://{host}:{port} "
        f"(store={args.store_dir!r}, jobs={args.jobs}, "
        f"budget={'unbounded' if budget is None else f'{budget} B'})",
        flush=True,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        signal.signal(signal.SIGTERM, previous)
        report = service.drain(grace_s=args.grace_s)
        server.server_close()
        print(
            f"drained: {report['unfinished_batches']} unfinished batches, "
            f"{report['released_locks']} locks released",
            flush=True,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
