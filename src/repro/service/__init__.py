"""Production experiment service: store, dedup, and HTTP serving.

The service layer turns :mod:`repro.api` from a library into a system:

* :class:`~repro.service.store.ResultStore` — a concurrency-safe,
  content-addressed result store: one file per result, keyed by the spec
  hash and :data:`~repro.service.store.STORE_SCHEMA_VERSION`, in sharded
  directories, written atomically, with pin files and LRU eviction by
  last-hit mtime under a byte budget — the one store the CLI, this service
  and every :class:`~repro.api.SweepRunner` with a ``cache_dir`` read and
  write,
* :class:`~repro.service.dedup.InFlightRegistry` — in-flight-run
  deduplication in the server's memory, so N concurrent identical requests
  trigger exactly one simulation,
* :class:`~repro.service.http.ExperimentService` and
  :func:`~repro.service.http.make_server` — a stdlib-only HTTP API
  (``POST /run``, ``GET /result/<key>`` with strong ETags and 304s,
  ``POST /batch`` with a streamed progress endpoint, ``GET /stats``)
  started with ``python -m repro.service``,
* :mod:`~repro.service.admin` — the ``cache {stats,ls,gc,pin,unpin}``
  admin CLI reachable through ``python -m repro.experiments.run cache``.
"""

from repro.service.dedup import DedupError, InFlightRegistry
from repro.service.http import ExperimentService, PointTimeoutError, ServiceHandler, make_server
from repro.service.store import CorruptEntryError, EntryInfo, ResultStore

__all__ = [
    "ResultStore",
    "EntryInfo",
    "CorruptEntryError",
    "InFlightRegistry",
    "DedupError",
    "ExperimentService",
    "PointTimeoutError",
    "ServiceHandler",
    "make_server",
]
