"""Concurrency-safe content-addressed result store: one file per result.

:class:`ResultStore` is the one on-disk store every experiment kind goes
through: the CLI, the HTTP service and any :class:`~repro.api.SweepRunner`
given a ``cache_dir`` read and write it.  A stored result is one file,
``ab/cd/<key>.json`` for key ``abcd…``, holding :meth:`RunResult.to_dict`
and nothing else, under one key rule:

* **One key rule.**  :func:`cache_key` is the sha256 of the spec hash and
  :data:`STORE_SCHEMA_VERSION`.  An entry is current exactly when it
  decodes and its own spec's key is its file name; anything else is a
  miss to every read and ``stale`` (or ``corrupt``) to gc.
* **Sharded layout.**  The two-level fan-out directories keep a store
  holding hundreds of thousands of results out of any one directory.
* **Atomic writes.**  Entries are written tempfile-first and
  ``os.replace``\\ d into place: concurrent writers of the same key race
  safely (each lands a complete entry; last rename wins) and a crashed
  writer never leaves a torn file.
* **File metadata only.**  The ETag is the sha256 of the bytes served.  A
  hit sets the entry's mtime, which is its last-hit time.  A pin is an
  empty ``<key>.pin`` file beside the entry, so it survives hits and
  re-puts, and no update of one file can lose another's.
* **LRU eviction with a byte budget.**  ``budget_bytes`` caps the store;
  :meth:`enforce_budget` evicts least-recently-hit entries until under
  budget, from directory listings and ``os.stat`` alone.  Pinned (golden)
  entries are **never** evicted, even if the pinned set alone exceeds the
  budget.
* **Key-addressed reads.**  :meth:`read_entry` serves the raw entry bytes
  plus ETag for a bare key — the HTTP layer's pure read path, which never
  parses a spec or constructs a Machine, so an entry whose kind no longer
  exists is still served.  Given the spec too, the same one read makes
  every check :meth:`get` makes, so a warm ``POST /run`` is answered from
  a single read of its entry.

Files outside the sharded layout (such as the flat ``<kind>-<key>.json``
files older versions wrote to the store root) are never read.
"""

from __future__ import annotations

import glob
import hashlib
import json
import os
import tempfile
import threading
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from repro.api.results import RunResult
from repro.api.spec import ExperimentSpec

#: Default store location (relative to the working directory).
DEFAULT_CACHE_DIR = ".repro-cache"

#: Version of every stored result's meaning.  Bump it whenever an existing
#: spec's result changes — device construction, fabric timing, coherence
#: transitions, workload generation or a kind's metric set: every key
#: moves, and the entries under the old keys read as misses until gc
#: prunes them as ``stale``.  Version 1: one file per result under this
#: one rule.
STORE_SCHEMA_VERSION = 1

#: Subdirectory corrupt entries are moved into.  The name is deliberately
#: longer than two characters so quarantined files escape the sharded
#: ``??/??`` walk — a quarantined entry is invisible to every read,
#: eviction and gc path until an operator inspects it.
_QUARANTINE_DIR = "quarantine"


def cache_key(spec: ExperimentSpec) -> str:
    """The store key of ``spec``: sha256 of its hash and the store schema."""
    payload = f"{spec.spec_hash()}:store-schema-{STORE_SCHEMA_VERSION}"
    return hashlib.sha256(payload.encode("ascii")).hexdigest()


def _classify(data: Optional[bytes], key: str) -> Tuple[str, Optional[RunResult]]:
    """``("ok", result)`` when the entry stored under ``key`` is current:
    its bytes decode and its own spec's key is ``key``.  Otherwise
    ``("stale", result)`` for another spec's or an older schema's result,
    or ``("corrupt", None)`` for bytes that do not decode (or ``None``, an
    entry that could not be read)."""
    try:
        result = RunResult.from_dict(json.loads(data))
    except (ValueError, KeyError, TypeError, AttributeError):
        return "corrupt", None
    return ("ok" if cache_key(result.spec) == key else "stale"), result


def _read_bytes(path: str) -> Optional[bytes]:
    """The bytes at ``path``, or ``None`` if it cannot be read."""
    try:
        with open(path, "rb") as handle:
            return handle.read()
    except OSError:
        return None


def _unlink(path: str) -> bool:
    try:
        os.unlink(path)
        return True
    except OSError:
        return False


class CorruptEntryError(RuntimeError):
    """A store entry exists but holds torn/unparseable JSON.

    Raised by the key-addressed serving path after the offending file has
    been moved to the quarantine directory; the caller should answer 503
    with a short ``Retry-After`` — the next request re-simulates the point
    (the key now reads as a miss) instead of serving garbage bytes.
    """


@dataclass
class EntryInfo:
    """One store entry as seen by the admin/eviction walks."""

    key: str
    path: str
    size: int
    kind: str = "?"
    #: The entry's mtime: when it was last written or hit.
    last_hit: float = 0.0
    pinned: bool = False
    #: "ok" | "stale" (another spec's or an older schema's) | "corrupt";
    #: only :meth:`ResultStore.entries` reads entries to classify them.
    state: str = "ok"


class ResultStore:
    """Sharded, budget-evicted store of one file per result.

    Parameters
    ----------
    directory:
        Store root; created on the first write.
    budget_bytes:
        Byte budget for LRU eviction, or ``None`` for unbounded.  Workers
        inside a sweep pass ``None`` and let the owning process enforce the
        budget once per sweep.
    """

    def __init__(self, directory: str = DEFAULT_CACHE_DIR, budget_bytes: Optional[int] = None):
        self.directory = directory
        self.budget_bytes = budget_bytes
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.evictions = 0
        self.evicted_bytes = 0
        self.quarantined = 0
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Keys and paths
    # ------------------------------------------------------------------
    #: :func:`cache_key`, for callers that hold a store.
    cache_key = staticmethod(cache_key)

    def path_for_key(self, key: str) -> str:
        """Sharded entry path: ``<root>/<k[:2]>/<k[2:4]>/<key>.json``."""
        return os.path.join(self.directory, key[:2], key[2:4], f"{key}.json")

    def path_for(self, spec: ExperimentSpec) -> str:
        return self.path_for_key(cache_key(spec))

    def _pin_path(self, key: str) -> str:
        return os.path.join(self.directory, key[:2], key[2:4], f"{key}.pin")

    @property
    def quarantine_dir(self) -> str:
        return os.path.join(self.directory, _QUARANTINE_DIR)

    # ------------------------------------------------------------------
    # Quarantine
    # ------------------------------------------------------------------
    def quarantine(self, key: str, path: Optional[str] = None) -> bool:
        """Move a corrupt entry out of the serving tree.

        Quarantined files keep their names under ``quarantine/`` for
        post-mortem inspection but are invisible to every read path, so the
        key immediately reads as a miss and gets recomputed.  A pin stays
        where it is and holds for the recomputed entry.  Returns True if an
        entry file was actually moved.
        """
        path = path or self.path_for_key(key)
        os.makedirs(self.quarantine_dir, exist_ok=True)
        try:
            os.replace(path, os.path.join(self.quarantine_dir, os.path.basename(path)))
        except OSError:
            return False
        with self._lock:
            self.quarantined += 1
        return True

    def quarantine_count(self) -> int:
        """Entries currently sitting in the quarantine directory."""
        return len(glob.glob(os.path.join(self.quarantine_dir, "*.json")))

    # ------------------------------------------------------------------
    # Spec-addressed reads and writes
    # ------------------------------------------------------------------
    def get(self, spec: ExperimentSpec) -> Optional[RunResult]:
        """The stored result for ``spec`` (marked ``cached``), or None on a
        miss; counts the hit or miss and bumps the entry's last-hit time."""
        key = cache_key(spec)
        result = self._current(key)
        self._count(result is not None)
        if result is not None:
            self._touch(self.path_for_key(key))
        return result

    def peek(self, spec: ExperimentSpec) -> Optional[RunResult]:
        """Like :meth:`get` but counter- and last-hit-neutral.

        The service checks for a warm key with this before it leads or
        follows a flight; that check must not inflate miss counters or
        reorder eviction.
        """
        return self._current(cache_key(spec))

    def _current(self, key: str) -> Optional[RunResult]:
        state, result = _classify(_read_bytes(self.path_for_key(key)), key)
        if state != "ok":
            return None
        result.cached = True
        return result

    def _count(self, hit: bool) -> None:
        with self._lock:
            if hit:
                self.hits += 1
            else:
                self.misses += 1

    def put(self, result: RunResult) -> str:
        """Persist ``result``; returns the entry path written.

        The entry goes to a tempfile that is renamed into place, so a
        crashed or racing writer never leaves a torn file: concurrent
        writers of the same key each land a complete entry, last rename
        wins.
        """
        path = self.path_for(result.spec)
        directory = os.path.dirname(path)
        os.makedirs(directory, exist_ok=True)
        fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(json.dumps(result.to_dict(), sort_keys=True).encode("utf-8"))
            os.replace(tmp_path, path)
        except BaseException:
            _unlink(tmp_path)
            raise
        with self._lock:
            self.stores += 1
        if self.budget_bytes is not None:
            self.enforce_budget()
        return path

    def clear(self) -> int:
        """Remove every entry and its pin; returns the count."""
        return sum(self._remove(info) for info in self._scan())

    def stats(self) -> Dict[str, int]:
        entries = total = pinned = 0
        for info in self._scan():
            entries += 1
            total += info.size
            pinned += info.pinned
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "evictions": self.evictions,
            "evicted_bytes": self.evicted_bytes,
            "quarantined": self.quarantined,
            "entries": entries,
            "bytes": total,
            "pinned": pinned,
        }

    # ------------------------------------------------------------------
    # Key-addressed read path (no Machine)
    # ------------------------------------------------------------------
    def read_entry(
        self, key: str, spec: Optional[ExperimentSpec] = None
    ) -> Optional[Tuple[bytes, str]]:
        """The raw entry bytes and strong ETag for ``key``, or ``None``.

        This is the serving read path: one file read plus a JSON
        well-formedness check (no spec validation, and definitely no Machine
        construction).  A torn entry is moved to quarantine and surfaces as
        :class:`CorruptEntryError` so the HTTP layer can answer 503 instead
        of shipping garbage bytes.  The ETag is the sha256 of the bytes.

        Given the ``spec`` that ``key`` was derived from, the same read is
        :meth:`get` returning bytes: the entry must be current, it counts as
        a hit or a miss, and a torn, stale or mismatched entry is a miss
        (``None``) for the caller to recompute rather than an error.
        """
        path = self.path_for_key(key)
        data = _read_bytes(path)
        if spec is not None:
            hit = _classify(data, key)[0] == "ok"
            self._count(hit)
            if not hit:
                return None
        elif data is None:
            return None
        else:
            try:
                json.loads(data)
            except ValueError:
                self.quarantine(key, path)
                raise CorruptEntryError(f"store entry {key[:12]}… is corrupt; quarantined") from None
        self._touch(path)
        return data, hashlib.sha256(data).hexdigest()

    @staticmethod
    def _touch(path: str) -> None:
        """Set the entry's last-hit time; a vanished entry is no error."""
        try:
            os.utime(path)
        except OSError:
            pass

    # ------------------------------------------------------------------
    # Pinning
    # ------------------------------------------------------------------
    def pin(self, key: str, pinned: bool = True) -> bool:
        """Mark the entry as golden (never evicted); False if no such entry."""
        if not os.path.exists(self.path_for_key(key)):
            return False
        if pinned:
            with open(self._pin_path(key), "ab"):
                pass
        else:
            _unlink(self._pin_path(key))
        return True

    def resolve_key(self, prefix: str) -> List[str]:
        """Full keys matching a (possibly abbreviated) hex key prefix."""
        return sorted(info.key for info in self._scan() if info.key.startswith(prefix))

    # ------------------------------------------------------------------
    # Walks, eviction, gc
    # ------------------------------------------------------------------
    def _scan(self) -> Iterator[EntryInfo]:
        """Every entry file in the sharded layout, from directory listings
        and ``os.stat`` alone: no entry is opened, so ``kind`` and ``state``
        keep their defaults."""
        for shard in glob.glob(os.path.join(self.directory, "??", "??")):
            try:
                names = os.listdir(shard)
            except OSError:
                continue
            pins = {name[: -len(".pin")] for name in names if name.endswith(".pin")}
            for name in names:
                if not name.endswith(".json"):
                    continue
                path = os.path.join(shard, name)
                try:
                    stat = os.stat(path)
                except OSError:
                    continue  # removed or replaced under the walk
                key = name[: -len(".json")]
                yield EntryInfo(
                    key=key, path=path, size=stat.st_size,
                    last_hit=stat.st_mtime, pinned=key in pins,
                )

    def entries(self, include_invalid: bool = False) -> Iterator[EntryInfo]:
        """Every entry in the store, read and classified.

        With ``include_invalid`` the walk also yields entries classified
        ``corrupt`` (unreadable/torn JSON) or ``stale`` (another spec's or
        an older schema's result); by default only ``ok`` entries.
        """
        for info in self._scan():
            info.state, result = _classify(_read_bytes(info.path), info.key)
            if result is not None:
                info.kind = result.spec.kind
            if include_invalid or info.state == "ok":
                yield info

    def _remove(self, info: EntryInfo) -> bool:
        """Delete an entry and its pin; False if the entry was already gone."""
        removed = _unlink(info.path)
        if info.pinned:
            _unlink(self._pin_path(info.key))
        return removed

    def total_bytes(self) -> int:
        return sum(info.size for info in self._scan())

    def enforce_budget(self, budget_bytes: Optional[int] = None) -> int:
        """Evict least-recently-hit unpinned entries until under budget.

        Returns the number of entries evicted.  Pinned entries are never
        touched: a store whose pinned set exceeds the budget simply stays
        over budget.
        """
        budget = self.budget_bytes if budget_bytes is None else budget_bytes
        if budget is None:
            return 0
        with self._lock:
            infos = list(self._scan())
            total = sum(info.size for info in infos)
            evicted = 0
            for info in sorted(infos, key=lambda info: info.last_hit):
                if total <= budget:
                    break
                if info.pinned or not _unlink(info.path):
                    continue
                total -= info.size
                evicted += 1
                self.evicted_bytes += info.size
            self.evictions += evicted
            return evicted

    def gc(self, dry_run: bool = False) -> Dict[str, int]:
        """Prune corrupt and stale entries and leftover temp files.

        Those linger as dead files that every reader re-classifies as a
        miss; gc reclaims them.  Returns a report of what was (or, with
        ``dry_run``, would be) removed.
        """
        report = {"stale": 0, "corrupt": 0, "tmp": 0, "bytes": 0,
                  "quarantined": self.quarantine_count()}
        for info in self.entries(include_invalid=True):
            if info.state == "ok":
                continue
            report[info.state] += 1
            report["bytes"] += info.size
            if not dry_run:
                self._remove(info)
        for path in glob.glob(os.path.join(self.directory, "??", "??", "*.tmp")):
            report["tmp"] += 1
            if not dry_run:
                _unlink(path)
        return report

    def __repr__(self) -> str:
        return (
            f"<ResultStore {self.directory!r} hits={self.hits} misses={self.misses} "
            f"stores={self.stores} evictions={self.evictions}>"
        )
