"""Concurrency-safe content-addressed result store.

:class:`ResultStore` is the one on-disk store every experiment kind goes
through: the CLI, the HTTP service and any :class:`~repro.api.SweepRunner`
given a ``cache_dir`` read and write it.  Entries are keyed by the spec hash
widened with the DEVICE/FABRIC/PROTOCOL schema versions (see
:meth:`ResultStore.cache_key`) and encoded by :mod:`repro.api.cache`.  The
store has the properties needed once many processes hammer it:

* **Sharded layout.**  Entries live under two-level fan-out directories
  (``ab/cd/<key>.json`` for key ``abcd…``), so a store holding hundreds of
  thousands of results never puts them all in one directory.
* **Atomic writes.**  Entry and metadata files are written tempfile-first
  and ``os.replace``\\ d into place: concurrent writers of the same key race
  safely (each lands a complete entry; last rename wins) and a crashed
  writer never leaves a torn file.
* **Per-entry metadata.**  A ``<key>.meta.json`` sidecar records created /
  last-hit timestamps, a hit counter, the entry's byte size, its strong
  ETag (sha256 of the entry bytes, computed at write time), and a ``pinned``
  flag.  Metadata updates are best-effort read-modify-write — a lost
  last-hit update only makes the LRU ordering approximate, never unsafe.
* **LRU eviction with a byte budget.**  ``budget_bytes`` caps the store;
  :meth:`enforce_budget` evicts least-recently-hit entries until under
  budget.  Pinned (golden) entries are **never** evicted, even if the
  pinned set alone exceeds the budget.
* **Key-addressed reads.**  :meth:`read_entry` serves the raw entry bytes
  plus ETag for a bare key — the HTTP layer's pure read path, which never
  parses a spec or constructs a Machine.  Given the spec too, the same one
  read makes every check :meth:`get` makes, so a warm ``POST /run`` is
  answered from a single read of its entry.

Files outside the sharded layout (such as the flat ``<kind>-<key>.json``
files older versions wrote to the store root) are never read.
"""

from __future__ import annotations

import glob
import hashlib
import json
import os
import threading
import time
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from repro.api.cache import (
    DEFAULT_CACHE_DIR,
    decode_entry,
    encode_entry,
    read_entry,
    write_entry_atomic,
)
from repro.api.kinds import cache_suffix
from repro.api.results import RunResult
from repro.api.spec import ExperimentSpec
from repro.coherence.protocols import PROTOCOL_SCHEMA_VERSION
from repro.network.registry import FABRIC_SCHEMA_VERSION
from repro.ni.registry import DEVICE_SCHEMA_VERSION

_META_SUFFIX = ".meta.json"

#: Subdirectory corrupt entries are moved into.  The name is deliberately
#: longer than two characters so quarantined files escape the sharded
#: ``??/??/*.json`` walk — a quarantined entry is invisible to every read,
#: eviction and gc path until an operator inspects it.
_QUARANTINE_DIR = "quarantine"


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
    created: float = 0.0
    last_hit: float = 0.0
    hits: int = 0
    pinned: bool = False
    etag: str = ""
    #: "ok" | "stale" (old schema/simulator revision) | "corrupt"
    state: str = "ok"


class ResultStore:
    """Sharded, metadata-tracked, budget-evicted result store.

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
    def cache_key(self, spec: ExperimentSpec) -> str:
        """Spec hash widened with the device, fabric and protocol schema
        versions — plus, for kinds whose results depend on how workloads
        are *generated* (traffic), the workload schema version.  Other
        kinds get the exact historic key."""
        payload = (
            f"{spec.spec_hash()}:device-schema-{DEVICE_SCHEMA_VERSION}"
            f":fabric-schema-{FABRIC_SCHEMA_VERSION}"
            f":protocol-schema-{PROTOCOL_SCHEMA_VERSION}"
            f"{cache_suffix(spec)}"
        )
        return hashlib.sha256(payload.encode("ascii")).hexdigest()

    def path_for_key(self, key: str) -> str:
        """Sharded entry path: ``<root>/<k[:2]>/<k[2:4]>/<key>.json``."""
        return os.path.join(self.directory, key[:2], key[2:4], f"{key}.json")

    def path_for(self, spec: ExperimentSpec) -> str:
        return self.path_for_key(self.cache_key(spec))

    def meta_path_for_key(self, key: str) -> str:
        return os.path.join(self.directory, key[:2], key[2:4], f"{key}{_META_SUFFIX}")

    @property
    def quarantine_dir(self) -> str:
        return os.path.join(self.directory, _QUARANTINE_DIR)

    # ------------------------------------------------------------------
    # Quarantine
    # ------------------------------------------------------------------
    def quarantine(self, key: str, path: Optional[str] = None) -> bool:
        """Move a corrupt entry (and its sidecar) out of the serving tree.

        Quarantined files keep their names under ``quarantine/`` for
        post-mortem inspection but are invisible to every read path, so the
        key immediately reads as a miss and gets recomputed.  Returns True
        if an entry file was actually moved.
        """
        path = path or self.path_for_key(key)
        os.makedirs(self.quarantine_dir, exist_ok=True)
        moved = False
        for victim in (path, self.meta_path_for_key(key)):
            try:
                os.replace(victim, os.path.join(self.quarantine_dir, os.path.basename(victim)))
                moved = moved or not victim.endswith(_META_SUFFIX)
            except OSError:
                continue
        if moved:
            with self._lock:
                self.quarantined += 1
        return moved

    def quarantine_count(self) -> int:
        """Entries currently sitting in the quarantine directory."""
        return len(
            [
                name
                for name in glob.glob(os.path.join(self.quarantine_dir, "*.json"))
                if not name.endswith(_META_SUFFIX)
            ]
        )

    # ------------------------------------------------------------------
    # Spec-addressed reads and writes
    # ------------------------------------------------------------------
    def get(self, spec: ExperimentSpec) -> Optional[RunResult]:
        """The stored result for ``spec`` (marked ``cached``), or None on a
        miss; counts the hit or miss and bumps the entry's last-hit time."""
        key = self.cache_key(spec)
        payload = read_entry(self.path_for_key(key))
        result = decode_entry(payload, spec) if payload is not None else None
        if result is None:
            with self._lock:
                self.misses += 1
            return None
        self._touch(key)
        with self._lock:
            self.hits += 1
        result.cached = True
        return result

    def peek(self, spec: ExperimentSpec) -> Optional[RunResult]:
        """Like :meth:`get` but counter- and metadata-neutral.

        The service checks for a warm key with this before it leads or
        follows a flight; that check must not inflate miss counters or burn
        last-hit updates.
        """
        payload = read_entry(self.path_for(spec))
        result = decode_entry(payload, spec) if payload is not None else None
        if result is not None:
            result.cached = True
        return result

    def put(self, result: RunResult, pinned: Optional[bool] = None) -> str:
        """Persist ``result``; returns the entry path written."""
        key = self.cache_key(result.spec)
        path = self.path_for_key(key)
        data = write_entry_atomic(path, encode_entry(result))
        self._write_meta(key, result.spec.kind, data, preserve=True, pinned=pinned)
        with self._lock:
            self.stores += 1
        if self.budget_bytes is not None:
            self.enforce_budget()
        return path

    def clear(self) -> int:
        """Remove every entry; returns the count."""
        removed = 0
        for info in self.entries(include_invalid=True):
            try:
                os.unlink(info.path)
                removed += 1
            except OSError:
                continue
            self._unlink_meta(info.key)
        return removed

    def stats(self) -> Dict[str, int]:
        entries, total, pinned = self._usage()
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
        of shipping garbage bytes.

        Given the ``spec`` that ``key`` was derived from, the same read is
        :meth:`get` returning bytes: the entry must decode as ``spec``'s
        result under the live schema stamps, it counts as a hit or a miss,
        and a torn, stale or mismatched entry is a miss (``None``) for the
        caller to recompute rather than an error.
        """
        path = self.path_for_key(key)
        try:
            with open(path, "rb") as handle:
                data = handle.read()
            payload = json.loads(data)
        except OSError:
            data = payload = None
        except ValueError:
            if spec is None:
                self.quarantine(key, path)
                raise CorruptEntryError(f"store entry {key[:12]}… is corrupt; quarantined")
            payload = None
        if spec is not None:
            hit = payload is not None and decode_entry(payload, spec) is not None
            with self._lock:
                if hit:
                    self.hits += 1
                else:
                    self.misses += 1
            if not hit:
                return None
        elif data is None:
            return None
        meta = self.read_meta(key)
        etag = meta.get("etag") or hashlib.sha256(data).hexdigest()
        self._touch(key, meta)
        return data, etag

    # ------------------------------------------------------------------
    # Metadata
    # ------------------------------------------------------------------
    def read_meta(self, key: str) -> Dict:
        """The sidecar metadata for ``key``; ``{}`` when missing or damaged.

        Sidecars are advisory (they order eviction and carry the ETag), so a
        torn or wrong-shaped one must never take down a read path: anything
        that is not a JSON object degrades to empty metadata.
        """
        meta = read_entry(self.meta_path_for_key(key))
        return meta if isinstance(meta, dict) else {}

    def _write_meta(
        self,
        key: str,
        kind: str,
        data: bytes,
        preserve: bool = False,
        pinned: Optional[bool] = None,
    ) -> None:
        now = time.time()
        old = self.read_meta(key) if preserve else {}
        meta = {
            "key": key,
            "kind": kind,
            "created": old.get("created", now),
            "last_hit": old.get("last_hit", now),
            "hits": old.get("hits", 0),
            "pinned": old.get("pinned", False) if pinned is None else bool(pinned),
            "size": len(data),
            "etag": hashlib.sha256(data).hexdigest(),
        }
        write_entry_atomic(self.meta_path_for_key(key), meta)

    def _touch(self, key: str, meta: Optional[Dict] = None) -> None:
        """Best-effort last-hit bump; losing a racing update is harmless.

        ``meta`` is the sidecar as the caller just read it, if it did.
        """
        meta = self.read_meta(key) if meta is None else meta
        if not meta:
            return
        meta["last_hit"] = time.time()
        meta["hits"] = int(meta.get("hits", 0)) + 1
        try:
            write_entry_atomic(self.meta_path_for_key(key), meta)
        except OSError:
            pass

    def _unlink_meta(self, key: str) -> None:
        try:
            os.unlink(self.meta_path_for_key(key))
        except OSError:
            pass

    # ------------------------------------------------------------------
    # Pinning
    # ------------------------------------------------------------------
    def pin(self, key: str, pinned: bool = True) -> bool:
        """Mark the entry as golden (never evicted); False if no such entry."""
        path = self.path_for_key(key)
        if not os.path.exists(path):
            return False
        meta = self.read_meta(key)
        if not meta:
            with open(path, "rb") as handle:
                self._write_meta(key, "?", handle.read())
            meta = self.read_meta(key)
        meta["pinned"] = bool(pinned)
        write_entry_atomic(self.meta_path_for_key(key), meta)
        return True

    def resolve_key(self, prefix: str) -> List[str]:
        """Full keys matching a (possibly abbreviated) hex key prefix."""
        return sorted(
            info.key
            for info in self.entries(include_invalid=True)
            if info.key.startswith(prefix)
        )

    # ------------------------------------------------------------------
    # Walks, eviction, gc
    # ------------------------------------------------------------------
    def entries(self, include_invalid: bool = False) -> Iterator[EntryInfo]:
        """Every entry in the store.

        With ``include_invalid`` the walk also yields entries classified
        ``corrupt`` (unreadable/torn JSON) or ``stale`` (written under an
        old schema or simulator revision); by default only ``ok`` entries.
        """
        for path in glob.glob(os.path.join(self.directory, "??", "??", "*.json")):
            name = os.path.basename(path)
            if name.endswith(_META_SUFFIX):
                continue
            info = self._classify(name[: -len(".json")], path)
            if include_invalid or info.state == "ok":
                yield info

    def _classify(self, key: str, path: str) -> EntryInfo:
        try:
            size = os.path.getsize(path)
        except OSError:
            size = 0
        payload = read_entry(path)
        result = decode_entry(payload) if payload is not None else None
        if payload is None:
            state = "corrupt"
        elif result is None:
            # Parsed JSON that does not decode under the live schema: either
            # the wrong shape entirely (corrupt) or an old-revision entry.
            try:
                RunResult.from_dict(payload)
                state = "stale"
            except (ValueError, KeyError, TypeError, AttributeError):
                state = "corrupt"
        else:
            state = "ok"
        meta = self.read_meta(key)
        mtime = 0.0
        try:
            mtime = os.path.getmtime(path)
        except OSError:
            pass
        kind = "?"
        if isinstance(payload, dict):
            spec = payload.get("spec")
            if isinstance(spec, dict):
                kind = str(spec.get("kind", "?"))
        return EntryInfo(
            key=key,
            path=path,
            size=size,
            kind=meta.get("kind", kind) if meta else kind,
            created=float(meta.get("created", mtime)) if meta else mtime,
            last_hit=float(meta.get("last_hit", mtime)) if meta else mtime,
            hits=int(meta.get("hits", 0)) if meta else 0,
            pinned=bool(meta.get("pinned", False)) if meta else False,
            etag=str(meta.get("etag", "")) if meta else "",
            state=state,
        )

    def _usage(self) -> Tuple[int, int, int]:
        entries = total = pinned = 0
        for info in self.entries(include_invalid=True):
            entries += 1
            total += info.size
            if info.pinned:
                pinned += 1
        return entries, total, pinned

    def total_bytes(self) -> int:
        return self._usage()[1]

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
            infos = list(self.entries(include_invalid=True))
            total = sum(info.size for info in infos)
            if total <= budget:
                return 0
            victims = sorted(
                (info for info in infos if not info.pinned),
                key=lambda info: info.last_hit,
            )
            evicted = 0
            for info in victims:
                if total <= budget:
                    break
                try:
                    os.unlink(info.path)
                except OSError:
                    continue
                self._unlink_meta(info.key)
                total -= info.size
                evicted += 1
                self.evicted_bytes += info.size
            self.evictions += evicted
            return evicted

    def gc(self, dry_run: bool = False) -> Dict[str, int]:
        """Prune corrupt and stale-schema entries (plus orphaned sidecars).

        Today those linger as dead files that every reader re-classifies as
        a miss; gc reclaims them.  Returns a report of what was (or, with
        ``dry_run``, would be) removed.
        """
        report = {
            "stale": 0,
            "corrupt": 0,
            "orphan_meta": 0,
            "tmp": 0,
            "bytes": 0,
            "quarantined": self.quarantine_count(),
        }
        live = set()
        for info in self.entries(include_invalid=True):
            if info.state == "ok":
                live.add(info.key)
                continue
            report[info.state] += 1
            report["bytes"] += info.size
            if not dry_run:
                try:
                    os.unlink(info.path)
                except OSError:
                    pass
                self._unlink_meta(info.key)
        for path in glob.glob(os.path.join(self.directory, "??", "??", f"*{_META_SUFFIX}")):
            key = os.path.basename(path)[: -len(_META_SUFFIX)]
            if key not in live:
                report["orphan_meta"] += 1
                if not dry_run:
                    try:
                        os.unlink(path)
                    except OSError:
                        pass
        for path in glob.glob(os.path.join(self.directory, "??", "??", "*.tmp")):
            report["tmp"] += 1
            if not dry_run:
                try:
                    os.unlink(path)
                except OSError:
                    pass
        return report

    def __repr__(self) -> str:
        return (
            f"<ResultStore {self.directory!r} hits={self.hits} misses={self.misses} "
            f"stores={self.stores} evictions={self.evictions}>"
        )
