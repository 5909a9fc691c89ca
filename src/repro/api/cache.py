"""Entry codec for the on-disk result store.

A stored point is one JSON payload: the :class:`RunResult` dict stamped
with every schema version its validity depends on — the simulator
version, the device-registry schema
(:data:`repro.ni.registry.DEVICE_SCHEMA_VERSION`), the fabric-registry
schema (:data:`repro.network.registry.FABRIC_SCHEMA_VERSION`) and the
coherence protocol schema
(:data:`repro.coherence.protocols.PROTOCOL_SCHEMA_VERSION`).  A spec only
*names* its device, fabric and protocol, so when the rules that assemble a
device — or time a fabric, or transition a cache — change, every entry
computed under the old rules must stop matching.  Corrupt or stale-schema
entries decode as misses.  The store itself (layout, keys, metadata,
eviction) is :class:`repro.service.store.ResultStore`.
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import Dict, Optional

from repro.api.results import RunResult
from repro.api.spec import ExperimentSpec
from repro.coherence.protocols import PROTOCOL_SCHEMA_VERSION
from repro.network.registry import FABRIC_SCHEMA_VERSION
from repro.ni.registry import DEVICE_SCHEMA_VERSION

#: Default cache location (relative to the working directory).
DEFAULT_CACHE_DIR = ".repro-cache"


def _repro_version() -> str:
    """The simulator version entries are stamped with (imported on use:
    ``repro`` defines ``__version__`` only after importing its subpackages)."""
    from repro import __version__

    return __version__


def encode_entry(result: RunResult) -> Dict:
    """``result`` as a cache-entry payload, stamped with every schema version
    the entry's validity depends on.

    Kinds that opt in via the kind registry (traffic) additionally carry
    the workload schema stamp; legacy kinds do not grow the field, so
    their entries stay byte-identical to pre-registry ones.
    """
    from repro.api.kinds import folds_workload_schema, workload_schema_version

    payload = result.to_dict()
    payload["repro_version"] = _repro_version()
    payload["device_schema_version"] = DEVICE_SCHEMA_VERSION
    payload["fabric_schema_version"] = FABRIC_SCHEMA_VERSION
    payload["protocol_schema_version"] = PROTOCOL_SCHEMA_VERSION
    if folds_workload_schema(result.spec.kind):
        payload["workload_schema_version"] = workload_schema_version()
    return payload


def entry_is_current(payload: Dict) -> bool:
    """Whether an entry payload was written under the live schema versions.

    ``repro_version`` guards against a different simulator revision: the spec
    may hash the same, but the numbers could be stale.  The schema stamps are
    belt-and-braces beside the schema-versioned cache key, for entries whose
    filename was produced by other means.
    """
    from repro.api.kinds import folds_workload_schema, workload_schema_version

    current = (
        payload.get("repro_version") == _repro_version()
        and payload.get("device_schema_version") == DEVICE_SCHEMA_VERSION
        and payload.get("fabric_schema_version") == FABRIC_SCHEMA_VERSION
        and payload.get("protocol_schema_version") == PROTOCOL_SCHEMA_VERSION
    )
    if not current:
        return False
    spec_payload = payload.get("spec")
    kind = spec_payload.get("kind") if isinstance(spec_payload, dict) else None
    if folds_workload_schema(kind):
        return payload.get("workload_schema_version") == workload_schema_version()
    return True


def decode_entry(payload: Dict, spec: Optional[ExperimentSpec] = None) -> Optional[RunResult]:
    """Decode a cache-entry payload into a :class:`RunResult`, or ``None``.

    ``None`` means the entry must be treated as a miss: the payload has the
    wrong shape, was written under stale schema versions, or (when ``spec``
    is given) records a different spec — a hash collision in the filename or
    a hand-edited entry.
    """
    try:
        result = RunResult.from_dict(payload)
    except (ValueError, KeyError, TypeError, AttributeError):
        return None
    if not entry_is_current(payload):
        return None
    if spec is not None and result.spec.spec_hash() != spec.spec_hash():
        return None
    return result


def read_entry(path: str) -> Optional[Dict]:
    """The JSON payload at ``path``, or ``None`` if unreadable/torn."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError):
        return None


def write_entry_atomic(path: str, payload: Dict) -> bytes:
    """Serialise ``payload`` to ``path`` via tempfile + ``os.replace``.

    The write-rename means a crashed or racing writer never leaves a torn
    JSON file: concurrent writers of the same key each land a complete
    entry, last rename wins.  Returns the exact bytes written, so callers
    can derive content digests (ETags) without re-reading the file.
    """
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    data = json.dumps(payload, sort_keys=True).encode("utf-8")
    fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise
    return data
