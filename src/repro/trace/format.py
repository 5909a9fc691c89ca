"""Compact on-disk format for message-level traces.

A trace file is one JSON document (gzip-compressed when the path ends in
``.gz``): a small header — format tag, version, recording config, message
and byte totals, and a content digest over the event stream — plus the
per-node event streams themselves.  Each event is a ``[dt, dest, bytes]``
triple: cycles since the node's previous accepted send, destination node,
and payload bytes of one network message.  Delta-encoded times keep the
JSON small and compress extremely well.

The digest lets a reader check that the event stream is the one the
header describes: :func:`read_trace` rejects a trace whose events do not
match it.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import os
import tempfile
from typing import Any, Dict, List, Tuple

TRACE_FORMAT = "repro-trace"
TRACE_VERSION = 1

#: Event streams: per node, a list of ``[dt, dest, payload_bytes]``.
Events = List[List[List[int]]]


class TraceError(ValueError):
    """Raised for unreadable, corrupt or incompatible trace files."""


def events_digest(events: Events) -> str:
    """Stable content digest over the event streams."""
    blob = json.dumps(events, separators=(",", ":")).encode("ascii")
    return hashlib.sha256(blob).hexdigest()


def write_trace(path: str, config: Dict[str, Any], events: Events) -> Dict[str, Any]:
    """Serialise a trace atomically; returns the header written."""
    messages = sum(len(stream) for stream in events)
    payload_bytes = sum(event[2] for stream in events for event in stream)
    header = {
        "format": TRACE_FORMAT,
        "version": TRACE_VERSION,
        "num_nodes": len(events),
        "messages": messages,
        "payload_bytes": payload_bytes,
        "digest": events_digest(events),
        "config": dict(config),
    }
    document = dict(header)
    document["events"] = events
    data = json.dumps(document, sort_keys=True, separators=(",", ":")).encode("utf-8")
    if path.endswith(".gz"):
        data = gzip.compress(data, mtime=0)
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
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
    return header


def _load_document(path: str) -> Dict[str, Any]:
    try:
        with open(path, "rb") as handle:
            data = handle.read()
        if path.endswith(".gz"):
            data = gzip.decompress(data)
        document = json.loads(data.decode("utf-8"))
    except (OSError, ValueError) as exc:
        raise TraceError(f"cannot read trace {path!r}: {exc}") from None
    if not isinstance(document, dict) or document.get("format") != TRACE_FORMAT:
        raise TraceError(f"{path!r} is not a {TRACE_FORMAT} file")
    if document.get("version") != TRACE_VERSION:
        raise TraceError(
            f"{path!r} has trace version {document.get('version')!r}; "
            f"this build reads version {TRACE_VERSION}"
        )
    return document


def read_trace(path: str) -> Tuple[Dict[str, Any], Events]:
    """Load and verify a trace; returns ``(header, events)``.

    Structural and integrity problems (wrong node count, digest mismatch)
    raise :class:`TraceError`: a truncated or hand-edited trace must not
    pass for the recorded stream.
    """
    document = _load_document(path)
    try:
        header = {key: document[key] for key in (
            "format",
            "version",
            "num_nodes",
            "messages",
            "payload_bytes",
            "digest",
            "config",
        )}
        events = document["events"]
    except KeyError as exc:
        raise TraceError(f"{path!r} is missing trace field {exc}") from None
    if not isinstance(events, list) or len(events) != header["num_nodes"]:
        raise TraceError(f"{path!r}: event streams do not match num_nodes")
    if events_digest(events) != header["digest"]:
        raise TraceError(f"{path!r}: event stream does not match its digest")
    return header, events
