"""Message-level trace recording.

Capture one run's NI-level message stream to a compact trace file
(:mod:`repro.trace.record`, format in :mod:`repro.trace.format`): an
export of who sent how many bytes to whom, and when, for looking into a
run's traffic; no experiment kind takes a trace as input.  Recording is
pure observation: a recorded run takes exactly the cycles an unrecorded
one does, and the trace's message count equals the run's
``network_messages``.
"""

from repro.trace.format import (
    TRACE_FORMAT,
    TRACE_VERSION,
    TraceError,
    read_trace,
    write_trace,
)
from repro.trace.record import RECORDABLE_KINDS, TraceSummary, record_trace

__all__ = [
    "TRACE_FORMAT",
    "TRACE_VERSION",
    "TraceError",
    "read_trace",
    "write_trace",
    "RECORDABLE_KINDS",
    "TraceSummary",
    "record_trace",
]
