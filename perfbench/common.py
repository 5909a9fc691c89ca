"""Bookkeeping shared by the workloads: paths, tallies, metrics, percentiles."""

from __future__ import annotations

import hashlib
import heapq
import json
import math
import os
import statistics
import sys
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence

#: The checkout the benchmark runs in (the parent of this directory).
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: The simulator's sources inside that checkout.
SRC = os.path.join(ROOT, "src")
#: Scratch space for server stores; removed at the end of every run.
TMP_DIR = os.path.join(ROOT, ".perfbench-tmp")

#: The seed whose simulated outputs are pinned in ``pins.json``.
DEFAULT_SEED = 0


def require_checkout() -> None:
    """Exit non-zero (printing no result) unless ``src/repro`` is present."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.stderr.write(f"perfbench: no simulator sources under {SRC}\n")
        sys.exit(2)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def child_env() -> Dict[str, str]:
    """Environment for child Python processes: the checkout's sources first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, ROOT, env.get("PYTHONPATH", "")) if p
    )
    return env


class Tally:
    """Attempted and failed operations, with the first few failure reasons."""

    MAX_REASONS = 20

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: List[str] = []

    def ok(self) -> None:
        self.attempted += 1

    def fail(self, reason: str) -> None:
        self.attempted += 1
        self.failed += 1
        if len(self.reasons) < self.MAX_REASONS:
            self.reasons.append(reason)

    def record(self, label: str, problems: Sequence[str]) -> bool:
        """Count one operation; it failed if ``problems`` is non-empty."""
        if problems:
            self.fail(f"{label}: {'; '.join(problems)}")
            return False
        self.ok()
        return True


def mismatches(actual: Mapping[str, Any], expected: Mapping[str, Any]) -> List[str]:
    """One message per expected key whose actual value differs."""
    return [
        f"{key}={actual.get(key)!r} (expected {value!r})"
        for key, value in sorted(expected.items())
        if actual.get(key) != value
    ]


def digest(outputs: Mapping[str, Any]) -> str:
    """Stable digest of simulated outputs, for comparing commits on any seed."""
    canonical = json.dumps(outputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0-100) by linear interpolation."""
    ordered = sorted(values)
    if not ordered:
        return math.nan
    pos = (len(ordered) - 1) * q / 100.0
    low = math.floor(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def beyond(count: int, q: float) -> float:
    """How many of ``count`` samples lie beyond the ``q``-th percentile."""
    return count * (100.0 - q) / 100.0


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else math.nan


@dataclass
class Metric:
    """One reported number: value, unit, and how many samples it rests on."""

    name: str
    value: float
    unit: str
    samples: int
    note: str = ""


#: Every per-layer metric of the traced run: name, unit, the end-to-end
#: metric it should move and the workload it moves it on.  "simulated" marks
#: a model output, which a simulator-only change must leave identical.
PER_LAYER = (
    ("sim.self_s", "s", "pass_s", "fig8"),
    ("sim.events", "count", "pass_s", "fig8"),
    ("sim.ns_per_event", "ns", "pass_s", "fig8, lossy-mesh"),
    ("sim.elided_events", "count", "pass_s", "fig8"),
    ("sim.process_resumes", "count", "pass_s", "fig8"),
    ("coherence.self_s", "s", "pass_s", "fig8"),
    ("coherence.bus_transactions", "count", "pass_s", "fig8"),
    ("coherence.us_per_transaction", "us", "pass_s", "fig8"),
    ("coherence.protocol_transitions", "count", "simulated", "fig8, lossy-mesh"),
    ("coherence.bus_occupancy_cycles", "cycles", "simulated", "fig8, lossy-mesh"),
    ("ni.self_s", "s", "pass_s", "fig8"),
    ("ni.polls", "count", "pass_s", "fig8"),
    ("ni.empty_poll_frac", "fraction", "pass_s", "fig8"),
    ("ni.elided_spins", "count", "pass_s", "fig8"),
    ("msglayer.self_s", "s", "pass_s", "lossy-mesh"),
    ("msglayer.net_per_user_msg", "ratio", "pass_s", "lossy-mesh"),
    ("msglayer.retransmits", "count", "pass_s", "lossy-mesh"),
    ("msglayer.spurious_retransmit_frac", "fraction", "pass_s", "lossy-mesh"),
    ("msglayer.recovery_p95_cycles", "cycles", "simulated", "lossy-mesh"),
    ("network.self_s", "s", "pass_s", "lossy-mesh"),
    ("network.messages_delivered", "count", "simulated", "lossy-mesh"),
    ("network.hops", "count", "simulated", "lossy-mesh"),
    ("network.contention_cycles", "cycles", "simulated", "lossy-mesh"),
    ("network.latency_samples_kept", "count", "peak_rss_mb", "lossy-mesh"),
    ("faults.self_s", "s", "pass_s", "lossy-mesh"),
    ("faults.drops", "count", "simulated", "lossy-mesh"),
    ("faults.delayed", "count", "simulated", "lossy-mesh"),
    ("node.build_s", "s", "pass_s", "fig8"),
    ("apps.self_s", "s", "pass_s", "fig8, lossy-mesh"),
    ("other.self_s", "s", "pass_s", "fig8"),
    ("api.validate_ms", "ms", "cold_p50_ms", "service-mix"),
    ("api.simulate_ms", "ms", "cold_p50_ms", "service-mix"),
    ("api.guarded_overhead_ms", "ms", "cold_p50_ms", "service-mix"),
    ("service.handler_ms", "ms", "warm_p50_ms", "service-mix"),
    ("service.transport_ms", "ms", "warm_p50_ms, warm_p99_ms", "service-mix"),
    ("service.store_read_ms", "ms", "warm_p50_ms", "service-mix"),
    ("service.store_put_ms", "ms", "cold_p50_ms", "service-mix"),
    ("service.dedup_wait_ms", "ms", "cold_p90_ms", "service-mix"),
    ("service.leaders", "count", "latency mix", "service-mix"),
    ("service.followers", "count", "latency mix", "service-mix"),
    ("service.store_served", "count", "latency mix", "service-mix"),
    ("service.responses_304", "count", "latency mix", "service-mix"),
    ("trace.overhead_s", "s", "none (cost of tracing)", "all"),
)


def layer_metrics(values: Mapping[str, float], samples: Mapping[str, int]) -> List[Metric]:
    """Every per-layer metric; layers a workload does not exercise read 0."""
    return [
        Metric(name, float(values.get(name, 0.0)), unit, samples.get(name, 0),
               f"moves {moves} on {where}")
        for name, unit, moves, where in PER_LAYER
    ]


def print_table(title: str, metrics: Sequence[Metric]) -> None:
    print(title)
    width = max(len(m.name) for m in metrics)
    for m in metrics:
        print(f"  {m.name:<{width}}  {m.value:>14.6g} {m.unit:<8} n={m.samples:<5} {m.note}")


def emit(tally: Tally, metrics: Sequence[Metric], names: Optional[Sequence[str]] = None) -> None:
    """Print the result line: the last line of standard output."""
    chosen = [m for m in metrics if names is None or m.name in names]
    if tally.reasons:
        print("failures:")
        for reason in tally.reasons:
            print(f"  {reason}")
    print(
        json.dumps(
            {
                "correct": tally.failed == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {m.name: {"value": m.value, "unit": m.unit} for m in chosen},
            }
        ),
        flush=True,
    )


#: What ``reference_s()`` reads on a 2-core CPython 3.11.7 host in its fast
#: state.  It only sets the scale of ``at_reference_speed``.
REFERENCE_S = 0.0065
#: How strongly the simulator's speed follows the reference's.  The shared
#: host flips between a fast and a slow state; in the slow one the reference
#: takes ~1.9x as long and a simulation point ~1.45x, and
#: log(1.45) / log(1.9) = 0.58.  Over recorded passes 0.6 gave the least
#: spread on both fig8 and lossy-mesh (pass CV 0.081 -> 0.038 and
#: 0.116 -> 0.032; with 1.0 the rescaling overshoots: 0.048 and 0.066).
SENSITIVITY = 0.6


def _reference_kernel(steps: int = 10000) -> int:
    """A fixed discrete-event loop in plain Python: heap, generators, dicts.

    It shares no code with the simulator, so a change to the program cannot
    change its cost; it only tells how fast this host runs Python just now.
    """
    heap: List[Any] = []
    counts: Dict[int, int] = {}
    seq = 0

    def proc(i: int):
        acc = 0
        while True:
            acc = (acc * 31 + i) & 0xFFFF
            counts[i & 15] = counts.get(i & 15, 0) + 1
            yield (acc & 7) + 1

    for i in range(32):
        gen = proc(i)
        heapq.heappush(heap, (next(gen), seq, gen))
        seq += 1
    for _ in range(steps):
        at, _, gen = heapq.heappop(heap)
        heapq.heappush(heap, (at + gen.send(None), seq, gen))
        seq += 1
    return seq


def reference_s() -> float:
    """Best of three timed runs of the reference kernel, in seconds."""
    best = math.inf
    for _ in range(3):
        started = time.perf_counter()
        _reference_kernel()
        best = min(best, time.perf_counter() - started)
    return best


def at_reference_speed(seconds: float, reference: float) -> float:
    """``seconds`` measured while ``reference_s()`` read ``reference``,
    rescaled to a host where it reads ``REFERENCE_S``.

    The benchmark's host is shared, and its speed drifts by tens of percent
    over minutes while the work stays CPU-bound (process time equals wall
    time).  Timing the reference next to each piece of work cancels most of
    that drift; a change to the program still moves the result in full.
    """
    return seconds * (REFERENCE_S / reference) ** SENSITIVITY


def peak_rss_mb_self() -> float:
    """Peak resident set size of this process, in MiB."""
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def vm_hwm_mb(pid: int) -> float:
    """``VmHWM`` (peak RSS) of a live process, in MiB, from ``/proc``."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM line for pid {pid}")
