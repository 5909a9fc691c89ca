"""Workload framework for the five macrobenchmarks.

The paper's macrobenchmarks (Table 3) are full applications running on
Tempest; what determines their NI sensitivity is their *communication
pattern* — message sizes, fan-out, burstiness and the ratio of computation
to communication (Section 4.2).  We therefore implement each benchmark as a
deterministic **communication skeleton**: per-node programs that issue the
same pattern of active messages, bulk transfers, broadcasts and barriers as
the original application, with computation represented by calibrated
processor delays.  Performance is always reported as a *speedup relative to
NI2w on the memory bus*, exactly as in Figure 8, so the absolute scale of
the skeleton cancels out.
"""

from __future__ import annotations

import abc
import random
from dataclasses import dataclass
from typing import Dict, Generator, Optional, Sequence, Tuple

from repro.apps.registry import create_workload
from repro.common.params import PROCESSOR_MHZ
from repro.node.machine import Machine

#: Cycle budget of a workload run whose spec pins no ``max_cycles``.
DEFAULT_MAX_CYCLES = 2_000_000_000


@dataclass
class WorkloadResult:
    """Outcome of one workload run on one machine configuration."""

    workload: str
    ni_name: str
    bus: str
    cycles: int
    memory_bus_occupancy: int
    io_bus_occupancy: int
    user_messages: int
    network_messages: int

    @property
    def microseconds(self) -> float:
        # The result is only meaningful relative to another configuration,
        # but microseconds are convenient for eyeballing.
        return self.cycles / PROCESSOR_MHZ


class Workload(abc.ABC):
    """Base class for macrobenchmark communication skeletons."""

    #: Benchmark name as used in the paper.
    name = "workload"
    #: "Key communication" column of Table 3.
    key_communication = ""
    #: "Input data set" column of Table 3 (the paper's full-size input).
    paper_input = ""

    def __init__(self, scale: float = 1.0, seed: int = 12345):
        if scale <= 0:
            raise ValueError("scale must be positive")
        self.scale = scale
        self.seed = seed

    # ------------------------------------------------------------------
    # Interface
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def programs(self, machine: Machine) -> Sequence[Generator]:
        """Build one program generator per node of ``machine``."""

    def describe_input(self) -> str:
        """Human-readable description of the (scaled) input actually used."""
        return f"{self.paper_input} (communication skeleton, scale={self.scale})"

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, machine: Machine, max_cycles: Optional[int] = None) -> WorkloadResult:
        """Run the workload to completion on ``machine``."""
        cycles = machine.run_programs(self.programs(machine), max_cycles=max_cycles)
        ni_names = {node.config.ni_name for node in machine.nodes}
        buses = {node.config.ni_bus.value for node in machine.nodes}
        return WorkloadResult(
            workload=self.name,
            ni_name="/".join(sorted(ni_names)),
            bus="/".join(sorted(buses)),
            cycles=cycles,
            memory_bus_occupancy=machine.total_memory_bus_occupancy(),
            io_bus_occupancy=machine.total_io_bus_occupancy(),
            user_messages=sum(ml.stats.get("user_messages_sent") for ml in machine.messaging),
            network_messages=machine.network_stats().get("messages_injected", 0),
        )

    # ------------------------------------------------------------------
    # Helpers shared by the skeletons
    # ------------------------------------------------------------------
    def rng(self) -> random.Random:
        return random.Random(self.seed)

    @staticmethod
    def scaled(value: int, scale: float, minimum: int = 1) -> int:
        return max(minimum, int(round(value * scale)))


def run_spec(spec, machine: Optional[Machine] = None) -> Tuple[Machine, WorkloadResult]:
    """Run the workload a validated ``macro``/``traffic`` spec names.

    This is the one build-and-run step of every workload kind.  The machine
    comes from :meth:`Machine.from_spec` unless the caller passes in one it
    built from the same spec and instrumented (trace recording).  The
    workload runs with ``spec.resolved_seed()``.
    """
    if machine is None:
        machine = Machine.from_spec(spec)
    workload = create_workload(
        spec.workload, scale=spec.scale, seed=spec.resolved_seed(), **spec.workload_kwargs
    )
    max_cycles = spec.max_cycles if spec.max_cycles is not None else DEFAULT_MAX_CYCLES
    return machine, workload.run(machine, max_cycles=max_cycles)


def workload_metrics(machine: Machine, result: WorkloadResult) -> Dict[str, float]:
    """The metrics every workload kind reports for one run.

    Cycles, both bus occupancies and the injected network messages, plus,
    under a fault plan, the machine's fault-injection and recovery totals
    as ``fault_*`` keys.
    """
    metrics = {
        "cycles": float(result.cycles),
        "memory_bus_occupancy": float(result.memory_bus_occupancy),
        "io_bus_occupancy": float(result.io_bus_occupancy),
        "network_messages": float(result.network_messages),
    }
    if machine.params.faults:
        # Only fault-plan runs grow these keys, so fault-free results (and
        # their stored entries and goldens) are byte-identical to before the
        # fault layer existed.
        fault_stats = machine.fault_stats()
        for key, value in fault_stats.items():
            if key in ("plan", "seed"):
                continue  # spec inputs, not measurements
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                metrics[f"fault_{key}"] = float(value)
        recovery = fault_stats.get("recovery_latency")
        if isinstance(recovery, dict):
            metrics["fault_recovery_p95"] = float(recovery.get("p95", 0.0))
    return metrics


def poll_until(ml, done_predicate, backoff: int = 20):
    """Poll the messaging layer until ``done_predicate()`` is true.

    A blocking wait: where the device's empty poll is elidable (a cached
    coherent-queue read, or an uncached status read woken by delivery
    notices), steady spins are elided into an event-driven sleep with
    bit-identical simulated timing (see :meth:`MessagingLayer.poll_wait`).
    """
    yield from ml.poll_wait(done_predicate, backoff=backoff)
