"""Discrete-event simulation kernel used by the CNI reproduction."""

from repro.sim.engine import SimulationError, Simulator
from repro.sim.process import Process, Resource, Signal, start_process
from repro.sim.spinwait import (
    SPIN_EMPTY,
    SPIN_PROGRESS,
    SPIN_TRANSIENT,
    SpinGuard,
    spin_wait,
)
from repro.sim.stats import Counter, Samples, Summary, safe_ratio
from repro.sim.watchdog import (
    SimulationHangError,
    Watchdog,
    WorkloadHangError,
    wait_for_graph,
)

__all__ = [
    "Simulator",
    "SimulationError",
    "SimulationHangError",
    "Watchdog",
    "WorkloadHangError",
    "wait_for_graph",
    "SpinGuard",
    "spin_wait",
    "SPIN_EMPTY",
    "SPIN_PROGRESS",
    "SPIN_TRANSIENT",
    "Process",
    "start_process",
    "Signal",
    "Resource",
    "Counter",
    "Samples",
    "Summary",
    "safe_ratio",
]
