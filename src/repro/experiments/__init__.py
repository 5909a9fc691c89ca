"""Experiment harness: the paper's figures, tables and report formatting.

Every measurement runs through the declarative layer in :mod:`repro.api`
(``ExperimentSpec`` → ``SweepRunner`` → ``ResultSet``).  This package keeps
the paper's device lists and message sizes, the figure and table
generators, the report formatting and the ``python -m
repro.experiments.run`` command line.
"""

from repro.api import ExperimentSpec, ResultSet, RunResult, SweepRunner, SweepSpec
from repro.experiments.macro import (
    ALTERNATE_BUS_CONFIGS,
    BASELINE,
    IO_BUS_DEVICES,
    MEMORY_BUS_DEVICES,
)
from repro.experiments.microbench import (
    FIG6_MESSAGE_SIZES,
    FIG7_MESSAGE_SIZES,
    MicrobenchmarkError,
)

__all__ = [
    "ExperimentSpec",
    "SweepSpec",
    "SweepRunner",
    "RunResult",
    "ResultSet",
    "MicrobenchmarkError",
    "FIG6_MESSAGE_SIZES",
    "FIG7_MESSAGE_SIZES",
    "MEMORY_BUS_DEVICES",
    "IO_BUS_DEVICES",
    "ALTERNATE_BUS_CONFIGS",
    "BASELINE",
]
