"""Unified experiment API: declarative sweeps, parallel execution, results.

This package is the single front door to the simulator.  A point in the
evaluation space is an :class:`ExperimentSpec`; a family of points is a
:class:`SweepSpec` (full cartesian product or an explicit point list); a
:class:`SweepRunner` executes points serially or with ``multiprocessing``
workers, memoising every point in the on-disk result store
(:class:`repro.service.store.ResultStore`) keyed by the spec hash; results come back as a :class:`ResultSet` of :class:`RunResult`
records that can be filtered, pivoted into figure panels, and serialised
with ``to_json``/``from_json``.

Typical use::

    from repro.api import ExperimentSpec, SweepSpec, SweepRunner

    sweep = SweepSpec.cartesian(
        ExperimentSpec(kind="latency", iterations=10),
        device=("NI2w", "CNI512Q"),
        message_bytes=(8, 64, 256),
    )
    results = SweepRunner(jobs=4, cache_dir=".repro-cache").run(sweep)
    panel = results.pivot(series="device", x="message_bytes")
"""

from repro.api.kinds import (
    KindSpec,
    available_kinds,
    kind_spec,
    register_kind,
    unregister_kind,
)
from repro.api.presets import (
    DEVICE_FAMILIES,
    FAMILY_CONFIGS,
    MACRO_TRIO,
    SCALABILITY_FABRICS,
    FAULT_PLANS,
    SCALABILITY_NODE_COUNTS,
    SHIPPED_PROTOCOLS,
    bandwidth_sweep,
    fault_sweep,
    device_space_sweep,
    latency_sweep,
    macro_sweep,
    network_sensitivity_sweep,
    occupancy_reductions,
    paper_tables,
    protocol_sweep,
    scalability_sweep,
    speedups,
    traffic_sweep,
)
from repro.api.results import ResultSet, RunResult
from repro.api.runner import SweepFailure, SweepRunner, run_point, run_point_guarded
from repro.api.spec import ExperimentSpec, SpecError, SweepSpec

__all__ = [
    "ExperimentSpec",
    "SweepSpec",
    "SpecError",
    "RunResult",
    "ResultSet",
    "SweepFailure",
    "SweepRunner",
    "run_point",
    "run_point_guarded",
    "KindSpec",
    "available_kinds",
    "kind_spec",
    "register_kind",
    "unregister_kind",
    "latency_sweep",
    "bandwidth_sweep",
    "traffic_sweep",
    "macro_sweep",
    "fault_sweep",
    "device_space_sweep",
    "scalability_sweep",
    "protocol_sweep",
    "network_sensitivity_sweep",
    "DEVICE_FAMILIES",
    "FAMILY_CONFIGS",
    "FAULT_PLANS",
    "MACRO_TRIO",
    "SCALABILITY_FABRICS",
    "SCALABILITY_NODE_COUNTS",
    "SHIPPED_PROTOCOLS",
    "speedups",
    "occupancy_reductions",
    "paper_tables",
]
