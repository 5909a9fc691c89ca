"""Canonical sweeps for the paper's evaluation, expressed as specs.

These builders turn the device/bus/size axes of Figures 6–8 into
:class:`~repro.api.spec.SweepSpec` point lists, and provide the derived
views (speedups over the NI2w/memory baseline, bus-occupancy reductions)
computed from a :class:`~repro.api.results.ResultSet`.  Both the
``repro.experiments`` figure generators and the benchmark suite build on
them, so "a new experiment" is a new spec list — not a new script.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.api.results import ResultSet
from repro.api.spec import ExperimentSpec, SpecError, SweepSpec

#: The NI2w-on-the-memory-bus configuration every speedup is relative to.
BASELINE_CONFIG: Tuple[str, str] = ("NI2w", "memory")


def latency_sweep(
    configs: Sequence[Tuple[str, str]],
    sizes: Sequence[int],
    iterations: int = 30,
    warmup: Optional[int] = None,
    snarfing: bool = False,
    name: str = "latency",
) -> SweepSpec:
    """Figure-6-style sweep: round-trip latency over (device, bus) × size."""
    points = [
        ExperimentSpec(
            kind="latency",
            device=device,
            bus=bus,
            message_bytes=size,
            iterations=iterations,
            warmup=warmup,
            snarfing=snarfing,
        )
        for device, bus in configs
        for size in sizes
    ]
    return SweepSpec.explicit(points, name=name)


def bandwidth_sweep(
    configs: Sequence[Tuple[str, str]],
    sizes: Sequence[int],
    messages: int = 100,
    warmup: Optional[int] = None,
    snarfing: bool = False,
    name: str = "bandwidth",
) -> SweepSpec:
    """Figure-7-style sweep: streaming bandwidth over (device, bus) × size."""
    points = [
        ExperimentSpec(
            kind="bandwidth",
            device=device,
            bus=bus,
            message_bytes=size,
            messages=messages,
            warmup=warmup,
            snarfing=snarfing,
        )
        for device, bus in configs
        for size in sizes
    ]
    return SweepSpec.explicit(points, name=name)


def macro_sweep(
    workloads: Sequence[str],
    configs: Sequence[Tuple[str, str]],
    num_nodes: int = 16,
    scale: float = 1.0,
    workload_kwargs: Optional[Mapping[str, Mapping[str, Any]]] = None,
    include_baseline: bool = True,
    name: str = "macro",
) -> SweepSpec:
    """Figure-8-style sweep: workloads × (device, bus) macrobenchmark runs.

    ``workload_kwargs`` maps workload name to that workload's constructor
    overrides.  When ``include_baseline`` is set, the NI2w/memory baseline
    is prepended per workload (deduplicated by the runner if it already
    appears among ``configs``).
    """
    per_workload = dict(workload_kwargs or {})
    points: List[ExperimentSpec] = []
    for workload in workloads:
        kwargs = dict(per_workload.get(workload, {}))
        all_configs = list(configs)
        if include_baseline and BASELINE_CONFIG not in all_configs:
            all_configs = [BASELINE_CONFIG] + all_configs
        for device, bus in all_configs:
            points.append(
                ExperimentSpec(
                    kind="macro",
                    device=device,
                    bus=bus,
                    num_nodes=num_nodes,
                    workload=workload,
                    scale=scale,
                    workload_kwargs=kwargs,
                )
            )
    return SweepSpec.explicit(points, name=name)


#: Device-name template per taxonomy family, used by
#: :func:`device_space_sweep` (``{n}`` is the exposed size).
DEVICE_FAMILIES: Dict[str, str] = {
    "NIw": "NI{n}w",      # uncached, word-exposed (CM-5/Alewife style)
    "NI": "NI{n}",        # uncached, block-exposed, implicit pointers
    "NIQ": "NI{n}Q",      # uncached, explicit pointers (*T-NG style)
    "CNI": "CNI{n}",      # cachable device registers
    "CNIQ": "CNI{n}Q",    # device-homed cachable queues
    "CNIQm": "CNI{n}Qm",  # memory-homed receive queues
}


def device_space_sweep(
    kind: str = "bandwidth",
    families: Sequence[str] = ("NIQ", "CNIQ"),
    sizes: Sequence[int] = (4, 16, 64, 128, 512),
    bus: str = "memory",
    workload: Optional[str] = None,
    name: str = "device_space",
    **point_overrides: Any,
) -> SweepSpec:
    """A sweep across the *generative* device space of the taxonomy.

    Where the figure sweeps compare the paper's five point designs, this
    preset scales whole families — by default queue-size scaling 4 → 512
    blocks for both the uncoherent ``NI{n}Q`` and coherent ``CNI{n}Q``
    explicit-queue families.  ``families`` takes keys of
    :data:`DEVICE_FAMILIES`, ``sizes`` the exposed sizes (blocks, or words
    for ``NIw``).  Every generated name is validated against the device
    registry when the sweep expands, so illegal points (e.g. a 6-block
    queue) fail fast with a :class:`~repro.ni.taxonomy.TaxonomyError`.

    ``kind`` selects the measurement as usual; macro sweeps need a
    ``workload``.  Extra keyword arguments become
    :class:`~repro.api.spec.ExperimentSpec` field overrides shared by all
    points.
    """
    unknown = set(families) - set(DEVICE_FAMILIES)
    if unknown:
        raise SpecError(
            f"unknown device families {sorted(unknown)}; "
            f"choose from {sorted(DEVICE_FAMILIES)}"
        )
    if workload is not None:
        point_overrides.setdefault("workload", workload)
    points = [
        ExperimentSpec(
            kind=kind,
            device=DEVICE_FAMILIES[family].format(n=size),
            bus=bus,
            **point_overrides,
        )
        for family in families
        for size in sizes
    ]
    return SweepSpec.explicit(points, name=name)


#: Fabrics the scalability preset compares by default: the paper's ideal
#: model against a contended 2D mesh (auto-shaped per node count).
SCALABILITY_FABRICS: Tuple[str, ...] = ("ideal", "mesh")

#: Node counts of the scalability sweep: the paper's 16-node machine
#: bracketed from 4 to 64 nodes.
SCALABILITY_NODE_COUNTS: Tuple[int, ...] = (4, 8, 16, 32, 64)

#: The Figure-8 communication-bound macro trio (Table 3): one-to-all
#: broadcasts (gauss), bursty fine-grain updates (em3d) and hot-spot
#: request/reply traffic (appbt).
MACRO_TRIO: Tuple[str, ...] = ("gauss", "em3d", "appbt")

#: Device/bus points the network-axis presets compare by default: one
#: representative per taxonomy family — uncached words (NI2w), cachable
#: device registers (CNI4) and the best cachable queue (CNI16Qm).
FAMILY_CONFIGS: Tuple[Tuple[str, str], ...] = (
    ("NI2w", "memory"),
    ("CNI4", "memory"),
    ("CNI16Qm", "memory"),
)


def scalability_sweep(
    workloads: Sequence[str] = MACRO_TRIO,
    configs: Sequence[Tuple[str, str]] = (("CNI16Qm", "memory"),),
    node_counts: Sequence[int] = SCALABILITY_NODE_COUNTS,
    fabrics: Sequence[str] = SCALABILITY_FABRICS,
    scale: float = 1.0,
    workload_kwargs: Optional[Mapping[str, Mapping[str, Any]]] = None,
    include_baseline: bool = True,
    params: Optional[Mapping[str, Any]] = None,
    name: str = "scalability",
) -> SweepSpec:
    """Node-count scalability: the fig8 macro trio regenerated per scale.

    The paper's evaluation is pinned at 16 nodes on an idealized network;
    this preset asks the question its taxonomy begs — how do the device
    conclusions hold up as the machine grows?  Every ``fabric`` ×
    ``node count`` cell re-runs the macro workloads for each configuration
    (plus the NI2w/memory baseline when ``include_baseline`` is set, so
    per-cell speedups are computable via :func:`speedups` on the filtered
    subset).  Grid fabric names without explicit dims (``"mesh"``)
    auto-shape to each node count, which is what lets one sweep span
    4 → 64 nodes.  ``params`` adds machine-parameter overrides shared by
    all points (the fabric name is layered on top).
    """
    per_workload = dict(workload_kwargs or {})
    base_params = dict(params or {})
    all_configs = list(configs)
    if include_baseline and BASELINE_CONFIG not in all_configs:
        all_configs = [BASELINE_CONFIG] + all_configs
    points: List[ExperimentSpec] = []
    for fabric in fabrics:
        for num_nodes in node_counts:
            for workload in workloads:
                kwargs = dict(per_workload.get(workload, {}))
                for device, bus in all_configs:
                    points.append(
                        ExperimentSpec(
                            kind="macro",
                            device=device,
                            bus=bus,
                            num_nodes=num_nodes,
                            workload=workload,
                            scale=scale,
                            workload_kwargs=kwargs,
                            params={**base_params, "fabric": fabric},
                        )
                    )
    return SweepSpec.explicit(points, name=name)


#: Reference point for :func:`network_sensitivity_sweep`'s latency axis:
#: the paper's 100-cycle network with the default 8-cycle grid hop.
_REFERENCE_LATENCY = 100
_REFERENCE_HOP = 8


def network_sensitivity_sweep(
    workloads: Sequence[str] = ("gauss",),
    configs: Sequence[Tuple[str, str]] = FAMILY_CONFIGS,
    latencies: Sequence[int] = (25, 100, 400),
    fabrics: Sequence[str] = ("ideal", "xbar", "mesh"),
    num_nodes: int = 16,
    scale: float = 0.5,
    workload_kwargs: Optional[Mapping[str, Mapping[str, Any]]] = None,
    params: Optional[Mapping[str, Any]] = None,
    name: str = "network_sensitivity",
) -> SweepSpec:
    """Network sensitivity: latency × topology × device family.

    Sweeps how much each device family's advantage depends on the network
    the paper idealized.  The latency axis scales the whole network
    together: each value sets ``network_latency_cycles`` (the ideal/xbar
    wire latency) and scales ``fabric_hop_cycles`` proportionally from the
    100-cycle/8-cycle reference, so "a 4x slower network" means 4x on
    every fabric rather than only on the topology-free ones.
    """
    per_workload = dict(workload_kwargs or {})
    base_params = dict(params or {})
    points: List[ExperimentSpec] = []
    for fabric in fabrics:
        for latency in latencies:
            hop = max(1, round(_REFERENCE_HOP * latency / _REFERENCE_LATENCY))
            point_params = {
                **base_params,
                "fabric": fabric,
                "network_latency_cycles": latency,
                "fabric_hop_cycles": hop,
            }
            for workload in workloads:
                kwargs = dict(per_workload.get(workload, {}))
                for device, bus in configs:
                    points.append(
                        ExperimentSpec(
                            kind="macro",
                            device=device,
                            bus=bus,
                            num_nodes=num_nodes,
                            workload=workload,
                            scale=scale,
                            workload_kwargs=kwargs,
                            params=point_params,
                        )
                    )
    return SweepSpec.explicit(points, name=name)


#: Fault plans the chaos presets sweep by default: the paper-faithful
#: fault-free baseline plus the canonical 1 %-drop + reorder plan.
FAULT_PLANS: Tuple[str, ...] = ("zero", "lossy1")


def fault_sweep(
    workloads: Sequence[str] = ("gauss",),
    configs: Sequence[Tuple[str, str]] = (("CNI4Q", "memory"),),
    plans: Sequence[str] = FAULT_PLANS,
    seeds: Sequence[int] = (0,),
    fabric: str = "mesh",
    num_nodes: int = 16,
    scale: float = 1.0,
    workload_kwargs: Optional[Mapping[str, Mapping[str, Any]]] = None,
    params: Optional[Mapping[str, Any]] = None,
    name: str = "faults",
) -> SweepSpec:
    """Fault-parameterized macro sweep: workloads × configs × plans × seeds.

    Every point runs on a real topology (``fabric``, default mesh — fault
    injection on the ideal fabric exercises nothing interesting) with the
    named fault plan and seed.  Lossy plans automatically enable the
    reliable messaging layer so the workload can complete through
    retransmission; non-lossy plans (``zero``, ``jitter``) leave it off,
    keeping their results directly comparable to fault-free goldens.
    """
    from repro.faults import resolve_plan

    per_workload = dict(workload_kwargs or {})
    base_params = dict(params or {})
    points: List[ExperimentSpec] = []
    for plan in plans:
        lossy = resolve_plan(plan).is_lossy()
        for seed in seeds:
            point_params = {
                **base_params,
                "fabric": fabric,
                "faults": plan,
                "fault_seed": seed,
            }
            if lossy:
                point_params["reliable_messaging"] = True
            for workload in workloads:
                kwargs = dict(per_workload.get(workload, {}))
                for device, bus in configs:
                    points.append(
                        ExperimentSpec(
                            kind="macro",
                            device=device,
                            bus=bus,
                            num_nodes=num_nodes,
                            workload=workload,
                            scale=scale,
                            workload_kwargs=kwargs,
                            params=point_params,
                        )
                    )
    return SweepSpec.explicit(points, name=name)


#: Coherence protocols the kit ships (see :mod:`repro.coherence.protocols`):
#: the paper's MOESI baseline, the classic invalidate family, and the
#: home-node directory variant.  Plugin tables join a sweep by passing an
#: explicit ``protocols=`` list.
SHIPPED_PROTOCOLS: Tuple[str, ...] = ("moesi", "mesi", "msi", "illinois", "dir-msi")


def protocol_sweep(
    workloads: Sequence[str] = MACRO_TRIO,
    configs: Sequence[Tuple[str, str]] = (("CNI16Qm", "memory"),),
    protocols: Sequence[str] = SHIPPED_PROTOCOLS,
    num_nodes: int = 16,
    scale: float = 1.0,
    workload_kwargs: Optional[Mapping[str, Mapping[str, Any]]] = None,
    params: Optional[Mapping[str, Any]] = None,
    name: str = "protocols",
) -> SweepSpec:
    """Coherence-protocol axis: the fig8 macro trio per rule table.

    The paper fixes MOESI; this preset re-runs each macro workload ×
    configuration cell under every requested protocol table so the cost of
    the protocol itself (dirty sharing vs memory reflection, broadcast vs
    directory filtering) is directly comparable.  ``protocols`` accepts any
    registered table name — including plugin tables registered with
    :func:`repro.coherence.protocols.register_protocol` — and each name is
    validated when the sweep's points validate their machine parameters.
    ``params`` adds machine-parameter overrides shared by all points (the
    protocol name is layered on top).
    """
    per_workload = dict(workload_kwargs or {})
    base_params = dict(params or {})
    points: List[ExperimentSpec] = []
    for protocol in protocols:
        for workload in workloads:
            kwargs = dict(per_workload.get(workload, {}))
            for device, bus in configs:
                points.append(
                    ExperimentSpec(
                        kind="macro",
                        device=device,
                        bus=bus,
                        num_nodes=num_nodes,
                        workload=workload,
                        scale=scale,
                        workload_kwargs=kwargs,
                        params={**base_params, "protocol": protocol},
                    )
                )
    return SweepSpec.explicit(points, name=name)


def traffic_sweep(
    patterns: Optional[Sequence[str]] = None,
    configs: Sequence[Tuple[str, str]] = (BASELINE_CONFIG, ("CNI16Qm", "memory")),
    num_nodes: int = 16,
    scale: float = 1.0,
    workload_kwargs: Optional[Mapping[str, Mapping[str, Any]]] = None,
    params: Optional[Mapping[str, Any]] = None,
    name: str = "traffic",
) -> SweepSpec:
    """Synthetic-traffic axis: registered patterns × (device, bus).

    ``patterns`` defaults to every workload registered under the
    ``"traffic"`` and ``"fine-grain"`` tags — the synthetic generators
    (uniform, hotspot, transpose, bursty) plus the modern fine-grain
    patterns (allreduce, halo, psrpc, kv).  Each point runs
    ``kind="traffic"`` and reports network-centric metrics (delivered
    bandwidth, message rate, grid hop/contention totals) alongside the
    usual occupancies, so device and fabric choices can be compared under
    controlled load instead of a full application.
    """
    if patterns is None:
        import repro.traffic  # noqa: F401 — register the shipped patterns

        from repro.apps import workload_names

        patterns = workload_names("traffic") + workload_names("fine-grain")
    per_pattern = dict(workload_kwargs or {})
    base_params = dict(params or {})
    points: List[ExperimentSpec] = []
    for pattern in patterns:
        kwargs = dict(per_pattern.get(pattern, {}))
        for device, bus in configs:
            points.append(
                ExperimentSpec(
                    kind="traffic",
                    device=device,
                    bus=bus,
                    num_nodes=num_nodes,
                    workload=pattern,
                    scale=scale,
                    workload_kwargs=kwargs,
                    params=dict(base_params),
                )
            )
    return SweepSpec.explicit(points, name=name)


def speedups(
    results: ResultSet,
    workload: str,
    baseline: Tuple[str, str] = BASELINE_CONFIG,
) -> Dict[str, float]:
    """Per-config speedup over the baseline for one workload.

    Returns ``{"<device>@<bus>": speedup}`` from the macro results present
    in ``results``; raises ``KeyError`` if the baseline run is missing.
    """
    runs = results.filter(kind="macro", workload=workload)
    base_key = f"{baseline[0]}@{baseline[1]}"
    by_config = {r.spec.config: r.metrics["cycles"] for r in runs}
    if base_key not in by_config:
        raise KeyError(f"baseline run {base_key} missing for workload {workload!r}")
    base_cycles = by_config[base_key]
    return {
        config: (base_cycles / cycles if cycles > 0 else 0.0)
        for config, cycles in by_config.items()
    }


def occupancy_reductions(
    results: ResultSet,
    workload: str,
    baseline: Tuple[str, str] = BASELINE_CONFIG,
    metric: str = "memory_bus_occupancy",
) -> Dict[str, float]:
    """Fractional bus-occupancy reduction vs the baseline, per device.

    Only configurations on the baseline's bus are compared (occupancy on a
    different bus is not an apples-to-apples reduction).
    """
    runs = results.filter(kind="macro", workload=workload, bus=baseline[1])
    by_device = {r.spec.device: r.metrics[metric] for r in runs}
    if baseline[0] not in by_device:
        raise KeyError(f"baseline run {baseline[0]}@{baseline[1]} missing for {workload!r}")
    base = by_device[baseline[0]]
    out: Dict[str, float] = {}
    for device, occupancy in by_device.items():
        out[device] = 0.0 if base <= 0 else 1.0 - occupancy / base
    return out


def paper_tables() -> Dict[str, List[Dict[str, object]]]:
    """Tables 1–4 as structured rows, keyed ``"table1"`` … ``"table4"``."""
    from repro.experiments import tables

    return {
        "table1": tables.table1_device_summary(),
        "table2": tables.table2_bus_occupancy(),
        "table3": tables.table3_macrobenchmarks(),
        "table4": tables.table4_related_work(),
    }
