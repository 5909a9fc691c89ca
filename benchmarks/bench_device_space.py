"""Benchmarks over the *generative* device space of the taxonomy.

Where Figures 6 and 7 cover the paper's five point designs, these sweeps
exercise the composable device kit: queue sizes scale 4 → 512 blocks
across both the uncoherent explicit-queue (``NI{n}Q``) and coherent
cachable-queue (``CNI{n}Q``) families, and a macro workload runs on
taxonomy points the paper never built (Alewife's ``NI16w``, *T-NG's
``NI128Q``, ``CNI64Q``, ``CNI16``).

Everything is expressed through :func:`repro.api.device_space_sweep` and
plain :class:`repro.api.ExperimentSpec` points — no device-specific code.
"""

from _util import runner, single_run
from repro.api import ExperimentSpec, device_space_sweep

#: Queue sizes swept per family (blocks).
QUEUE_SIZES = (4, 16, 64, 512)

#: Taxonomy points beyond the paper's five, all built by the registry.
NEW_POINTS = ("NI16w", "NI128Q", "CNI64Q", "CNI16")


def test_device_space_bandwidth_scaling(benchmark):
    """Streaming bandwidth as the exposed queue grows, NIQ vs CNIQ."""

    def sweep():
        results = runner().run(
            device_space_sweep(
                kind="bandwidth",
                families=("NIQ", "CNIQ"),
                sizes=QUEUE_SIZES,
                message_bytes=244,
                messages=40,
                warmup=10,
            )
        )
        return results.pivot(series="device", x="message_bytes", value="bandwidth_mbps")

    panel = single_run(benchmark, sweep)
    line = ", ".join(f"{device}={series[244]:.0f}" for device, series in panel.items())
    print(f"\nDevice-space bandwidth at 244 B (MB/s): {line}")
    # Coherent queues must beat their uncached counterparts at every size.
    for size in QUEUE_SIZES:
        assert panel[f"CNI{size}Q"][244] > panel[f"NI{size}Q"][244]


def test_device_space_latency_scaling(benchmark):
    """Round-trip latency across the same family ladder."""

    def sweep():
        results = runner().run(
            device_space_sweep(
                kind="latency",
                families=("NIQ", "CNIQ"),
                sizes=QUEUE_SIZES,
                message_bytes=64,
                iterations=15,
                warmup=8,
            )
        )
        return results.pivot(series="device", x="message_bytes", value="round_trip_us")

    panel = single_run(benchmark, sweep)
    line = ", ".join(f"{device}={series[64]:.1f}" for device, series in panel.items())
    print(f"\nDevice-space round-trip at 64 B (us): {line}")
    assert panel["CNI16Q"][64] < panel["NI16Q"][64]


def test_new_taxonomy_points_run_macro(benchmark):
    """Taxonomy points the paper never evaluated complete a macro workload."""

    def sweep():
        points = [
            ExperimentSpec(
                kind="macro", device=device, bus="memory",
                workload="em3d", scale=0.25, num_nodes=4,
            )
            for device in NEW_POINTS
        ]
        results = runner().run(points)
        return {r.spec.device: r.metrics["cycles"] for r in results}

    cycles = single_run(benchmark, sweep)
    print("\nem3d x0.25 on generated devices (cycles): "
          + ", ".join(f"{k}={v:.0f}" for k, v in cycles.items()))
    assert all(v > 0 for v in cycles.values())
    # The coherent queue device beats the conventional word-exposed NI.
    assert cycles["CNI64Q"] < cycles["NI16w"]
