"""Tests for the experiment harness: microbenchmarks, macro sweeps, tables."""

import pytest

from conftest import run_stream
from repro.api import (
    ExperimentSpec,
    SpecError,
    SweepRunner,
    macro_sweep,
    occupancy_reductions,
    run_point,
    speedups,
)
from repro.apps.workload import run_spec
from repro.experiments import (
    ALTERNATE_BUS_CONFIGS,
    BASELINE,
    IO_BUS_DEVICES,
    MEMORY_BUS_DEVICES,
)
from repro.experiments import figures, report, tables
from repro.node.machine import Machine


def _latency(device, bus, message_bytes, iterations, warmup):
    return run_point(ExperimentSpec(
        kind="latency", device=device, bus=bus, message_bytes=message_bytes,
        iterations=iterations, warmup=warmup,
    )).metrics


def _bandwidth(device, bus, message_bytes, messages, warmup, snarfing=False):
    return run_point(ExperimentSpec(
        kind="bandwidth", device=device, bus=bus, message_bytes=message_bytes,
        messages=messages, warmup=warmup, snarfing=snarfing,
    )).metrics


def _stream_cycles(spec):
    """Cycles for node 0 of ``spec``'s machine to stream 60 244-byte
    messages to node 1."""
    machine = Machine.from_spec(spec)
    assert run_stream(machine, payload_bytes=244, count=60) == 60
    return machine.sim.now


class TestDeviceLists:
    def test_memory_bus_devices_match_paper(self):
        assert MEMORY_BUS_DEVICES == ("NI2w", "CNI4", "CNI16Q", "CNI512Q", "CNI16Qm")

    def test_io_bus_excludes_cni16qm(self):
        assert "CNI16Qm" not in IO_BUS_DEVICES
        assert len(IO_BUS_DEVICES) == 4

    def test_alternate_bus_configs(self):
        assert ("NI2w", "cache") in ALTERNATE_BUS_CONFIGS
        assert ("CNI16Qm", "memory") in ALTERNATE_BUS_CONFIGS
        assert ("CNI512Q", "io") in ALTERNATE_BUS_CONFIGS
        assert BASELINE == ("NI2w", "memory")


class TestRoundTripMicrobenchmark:
    def test_result_fields(self):
        result = _latency("CNI512Q", "memory", 64, iterations=5, warmup=2)
        assert result["iterations"] == 5
        assert result["round_trip_cycles"] > 0
        assert result["round_trip_us"] == result["round_trip_cycles"] / 200.0
        assert result["one_way_us"] * 2 == pytest.approx(result["round_trip_us"])

    def test_latency_grows_with_message_size(self):
        small = _latency("CNI512Q", "memory", 8, iterations=6, warmup=2)
        large = _latency("CNI512Q", "memory", 256, iterations=6, warmup=2)
        assert large["round_trip_cycles"] > small["round_trip_cycles"]

    def test_latency_includes_network_flight_time(self):
        result = _latency("CNI512Q", "memory", 8, iterations=4, warmup=1)
        assert result["round_trip_cycles"] > 2 * 100  # two network traversals

    def test_cni_beats_ni2w_at_64_bytes(self):
        """Headline Figure-6 claim at the 64-byte point."""
        ni2w = _latency("NI2w", "memory", 64, iterations=10, warmup=4)
        cni = _latency("CNI512Q", "memory", 64, iterations=10, warmup=4)
        assert cni["round_trip_cycles"] < ni2w["round_trip_cycles"]

    def test_io_bus_slower_than_memory_bus(self):
        mem = _latency("CNI512Q", "memory", 64, iterations=6, warmup=2)
        io = _latency("CNI512Q", "io", 64, iterations=6, warmup=2)
        assert io["round_trip_cycles"] > mem["round_trip_cycles"]

    def test_zero_iterations_rejected(self):
        with pytest.raises(SpecError, match="at least one iteration"):
            run_point(ExperimentSpec(kind="latency", device="NI2w", iterations=0))


class TestBandwidthMicrobenchmark:
    def test_result_fields(self):
        result = _bandwidth("CNI512Q", "memory", 256, messages=20, warmup=5)
        assert result["total_cycles"] > 0
        assert result["bandwidth_mbps"] > 0
        assert 0 < result["relative_bandwidth"] < 2.0
        assert result["max_bandwidth_mbps"] > 0

    @pytest.mark.parametrize("message_bytes", [64, 256])
    def test_cni_bandwidth_exceeds_ni2w(self, message_bytes):
        """Headline Figure-7 claim at the 64- and 256-byte points."""
        ni2w = _bandwidth("NI2w", "memory", message_bytes, messages=25, warmup=5)
        cni = _bandwidth("CNI512Q", "memory", message_bytes, messages=25, warmup=5)
        assert cni["bandwidth_mbps"] > 1.5 * ni2w["bandwidth_mbps"]

    def test_bandwidth_grows_with_message_size_for_ni2w(self):
        small = _bandwidth("NI2w", "memory", 16, messages=25, warmup=5)
        large = _bandwidth("NI2w", "memory", 1024, messages=12, warmup=3)
        assert large["bandwidth_mbps"] > small["bandwidth_mbps"]

    def test_zero_messages_rejected(self):
        with pytest.raises(SpecError, match="at least one message"):
            run_point(ExperimentSpec(kind="bandwidth", device="NI2w", messages=0))


class TestDesignKnobClaims:
    """Receive-queue capacity, data snarfing (Section 5.1.2) and the
    hardware sliding window, each varied on one device."""

    def test_deeper_cachable_queues_stream_no_slower(self):
        cycles = {
            blocks: _stream_cycles(ExperimentSpec(
                device="CNI16Q", num_nodes=2,
                ni_kwargs={"send_queue_blocks": blocks, "recv_queue_blocks": blocks},
            ))
            for blocks in (8, 64)
        }
        assert cycles[64] <= cycles[8]

    def test_snarfing_keeps_cni16qm_bandwidth(self):
        plain = _bandwidth("CNI16Qm", "memory", 2048, messages=40, warmup=10)
        snarf = _bandwidth("CNI16Qm", "memory", 2048, messages=40, warmup=10, snarfing=True)
        assert snarf["bandwidth_mbps"] >= 0.95 * plain["bandwidth_mbps"]

    def test_wider_sliding_window_streams_faster(self):
        # At the default 100-cycle network latency every ack is back before
        # the next message is ready, so all windows take the same cycles; at
        # 1,000 cycles the window bounds the messages in flight.
        cycles = [
            _stream_cycles(ExperimentSpec(
                device="CNI512Q", num_nodes=2,
                params={"sliding_window": window, "network_latency_cycles": 1000},
            ))
            for window in (1, 2, 4, 8)
        ]
        assert all(wider < narrower for narrower, wider in zip(cycles, cycles[1:])), cycles


class TestMacroExperiments:
    def test_macro_point_result(self):
        spec = ExperimentSpec(
            kind="macro", workload="em3d", device="CNI16Qm", bus="memory",
            num_nodes=4, scale=0.2,
            workload_kwargs={"iterations": 1, "nodes_per_proc": 12},
        )
        result = run_point(spec)
        assert result.metrics["cycles"] > 0
        assert result.metrics["memory_bus_occupancy"] > 0
        # The kind's run path built the spec's machine: the workload ran on
        # CNI16Qm, and run_point reports that very run.
        _, run = run_spec(spec)
        assert run.ni_name == "CNI16Qm"
        assert run.cycles == result.metrics["cycles"]

    def test_speedups_include_baseline(self):
        results = SweepRunner().run(macro_sweep(
            ["gauss"], [("CNI16Qm", "memory")], num_nodes=4, scale=0.15,
            workload_kwargs={"gauss": {"elimination_cycles": 2000}},
        ))
        sweep = speedups(results, "gauss")
        assert sweep["NI2w@memory"] == 1.0
        assert "CNI16Qm@memory" in sweep
        assert sweep["CNI16Qm@memory"] > 0

    def test_occupancy_reduction_positive_for_cqs(self):
        results = SweepRunner().run(macro_sweep(
            ["gauss"], [("NI2w", "memory"), ("CNI512Q", "memory")],
            num_nodes=4, scale=0.15,
        ))
        reductions = occupancy_reductions(results, "gauss")
        assert reductions["NI2w"] == 0.0
        assert reductions["CNI512Q"] > 0.0


@pytest.fixture(scope="module")
def figure8_claims():
    """Figure 8 speedups and §5.2 occupancy reductions of all five
    workloads at 4 nodes, scale 0.15, from one shared runner (the
    occupancy sweep is served from the figure sweep's history)."""
    runner = SweepRunner()
    speedup = figures.figure8_macro(num_nodes=4, scale=0.15, runner=runner)
    occupancy = figures.occupancy_reduction(num_nodes=4, scale=0.15, runner=runner)
    return speedup, occupancy


@pytest.mark.parametrize("workload", figures.FIGURE8_WORKLOADS)
class TestFigure8Claims:
    def test_fig8a_best_cni_beats_ni2w_on_the_memory_bus(self, figure8_claims, workload):
        panel = figure8_claims[0]["memory"][workload]
        assert panel["NI2w@memory"] == 1.0
        assert max(v for k, v in panel.items() if k.startswith("CNI")) > 1.0

    def test_fig8b_cni512q_beats_ni2w_on_the_io_bus(self, figure8_claims, workload):
        panel = figure8_claims[0]["io"][workload]
        assert panel["CNI512Q@io"] > panel["NI2w@io"]

    def test_fig8c_ni2w_on_the_cache_bus_beats_the_baseline(self, figure8_claims, workload):
        # Whether it also beats CNI16Qm is workload-dependent (the paper's
        # em3d is a case where it does not), so that is not asserted.
        assert figure8_claims[0]["alternate"][workload]["NI2w@cache"] > 1.0

    def test_sec52_cni512q_cuts_memory_bus_occupancy(self, figure8_claims, workload):
        reductions = figure8_claims[1][workload]
        assert reductions["CNI512Q"] > 0.2
        assert reductions["CNI512Q"] > reductions["CNI4"]


class TestFigureSeries:
    def test_figure6_quick_structure(self):
        series = figures.figure6_latency(sizes=(16,), iterations=4)
        assert set(series) == {"memory", "io", "alternate"}
        assert set(series["memory"]) == set(MEMORY_BUS_DEVICES)
        assert set(series["io"]) == set(IO_BUS_DEVICES)
        assert "NI2w@cache" in series["alternate"]
        for panel in series.values():
            for device_series in panel.values():
                assert device_series[16] > 0

    def test_figure7_quick_structure(self):
        series = figures.figure7_bandwidth(sizes=(64,), messages=12)
        assert "CNI16Qm+snarf" in series["memory"]
        for panel in series.values():
            for device_series in panel.values():
                for value in device_series.values():
                    assert value > 0

    def test_figure8_quick_structure(self):
        series = figures.figure8_macro(
            workloads=("em3d",), num_nodes=4, scale=0.2
        )
        assert set(series) == {"memory", "io", "alternate"}
        memory_panel = series["memory"]["em3d"]
        assert memory_panel["NI2w@memory"] == 1.0
        assert len(memory_panel) == len(MEMORY_BUS_DEVICES)


class TestTables:
    def test_table1_lists_all_five_devices(self):
        rows = tables.table1_device_summary()
        assert [row["device"] for row in rows] == list(MEMORY_BUS_DEVICES)
        qm_row = rows[-1]
        assert qm_row["home"] == "main memory"
        assert qm_row["coherent"] == "yes"

    def test_table2_matches_paper_values(self):
        rows = tables.table2_bus_occupancy()
        by_op = {row["operation"]: row for row in rows}
        assert by_op["Uncached 8-byte load from NI"]["memory_bus"] == 28
        assert by_op["Uncached 8-byte store to NI"]["io_bus"] == 32
        assert by_op["Memory-to-cache transfer (64 bytes)"]["memory_bus"] == 42
        assert (
            by_op["Cache-to-cache transfer from CNI to processor (64 bytes)"]["io_bus"] == 76
        )

    def test_table3_covers_all_benchmarks(self):
        rows = tables.table3_macrobenchmarks()
        assert {row["benchmark"] for row in rows} == {
            "spsolve", "gauss", "em3d", "moldyn", "appbt",
        }

    def test_table4_cni_row(self):
        rows = tables.table4_related_work()
        cni = rows[0]
        assert cni["interface"] == "CNI"
        assert cni["coherence"] == "Yes"
        assert len(rows) == 12


class TestReportFormatting:
    def test_format_table_alignment(self):
        text = report.format_table(
            [{"a": 1, "b": "xy"}, {"a": 222, "b": "z"}], title="T"
        )
        assert text.startswith("T\n")
        assert "222" in text and "xy" in text

    def test_format_empty_table(self):
        assert "(empty)" in report.format_table([], title="none")

    def test_format_series_panel(self):
        text = report.format_series_panel({"NI2w": {8: 1.5, 64: 2.5}}, title="[mem]")
        assert "NI2w" in text and "1.50" in text and "2.50" in text

    def test_format_figure_and_speedups(self):
        figure = {"memory": {"NI2w": {8: 1.0}}}
        assert "Figure" in report.format_figure(figure, "Figure test")
        speedups = {"memory": {"gauss": {"NI2w@memory": 1.0, "CNI4@memory": 1.4}}}
        text = report.format_speedups(speedups, "Fig 8")
        assert "gauss" in text and "1.40" in text
