"""Tests for the unified experiment API (repro.api).

Covers the satellite requirements: spec hashing stability, cache hit/miss
behaviour, parallel vs serial result equality, ResultSet JSON round-trips,
plus Machine.from_spec and the early ni_kwargs validation.
"""

import json
import os

import pytest

from repro import Machine
from repro.api import (
    ExperimentSpec,
    ResultSet,
    RunResult,
    SpecError,
    SweepRunner,
    SweepSpec,
    bandwidth_sweep,
    latency_sweep,
    macro_sweep,
    occupancy_reductions,
    paper_tables,
    run_point,
    speedups,
)
from repro.experiments.run import main as run_main
from repro.ni.taxonomy import TaxonomyError
from repro.node.node import NodeConfigError
from repro.service.store import ResultStore

#: A tiny latency spec used throughout (fast: 3 iterations, 1 warm-up).
QUICK = dict(kind="latency", message_bytes=8, iterations=3, warmup=1)


def quick_sweep():
    return latency_sweep(
        [("NI2w", "memory"), ("CNI512Q", "memory")], (8, 16), iterations=3, warmup=1
    )


class TestSpec:
    def test_hash_is_stable_across_calls_and_round_trips(self):
        spec = ExperimentSpec(**QUICK)
        assert spec.spec_hash() == spec.spec_hash()
        clone = ExperimentSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert clone == spec
        assert clone.spec_hash() == spec.spec_hash()

    def test_hash_pinned_value(self):
        """The canonical encoding (and thus cache keys) must not drift
        silently; bump SPEC_VERSION when changing it deliberately."""
        spec = ExperimentSpec(
            kind="latency", device="NI2w", bus="memory", message_bytes=64, iterations=10
        )
        assert spec.spec_hash() == (
            "e4f937cae1d22b02a9dc22329bb496646568bfee5e1c939a58372002ec9e4bd2"
        )

    def test_hash_sensitive_to_every_axis(self):
        base = ExperimentSpec(**QUICK)
        variants = [
            base.with_overrides(device="CNI4"),
            base.with_overrides(bus="io"),
            base.with_overrides(message_bytes=16),
            base.with_overrides(snarfing=True),
            base.with_overrides(ni_kwargs={"fifo_messages": 4}),
            base.with_overrides(params={"sliding_window": 2}),
            base.with_overrides(seed=7),
        ]
        hashes = {base.spec_hash()} | {v.spec_hash() for v in variants}
        assert len(hashes) == len(variants) + 1

    def test_kwargs_order_does_not_change_hash(self):
        a = ExperimentSpec(**QUICK, ni_kwargs={"a": 1, "b": 2})
        b = ExperimentSpec(**QUICK, ni_kwargs={"b": 2, "a": 1})
        assert a.spec_hash() == b.spec_hash()

    def test_validate_rejects_bad_specs(self):
        with pytest.raises(SpecError):
            ExperimentSpec(kind="nonsense").validate()
        with pytest.raises(SpecError):
            ExperimentSpec(kind="latency", bus="quantum").validate()
        with pytest.raises(SpecError):
            ExperimentSpec(kind="latency", iterations=0).validate()
        with pytest.raises(SpecError):
            ExperimentSpec(kind="macro").validate()  # workload missing
        with pytest.raises(SpecError):
            ExperimentSpec(kind="macro", workload="hpcg").validate()

    def test_validate_rejects_bad_ni_kwargs_early(self):
        spec = ExperimentSpec(**QUICK, device="CNI16Q", ni_kwargs={"bogus_knob": 1})
        with pytest.raises(TaxonomyError):
            spec.validate()

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(SpecError):
            ExperimentSpec.from_dict({"kind": "latency", "flux_capacitor": True})

    def test_config_label_and_describe(self):
        spec = ExperimentSpec(kind="bandwidth", device="CNI16Qm", snarfing=True)
        assert spec.config == "CNI16Qm@memory+snarf"
        assert "CNI16Qm" in spec.describe()

    def test_resolved_seed_prefers_explicit_then_workload_kwargs(self):
        assert ExperimentSpec(seed=7).resolved_seed() == 7
        assert ExperimentSpec(workload_kwargs={"seed": 9}).resolved_seed() == 9
        # Device placement must not change the problem instance.
        a = ExperimentSpec(kind="macro", workload="gauss", device="NI2w")
        b = ExperimentSpec(kind="macro", workload="gauss", device="CNI16Qm")
        assert a.resolved_seed() == b.resolved_seed()
        # Two different explicit seeds: resolved_seed() would name one and a
        # workload kind could run the other, so the spec is rejected.
        em3d = dict(kind="macro", workload="em3d", device="CNI16Qm", num_nodes=4, scale=0.25)
        with pytest.raises(SpecError, match="seed"):
            ExperimentSpec(**em3d, seed=7, workload_kwargs={"seed": 9}).validate()
        ExperimentSpec(**em3d, seed=9, workload_kwargs={"seed": 9}).validate()


class TestSweepSpec:
    def test_cartesian_expansion(self):
        sweep = SweepSpec.cartesian(
            ExperimentSpec(**QUICK), device=("NI2w", "CNI4"), message_bytes=(8, 16, 32)
        )
        points = sweep.expand()
        assert len(sweep) == len(points) == 6
        assert {(p.device, p.message_bytes) for p in points} == {
            (d, s) for d in ("NI2w", "CNI4") for s in (8, 16, 32)
        }

    def test_cartesian_rejects_unknown_axis(self):
        with pytest.raises(SpecError):
            SweepSpec.cartesian(ExperimentSpec(), voltage=(1, 2))

    def test_explicit_points_preserved_in_order(self):
        points = [ExperimentSpec(**QUICK, device=d) for d in ("CNI4", "NI2w")]
        sweep = SweepSpec.explicit(points)
        assert [p.device for p in sweep] == ["CNI4", "NI2w"]

    def test_sweep_dict_round_trip(self):
        sweep = SweepSpec.cartesian(ExperimentSpec(**QUICK), message_bytes=(8, 16))
        clone = SweepSpec.from_dict(json.loads(json.dumps(sweep.to_dict())))
        assert clone.sweep_hash() == sweep.sweep_hash()
        explicit = SweepSpec.explicit(sweep.expand())
        clone2 = SweepSpec.from_dict(explicit.to_dict())
        assert clone2.sweep_hash() == explicit.sweep_hash()


class TestRunPoint:
    def test_latency_metrics(self):
        result = run_point(ExperimentSpec(**QUICK, device="CNI512Q"))
        assert result.metrics["round_trip_cycles"] > 0
        assert result.metrics["round_trip_us"] == pytest.approx(
            result.metrics["round_trip_cycles"] / 200.0
        )
        assert result.value == result.metrics["round_trip_us"]

    def test_bandwidth_metrics(self):
        result = run_point(
            ExperimentSpec(kind="bandwidth", device="CNI512Q", message_bytes=256,
                           messages=10, warmup=2)
        )
        assert result.metrics["bandwidth_mbps"] > 0
        assert 0 < result.metrics["relative_bandwidth"] < 2.0

    def test_macro_metrics(self):
        result = run_point(
            ExperimentSpec(kind="macro", workload="gauss", device="CNI16Qm",
                           num_nodes=4, scale=0.15,
                           workload_kwargs={"elimination_cycles": 2000})
        )
        assert result.metrics["cycles"] > 0
        assert result.metrics["memory_bus_occupancy"] > 0

    def test_params_override_changes_behaviour(self):
        base = ExperimentSpec(kind="bandwidth", device="CNI512Q", message_bytes=256,
                              messages=15, warmup=3)
        narrow = base.with_overrides(params={"sliding_window": 1})
        fast = run_point(base)
        slow = run_point(narrow)
        assert slow.metrics["total_cycles"] > fast.metrics["total_cycles"]

    def test_run_point_is_deterministic(self):
        spec = ExperimentSpec(**QUICK, device="CNI4")
        assert run_point(spec) == run_point(spec)

    #: Fault-free metric keys of each built-in kind.  Stored results and
    #: downstream readers (figures, perfbench pins) rely on these sets.
    WORKLOAD_KEYS = {"cycles", "memory_bus_occupancy", "io_bus_occupancy", "network_messages"}
    DELIVERY_KEYS = {"messages_delivered", "payload_bytes", "messages_per_kcycle"}
    TRAFFIC_KEYS = WORKLOAD_KEYS | DELIVERY_KEYS | {"user_messages", "delivered_mbps"}
    METRIC_KEYS = [
        (QUICK, {"round_trip_cycles", "round_trip_us", "one_way_us", "iterations"}),
        (
            dict(kind="bandwidth", message_bytes=64, messages=4, warmup=1),
            {"total_cycles", "bandwidth_mbps", "relative_bandwidth",
             "max_bandwidth_mbps", "messages"},
        ),
        (dict(kind="macro", workload="gauss", num_nodes=4, scale=0.15), WORKLOAD_KEYS),
        (dict(kind="traffic", workload="uniform", num_nodes=4, scale=0.25), TRAFFIC_KEYS),
        (
            dict(kind="traffic", workload="uniform", num_nodes=16, scale=0.25,
                 params={"fabric": "mesh4x4"}),
            TRAFFIC_KEYS | {"fabric_hops", "fabric_contention_cycles"},
        ),
        (
            dict(kind="replay", workload="replay", num_nodes=4),
            WORKLOAD_KEYS | DELIVERY_KEYS | {"trace_messages", "trace_payload_bytes"},
        ),
    ]

    @pytest.mark.parametrize(
        "fields,keys", METRIC_KEYS,
        ids=["latency", "bandwidth", "macro", "traffic", "traffic-mesh4x4", "replay"],
    )
    def test_fault_free_metric_keys_per_kind(self, tmp_path, fields, keys):
        fields = dict(fields, device="CNI16Qm")
        if fields["kind"] == "replay":
            from repro.trace import record_trace

            trace = str(tmp_path / "gauss.trace.json.gz")
            record_trace(
                ExperimentSpec(kind="macro", workload="gauss", device="CNI16Qm",
                               num_nodes=4, scale=0.15),
                trace,
            )
            fields["workload_kwargs"] = {"trace": trace}
        assert set(run_point(ExperimentSpec(**fields)).metrics) == keys


class TestResultSet:
    def test_json_round_trip_identity(self):
        results = SweepRunner().run(quick_sweep())
        assert ResultSet.from_json(results.to_json()) == results

    def test_run_result_json_round_trip(self):
        result = run_point(ExperimentSpec(**QUICK))
        assert RunResult.from_json(result.to_json()) == result

    def test_save_load(self, tmp_path):
        results = SweepRunner().run(quick_sweep())
        path = str(tmp_path / "results.json")
        results.save(path)
        assert ResultSet.load(path) == results

    def test_filter_by_field_and_membership(self):
        results = SweepRunner().run(quick_sweep())
        ni2w = results.filter(device="NI2w")
        assert len(ni2w) == 2
        assert all(r.spec.device == "NI2w" for r in ni2w)
        both = results.filter(device=("NI2w", "CNI512Q"), message_bytes=8)
        assert len(both) == 2
        assert results.filter(lambda r: r.value > 0) == results

    def test_filter_unknown_field_raises(self):
        results = SweepRunner().run([ExperimentSpec(**QUICK)])
        with pytest.raises(SpecError):
            results.filter(astrology="aries")

    def test_pivot_layout(self):
        results = SweepRunner().run(quick_sweep())
        panel = results.pivot(series="device", x="message_bytes", value="round_trip_us")
        assert set(panel) == {"NI2w", "CNI512Q"}
        assert set(panel["NI2w"]) == {8, 16}
        assert all(v > 0 for row in panel.values() for v in row.values())

    def test_merge_deduplicates(self):
        results = SweepRunner().run(quick_sweep())
        merged = results.merge(results)
        assert len(merged) == len(results)


class TestRunnerCache:
    def test_cache_miss_then_hit(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        first = SweepRunner(cache_dir=cache_dir)
        uncached = first.run(quick_sweep())
        stats = first.cache_stats()
        assert (stats["hits"], stats["misses"], stats["stores"]) == (0, 4, 4)
        assert all(not r.cached for r in uncached)

        second = SweepRunner(cache_dir=cache_dir)
        cached = second.run(quick_sweep())
        stats = second.cache_stats()
        assert (stats["hits"], stats["misses"], stats["stores"]) == (4, 0, 0)
        assert all(r.cached for r in cached)
        assert cached == uncached  # equality ignores provenance

    def test_corrupt_cache_entry_is_a_miss(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        spec = ExperimentSpec(**QUICK)
        runner = SweepRunner(cache_dir=cache_dir)
        result = runner.run_one(spec)
        path = ResultStore(cache_dir).path_for(spec)
        with open(path, "w") as handle:
            handle.write("{not json")
        rerun = SweepRunner(cache_dir=cache_dir).run_one(spec)
        assert rerun == result
        assert not rerun.cached

    @pytest.mark.parametrize(
        "contents", ["5", '{"spec": 5}', '{"spec": {"kind": "latency"}, "metrics": 7}']
    )
    def test_wrong_shape_json_cache_entry_is_a_miss(self, tmp_path, contents):
        """Valid JSON of the wrong shape must degrade to a miss, not crash."""
        cache_dir = str(tmp_path / "cache")
        spec = ExperimentSpec(**QUICK)
        result = SweepRunner(cache_dir=cache_dir).run_one(spec)
        with open(ResultStore(cache_dir).path_for(spec), "w") as handle:
            handle.write(contents)
        rerun = SweepRunner(cache_dir=cache_dir).run_one(spec)
        assert rerun == result
        assert not rerun.cached

    def test_wrong_spec_in_cache_file_is_a_miss(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        spec = ExperimentSpec(**QUICK)
        other = ExperimentSpec(**QUICK, device="CNI4")
        runner = SweepRunner(cache_dir=cache_dir)
        other_result = runner.run_one(other)
        # Plant the other spec's result under this spec's entry path; its
        # shard directory does not exist yet, since only ``other`` ran.
        path = ResultStore(cache_dir).path_for(spec)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as handle:
            handle.write(other_result.to_json())
        rerun = SweepRunner(cache_dir=cache_dir).run_one(spec)
        assert rerun.spec == spec
        assert not rerun.cached

    def test_duplicate_points_simulated_once(self):
        spec = ExperimentSpec(**QUICK)
        runner = SweepRunner()
        results = runner.run([spec, spec, spec])
        assert len(results) == 3
        assert results[0] is results[1] is results[2]

    def test_cache_entry_from_other_simulator_version_is_a_miss(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        spec = ExperimentSpec(**QUICK)
        runner = SweepRunner(cache_dir=cache_dir)
        result = runner.run_one(spec)
        path = ResultStore(cache_dir).path_for(spec)
        with open(path) as handle:
            payload = json.load(handle)
        payload["repro_version"] = "0.0.0-stale"
        with open(path, "w") as handle:
            json.dump(payload, handle)
        follow_up = SweepRunner(cache_dir=cache_dir)
        rerun = follow_up.run_one(spec)
        assert rerun == result
        assert not rerun.cached
        assert follow_up.cache_stats()["misses"] == 1
        # The stale entry was rewritten: a third runner hits.
        third = SweepRunner(cache_dir=cache_dir)
        assert third.run_one(spec).cached

    def test_runner_history_memoises_across_run_calls(self):
        spec = ExperimentSpec(**QUICK)
        runner = SweepRunner()
        first = runner.run_one(spec)
        # Same runner, new sweep sharing the point: served from history,
        # not re-simulated (identical object, not merely equal).
        again = runner.run([spec, ExperimentSpec(**QUICK, device="CNI4")])
        assert again[0] is first

    def test_cache_clear(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        SweepRunner(cache_dir=cache_dir).run(quick_sweep())
        store = ResultStore(cache_dir)
        assert store.clear() == 4
        assert store.clear() == 0


class TestStoreKeysAndLayout:
    """Every kind goes through the one sharded result store."""

    #: ``ResultStore.cache_key`` per kind.  A drift orphans every stored
    #: entry, so a change here must be deliberate (and bump a schema).
    PINNED_KEYS = [
        (
            dict(kind="latency", device="NI2w", bus="memory", message_bytes=64,
                 iterations=10),
            "22bc4f7b5b24f4f0044a409f373ffb440c7dd18494df201667483b0bf1737798",
        ),
        (
            dict(kind="macro", device="CNI16Qm", bus="memory", workload="gauss",
                 num_nodes=4, scale=0.25),
            "e12ea68c8c5e431f44a45c33fc521a85fa0e933aaf8f453c3dd2381106db6674",
        ),
        (
            # Folds WORKLOAD_SCHEMA_VERSION, now 2 (fault keys on traffic).
            dict(kind="traffic", device="CNI16Qm", bus="memory", workload="uniform",
                 num_nodes=4, scale=0.25),
            "0ea4da2d894a5de4434a3f303a14d6fe71f8bb79e3115875e73bb412abb935e6",
        ),
    ]

    @pytest.mark.parametrize("fields,key", PINNED_KEYS, ids=["latency", "macro", "traffic"])
    def test_cache_key_pinned_value(self, tmp_path, fields, key):
        assert ResultStore(str(tmp_path)).cache_key(ExperimentSpec(**fields)) == key

    def test_cache_dir_string_writes_sharded_entry_and_sidecar(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        spec = ExperimentSpec(**QUICK)
        SweepRunner(cache_dir=cache_dir).run_one(spec)
        key = ResultStore(cache_dir).cache_key(spec)
        shard = os.path.join(cache_dir, key[:2], key[2:4])
        assert sorted(os.listdir(shard)) == [f"{key}.json", f"{key}.meta.json"]
        assert sorted(os.listdir(cache_dir)) == [key[:2]]

    def test_serial_and_parallel_leave_identical_entries(self, tmp_path):
        """Entries match byte for byte once ``elapsed_s`` (the wall time the
        simulation took, which every entry records) is set aside."""

        def sweep_into(directory, jobs):
            runner = SweepRunner(jobs=jobs, cache_dir=directory)
            runner.run(quick_sweep())
            return runner.cache_stats()

        def entries(directory):
            out = {}
            for info in ResultStore(directory).entries():
                with open(info.path, "rb") as handle:
                    data = handle.read()
                payload = json.loads(data)
                # Entries are written as sorted-key JSON: re-encoding a
                # loaded entry reproduces its bytes.
                assert json.dumps(payload, sort_keys=True).encode("utf-8") == data
                payload["elapsed_s"] = 0.0
                out[info.key] = json.dumps(payload, sort_keys=True).encode("utf-8")
            return out

        serial_dir, parallel_dir = str(tmp_path / "serial"), str(tmp_path / "parallel")
        serial_stats = sweep_into(serial_dir, jobs=1)
        parallel_stats = sweep_into(parallel_dir, jobs=2)
        counters = ("hits", "misses", "stores")
        assert [serial_stats[c] for c in counters] == [0, 4, 4]
        assert [parallel_stats[c] for c in counters] == [serial_stats[c] for c in counters]
        serial_entries = entries(serial_dir)
        assert len(serial_entries) == 4
        assert entries(parallel_dir) == serial_entries

        warm_serial = sweep_into(serial_dir, jobs=1)
        warm_parallel = sweep_into(parallel_dir, jobs=2)
        assert [warm_serial[c] for c in counters] == [4, 0, 0]
        assert [warm_parallel[c] for c in counters] == [4, 0, 0]

    def test_cache_dir_path_builds_store(self, tmp_path):
        runner = SweepRunner(cache_dir=tmp_path / "cache")
        assert isinstance(runner.cache, ResultStore)
        assert runner.cache.directory == str(tmp_path / "cache")

    def test_plugin_kind_results_are_stored_and_served(self, tmp_path):
        from repro.api import register_kind, unregister_kind

        calls = []

        def measure(spec):
            calls.append(spec.kind)
            return {"value": 2.0}

        register_kind("store-probe", measure)
        try:
            spec = ExperimentSpec(kind="store-probe")
            cache_dir = str(tmp_path / "cache")
            first = SweepRunner(cache_dir=cache_dir).run_one(spec)
            again = SweepRunner(cache_dir=cache_dir).run_one(spec)
        finally:
            unregister_kind("store-probe")
        assert calls == ["store-probe"]
        assert again.cached and again == first

    def test_import_api_does_not_load_service(self):
        """``import repro.api`` stays light: the store is built on use."""
        import subprocess
        import sys

        import repro

        src = os.path.dirname(os.path.dirname(repro.__file__))
        probe = (
            "import sys, repro.api; "
            "sys.exit(any(m.startswith('repro.service') for m in sys.modules))"
        )
        env = dict(os.environ, PYTHONPATH=src)
        assert subprocess.run([sys.executable, "-c", probe], env=env).returncode == 0


class TestParallelExecution:
    def test_parallel_equals_serial(self):
        serial = SweepRunner(jobs=1).run(quick_sweep())
        parallel = SweepRunner(jobs=4).run(quick_sweep())
        assert parallel == serial

    def test_parallel_fills_cache(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        SweepRunner(jobs=2, cache_dir=cache_dir).run(quick_sweep())
        follow_up = SweepRunner(cache_dir=cache_dir)
        follow_up.run(quick_sweep())
        assert follow_up.cache_stats()["hits"] == 4

    def test_progress_callback_sees_every_unique_point(self):
        seen = []
        runner = SweepRunner(progress=lambda done, total, result: seen.append((done, total)))
        runner.run(quick_sweep())
        assert seen == [(1, 4), (2, 4), (3, 4), (4, 4)]

    def test_history_accumulates_across_runs(self):
        runner = SweepRunner()
        runner.run(quick_sweep())
        runner.run([ExperimentSpec(**QUICK, device="CNI4")])
        assert len(runner.history) == 5

    def test_jobs_must_be_positive(self):
        with pytest.raises(ValueError):
            SweepRunner(jobs=0)


class TestPresets:
    def test_macro_sweep_prepends_baseline_once(self):
        sweep = macro_sweep(["gauss"], [("NI2w", "memory"), ("CNI4", "memory")],
                            num_nodes=4, scale=0.15)
        configs = [(p.device, p.bus) for p in sweep]
        assert configs == [("NI2w", "memory"), ("CNI4", "memory")]
        sweep2 = macro_sweep(["gauss"], [("CNI4", "io")], num_nodes=4, scale=0.15)
        assert [(p.device, p.bus) for p in sweep2] == [("NI2w", "memory"), ("CNI4", "io")]

    def test_speedups_and_occupancy_from_results(self):
        sweep = macro_sweep(
            ["gauss"], [("CNI16Qm", "memory")], num_nodes=4, scale=0.15,
            workload_kwargs={"gauss": {"elimination_cycles": 2000}},
        )
        results = SweepRunner().run(sweep)
        ratio = speedups(results, "gauss")
        assert ratio["NI2w@memory"] == 1.0
        assert ratio["CNI16Qm@memory"] > 0
        reductions = occupancy_reductions(results, "gauss")
        assert reductions["NI2w"] == 0.0
        assert "CNI16Qm" in reductions

    def test_speedups_require_baseline(self):
        results = SweepRunner().run(
            [ExperimentSpec(kind="macro", workload="gauss", device="CNI4",
                            num_nodes=4, scale=0.15)]
        )
        with pytest.raises(KeyError):
            speedups(results, "gauss")

    def test_bandwidth_sweep_snarfing_config_label(self):
        sweep = bandwidth_sweep([("CNI16Qm", "memory")], (64,), messages=5, snarfing=True)
        assert sweep.expand()[0].config == "CNI16Qm@memory+snarf"

    def test_paper_tables_keys(self):
        rows = paper_tables()
        assert set(rows) == {"table1", "table2", "table3", "table4"}
        assert len(rows["table1"]) == 5


class TestMachineFromSpec:
    def test_from_spec_builds_described_machine(self):
        spec = ExperimentSpec(device="CNI512Q", bus="io", num_nodes=4)
        machine = Machine.from_spec(spec)
        assert len(machine.nodes) == 4
        assert all(node.config.ni_name == "CNI512Q" for node in machine.nodes)
        assert "CNI512Q" in machine.describe() and "io" in machine.describe()

    def test_from_spec_applies_params_and_ni_kwargs(self):
        spec = ExperimentSpec(
            device="CNI16Q",
            num_nodes=2,
            ni_kwargs={"send_queue_blocks": 32},
            params={"sliding_window": 2},
        )
        machine = Machine.from_spec(spec)
        assert machine.params.sliding_window == 2

    def test_build_raises_taxonomy_error_before_node_assembly(self):
        with pytest.raises(TaxonomyError):
            Machine.build("CNI16Q", "memory", num_nodes=2, ni_kwargs={"wrong": 1})
        with pytest.raises(TaxonomyError):
            Machine.from_spec(ExperimentSpec(device="CNI9999"))

    def test_build_still_rejects_illegal_bus_placements_eagerly(self):
        with pytest.raises(NodeConfigError):
            Machine.build("CNI16Qm", "io", num_nodes=2)


class TestCli:
    def test_fig6_quick_json_output(self, tmp_path, capsys):
        out = str(tmp_path / "out.json")
        cache = str(tmp_path / "cache")
        code = run_main([
            "fig6", "--quick", "--jobs", "2", "--json", out, "--cache-dir", cache,
        ])
        assert code == 0
        assert "Figure 6" in capsys.readouterr().out
        with open(out) as handle:
            payload = json.load(handle)
        assert payload["experiment"] == "fig6"
        assert payload["cache"]["misses"] > 0
        results = ResultSet.from_dict(payload)
        assert len(results) == 36  # 3 sizes x (5 memory + 4 io + 3 alternate)
        assert all(r.spec.kind == "latency" for r in results)

        # Second invocation: everything from cache, identical data points.
        out2 = str(tmp_path / "out2.json")
        assert run_main(["fig6", "--quick", "--json", out2, "--cache-dir", cache]) == 0
        with open(out2) as handle:
            payload2 = json.load(handle)
        # fig6 has 36 points but only 30 unique specs (the alternate panel
        # shares 6 with the memory/io panels); duplicates come from the
        # runner's in-process history, not the disk cache.  The CLI's memo
        # is a ResultStore, so the stats carry store counters too.
        assert payload2["cache"]["hits"] == 30
        assert payload2["cache"]["misses"] == 0
        assert payload2["cache"]["entries"] == 30
        assert ResultSet.from_dict(payload2) == results

    def test_tables_include_rows_in_json(self, tmp_path, capsys):
        out = str(tmp_path / "tables.json")
        assert run_main(["tables", "--no-cache", "--json", out]) == 0
        assert "Table 1" in capsys.readouterr().out
        with open(out) as handle:
            payload = json.load(handle)
        assert set(payload["tables"]) == {"table1", "table2", "table3", "table4"}

    def test_no_cache_flag_skips_cache_directory(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run_main(["occupancy", "--quick", "--nodes", "4", "--scale", "0.15",
                         "--no-cache"]) == 0
        assert "occupancy" in capsys.readouterr().out.lower()
        assert not os.path.exists(tmp_path / ".repro-cache")


class TestEngineKind:
    """Simulation-engine checks: the run-profile hook and the machine's
    rejection of inputs the engine cannot time."""

    def test_machine_run_programs_profile_hook(self):
        from repro.node.machine import Machine

        machine = Machine.build("CNI16Qm", "memory", num_nodes=2)

        def idle():
            yield 5

        machine.run_programs({0: idle()}, max_cycles=10_000, profile=True)
        assert machine.last_profile is not None
        assert machine.last_profile["events"] == machine.sim.event_count

    def test_cni4_rejects_messages_larger_than_its_cdr_window(self):
        from repro.common.params import DEFAULT_PARAMS
        from repro.ni.base import NIError
        from repro.node.machine import Machine

        with pytest.raises(NIError, match="CDR blocks"):
            Machine.build(
                "CNI4", "memory", num_nodes=2,
                params=DEFAULT_PARAMS.with_overrides(network_message_bytes=512),
            )

    def test_processor_compute_rejects_fractional_cycles(self):
        from repro.node.machine import Machine
        from repro.sim import SimulationError

        machine = Machine.build("NI2w", "memory", num_nodes=2)

        def program():
            yield from machine.nodes[0].processor.compute(12.5)

        machine.start()
        machine.nodes[0].processor.run_program(program())
        with pytest.raises(SimulationError):
            machine.sim.run()
