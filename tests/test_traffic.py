"""Tests for the kind/workload registries, synthetic traffic, and traces.

Covers the registry redesign (register/unregister round-trips, unknown
names, schema-version cache invalidation, legacy kinds dispatching through
the table unchanged), the seeded traffic generators (determinism serially,
under ``--jobs`` workers, and through the service dedup path), and the
trace record/replay fidelity contract.
"""

import json

import pytest

from repro.api import (
    ExperimentSpec,
    SpecError,
    SweepRunner,
    register_kind,
    run_point,
    traffic_sweep,
    unregister_kind,
)
from repro.api.kinds import (
    KINDS,
    available_kinds,
    cache_suffix,
    folds_workload_schema,
    kind_spec,
)
from repro.apps import (
    DIAGNOSTIC_WORKLOADS,
    MACROBENCHMARKS,
    WorkloadError,
    available_workloads,
    create_workload,
    register_workload,
    unregister_workload,
    workload_names,
)
from repro.apps.workload import Workload
from repro.service.store import ResultStore
from repro.trace import TraceError, read_trace, record_trace, trace_digest
from repro.trace.replay import TraceReplayWorkload

import repro.traffic  # noqa: F401 — register the shipped patterns

#: A small, fast traffic point used throughout.
TRAFFIC = dict(
    kind="traffic", device="CNI16Qm", bus="memory", workload="uniform",
    num_nodes=4, scale=0.25,
)

LEGACY_KINDS = ("latency", "bandwidth", "macro")


# ----------------------------------------------------------------------
# Kind registry
# ----------------------------------------------------------------------
class TestKindRegistry:
    def test_builtin_kinds_registered(self):
        for kind in LEGACY_KINDS + ("traffic", "replay"):
            assert kind in KINDS
            assert kind in available_kinds()

    def test_unknown_kind_is_spec_error(self):
        with pytest.raises(SpecError, match="unknown experiment kind"):
            ExperimentSpec(kind="nope").validate()

    def test_register_unregister_round_trip(self):
        calls = []

        def measure(spec):
            calls.append(spec.kind)
            return {"cycles": 1.0}

        register_kind("custom-kind", measure, validate=lambda spec: None)
        try:
            assert "custom-kind" in KINDS
            spec = ExperimentSpec(kind="custom-kind", num_nodes=4).validate()
            result = run_point(spec)
            assert result.metrics["cycles"] == 1.0
            assert calls == ["custom-kind"]
        finally:
            unregister_kind("custom-kind")
        assert "custom-kind" not in KINDS
        with pytest.raises(SpecError):
            ExperimentSpec(kind="custom-kind").validate()

    def test_register_duplicate_requires_replace(self):
        register_kind("dup-kind", lambda spec: {})
        try:
            with pytest.raises(SpecError, match="already registered"):
                register_kind("dup-kind", lambda spec: {})
            register_kind("dup-kind", lambda spec: {"x": 1.0}, replace=True)
        finally:
            unregister_kind("dup-kind")

    def test_builtins_are_protected(self):
        with pytest.raises(SpecError, match="built-in"):
            unregister_kind("latency")
        with pytest.raises(SpecError):
            register_kind("macro", lambda spec: {}, replace=True)

    def test_unregister_unknown_kind(self):
        with pytest.raises(SpecError, match="unknown experiment kind"):
            unregister_kind("never-registered")

    def test_legacy_kinds_dispatch_through_table(self):
        # The if/elif chain is gone: each legacy kind resolves to a
        # KindSpec whose hooks drive validation and measurement.
        for kind in LEGACY_KINDS:
            info = kind_spec(kind)
            assert info.name == kind
            assert callable(info.measure)

    def test_only_new_kinds_fold_workload_schema(self):
        for kind in LEGACY_KINDS:
            assert not folds_workload_schema(kind)
            assert cache_suffix(ExperimentSpec(kind=kind)) == ""
        assert folds_workload_schema("traffic")
        assert folds_workload_schema("replay")


# ----------------------------------------------------------------------
# Workload registry
# ----------------------------------------------------------------------
class TestWorkloadRegistry:
    def test_paper_workloads_registered_with_tags(self):
        assert workload_names("macro") == ["spsolve", "gauss", "em3d", "moldyn", "appbt"]
        assert "hang" in workload_names("diagnostic")
        assert set(workload_names("traffic")) == {"uniform", "hotspot", "transpose", "bursty"}
        assert set(workload_names("fine-grain")) == {"allreduce", "halo", "psrpc", "kv"}
        assert "replay" in workload_names("trace")

    def test_legacy_dict_views_are_live_and_read_only(self):
        assert set(MACROBENCHMARKS) == {"spsolve", "gauss", "em3d", "moldyn", "appbt"}
        assert "hang" in DIAGNOSTIC_WORKLOADS
        with pytest.raises(TypeError):
            MACROBENCHMARKS["new"] = object  # Mapping views reject writes

        @register_workload(tags=("macro",))
        class ExtraMacro(Workload):
            name = "extra-macro"

            def programs(self, machine):
                return [iter(()) for _ in machine.nodes]

        try:
            assert "extra-macro" in MACROBENCHMARKS  # view sees new entries
        finally:
            unregister_workload("extra-macro")
        assert "extra-macro" not in MACROBENCHMARKS

    def test_unknown_workload_names_nearest_match(self):
        with pytest.raises(WorkloadError, match="unifrom"):
            create_workload("unifrom")
        try:
            create_workload("unifrom")
        except WorkloadError as exc:
            assert "uniform" in str(exc)  # difflib hint points at the fix

    def test_traffic_spec_rejects_non_traffic_workload(self):
        with pytest.raises(SpecError, match="unknown traffic pattern"):
            ExperimentSpec(**{**TRAFFIC, "workload": "gauss"}).validate()

    def test_available_workloads_filters_by_tag(self):
        every = available_workloads()
        assert set(workload_names("traffic")) <= set(every)
        assert set(available_workloads(tag="traffic")) == set(workload_names("traffic"))


# ----------------------------------------------------------------------
# Schema-version cache identity
# ----------------------------------------------------------------------
class TestSchemaVersionCache:
    def test_schema_bump_invalidates_traffic_keys_only(self, tmp_path, monkeypatch):
        cache = ResultStore(str(tmp_path))
        traffic = ExperimentSpec(**TRAFFIC).validate()
        legacy = ExperimentSpec(kind="latency", message_bytes=8, iterations=3, warmup=1)
        traffic_key = cache.cache_key(traffic)
        legacy_key = cache.cache_key(legacy)
        monkeypatch.setattr("repro.apps.registry.WORKLOAD_SCHEMA_VERSION", 999)
        assert cache.cache_key(traffic) != traffic_key
        assert cache.cache_key(legacy) == legacy_key

    def test_stale_schema_stamp_entry_is_a_miss(self, tmp_path, monkeypatch):
        cache_dir = str(tmp_path / "cache")
        spec = ExperimentSpec(**TRAFFIC).validate()
        runner = SweepRunner(cache_dir=cache_dir)
        first = runner.run_one(spec)
        assert SweepRunner(cache_dir=cache_dir).run_one(spec).cached
        monkeypatch.setattr("repro.apps.registry.WORKLOAD_SCHEMA_VERSION", 999)
        rerun = SweepRunner(cache_dir=cache_dir).run_one(spec)
        assert not rerun.cached  # key widened: old entry unreachable
        assert rerun.metrics == first.metrics

    def test_replay_key_folds_trace_digest(self, tmp_path):
        trace_a = str(tmp_path / "a.json")
        trace_b = str(tmp_path / "b.json")
        base = ExperimentSpec(kind="macro", device="CNI16Qm", bus="memory",
                              workload="gauss", num_nodes=4, scale=0.25)
        record_trace(base, trace_a)
        record_trace(
            ExperimentSpec(kind="macro", device="CNI16Qm", bus="memory",
                           workload="em3d", num_nodes=4, scale=0.25),
            trace_b,
        )
        cache = ResultStore(str(tmp_path / "cache"))
        key_a = cache.cache_key(_replay_spec(trace_a))
        key_b = cache.cache_key(_replay_spec(trace_b))
        assert key_a != key_b
        # Same digest at a different path -> same identity suffix.
        assert trace_digest(trace_a) in cache_suffix(_replay_spec(trace_a))


def _replay_spec(trace, **overrides):
    base = dict(kind="replay", device="CNI16Qm", bus="memory", workload="replay",
                num_nodes=4, workload_kwargs={"trace": trace})
    base.update(overrides)
    return ExperimentSpec(**base)


# ----------------------------------------------------------------------
# Seeded traffic determinism
# ----------------------------------------------------------------------
class TestTrafficDeterminism:
    def test_every_pattern_runs_and_reports_network_metrics(self):
        for pattern in workload_names("traffic") + workload_names("fine-grain"):
            spec = ExperimentSpec(**{**TRAFFIC, "workload": pattern}).validate()
            metrics = run_point(spec).metrics
            assert metrics["network_messages"] > 0, pattern
            assert metrics["messages_delivered"] == metrics["network_messages"]
            assert metrics["delivered_mbps"] > 0, pattern

    def test_serial_repeat_is_bit_identical(self):
        spec = ExperimentSpec(**TRAFFIC)
        assert run_point(spec).metrics == run_point(spec).metrics

    def test_seed_changes_uniform_traffic(self):
        base = run_point(ExperimentSpec(**TRAFFIC)).metrics
        other = run_point(
            ExperimentSpec(**{**TRAFFIC, "workload_kwargs": {"seed": 99}})
        ).metrics
        assert base["cycles"] != other["cycles"]

    def test_parallel_jobs_equal_serial(self):
        sweep = traffic_sweep(
            patterns=("uniform", "hotspot"),
            configs=(("CNI16Qm", "memory"), ("NI2w", "memory")),
            num_nodes=4,
            scale=0.25,
        )
        serial = SweepRunner(jobs=1).run(sweep)
        parallel = SweepRunner(jobs=2).run(sweep)
        assert parallel == serial

    def test_service_dedup_path_serves_identical_metrics(self, tmp_path):
        from repro.service.http import ExperimentService
        from repro.service.store import ResultStore

        service = ExperimentService(ResultStore(str(tmp_path / "store")))
        spec = ExperimentSpec(**TRAFFIC).validate()
        key_first, role_first = service.run_spec(spec)
        key_again, role_again = service.run_spec(spec)
        assert key_first == key_again
        assert role_first == "leader"
        assert role_again == "store"  # second call served from the store
        stored = service.store.get(spec)
        assert stored.metrics == run_point(spec).metrics


# ----------------------------------------------------------------------
# Trace record/replay
# ----------------------------------------------------------------------
class TestTraceRoundTrip:
    def _record(self, tmp_path, workload="gauss", **spec_kwargs):
        spec = ExperimentSpec(kind="macro", device="CNI16Qm", bus="memory",
                              workload=workload, num_nodes=4, scale=0.25,
                              **spec_kwargs)
        trace = str(tmp_path / f"{workload}.json.gz")
        return spec, trace, record_trace(spec, trace)

    def test_same_config_replay_is_exact(self, tmp_path):
        spec, trace, summary = self._record(tmp_path)
        metrics = run_point(_replay_spec(trace)).metrics
        assert metrics["network_messages"] == summary.messages
        assert metrics["payload_bytes"] == summary.payload_bytes
        assert metrics["trace_messages"] == summary.messages
        assert metrics["trace_payload_bytes"] == summary.payload_bytes

    def test_cross_device_replay_keeps_counts(self, tmp_path):
        _, trace, summary = self._record(tmp_path)
        for device, bus in (("NI2w", "memory"), ("CNI4Q", "memory")):
            metrics = run_point(_replay_spec(trace, device=device, bus=bus)).metrics
            assert metrics["network_messages"] == summary.messages
            assert metrics["payload_bytes"] == summary.payload_bytes

    def test_traffic_runs_are_recordable_too(self, tmp_path):
        spec = ExperimentSpec(**TRAFFIC).validate()
        trace = str(tmp_path / "uniform.json")
        summary = record_trace(spec, trace)
        assert summary.messages == run_point(spec).metrics["network_messages"]
        metrics = run_point(_replay_spec(trace)).metrics
        assert metrics["network_messages"] == summary.messages

    def test_recording_is_pure_observation(self, tmp_path):
        # A recorded run finishes in exactly the cycles an unrecorded one does.
        spec, trace, summary = self._record(tmp_path)
        assert summary.cycles == run_point(spec).metrics["cycles"]

    def test_trace_file_round_trips(self, tmp_path):
        _, trace, summary = self._record(tmp_path)
        header, events = read_trace(trace)
        assert header["messages"] == summary.messages == sum(len(s) for s in events)
        assert header["digest"] == summary.digest == trace_digest(trace)
        assert header["config"]["workload"] == "gauss"

    def test_tampered_trace_is_rejected(self, tmp_path):
        _, trace, _ = self._record(tmp_path, workload="em3d")
        import gzip

        document = json.loads(gzip.decompress(open(trace, "rb").read()))
        document["events"][0][0][2] += 1  # silently grow one payload
        with open(trace, "wb") as fh:
            fh.write(gzip.compress(json.dumps(document).encode()))
        with pytest.raises(TraceError, match="digest"):
            read_trace(trace)

    def test_replay_validates_node_count_and_pacing(self, tmp_path):
        _, trace, _ = self._record(tmp_path)
        with pytest.raises(SpecError, match="4 nodes"):
            _replay_spec(trace, num_nodes=8).validate()
        with pytest.raises(ValueError, match="pacing"):
            TraceReplayWorkload(trace=trace, pacing="warp")
        with pytest.raises(ValueError, match="trace"):
            TraceReplayWorkload()

    def test_replay_spec_requires_readable_trace(self, tmp_path):
        with pytest.raises(SpecError, match="trace"):
            _replay_spec(str(tmp_path / "missing.json")).validate()
        with pytest.raises(SpecError, match="trace"):
            ExperimentSpec(kind="replay", workload="replay", num_nodes=4).validate()

    def test_non_recordable_kind_is_rejected(self):
        with pytest.raises(SpecError, match="record"):
            record_trace(ExperimentSpec(kind="latency"), "/tmp/never-written.json")

    def test_asap_pacing_preserves_counts(self, tmp_path):
        _, trace, summary = self._record(tmp_path)
        spec = _replay_spec(trace, workload_kwargs={"trace": trace, "pacing": "asap"})
        metrics = run_point(spec).metrics
        assert metrics["network_messages"] == summary.messages
        assert metrics["payload_bytes"] == summary.payload_bytes
