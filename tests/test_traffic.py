"""Tests for the kind/workload registries, synthetic traffic, and traces.

Covers the registry redesign (register/unregister round-trips, unknown
names, schema-version cache invalidation, legacy kinds dispatching through
the table unchanged), the seeded traffic generators (determinism serially,
under ``--jobs`` workers, and through the service dedup path), and trace
recording.
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
from repro.api.kinds import available_kinds, kind_spec
from repro.apps import (
    WorkloadError,
    available_workloads,
    create_workload,
    register_workload,
    unregister_workload,
    workload_names,
)
from repro.apps.workload import Workload
from repro.service.store import ResultStore
from repro.trace import TRACE_VERSION, TraceError, read_trace, record_trace, write_trace

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
        for kind in LEGACY_KINDS + ("traffic",):
            assert kind in available_kinds()

    def test_unknown_kind_is_spec_error(self):
        with pytest.raises(SpecError, match="unknown experiment kind"):
            ExperimentSpec(kind="nope").validate()
        with pytest.raises(SpecError, match="unknown experiment kind"):
            ExperimentSpec(kind="replay", workload="replay", num_nodes=4).validate()

    def test_register_unregister_round_trip(self):
        calls = []

        def measure(spec):
            calls.append(spec.kind)
            return {"cycles": 1.0}

        register_kind("custom-kind", measure, validate=lambda spec: None)
        try:
            assert "custom-kind" in available_kinds()
            spec = ExperimentSpec(kind="custom-kind", num_nodes=4).validate()
            result = run_point(spec)
            assert result.metrics["cycles"] == 1.0
            assert calls == ["custom-kind"]
        finally:
            unregister_kind("custom-kind")
        assert "custom-kind" not in available_kinds()
        with pytest.raises(SpecError):
            ExperimentSpec(kind="custom-kind").validate()

    def test_register_duplicate_raises_until_unregistered(self):
        register_kind("dup-kind", lambda spec: {})
        try:
            with pytest.raises(SpecError, match="already registered"):
                register_kind("dup-kind", lambda spec: {})
        finally:
            unregister_kind("dup-kind")
        register_kind("dup-kind", lambda spec: {"x": 1.0})
        unregister_kind("dup-kind")

    def test_builtins_are_protected(self):
        with pytest.raises(SpecError, match="built in"):
            unregister_kind("latency")
        with pytest.raises(SpecError, match="built in"):
            register_kind("macro", lambda spec: {})

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


# ----------------------------------------------------------------------
# Workload registry
# ----------------------------------------------------------------------
class TestWorkloadRegistry:
    def test_paper_workloads_registered_with_tags(self):
        assert workload_names("macro") == ["spsolve", "gauss", "em3d", "moldyn", "appbt"]
        assert "hang" in workload_names("diagnostic")
        assert set(workload_names("traffic")) == {"uniform", "hotspot", "transpose", "bursty"}
        assert set(workload_names("fine-grain")) == {"allreduce", "halo", "psrpc", "kv"}

    def test_tag_listings_track_the_registry(self):
        assert set(available_workloads("macro")) == {"spsolve", "gauss", "em3d", "moldyn", "appbt"}
        assert "hang" in available_workloads("diagnostic")

        @register_workload(tags=("macro",))
        class ExtraMacro(Workload):
            name = "extra-macro"

            def programs(self, machine):
                return [iter(()) for _ in machine.nodes]

        try:
            assert available_workloads("macro")["extra-macro"].cls is ExtraMacro
        finally:
            unregister_workload("extra-macro")
        assert "extra-macro" not in available_workloads("macro")

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
        other = run_point(ExperimentSpec(**{**TRAFFIC, "seed": 99})).metrics
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
# Trace recording
# ----------------------------------------------------------------------
class TestTraceRoundTrip:
    def _record(self, tmp_path, workload="gauss", **spec_kwargs):
        fields = dict(kind="macro", device="CNI16Qm", bus="memory",
                      workload=workload, num_nodes=4, scale=0.25)
        spec = ExperimentSpec(**{**fields, **spec_kwargs})
        trace = str(tmp_path / f"{workload}.json.gz")
        return spec, trace, record_trace(spec, trace)

    def test_traffic_runs_are_recordable_too(self, tmp_path):
        spec = ExperimentSpec(**TRAFFIC).validate()
        trace = str(tmp_path / "uniform.json")
        summary = record_trace(spec, trace)
        metrics = run_point(spec).metrics
        assert summary.messages == metrics["network_messages"]
        assert summary.payload_bytes == metrics["payload_bytes"]

    def test_recording_is_pure_observation(self, tmp_path):
        # A recorded run finishes in exactly the cycles an unrecorded one does.
        spec, trace, summary = self._record(tmp_path)
        assert summary.cycles == run_point(spec).metrics["cycles"]

    @pytest.mark.parametrize(
        "device,bus",
        [("NI2w", "memory"), ("NI2w", "io"), ("CNI4", "memory"), ("CNI512Q", "io")],
    )
    def test_recording_is_pure_observation_on_every_ni(self, tmp_path, device, bus):
        # NI2w and CNI4 elide their uncached-status spins; wrapping
        # proc_try_send must leave that timing exact too.
        spec, _, summary = self._record(tmp_path, device=device, bus=bus)
        metrics = run_point(spec).metrics
        assert summary.cycles == metrics["cycles"]
        assert summary.messages == metrics["network_messages"]

    def test_only_the_send_times_depend_on_the_ni(self, tmp_path):
        # Each node sends the same messages in the same order on every NI;
        # the gaps between sends are the recording device's own.
        _, fast, _ = self._record(tmp_path / "cni", device="CNI16Qm", bus="memory")
        _, slow, _ = self._record(tmp_path / "ni2w", device="NI2w", bus="io")
        (_, fast_events), (_, slow_events) = read_trace(fast), read_trace(slow)

        def sends(events):
            return [[event[1:] for event in stream] for stream in events]

        assert sends(fast_events) == sends(slow_events)
        assert fast_events != slow_events

    def test_recording_is_deterministic(self, tmp_path):
        _, first, _ = self._record(tmp_path / "first")
        _, second, _ = self._record(tmp_path / "second")
        with open(first, "rb") as a, open(second, "rb") as b:
            assert a.read() == b.read()

    def test_trace_file_round_trips(self, tmp_path):
        _, trace, summary = self._record(tmp_path)
        header, events = read_trace(trace)
        assert header["messages"] == summary.messages == sum(len(s) for s in events)
        assert header["digest"] == summary.digest
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

    def test_plain_and_gzip_traces_read_alike(self, tmp_path):
        events = [[[0, 1, 64], [12, 1, 8]], [[5, 0, 64]]]
        plain, packed = str(tmp_path / "t.json"), str(tmp_path / "t.json.gz")
        header = write_trace(plain, {"workload": "probe"}, events)
        assert write_trace(packed, {"workload": "probe"}, events) == header
        assert (header["messages"], header["payload_bytes"]) == (3, 136)
        assert read_trace(plain) == read_trace(packed) == (header, events)

    def test_unreadable_file_is_trace_error(self, tmp_path):
        with pytest.raises(TraceError, match="cannot read"):
            read_trace(str(tmp_path / "missing.json"))
        garbage = tmp_path / "garbage.json.gz"
        garbage.write_bytes(b"not gzip at all")
        with pytest.raises(TraceError, match="cannot read"):
            read_trace(str(garbage))

    @pytest.mark.parametrize(
        "field,value,match",
        [
            ("format", "other-trace", "not a repro-trace file"),
            ("version", TRACE_VERSION + 1, "trace version"),
            ("num_nodes", 3, "num_nodes"),
            ("events", None, "missing trace field"),
        ],
        ids=["format", "version", "num_nodes", "events"],
    )
    def test_malformed_trace_is_trace_error(self, tmp_path, field, value, match):
        trace = str(tmp_path / "t.json")
        write_trace(trace, {"workload": "probe"}, [[[0, 1, 64]], [[3, 0, 8]]])
        with open(trace) as fh:
            document = json.load(fh)
        if value is None:
            del document[field]
        else:
            document[field] = value
        with open(trace, "w") as fh:
            json.dump(document, fh)
        with pytest.raises(TraceError, match=match):
            read_trace(trace)

    def test_non_recordable_kind_is_rejected(self):
        with pytest.raises(SpecError, match="record"):
            record_trace(ExperimentSpec(kind="latency"), "/tmp/never-written.json")
