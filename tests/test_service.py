"""Tests for the experiment service: store, dedup registry, HTTP layer.

Covers the satellite requirements: concurrent same-key writers race safely
(atomic rename), ≥100 concurrent identical requests run exactly one
simulation and all receive the same bit-identical result, the warm read
path serves without constructing a Machine and honours ``If-None-Match``
with 304, LRU eviction never touches pinned entries, worker cache counters
aggregate back into the parent runner, and the admin CLI prunes dead
entries.  Over one keep-alive connection, each fixed-length response leaves
in one send on a ``TCP_NODELAY`` socket and says where its time went in
``Server-Timing``.
"""

from __future__ import annotations

import contextlib
import hashlib
import http.client
import json
import multiprocessing
import os
import re
import socket
import struct
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest

from conftest import FIXED_MACHINE_CONSTANTS, fixed_constant_override
from repro.api import ExperimentSpec, RunResult, SweepRunner, run_point
from repro.api.runner import _run_point_payload
from repro.service import (
    DedupError,
    ExperimentService,
    InFlightRegistry,
    ResultStore,
    make_server,
)
from repro.common.params import ParameterError
from repro.ni import TaxonomyError
from repro.node.node import NodeConfigError
from repro.service.admin import main as admin_main

QUICK = dict(
    kind="latency", device="NI2w", bus="memory",
    message_bytes=16, iterations=2, warmup=0,
)


def quick_spec(**overrides) -> ExperimentSpec:
    return ExperimentSpec(**{**QUICK, **overrides})


@pytest.fixture()
def store(tmp_path) -> ResultStore:
    return ResultStore(str(tmp_path / "store"))


# ---------------------------------------------------------------------------
# ResultStore
# ---------------------------------------------------------------------------
class TestResultStore:
    def test_round_trip_is_bit_identical(self, store):
        spec = quick_spec()
        direct = run_point(spec)
        store.put(direct)
        served = store.get(spec)
        assert served == direct  # spec + exact metrics (equality ignores provenance)
        assert served.cached
        assert store.stats()["hits"] == 1

    def test_sharded_two_level_layout(self, store):
        spec = quick_spec()
        path = store.put(run_point(spec))
        key = store.cache_key(spec)
        assert path == os.path.join(store.directory, key[:2], key[2:4], f"{key}.json")
        assert os.listdir(os.path.dirname(path)) == [f"{key}.json"]

    def test_one_file_per_entry_and_reads_change_no_bytes(self, store):
        specs = [quick_spec(message_bytes=size) for size in (8, 16)]
        for spec in specs:
            store.put(run_point(spec))

        def files():
            out = {}
            for root, _, names in os.walk(store.directory):
                for name in names:
                    with open(os.path.join(root, name), "rb") as handle:
                        out[os.path.relpath(os.path.join(root, name), store.directory)] = handle.read()
            return out

        before = files()
        assert sorted(before) == sorted(
            os.path.relpath(store.path_for(spec), store.directory) for spec in specs
        )
        for spec in specs:
            key = store.cache_key(spec)
            assert store.get(spec) is not None and store.peek(spec) is not None
            assert store.read_entry(key) is not None
            assert store.read_entry(key, spec) is not None
        assert files() == before

    def test_miss_on_empty_store(self, store):
        assert store.get(quick_spec()) is None
        assert store.stats()["misses"] == 1

    def test_peek_is_counter_neutral(self, store):
        spec = quick_spec()
        assert store.peek(spec) is None
        store.put(run_point(spec))
        assert store.peek(spec) is not None
        stats = store.stats()
        assert stats["hits"] == 0 and stats["misses"] == 0

    def test_corrupt_entry_is_a_miss_and_gc_prunes_it(self, store):
        spec = quick_spec()
        store.put(run_point(spec))
        with open(store.path_for(spec), "w") as handle:
            handle.write("{ torn json")
        assert store.get(spec) is None
        report = store.gc()
        assert report["corrupt"] == 1
        assert not os.path.exists(store.path_for(spec))

    def test_schema_bump_moves_every_kind_and_gc_prunes_old_entries(
        self, store, monkeypatch
    ):
        import repro.service.store as store_module

        specs = [
            quick_spec(),
            ExperimentSpec(kind="macro", device="CNI16Qm", workload="gauss",
                           num_nodes=4, scale=0.25),
            ExperimentSpec(kind="traffic", device="CNI16Qm", workload="uniform",
                           num_nodes=4, scale=0.25),
        ]
        # The store never looks inside metrics, so made-up ones do here.
        for spec in specs:
            store.put(RunResult(spec=spec, metrics={"cycles": 1.0}))
        old = {spec.kind: store.cache_key(spec) for spec in specs}
        monkeypatch.setattr(
            store_module, "STORE_SCHEMA_VERSION", store_module.STORE_SCHEMA_VERSION + 1
        )
        for spec in specs:
            assert store.cache_key(spec) != old[spec.kind]
            assert store.get(spec) is None
            # An entry of another schema is stale even read by its own key.
            assert store.read_entry(old[spec.kind], spec) is None
        infos = {info.key: info for info in store.entries(include_invalid=True)}
        assert {infos[key].state for key in old.values()} == {"stale"}
        assert {infos[key].kind for key in old.values()} == {"latency", "macro", "traffic"}
        assert store.gc()["stale"] == 3
        assert store.stats()["entries"] == 0

    def test_gc_dry_run_keeps_files(self, store):
        spec = quick_spec()
        store.put(run_point(spec))
        with open(store.path_for(spec), "w") as handle:
            handle.write("broken")
        report = store.gc(dry_run=True)
        assert report["corrupt"] == 1
        assert os.path.exists(store.path_for(spec))

    def test_lru_eviction_honours_budget_and_pins(self, tmp_path):
        store = ResultStore(str(tmp_path / "s"))
        specs = [quick_spec(message_bytes=1 << i) for i in range(3, 8)]
        results = [run_point(s) for s in specs]
        for result in results:
            store.put(result)
        entry_size = os.path.getsize(store.path_for(specs[0]))
        # Pin the *oldest* entry — LRU would otherwise evict it first.
        pinned_key = store.cache_key(specs[0])
        assert store.pin(pinned_key)
        # Touch entry 1 so it is the most recently hit.
        time.sleep(0.01)
        assert store.get(specs[1]) is not None
        budget = int(entry_size * 2.5)  # room for ~2 entries
        evicted = store.enforce_budget(budget)
        assert evicted >= 2
        # The pinned entry survived even though it is least-recently-hit.
        assert store.peek(specs[0]) is not None
        # The freshly-hit entry survived the LRU pass.
        assert store.peek(specs[1]) is not None
        assert store.stats()["evictions"] == evicted
        assert store.total_bytes() <= budget + entry_size  # pinned overhang allowed

    def test_put_with_budget_evicts_inline(self, tmp_path):
        spec = quick_spec()
        size = os.path.getsize(ResultStore(str(tmp_path / "probe")).put(run_point(spec)))
        store = ResultStore(str(tmp_path / "s"), budget_bytes=int(size * 2.2))
        for i in range(4):
            store.put(run_point(quick_spec(message_bytes=8 << i)))
        assert store.stats()["entries"] <= 2

    def test_pin_unpin_and_prefix_resolution(self, store):
        spec = quick_spec()
        store.put(run_point(spec))
        key = store.cache_key(spec)
        assert store.resolve_key(key[:8]) == [key]
        assert store.pin(key)
        assert store.stats()["pinned"] == 1
        assert store.pin(key, pinned=False)
        assert store.stats()["pinned"] == 0
        assert not store.pin("f" * 64)  # unknown key

    def test_pin_survives_hits_and_another_stores_put(self, store):
        spec = quick_spec()
        result = run_point(spec)
        store.put(result)
        key = store.cache_key(spec)
        assert store.pin(key)
        assert store.get(spec) is not None and store.read_entry(key) is not None
        # A second store on the directory writes the key again, with bytes
        # that differ from the first entry's (another wall time).
        result.elapsed_s += 1.0
        ResultStore(store.directory).put(result)
        [info] = store.entries()
        assert info.pinned
        assert store.enforce_budget(0) == 0
        data, etag = store.read_entry(key)
        assert json.loads(data)["elapsed_s"] == result.elapsed_s
        assert etag == hashlib.sha256(data).hexdigest()

    def test_budget_evicts_by_last_hit_never_a_pinned_entry(self, store):
        # Equal-width sizes keep every entry the same number of bytes.
        specs = [quick_spec(message_bytes=size) for size in (16, 32, 48, 64)]
        for age, spec in enumerate(reversed(specs)):
            path = store.put(RunResult(spec=spec, metrics={"value": 1.0}))
            os.utime(path, (1000.0 + age, 1000.0 + age))  # specs[0] newest
        assert store.pin(store.cache_key(specs[3]))  # the oldest
        assert store.get(specs[2]) is not None  # now the last hit
        size = os.path.getsize(store.path_for(specs[0]))
        assert store.enforce_budget(2 * size) == 2
        kept = {spec.message_bytes for spec in specs if store.peek(spec) is not None}
        assert kept == {48, 64}

    def test_clear_removes_entries_and_ignores_flat_files(self, tmp_path):
        """A flat ``<kind>-<key>.json`` file in the store root (the layout
        older versions wrote) is never read, listed or removed."""
        cache_dir = str(tmp_path / "c")
        store = ResultStore(cache_dir)
        flat_spec = quick_spec()
        flat_key = store.cache_key(flat_spec)
        flat = os.path.join(cache_dir, f"latency-{flat_key}.json")
        os.makedirs(cache_dir)
        with open(flat, "w") as handle:
            handle.write(run_point(flat_spec).to_json())
        assert store.get(flat_spec) is None
        assert store.read_entry(flat_key) is None
        assert not store.pin(flat_key)
        store.put(run_point(quick_spec(message_bytes=32)))
        assert [info.key for info in store.entries(include_invalid=True)] == [
            store.cache_key(quick_spec(message_bytes=32))
        ]
        assert store.clear() == 1
        assert store.stats()["entries"] == 0
        assert os.path.exists(flat)

    def test_read_entry_serves_bytes_and_stable_etag(self, store):
        spec = quick_spec()
        store.put(run_point(spec))
        key = store.cache_key(spec)
        data, etag = store.read_entry(key)
        data2, etag2 = store.read_entry(key)
        assert data == data2 and etag == etag2
        assert RunResult.from_dict(json.loads(data)) == run_point(spec)
        assert store.read_entry("f" * 64) is None

    def test_entry_of_a_removed_kind_stays_readable_by_key(self, store):
        # No migration: an entry whose kind is no longer registered (a
        # stored replay result, say) is served by key until it is evicted
        # or cleared, though no spec of that kind validates any more.
        spec = ExperimentSpec(kind="replay", workload="replay", num_nodes=4)
        store.put(RunResult(spec=spec, metrics={"cycles": 1234.0}))
        key = store.cache_key(spec)
        data, _ = store.read_entry(key)
        assert json.loads(data)["metrics"] == {"cycles": 1234.0}
        [info] = store.entries(include_invalid=True)
        assert (info.kind, info.state) == ("replay", "ok")
        store.gc()
        assert store.read_entry(key) is not None
        assert store.clear() == 1
        assert store.read_entry(key) is None

    def test_hit_sets_last_hit_mtime_and_peek_does_not(self, store):
        spec = quick_spec()
        path = store.put(run_point(spec))
        key = store.cache_key(spec)
        os.utime(path, (1000.0, 1000.0))
        store.peek(spec)
        [info] = store.entries()
        assert info.last_hit == 1000.0
        for read in (lambda: store.get(spec), lambda: store.read_entry(key),
                     lambda: store.read_entry(key, spec)):
            os.utime(path, (1000.0, 1000.0))
            assert read() is not None
            assert os.path.getmtime(path) > 1000.0


def _hammer_put(directory: str, spec_dict: dict, rounds: int, barrier) -> None:
    spec = ExperimentSpec.from_dict(spec_dict)
    result = run_point(spec)
    store = ResultStore(directory)
    barrier.wait()
    for _ in range(rounds):
        store.put(result)


class TestConcurrentWriters:
    def test_two_processes_storing_same_key_race_safely(self, tmp_path):
        """Atomic tempfile+rename: racing same-key writers never tear the
        entry — every read mid-race returns a complete, valid document."""
        directory = str(tmp_path / "race")
        spec = quick_spec()
        expected = run_point(spec)
        barrier = multiprocessing.Barrier(3)
        procs = [
            multiprocessing.Process(
                target=_hammer_put, args=(directory, spec.to_dict(), 60, barrier)
            )
            for _ in range(2)
        ]
        for proc in procs:
            proc.start()
        barrier.wait()
        reader = ResultStore(directory)
        observed = 0
        while any(p.is_alive() for p in procs):
            result = reader.peek(spec)
            if result is not None:
                assert result == expected
                observed += 1
        for proc in procs:
            proc.join()
            assert proc.exitcode == 0
        assert observed > 0
        assert reader.get(spec) == expected
        assert reader.stats()["entries"] == 1


# ---------------------------------------------------------------------------
# InFlightRegistry
# ---------------------------------------------------------------------------
class TestInFlightRegistry:
    def test_hundred_waiters_one_compute(self):
        registry = InFlightRegistry()
        spec = quick_spec()
        expected = run_point(spec)
        calls = []
        gate = threading.Event()
        box = {}

        def compute():
            calls.append(threading.get_ident())
            gate.wait(10)
            box["result"] = expected
            return expected

        results = []
        threads = [
            threading.Thread(
                target=lambda: results.append(
                    registry.run_or_wait(
                        "a" * 64, compute, fetch=lambda: box.get("result")
                    )
                )
            )
            for _ in range(100)
        ]
        for thread in threads:
            thread.start()
        # Release the leader only once every thread has entered the registry.
        deadline = time.time() + 10
        while registry.stats()["deduped"] < 99 and time.time() < deadline:
            time.sleep(0.005)
        gate.set()
        for thread in threads:
            thread.join(15)
        assert len(calls) == 1, "exactly one simulation across 100 waiters"
        assert len(results) == 100
        values, roles = zip(*results)
        assert all(v == expected for v in values)
        assert roles.count("leader") == 1
        stats = registry.stats()
        assert stats["leaders"] == 1
        assert stats["deduped"] == 99
        assert stats["in_flight"] == 0

    def test_leader_failure_propagates_to_followers(self):
        registry = InFlightRegistry()
        started = threading.Event()
        release = threading.Event()

        def compute():
            started.set()
            release.wait(10)
            raise RuntimeError("simulated crash")

        errors = []

        def leader():
            try:
                registry.run_or_wait("b" * 64, compute, fetch=lambda: None)
            except RuntimeError as exc:
                errors.append(exc)

        def follower():
            try:
                registry.run_or_wait("b" * 64, compute, fetch=lambda: None)
            except (DedupError, RuntimeError) as exc:
                errors.append(exc)

        t1 = threading.Thread(target=leader)
        t1.start()
        started.wait(10)
        t2 = threading.Thread(target=follower)
        t2.start()
        while registry.stats()["followers"] < 1:
            time.sleep(0.005)
        release.set()
        t1.join(10)
        t2.join(10)
        assert len(errors) == 2
        assert registry.stats()["failures"] == 1

    def test_counters_and_results_hold_under_fast_thread_switching(self):
        """16 threads x 50 calls on 4 keys, none ever stored, so every call
        leads or follows a flight; the interpreter switches threads as often
        as it can.  A lost update to the table or a counter breaks the sums."""
        registry = InFlightRegistry()
        lock = threading.Lock()
        computed, outcomes = [], []

        def compute(key):
            with lock:
                computed.append(key)
            return key

        def client(key):
            for _ in range(50):
                result, role = registry.run_or_wait(key, lambda: compute(key), lambda: None)
                with lock:
                    outcomes.append((key, result, role))

        threads = [
            threading.Thread(target=client, args=("%064x" % (index % 4),))
            for index in range(16)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(outcomes) == 16 * 50
        assert all(result == key for key, result, _ in outcomes)
        roles = [role for _, _, role in outcomes]
        stats = registry.stats()
        assert stats["in_flight"] == 0
        assert stats["leaders"] == len(computed) == roles.count("leader")
        assert stats["followers"] == roles.count("follower") == 16 * 50 - len(computed)


# ---------------------------------------------------------------------------
# HTTP service
# ---------------------------------------------------------------------------
@contextlib.contextmanager
def _serving(svc, wrap_handler=lambda handler: handler):
    server = make_server(svc)
    server.RequestHandlerClass = wrap_handler(server.RequestHandlerClass)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    svc.address = server.server_address[:2]
    svc.base_url = "http://%s:%d" % svc.address
    try:
        yield svc
    finally:
        server.shutdown()
        server.server_close()


@pytest.fixture()
def service(tmp_path):
    with _serving(ExperimentService(ResultStore(str(tmp_path / "store")), jobs=1)) as svc:
        yield svc


def _request(
    url: str,
    data: bytes = None,
    headers: dict = None,
    method: str = None,
):
    """(status, headers, body) — 4xx/3xx returned, not raised."""
    req = urllib.request.Request(url, data=data, headers=headers or {}, method=method)
    try:
        with urllib.request.urlopen(req, timeout=60) as resp:
            return resp.status, dict(resp.headers), resp.read()
    except urllib.error.HTTPError as err:
        return err.code, dict(err.headers), err.read()


class TestHttpService:
    def test_post_run_cold_then_warm(self, service):
        spec = quick_spec()
        body = json.dumps(spec.to_dict()).encode()
        status, headers, payload = _request(service.base_url + "/run", data=body)
        assert status == 200
        assert headers["X-Repro-Role"] == "leader"
        served = RunResult.from_dict(json.loads(payload))
        assert served == run_point(spec)  # bit-identical to a direct run
        hits = service.store.hits
        status2, headers2, payload2 = _request(service.base_url + "/run", data=body)
        assert status2 == 200
        assert headers2["X-Repro-Role"] == "store"
        assert payload2 == payload
        assert headers2["ETag"] == f'"{hashlib.sha256(payload2).hexdigest()}"'
        # One warm POST /run is one hit: one store read.
        assert service.store.hits == hits + 1
        assert service.counters["runs_completed"] == 1
        assert service.counters["store_served"] == 1

    def test_post_run_plugin_kind_is_stored_then_served(self, service):
        from repro.api import register_kind, unregister_kind

        register_kind("store-probe", lambda spec: {"value": 3.0})
        try:
            body = json.dumps({"kind": "store-probe"}).encode()
            status, headers, payload = _request(service.base_url + "/run", data=body)
            status2, headers2, payload2 = _request(service.base_url + "/run", data=body)
        finally:
            unregister_kind("store-probe")
        assert (status, headers["X-Repro-Role"]) == (200, "leader")
        assert (status2, headers2["X-Repro-Role"]) == (200, "store")
        assert payload2 == payload
        assert json.loads(payload)["metrics"] == {"value": 3.0}

    def test_post_run_accepts_wrapped_spec(self, service):
        body = json.dumps({"spec": quick_spec().to_dict()}).encode()
        status, _, _ = _request(service.base_url + "/run", data=body)
        assert status == 200

    def test_post_run_invalid_spec_is_400(self, service):
        for bad in (
            {"kind": "nope"},
            {"device": "NOT-A-DEVICE"},
            {"unknown_field": 1},
        ):
            status, _, payload = _request(
                service.base_url + "/run", data=json.dumps(bad).encode()
            )
            assert status == 400, payload
            assert b"invalid spec" in payload

    def test_post_run_replay_spec_is_400(self, service):
        # The replay kind is deleted; its specs are unknown kinds now.
        body = json.dumps(
            {"kind": "replay", "workload": "replay", "num_nodes": 4,
             "workload_kwargs": {"trace": "gauss.json.gz"}}
        ).encode()
        status, _, payload = _request(service.base_url + "/run", data=body)
        assert status == 400, payload
        assert b"unknown experiment kind" in payload
        assert service.counters["runs_completed"] == 0

    def test_post_run_non_json_body_is_400(self, service):
        status, _, _ = _request(service.base_url + "/run", data=b"not json {")
        assert status == 400

    @pytest.mark.parametrize("endpoint", ["/run", "/batch"])
    @pytest.mark.parametrize(
        "bad",
        [
            {"num_nodes": 8, "params": {"fabric": "mesh4x4"}},
            {"params": {"protocol": "nope"}},
            {"params": {"faults": "nope"}},
            {"params": {"sliding_window": 0}},
            {"device": 5},
            {"ni_kwargs": None},
            [],
        ],
        ids=["fabric", "protocol", "faults", "sliding-window", "device-int",
             "ni-kwargs-null", "list"],
    )
    def test_malformed_spec_is_400(self, service, endpoint, bad):
        """Each is a spec on /run and a batch's one point on /batch; the
        grammar errors behind them are ValueErrors, and a list is no spec."""
        body = bad if endpoint == "/run" else [bad]
        status, _, payload = _request(
            service.base_url + endpoint, data=json.dumps(body).encode()
        )
        assert status == 400, payload
        assert json.loads(payload)["error"].startswith("invalid")
        assert service.counters["runs_completed"] == 0

    @pytest.mark.parametrize(
        "params, field",
        [
            ({"faults": "jitter", "fault_seed": 1.5}, "fault_seed"),
            ({"network_latency_cycles": 100.0}, "network_latency_cycles"),
            ({"spin_elision": "no"}, "spin_elision"),
            ({"sliding_window": True}, "sliding_window"),
            ({"fabric": 4}, "fabric"),
        ],
        ids=["float-seed", "float-latency", "str-flag", "bool-count", "int-name"],
    )
    def test_ill_typed_machine_params_are_400(self, service, params, field):
        """A value of another type than its MachineParams field's (a bool is
        no int) fails validation naming the field, before any run starts."""
        spec = quick_spec(params=params)
        with pytest.raises(ParameterError, match=field):
            spec.validate()
        status, _, payload = _request(
            service.base_url + "/run", data=json.dumps(spec.to_dict()).encode()
        )
        assert status == 400, payload
        assert field in json.loads(payload)["error"]
        assert service.counters["runs_started"] == 0

    @pytest.mark.parametrize(
        "field, value",
        [
            ("message_bytes", 64.0),
            ("iterations", 3.0),
            ("iterations", True),
            ("warmup", 1.5),
            ("num_nodes", 2.0),
            ("snarfing", 1),
            ("max_cycles", 1e9),
            ("scale", "1"),
        ],
        ids=["float-message-bytes", "float-iterations", "bool-iterations", "float-warmup",
             "float-num-nodes", "int-snarfing", "float-max-cycles", "str-scale"],
    )
    def test_ill_typed_spec_fields_are_400(self, service, field, value):
        """A spec field of another type than its own (a bool is no int) fails
        validation naming the field, before any run starts."""
        body = json.dumps({**QUICK, field: value}).encode()
        status, _, payload = _request(service.base_url + "/run", data=body)
        assert status == 400, payload
        assert f"{field} must be " in json.loads(payload)["error"]
        assert service.counters["runs_started"] == 0

    @pytest.mark.parametrize("name", FIXED_MACHINE_CONSTANTS)
    def test_fixed_machine_constants_are_400(self, service, name):
        """The paper's fixed machine is no spec parameter: naming one of its
        constants in ``params`` is an unknown override, even at its own value."""
        body = json.dumps({**QUICK, "params": fixed_constant_override(name)}).encode()
        status, _, payload = _request(service.base_url + "/run", data=body)
        assert status == 400, payload
        assert name in json.loads(payload)["error"]
        assert service.counters["runs_started"] == 0

    @pytest.mark.parametrize(
        "overrides",
        [
            {"device": "CNI16Qm", "bus": "io"},
            {"device": "CNI16Q", "bus": "cache"},
            {"device": "CNI16Qm", "snarfing": True, "params": {"protocol": "dir-msi"}},
        ],
        ids=["qm-on-io", "queue-on-cache", "snarfing-under-directory"],
    )
    def test_unbuildable_node_is_400(self, service, overrides):
        """Bus placement and snarfing are checked by spec validation with the
        machine's own rules, not first by the run."""
        spec = quick_spec(**overrides)
        with pytest.raises(NodeConfigError):
            spec.validate()
        status, _, payload = _request(
            service.base_url + "/run", data=json.dumps(spec.to_dict()).encode()
        )
        assert status == 400, payload
        assert service.counters["runs_started"] == 0

    @pytest.mark.parametrize(
        "endpoint, body, message",
        [
            ("/batch", {"base": QUICK, "axes": {"seed": "12"}}, "sweep axis 'seed'"),
            ("/batch", {"base": QUICK, "axes": {"device": "NI2w"}}, "sweep axis 'device'"),
            ("/batch", {"base": QUICK, "axes": {"seed": {"1": 2}}}, "sweep axis 'seed'"),
            ("/batch", {"base": QUICK, "axes": {"seed": [1, "2"]}}, "seed must be an int"),
            ("/run", {**QUICK, "seed": "12"}, "seed must be an int"),
            ("/run", {**QUICK, "seed": True}, "seed must be an int"),
            ("/run", {**QUICK, "workload_kwargs": {"seed": 12}}, "must not hold 'seed'"),
        ],
        ids=["str-seeds", "str-devices", "dict-seeds", "str-seed-value", "str-seed",
             "bool-seed", "workload-kwargs-seed"],
    )
    def test_string_axes_and_non_int_seeds_are_400(self, service, endpoint, body, message):
        status, _, payload = _request(
            service.base_url + endpoint, data=json.dumps(body).encode()
        )
        assert status == 400, payload
        assert message in json.loads(payload)["error"]
        assert service.counters["runs_started"] == 0

    @pytest.mark.parametrize(
        "device, ni_kwargs, message",
        [
            ("NI2w", {"fifo_messages": "x"}, "must be Optional[int], not str"),
            ("NI2w", {"fifo_messages": True}, "must be Optional[int], not bool"),
            ("CNI16Q", {"recv_home": "nowhere"}, "not str 'nowhere'"),
        ],
        ids=["str-fifo", "bool-fifo", "bad-recv-home"],
    )
    def test_ill_typed_ni_kwargs_are_400(self, service, device, ni_kwargs, message):
        """A device keyword's value is checked against its declared type by
        spec validation, not first by the run."""
        spec = quick_spec(device=device, ni_kwargs=ni_kwargs)
        with pytest.raises(TaxonomyError, match=re.escape(message)):
            spec.validate()
        status, _, payload = _request(
            service.base_url + "/run", data=json.dumps(spec.to_dict()).encode()
        )
        assert status == 400, payload
        assert message in json.loads(payload)["error"]
        assert service.counters["runs_started"] == 0

    def test_get_result_warm_serves_without_machine(self, service, monkeypatch):
        spec = quick_spec()
        _request(service.base_url + "/run", data=json.dumps(spec.to_dict()).encode())
        key = service.store.cache_key(spec)

        # The pure read path: any Machine construction would blow up here.
        import repro.node.machine as machine_mod

        def boom(*args, **kwargs):
            raise AssertionError("read path constructed a Machine")

        monkeypatch.setattr(machine_mod.Machine, "__init__", boom)

        status, headers, payload = _request(service.base_url + f"/result/{key}")
        assert status == 200
        etag = headers["ETag"]
        assert etag.startswith('"') and etag.endswith('"')

        # Strong ETag honoured: If-None-Match -> 304, no body.
        status304, headers304, body304 = _request(
            service.base_url + f"/result/{key}", headers={"If-None-Match": etag}
        )
        assert status304 == 304
        assert body304 == b""
        assert headers304["ETag"] == etag
        # A stale validator misses.
        status200, _, _ = _request(
            service.base_url + f"/result/{key}", headers={"If-None-Match": '"nope"'}
        )
        assert status200 == 200
        assert service.counters["responses_304"] == 1

    def test_get_result_unknown_is_404_and_bad_key_400(self, service):
        status, _, _ = _request(service.base_url + "/result/" + "0" * 64)
        assert status == 404
        status, _, _ = _request(service.base_url + "/result/shorty")
        assert status == 400

    def test_get_result_in_flight_is_202(self, service):
        spec = quick_spec(message_bytes=24)
        key = service.store.cache_key(spec)
        assert service.registry.join(key) is None
        try:
            status, _, payload = _request(service.base_url + f"/result/{key}")
            assert status == 202
            assert json.loads(payload)["status"] == "running"
        finally:
            service.registry.complete(key, RunResult(spec=spec))

    def test_post_run_async_returns_202_then_polls_to_200(self, service):
        spec = quick_spec(message_bytes=48)
        status, headers, payload = _request(
            service.base_url + "/run?wait=0", data=json.dumps(spec.to_dict()).encode()
        )
        assert status == 202
        location = json.loads(payload)["location"]
        assert headers["Location"] == location
        deadline = time.time() + 30
        while time.time() < deadline:
            status, _, payload = _request(service.base_url + location)
            if status == 200:
                break
            assert status == 202
            time.sleep(0.02)
        assert status == 200
        assert RunResult.from_dict(json.loads(payload)) == run_point(spec)

    def test_cold_runs_leave_only_shards_in_the_store(self, service):
        """Deduplication lives in the process's memory: a cold ``POST /run``,
        a ``?wait=0`` run and a batch write entries and nothing else."""
        url = service.base_url
        status, _, _ = _request(url + "/run", data=json.dumps(quick_spec().to_dict()).encode())
        assert status == 200
        status, _, payload = _request(
            url + "/run?wait=0", data=json.dumps(quick_spec(message_bytes=48).to_dict()).encode()
        )
        assert status == 202
        location = json.loads(payload)["location"]
        deadline = time.time() + 30
        while _request(url + location)[0] != 200 and time.time() < deadline:
            time.sleep(0.02)
        sweep = {"base": dict(QUICK), "axes": {"message_bytes": [8, 32]}}
        status, _, payload = _request(url + "/batch", data=json.dumps(sweep).encode())
        assert status == 202
        _request(url + json.loads(payload)["stream"])  # returns once the batch is done
        assert service.store.stats()["entries"] == 4
        # Every top-level name is a two-character key shard.
        names = os.listdir(service.store.directory)
        assert names and all(len(name) == 2 for name in names), names

    def test_unknown_endpoints_404(self, service):
        assert _request(service.base_url + "/nope")[0] == 404
        assert _request(service.base_url + "/nope", data=b"{}")[0] == 404

    def test_healthz_and_stats_shape(self, service):
        assert _request(service.base_url + "/healthz")[0] == 200
        status, _, payload = _request(service.base_url + "/stats")
        assert status == 200
        stats = json.loads(payload)
        for headline in ("hits", "misses", "evictions", "deduped"):
            assert headline in stats
        assert set(stats["dedup"]) >= {"leaders", "followers", "in_flight"}
        assert set(stats["store"]) >= {"entries", "bytes", "stores"}
        assert stats["uptime_s"] >= 0

    def test_batch_endpoint_runs_and_streams_progress(self, service):
        sweep = {
            "base": dict(QUICK),
            "axes": {"message_bytes": [8, 16, 32]},
        }
        status, _, payload = _request(
            service.base_url + "/batch", data=json.dumps(sweep).encode()
        )
        assert status == 202
        submitted = json.loads(payload)
        assert submitted["points"] == 3
        assert len(submitted["keys"]) == 3

        # The stream endpoint emits one NDJSON line per point, then a
        # done record.
        status, headers, body = _request(service.base_url + submitted["stream"])
        assert status == 200
        assert headers["Content-Type"] == "application/x-ndjson"
        lines = [json.loads(line) for line in body.decode().strip().splitlines()]
        assert len(lines) == 4
        assert [line["completed"] for line in lines[:3]] == [1, 2, 3]
        assert lines[-1]["done"] is True and lines[-1]["error"] is None

        status, _, payload = _request(service.base_url + submitted["location"])
        progress = json.loads(payload)
        assert progress["done"] and progress["completed"] == 3
        # Every point landed in the store.
        for key in submitted["keys"]:
            assert service.store.read_entry(key) is not None

    def test_batch_explicit_point_list_and_dedup_of_duplicates(self, service):
        points = [quick_spec().to_dict(), quick_spec().to_dict()]
        status, _, payload = _request(
            service.base_url + "/batch", data=json.dumps(points).encode()
        )
        assert status == 202
        assert json.loads(payload)["points"] == 1  # duplicates collapse

    def test_batch_invalid_sweep_is_400(self, service):
        status, _, _ = _request(
            service.base_url + "/batch",
            data=json.dumps({"base": {"kind": "nope"}}).encode(),
        )
        assert status == 400
        status, _, _ = _request(service.base_url + "/batch", data=b'"a string"')
        assert status == 400
        status, _, payload = _request(
            service.base_url + "/batch", data=json.dumps({"axes": []}).encode()
        )
        assert status == 400
        assert b"sweep axes must be a JSON object" in payload

    def test_unknown_batch_is_404(self, service):
        assert _request(service.base_url + "/batch/bogus")[0] == 404
        assert _request(service.base_url + "/batch/bogus/stream")[0] == 404


class _CountingSocket:
    """The server's end of a connection, counting each send that reaches it."""

    def __init__(self, sock, sends):
        self._sock = sock
        self._sends = sends

    def send(self, data, *args):
        self._sends.append(len(data))
        return self._sock.send(data, *args)

    def sendall(self, data, *args):
        self._sends.append(len(data))
        return self._sock.sendall(data, *args)

    def __getattr__(self, name):
        return getattr(self._sock, name)


@contextlib.contextmanager
def _probed(svc):
    """Serve ``svc`` through a handler that counts the sends on each accepted
    socket and records its ``TCP_NODELAY`` setting."""
    sends, nodelay = [], []

    def probe(handler):
        class Probe(handler):
            def setup(self):
                self.request = _CountingSocket(self.request, sends)
                super().setup()
                nodelay.append(
                    self.connection.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
                )

        return Probe

    with _serving(svc, probe):
        svc.sends, svc.nodelay = sends, nodelay
        yield svc


@pytest.fixture()
def probed_service(tmp_path):
    with _probed(ExperimentService(ResultStore(str(tmp_path / "store")), jobs=1)) as svc:
        yield svc


def _keepalive_sequence(svc):
    """One ``http.client`` connection carrying a cold and a warm ``POST
    /run``, ``GET /result``, a conditional GET, a bad key and an unknown
    endpoint.  Returns ``(label, response, body, sends)`` per request."""
    spec = quick_spec(message_bytes=40)
    key = svc.store.cache_key(spec)
    run = json.dumps(spec.to_dict()).encode()
    conn = http.client.HTTPConnection(*svc.address, timeout=60)
    out, etag = [], None
    try:
        for label, method, path, body in (
            ("cold run", "POST", "/run", run),
            ("warm run", "POST", "/run", run),
            ("get", "GET", f"/result/{key}", None),
            ("304", "GET", f"/result/{key}", None),
            ("bad key", "GET", "/result/shorty", None),
            ("unknown", "GET", "/nope", None),
        ):
            headers = {"If-None-Match": etag} if label == "304" else {}
            before = len(svc.sends)
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
            payload = response.read()
            out.append((label, response, payload, len(svc.sends) - before))
            etag = etag or response.getheader("ETag")
    finally:
        conn.close()
    return out


def _server_timing(response):
    """``Server-Timing`` as ``{name: ms}``."""
    parts = {}
    for part in response.getheader("Server-Timing").split(","):
        name, _, duration = part.strip().partition(";dur=")
        parts[name] = float(duration)
    return parts


class TestKeepAliveTransport:
    def test_accepted_socket_has_tcp_nodelay(self, probed_service):
        assert _request(probed_service.base_url + "/healthz")[0] == 200
        assert len(probed_service.nodelay) == 1
        assert probed_service.nodelay[0] != 0

    def test_each_fixed_length_response_is_one_send(self, probed_service):
        replies = _keepalive_sequence(probed_service)
        assert {label: sends for label, _, _, sends in replies} == {
            label: 1 for label, _, _, _ in replies
        }

    def test_one_connection_carries_a_request_sequence(self, probed_service):
        replies = {label: rest for label, *rest in _keepalive_sequence(probed_service)}
        assert len(probed_service.nodelay) == 1  # one accepted connection
        cold, cold_body, _ = replies["cold run"]
        assert (cold.status, cold.getheader("X-Repro-Role")) == (200, "leader")
        etag = cold.getheader("ETag")
        assert etag == f'"{hashlib.sha256(cold_body).hexdigest()}"'
        assert RunResult.from_dict(json.loads(cold_body)) == run_point(
            quick_spec(message_bytes=40)
        )
        warm, warm_body, _ = replies["warm run"]
        assert (warm.status, warm.getheader("X-Repro-Role")) == (200, "store")
        assert (warm_body, warm.getheader("ETag")) == (cold_body, etag)
        got, got_body, _ = replies["get"]
        assert (got.status, got_body, got.getheader("ETag")) == (200, cold_body, etag)
        revalidated, revalidated_body, _ = replies["304"]
        assert (revalidated.status, revalidated_body) == (304, b"")
        assert revalidated.getheader("ETag") == etag
        for label, status in (("bad key", 400), ("unknown", 404)):
            response, body, _ = replies[label]
            assert response.status == status
            assert response.getheader("Content-Type") == "application/json"
            assert "error" in json.loads(body)

    def test_http09_request_gets_the_bare_body(self, service):
        with socket.create_connection(service.address) as client:
            client.sendall(b"GET /healthz\r\n\r\n")
            reply = client.makefile("rb").read()
        assert json.loads(reply)["status"] == "ok"

    def test_client_reset_before_reading_is_quiet(self, service, monkeypatch, capfd):
        """The response to a client that reset its socket dies in the
        handler: no traceback, and the server goes on serving."""
        import repro.api.runner as runner_mod

        entered, release = threading.Event(), threading.Event()
        real_run_point = runner_mod.run_point

        def gated_run_point(spec):
            entered.set()
            assert release.wait(30), "test gate never released"
            return real_run_point(spec)

        monkeypatch.setattr(runner_mod, "run_point", gated_run_point)
        body = json.dumps(quick_spec().to_dict()).encode()
        client = socket.create_connection(service.address)
        client.sendall(
            b"POST /run HTTP/1.1\r\nHost: test\r\nContent-Length: %d\r\n\r\n"
            % len(body) + body
        )
        assert entered.wait(30), "the request never reached the simulation"
        # Linger off: close() sends RST, so the response write must fail.
        client.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
        client.close()
        release.set()
        deadline = time.time() + 30
        while service.counters["runs_completed"] < 1 and time.time() < deadline:
            time.sleep(0.01)
        status, headers, _ = _request(service.base_url + "/run", data=body)
        assert (status, headers["X-Repro-Role"]) == (200, "store")
        time.sleep(0.2)  # let the reset connection's handler finish
        err = capfd.readouterr().err
        assert "Traceback" not in err and "Exception occurred" not in err, err


class TestServerTiming:
    def test_parts_add_up_and_run_only_on_a_cold_key(self, probed_service):
        replies = {label: response for label, response, _, _ in _keepalive_sequence(
            probed_service)}
        for label, response in replies.items():
            parts = _server_timing(response)
            expected = {"store", "run", "total"} if label == "cold run" else {"store", "total"}
            assert set(parts) == expected, label
            assert round(parts["store"] + parts.get("run", 0.0), 3) <= parts["total"], label
        assert _server_timing(replies["cold run"])["run"] > 0
        for label in ("warm run", "get", "304"):
            assert _server_timing(replies[label])["store"] > 0, label

    def test_verbose_logs_one_json_line_per_request(self, tmp_path, capsys):
        svc = ExperimentService(ResultStore(str(tmp_path / "store")), verbose=True)
        with _probed(svc):
            capsys.readouterr()
            replies = _keepalive_sequence(svc)
            err, deadline = "", time.time() + 10
            while err.count("\n") < len(replies) and time.time() < deadline:
                time.sleep(0.01)
                err += capsys.readouterr().err
        lines = [json.loads(line) for line in err.splitlines()]
        key = svc.store.cache_key(quick_spec(message_bytes=40))
        assert [
            (line["method"], line["status"], line["role"], line.get("key"))
            for line in lines
        ] == [
            ("POST", 200, "leader", key),
            ("POST", 200, "store", key),
            ("GET", 200, "store", key),
            ("GET", 304, "store", key),
            ("GET", 400, None, None),
            ("GET", 404, None, None),
        ]
        assert [line["path"] for line in lines[-2:]] == ["/result/shorty", "/nope"]
        assert all(line["ms"] >= 0 for line in lines)


class TestHttpDedupFanIn:
    N = 100

    def test_hundred_concurrent_identical_runs_simulate_once(
        self, service, monkeypatch
    ):
        """The acceptance gate: ≥100 concurrent identical ``POST /run``
        requests trigger exactly one simulation, every response carries the
        same bit-identical RunResult, and the dedup counters account for
        the other 99."""
        spec = quick_spec(message_bytes=128)
        expected = run_point(spec)
        gate = threading.Event()
        calls = []

        def slow_run_point(s):
            calls.append(s.spec_hash())
            assert gate.wait(30), "test gate never released"
            return expected

        import repro.api.runner as runner_mod

        monkeypatch.setattr(runner_mod, "run_point", slow_run_point)

        body = json.dumps(spec.to_dict()).encode()
        responses = [None] * self.N

        def client(index):
            responses[index] = _request(service.base_url + "/run", data=body)

        threads = [
            threading.Thread(target=client, args=(index,)) for index in range(self.N)
        ]
        for thread in threads:
            thread.start()
        # Hold the one simulation until all N requests are in flight, so
        # the fan-in is deterministic, then let it finish.
        deadline = time.time() + 30
        while service.counters["run_requests"] < self.N and time.time() < deadline:
            time.sleep(0.005)
        assert service.counters["run_requests"] == self.N
        gate.set()
        for thread in threads:
            thread.join(60)

        assert len(calls) == 1, "exactly one simulation for 100 identical requests"
        statuses = {status for status, _, _ in responses}
        assert statuses == {200}
        bodies = {body for _, _, body in responses}
        assert len(bodies) == 1, "all 100 responses are bit-identical"
        assert RunResult.from_dict(json.loads(bodies.pop())) == expected
        roles = [headers["X-Repro-Role"] for _, headers, _ in responses]
        assert roles.count("leader") == 1
        stats = service.stats()
        assert stats["deduped"] + stats["service"]["dedup_served"] >= self.N - 1
        assert stats["dedup"]["leaders"] == 1
        assert stats["service"]["runs_completed"] == 1


class TestBatchFollowers:
    def test_failed_leader_fails_only_its_point(self, tmp_path):
        """A batch point whose key another request of this process leads
        takes that leader's outcome: a failure is one failed point carrying
        the leader's error, and the sibling still lands."""
        service = ExperimentService(ResultStore(str(tmp_path / "store")))
        failing, landing = quick_spec(message_bytes=8), quick_spec(message_bytes=24)
        key_f, key_l = service.store.cache_key(failing), service.store.cache_key(landing)
        # Two concurrent POST /run leaders, standing in.
        assert service.registry.join(key_f) is None and service.registry.join(key_l) is None
        batch = service.submit_batch([failing, landing])
        deadline = time.time() + 30
        while service.registry.stats()["followers"] < 2 and time.time() < deadline:
            time.sleep(0.005)
        assert service.registry.stats()["followers"] == 2
        service.registry.fail(key_f, RuntimeError("leader crashed"))
        result = run_point(landing)
        service.store.put(result)
        service.registry.complete(key_l, result)
        with batch.cond:
            assert batch.cond.wait_for(lambda: batch.done, timeout=30)
        progress = batch.snapshot()
        assert progress["error"] is None
        assert (progress["completed"], progress["failed"]) == (2, 1)
        events = {event["key"]: event for event in batch.events}
        assert "RuntimeError('leader crashed')" in events[key_f]["error"]
        assert "failed" not in events[key_l]
        assert service.store.peek(landing) == result
        assert service.counters["dedup_served"] == 1


class TestOneLeadPath:
    """``POST /run``, ``?wait=0`` and batches lead and follow a cold key the
    same way, so they count it the same way."""

    def test_async_follower_is_counted_once(self, tmp_path):
        service = ExperimentService(ResultStore(str(tmp_path / "store")))
        spec = quick_spec(message_bytes=24)
        key = service.store.cache_key(spec)
        assert service.registry.join(key) is None  # a POST /run leads it
        assert service.start_async_run(spec) == key
        service.registry.complete(key, RunResult(spec=spec))
        deadline = time.time() + 30
        while service.counters["dedup_served"] < 1 and time.time() < deadline:
            time.sleep(0.005)
        assert service.registry.stats()["followers"] == 1 == service.counters["dedup_served"]

    def test_batch_keys_are_in_flight_when_its_202_arrives(self, service, monkeypatch):
        import repro.api.runner as runner_mod

        release = threading.Event()
        real_run_point = runner_mod.run_point

        def gated_run_point(spec):
            assert release.wait(30), "test gate never released"
            return real_run_point(spec)

        monkeypatch.setattr(runner_mod, "run_point", gated_run_point)
        sweep = {"base": dict(QUICK), "axes": {"message_bytes": [8, 16, 32]}}
        try:
            status, _, payload = _request(
                service.base_url + "/batch", data=json.dumps(sweep).encode()
            )
            assert status == 202
            submitted = json.loads(payload)
            polls = [
                _request(service.base_url + f"/result/{key}")[0] for key in submitted["keys"]
            ]
            assert polls == [202, 202, 202]
        finally:
            release.set()
        _request(service.base_url + submitted["stream"])  # returns once the batch is done
        for key in submitted["keys"]:
            assert _request(service.base_url + f"/result/{key}")[0] == 200

    def test_batch_threads_settle_each_point_once(self, tmp_path, monkeypatch):
        """More batch threads than cores, switching often, share one queue
        of joined keys: every point is led, stored and recorded once."""
        import repro.service.http as service_http

        # Points run in this process, so the threads race on the queue only.
        monkeypatch.setattr(
            service_http, "run_point_guarded", lambda spec, **_: (run_point(spec), None)
        )
        service = ExperimentService(ResultStore(str(tmp_path / "store")), jobs=4)
        points = [quick_spec(message_bytes=size) for size in range(8, 104, 8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            batch = service.submit_batch(points)
            with batch.cond:
                assert batch.cond.wait_for(lambda: batch.done, timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert (batch.completed, batch.failed) == (12, 0)
        assert sorted(event["key"] for event in batch.events) == sorted(batch.keys)
        assert service.counters["runs_completed"] == 12
        assert service.registry.stats() == {
            "in_flight": 0, "leaders": 12, "followers": 0, "deduped": 0, "failures": 0,
        }


# ---------------------------------------------------------------------------
# Worker cache-counter aggregation (SweepRunner --jobs)
# ---------------------------------------------------------------------------
class TestWorkerCacheAggregation:
    def sweep(self):
        return [quick_spec(message_bytes=size) for size in (8, 16, 32, 64)]

    def test_parallel_counters_match_serial(self, tmp_path):
        cold = SweepRunner(jobs=2, cache_dir=ResultStore(str(tmp_path / "s")))
        results = cold.run(self.sweep())
        stats = cold.cache_stats()
        # Workers wrote the entries; their counters flowed back to the parent.
        assert stats["misses"] == 4 and stats["hits"] == 0
        assert stats["stores"] == 4
        assert results.cache_stats == stats

        warm = SweepRunner(jobs=2, cache_dir=ResultStore(str(tmp_path / "s")))
        again = warm.run(self.sweep())
        assert warm.cache_stats()["hits"] == 4
        assert again == results

    def test_worker_reports_cross_process_fill_as_hit(self, tmp_path):
        """A point another process finished after the parent's pre-check is
        served by the worker (1 hit, 0 stores) — the parent reclassifies
        its provisional miss."""
        directory = str(tmp_path / "s")
        spec = quick_spec()
        ResultStore(directory).put(run_point(spec))
        out = _run_point_payload(
            {"spec": spec.to_dict(), "cache": {"directory": directory}}
        )
        assert out["cache"] == {"hits": 1, "stores": 0}
        assert RunResult.from_dict(out["result"]).cached

        store = ResultStore(directory)
        store.misses += 1  # the parent's provisional pre-check miss
        store.hits += out["cache"]["hits"]
        store.misses -= out["cache"]["hits"]
        assert store.stats()["hits"] == 1 and store.stats()["misses"] == 0

    def test_worker_without_cache_runs_plain(self):
        out = _run_point_payload({"spec": quick_spec().to_dict(), "cache": None})
        assert out["cache"] == {"hits": 0, "stores": 0}
        assert not RunResult.from_dict(out["result"]).cached

    def test_cache_stats_survive_resultset_json(self, tmp_path):
        runner = SweepRunner(cache_dir=ResultStore(str(tmp_path / "s")))
        results = runner.run([quick_spec()])
        from repro.api import ResultSet

        reloaded = ResultSet.from_json(results.to_json())
        assert reloaded.cache_stats == results.cache_stats
        assert reloaded.cache_stats["stores"] == 1


# ---------------------------------------------------------------------------
# Admin CLI
# ---------------------------------------------------------------------------
class TestAdminCli:
    def populate(self, directory):
        store = ResultStore(directory)
        specs = [quick_spec(message_bytes=size) for size in (8, 16)]
        for spec in specs:
            store.put(run_point(spec))
        return store, specs

    def test_stats_reports_entries(self, tmp_path, capsys):
        directory = str(tmp_path / "s")
        self.populate(directory)
        assert admin_main(["--dir", directory, "stats"]) == 0
        out = capsys.readouterr().out
        assert "2 entries" in out
        assert admin_main(["--dir", directory, "stats", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["entries"] == 2 and report["states"]["ok"] == 2

    def test_ls_lists_entries(self, tmp_path, capsys):
        directory = str(tmp_path / "s")
        store, specs = self.populate(directory)
        assert admin_main(["--dir", directory, "ls"]) == 0
        out = capsys.readouterr().out
        assert store.cache_key(specs[0])[:16] in out

    def test_gc_prunes_corrupt(self, tmp_path, capsys):
        directory = str(tmp_path / "s")
        store, specs = self.populate(directory)
        with open(store.path_for(specs[0]), "w") as handle:
            handle.write("junk")
        assert admin_main(["--dir", directory, "gc"]) == 0
        assert "1 corrupt" in capsys.readouterr().out
        assert ResultStore(directory).stats()["entries"] == 1

    def test_gc_max_bytes_evicts(self, tmp_path, capsys):
        directory = str(tmp_path / "s")
        self.populate(directory)
        assert admin_main(["--dir", directory, "gc", "--max-bytes", "10"]) == 0
        assert ResultStore(directory).stats()["entries"] == 0

    def test_pin_by_prefix_then_unpin(self, tmp_path, capsys):
        directory = str(tmp_path / "s")
        store, specs = self.populate(directory)
        key = store.cache_key(specs[0])
        assert admin_main(["--dir", directory, "pin", key[:10]]) == 0
        assert ResultStore(directory).stats()["pinned"] == 1
        # Pinned entries survive a forced full eviction.
        assert admin_main(["--dir", directory, "gc", "--max-bytes", "0"]) == 0
        assert ResultStore(directory).stats()["pinned"] == 1
        assert ResultStore(directory).peek(specs[0]) is not None
        assert admin_main(["--dir", directory, "unpin", key[:10]]) == 0
        assert ResultStore(directory).stats()["pinned"] == 0

    def test_pin_unknown_prefix_fails(self, tmp_path, capsys):
        directory = str(tmp_path / "s")
        self.populate(directory)
        assert admin_main(["--dir", directory, "pin", "ffff"]) == 1

    def test_run_py_dispatches_cache_subcommand(self, tmp_path, capsys):
        from repro.experiments.run import main as run_main

        directory = str(tmp_path / "s")
        self.populate(directory)
        assert run_main(["cache", "--dir", directory, "stats"]) == 0
        assert "2 entries" in capsys.readouterr().out
