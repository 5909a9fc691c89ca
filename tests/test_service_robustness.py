"""Hardened-service tests: guarded execution, quarantine, graceful drain.

Covers the robustness PR's service half: ``run_point_guarded`` kills and
reports hung or crashed points instead of wedging the caller, a batch with
a hanging spec fails only that point while siblings land normally, corrupt
store entries are quarantined and answered 503 + Retry-After, stale dedup
locks are broken by waiting followers (not just claimants), and SIGTERM
drains batches and releases every owned lock before exit.
"""

from __future__ import annotations

import json
import multiprocessing.connection
import os
import signal
import subprocess
import sys
import textwrap
import threading
import time
import urllib.error
import urllib.request
from multiprocessing.connection import Connection

import pytest

from repro.api import ExperimentSpec, RunResult, SweepFailure, SweepRunner, run_point_guarded
from repro.api import runner as runner_module
from repro.service import (
    CorruptEntryError,
    ExperimentService,
    InFlightRegistry,
    ResultStore,
    make_server,
)

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

QUICK = dict(
    kind="latency", device="NI2w", bus="memory",
    message_bytes=16, iterations=2, warmup=0,
)


def quick_spec(**overrides) -> ExperimentSpec:
    return ExperimentSpec(**{**QUICK, **overrides})


def hang_spec(**overrides) -> ExperimentSpec:
    base = dict(
        kind="macro", device="CNI4Q", bus="memory", num_nodes=4,
        workload="hang", max_cycles=50_000_000,
    )
    return ExperimentSpec(**{**base, **overrides})


def slow_spec() -> ExperimentSpec:
    """A legitimate point that takes well over a second of wall clock."""
    return ExperimentSpec(
        kind="macro", device="CNI4Q", bus="memory", num_nodes=16,
        workload="gauss", scale=1.0,
    )


@pytest.fixture()
def store(tmp_path) -> ResultStore:
    return ResultStore(str(tmp_path / "store"))


def _serve(svc: ExperimentService):
    server = make_server(svc)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    svc.base_url = f"http://{host}:{port}"
    return server


@pytest.fixture()
def guarded_service(tmp_path, request):
    """A service with guarded execution on: hung points are contained.

    Indirect parametrization passes other service options instead.
    """
    options = getattr(request, "param", {"jobs": 1, "point_timeout_s": 120.0})
    svc = ExperimentService(ResultStore(str(tmp_path / "store")), **options)
    server = _serve(svc)
    try:
        yield svc
    finally:
        server.shutdown()
        server.server_close()


def _request(url, data=None, headers=None, method=None):
    """(status, headers, body) — 4xx/5xx returned, not raised."""
    req = urllib.request.Request(url, data=data, headers=headers or {}, method=method)
    try:
        with urllib.request.urlopen(req, timeout=120) as resp:
            return resp.status, dict(resp.headers), resp.read()
    except urllib.error.HTTPError as err:
        return err.code, dict(err.headers), err.read()


# ---------------------------------------------------------------------------
# Dedup: waiting followers break stale locks
# ---------------------------------------------------------------------------
class TestStaleLockWait:
    def test_wait_breaks_a_dead_leaders_lock(self, tmp_path):
        """Regression: a follower parked in wait() must notice the leader's
        pid is gone and break the lock instead of polling until timeout."""
        directory = str(tmp_path / "inflight")
        registry = InFlightRegistry(directory, poll_interval=0.01)
        os.makedirs(directory, exist_ok=True)
        key = "c" * 64
        with open(registry._lock_path(key), "w") as handle:
            json.dump(
                {"pid": 2**22 + 1, "host": os.uname().nodename, "created": time.time()},
                handle,
            )
        started = time.monotonic()
        result = registry.wait(key, fetch=lambda: None, timeout=30.0)
        elapsed = time.monotonic() - started
        assert result is None  # caller re-claims and computes
        assert elapsed < 5.0
        assert registry.stats()["lock_breaks"] == 1
        assert not os.path.exists(registry._lock_path(key))


# ---------------------------------------------------------------------------
# Store: sidecar tolerance and quarantine
# ---------------------------------------------------------------------------
class TestStoreResilience:
    def test_non_dict_sidecar_is_tolerated(self, store):
        from repro.api import run_point

        spec = quick_spec()
        store.put(run_point(spec))
        key = store.cache_key(spec)
        with open(store.meta_path_for_key(key), "w") as handle:
            handle.write("[1, 2, 3]")
        assert store.read_meta(key) == {}
        assert store.get(spec) is not None  # entry itself still serves
        report = store.gc(dry_run=True)
        assert isinstance(report, dict)

    def test_missing_sidecar_is_tolerated(self, store):
        from repro.api import run_point

        spec = quick_spec()
        store.put(run_point(spec))
        key = store.cache_key(spec)
        os.unlink(store.meta_path_for_key(key))
        assert store.read_meta(key) == {}
        assert store.get(spec) is not None
        store.gc()  # must not raise

    def test_read_entry_quarantines_corrupt_json(self, store):
        from repro.api import run_point

        spec = quick_spec()
        path = store.put(run_point(spec))
        key = store.cache_key(spec)
        with open(path, "w") as handle:
            handle.write("{ torn mid-write")
        with pytest.raises(CorruptEntryError):
            store.read_entry(key)
        assert not os.path.exists(path)
        assert store.quarantine_count() == 1
        assert store.stats()["quarantined"] == 1
        # Quarantined entries are invisible to the normal read path.
        assert store.get(spec) is None
        assert store.gc()["quarantined"] == 1

    def test_http_answers_503_with_retry_after(self, guarded_service):
        service = guarded_service
        spec = quick_spec()
        body = json.dumps(spec.to_dict()).encode()
        status, headers, _ = _request(service.base_url + "/run", data=body)
        assert status == 200
        key = headers["Location"].rsplit("/", 1)[-1]
        with open(service.store.path_for_key(key), "w") as handle:
            handle.write("not json {")
        status, headers, _ = _request(service.base_url + f"/result/{key}")
        assert status == 503
        assert headers.get("Retry-After") == "1"


# ---------------------------------------------------------------------------
# Guarded point execution
# ---------------------------------------------------------------------------
class TestGuardedExecution:
    def test_hang_becomes_a_failed_result_not_an_exception(self):
        result, stats = run_point_guarded(hang_spec())
        assert result.error is not None
        assert "SimulationHangError" in result.error
        assert "(attempts=1)" in result.error
        assert not result.ok
        assert stats is None

    def test_retries_are_counted_in_the_error(self, monkeypatch):
        monkeypatch.setattr(runner_module, "RETRY_BACKOFF_S", 0.01)
        result, _ = run_point_guarded(hang_spec(), max_retries=1)
        assert "(attempts=2)" in result.error

    def test_wall_clock_timeout_kills_the_point(self):
        result, _ = run_point_guarded(slow_spec(), timeout_s=0.3)
        assert result.error is not None
        assert "timed out" in result.error

    def test_success_round_trips_metrics(self):
        result, stats = run_point_guarded(quick_spec())
        assert result.ok and result.error is None
        assert result.metrics
        assert stats is not None

    def test_failed_result_serialization_round_trips(self):
        failed = RunResult(spec=quick_spec().validate(), error="worker crashed")
        clone = RunResult.from_dict(json.loads(json.dumps(failed.to_dict())))
        assert clone == failed
        assert clone.error == "worker crashed"
        assert not clone.ok


class TestSweepRunnerRecovery:
    def test_failed_point_does_not_poison_siblings(self):
        specs = [quick_spec(), hang_spec(), quick_spec(message_bytes=32)]
        runner = SweepRunner(jobs=2, point_timeout_s=120.0)
        results = runner.run(specs)
        assert len(results) == 3
        assert runner.failures == 1
        by_kind = {r.spec.kind: r for r in results}
        assert by_kind["macro"].error is not None
        assert all(r.ok for r in results if r.spec.kind == "latency")

    def test_fail_fast_raises_sweep_failure(self):
        runner = SweepRunner(point_timeout_s=120.0, fail_fast=True)
        with pytest.raises(SweepFailure) as excinfo:
            runner.run([hang_spec()])
        assert excinfo.value.result.error is not None

    def test_failed_results_are_never_cached(self, store):
        runner = SweepRunner(cache_dir=store, point_timeout_s=120.0)
        runner.run([hang_spec()])
        assert store.peek(hang_spec()) is None

    def test_unguarded_parallel_sweep_carries_a_hang(self, tmp_path):
        """Regression: under plain ``--jobs 2`` the hang point's
        ``SimulationHangError`` could not be unpickled in the parent and the
        sweep waited forever.  A subprocess bounds the wait."""
        probe = textwrap.dedent("""
            import json, sys
            from repro.api import ExperimentSpec, SweepRunner
            from repro.service import ResultStore
            specs = [ExperimentSpec.from_dict(d) for d in json.loads(sys.argv[1])]
            store = ResultStore(sys.argv[2])
            runner = SweepRunner(jobs=2, cache_dir=store)
            results = runner.run(specs)
            print(json.dumps({
                "errors": [r.error for r in results],
                "failures": runner.failures,
                "hang_stored": store.peek(specs[1]) is not None,
            }))
        """)
        specs = [quick_spec(), hang_spec(), quick_spec(message_bytes=32)]
        done = subprocess.run(
            [
                sys.executable, "-c", probe,
                json.dumps([spec.to_dict() for spec in specs]), str(tmp_path / "store"),
            ],
            env=dict(os.environ, PYTHONPATH=os.path.join(REPO_ROOT, "src")),
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        report = json.loads(done.stdout)
        errors = report["errors"]
        assert errors[0] is None and errors[2] is None
        assert "SimulationHangError" in errors[1]
        assert report["failures"] == 1
        assert not report["hang_stored"]


class TestWorkerScheduler:
    """The one scheduler behind ``--jobs``, guarded sweeps and guarded runs."""

    @pytest.fixture()
    def probe_kinds(self):
        """Plugin kinds for the worker processes; never run in-process."""
        from repro.api import register_kind, unregister_kind

        def exit_after_reply(spec):
            threading.Timer(0.05, os._exit, args=(0,)).start()
            return {"value": 1.0}

        kinds = {
            "crash-probe": lambda spec: os._exit(3),
            "pid-probe": lambda spec: {"pid": float(os.getpid())},
            "exit-after-reply": exit_after_reply,
        }
        for name, measure in kinds.items():
            register_kind(name, measure)
        try:
            yield
        finally:
            for name in kinds:
                unregister_kind(name)

    def test_reply_then_exit_is_not_a_crash(self, probe_kinds, monkeypatch):
        """Regression: the parent found the pipe empty, then found the worker
        gone, and reported a finished point as crashed.  The wrappers make
        the parent look only once the reply and the exit are both pending."""
        real_poll = Connection.poll
        real_wait = multiprocessing.connection.wait
        looks = []

        def late_poll(self, timeout=0.0):
            if real_poll(self, timeout):
                return True
            if not timeout:
                real_poll(self, 30.0)  # the reply lands...
                time.sleep(0.3)  # ...and the worker exits
            return False

        def late_wait(objects, timeout=None):
            ready = real_wait(objects, timeout)
            sentinels = [obj for obj in objects if isinstance(obj, int)]
            if ready and sentinels:
                real_wait(sentinels, 30.0)  # the worker exits too
                ready = real_wait(objects, 0)
            looks.append({type(obj) for obj in ready})
            return ready

        monkeypatch.setattr(Connection, "poll", late_poll)
        monkeypatch.setattr(multiprocessing.connection, "wait", late_wait)
        runner = SweepRunner(point_timeout_s=60.0)
        [result] = runner.run([ExperimentSpec(kind="exit-after-reply")])
        assert result.ok, result.error
        assert runner.failures == 0
        assert {Connection, int} in looks  # the exit was pending too

    def test_crash_costs_one_point_and_is_never_stored(self, probe_kinds, store):
        crash = ExperimentSpec(kind="crash-probe")
        runner = SweepRunner(jobs=2, cache_dir=store)
        results = runner.run([crash, quick_spec(), quick_spec(message_bytes=32)])
        assert results[0].error == "worker crashed (exit code 3) (attempts=1)"
        assert store.peek(crash) is None
        assert results[1].ok and results[2].ok
        assert runner.failures == 1

    def test_overrun_is_killed_and_the_next_point_gets_a_new_worker(self, monkeypatch):
        started = []
        real_start = multiprocessing.process.BaseProcess.start

        def counting_start(self):
            started.append(self)
            real_start(self)

        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", counting_start)
        runner = SweepRunner(jobs=1, point_timeout_s=0.5)
        slow, quick = runner.run([slow_spec(), quick_spec()])
        assert slow.error == "point timed out after 0.5s (attempts=1)"
        assert quick.ok
        assert len(started) == 2

    def test_points_share_one_long_lived_worker(self, probe_kinds):
        specs = [ExperimentSpec(kind="pid-probe", message_bytes=size) for size in (8, 16, 32)]
        results = SweepRunner(jobs=1, point_timeout_s=60.0).run(specs)
        pids = {result.metrics["pid"] for result in results}
        assert len(pids) == 1
        assert float(os.getpid()) not in pids


# ---------------------------------------------------------------------------
# Service: failed points, draining, SIGTERM
# ---------------------------------------------------------------------------
class TestServiceFailureHandling:
    @pytest.mark.parametrize(
        "guarded_service",
        [{"jobs": 1, "point_timeout_s": 120.0}, {"jobs": 2}],
        ids=["guarded-jobs1", "unguarded-jobs2"],
        indirect=True,
    )
    def test_batch_hang_fails_one_point_siblings_land(self, guarded_service):
        service = guarded_service
        sibling = quick_spec()
        points = {"points": [hang_spec().to_dict(), sibling.to_dict()]}
        status, _, payload = _request(
            service.base_url + "/batch", data=json.dumps(points).encode()
        )
        assert status == 202
        submitted = json.loads(payload)
        # Stream blocks until the batch is done.
        status, _, body = _request(service.base_url + submitted["stream"])
        assert status == 200
        lines = [json.loads(line) for line in body.decode().strip().splitlines()]
        assert lines[-1]["done"] is True

        status, _, payload = _request(service.base_url + submitted["location"])
        progress = json.loads(payload)
        assert progress["done"] and progress["completed"] == 2
        assert progress["failed"] == 1
        # The sibling landed in the store; the hang point did not.
        assert service.store.peek(sibling) is not None
        assert service.store.peek(hang_spec()) is None
        # No .lock survives a failed point — cross-process waiters re-claim.
        inflight = service.registry.directory
        assert not [n for n in os.listdir(inflight) if n.endswith(".lock")]
        assert service.counters["failed_points"] == 1

    def test_post_run_times_out_with_504(self, tmp_path):
        svc = ExperimentService(
            ResultStore(str(tmp_path / "store")), jobs=1, point_timeout_s=0.3
        )
        server = _serve(svc)
        try:
            body = json.dumps(slow_spec().to_dict()).encode()
            status, _, payload = _request(svc.base_url + "/run", data=body)
            assert status == 504
            assert b"timed out" in payload
            assert svc.counters["failed_points"] == 1
        finally:
            server.shutdown()
            server.server_close()

    def test_draining_refuses_new_work(self, guarded_service):
        service = guarded_service
        service.draining = True
        try:
            body = json.dumps(quick_spec().to_dict()).encode()
            status, headers, _ = _request(service.base_url + "/run", data=body)
            assert status == 503
            assert headers.get("Retry-After") == "5"
            status, _, _ = _request(service.base_url + "/batch", data=b"[]")
            assert status == 503
        finally:
            service.draining = False

    def test_drain_releases_owned_locks(self, tmp_path):
        svc = ExperimentService(ResultStore(str(tmp_path / "store")), jobs=1)
        key = "a" * 64
        assert svc.registry.claim(key)
        report = svc.drain(grace_s=0.2)
        assert report["released_locks"] == 1
        assert not os.path.exists(svc.registry._lock_path(key))
        assert os.path.exists(svc.registry._fail_path(key))

    def test_sigterm_drains_and_exits_zero(self, tmp_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.service",
                "--port", "0", "--store-dir", str(tmp_path / "store"),
                "--grace-s", "5",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        try:
            banner = proc.stdout.readline()
            assert "repro experiment service" in banner
            proc.send_signal(signal.SIGTERM)
            output, _ = proc.communicate(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
        assert proc.returncode == 0
        assert "drained:" in output
