"""The service workload: two clients in a closed loop against the HTTP service.

Each server lifetime starts ``python -m repro.service`` on a fresh store
with a point timeout (so points run guarded, one child process each), runs
a cold phase and a warm phase, reads the server's peak RSS from ``/proc``
and ends the server with SIGTERM.

* Cold phase: both clients post each Figure 6/7 spec at the same moment;
  one request leads the simulation and the other is deduplicated.
* Warm phase: store-served ``POST /run``, ``GET /result/<key>`` and a
  conditional ``GET`` that must answer 304, rotating over the cold keys.

Each client keeps one HTTP/1.1 connection open for the whole lifetime.
"""

from __future__ import annotations

import glob
import hashlib
import http.client
import json
import os
import random
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.api import ExperimentSpec

from perfbench.common import (
    DEFAULT_SEED,
    ROOT,
    TMP_DIR,
    Metric,
    Tally,
    at_reference_speed,
    beyond,
    child_env,
    digest,
    layer_metrics,
    median,
    mismatches,
    percentile,
    reference_s,
    vm_hwm_mb,
)

MEMORY_DEVICES = ("NI2w", "CNI4", "CNI16Q", "CNI512Q", "CNI16Qm")
IO_DEVICES = ("NI2w", "CNI4", "CNI16Q", "CNI512Q")
LATENCY_SIZES = (8, 64, 256)
BANDWIDTH_SIZES = (64, 1024)
CLIENTS = 2
#: Warm requests per client per lifetime: two lifetimes give over 1,000
#: warm samples, so the 99th percentile has at least ten beyond it.
WARM_PER_CLIENT = 270
MIN_LIFETIMES = 2
#: Extra bare server launches per timed run, pooled into ``setup_s``: half
#: before the lifetimes and half after, so that they see the host in more
#: than one state.
SETUP_PROBES = 6
POINT_TIMEOUT_S = 120.0
REQUEST_TIMEOUT_S = 150.0


def cold_specs() -> List[Tuple[str, ExperimentSpec]]:
    """Figure 6 latency and Figure 7 bandwidth points, memory and I/O bus."""
    configs = [(d, "memory") for d in MEMORY_DEVICES] + [(d, "io") for d in IO_DEVICES]
    specs = []
    for device, bus in configs:
        for size in LATENCY_SIZES:
            specs.append((f"latency/{device}@{bus}/{size}B", ExperimentSpec(
                kind="latency", device=device, bus=bus, message_bytes=size,
                iterations=30, warmup=8)))
        for size in BANDWIDTH_SIZES:
            specs.append((f"bandwidth/{device}@{bus}/{size}B", ExperimentSpec(
                kind="bandwidth", device=device, bus=bus, message_bytes=size,
                messages=100, warmup=16)))
    return specs


@dataclass
class Reply:
    """One request as the client saw it."""

    label: Any
    phase: str
    req: str
    latency_s: float
    status: int = 0
    role: str = ""
    etag: str = ""
    location: str = ""
    body: bytes = b""
    error: str = ""


class Client:
    """One persistent HTTP/1.1 connection."""

    def __init__(self, host: str, port: int, name: str):
        self.host, self.port, self.name = host, port, name
        self.conn = http.client.HTTPConnection(host, port, timeout=REQUEST_TIMEOUT_S)
        self.sent = 0

    def request(self, label: str, phase: str, method: str, path: str,
                body: Optional[bytes] = None, headers: Optional[Dict[str, str]] = None) -> Reply:
        self.sent += 1
        req = f"{self.name}-{self.sent}"
        all_headers = {"X-Bench-Phase": phase, "X-Bench-Request": req, **(headers or {})}
        if body is not None:
            all_headers["Content-Type"] = "application/json"
        started = time.perf_counter()
        try:
            self.conn.request(method, path, body=body, headers=all_headers)
            resp = self.conn.getresponse()
            data = resp.read()
        except (OSError, http.client.HTTPException) as exc:
            self.conn.close()  # the next request reconnects
            return Reply(label, phase, req, time.perf_counter() - started,
                         error=f"{type(exc).__name__}: {exc}")
        return Reply(
            label, phase, req, time.perf_counter() - started, status=resp.status,
            role=resp.getheader("X-Repro-Role", ""),
            etag=resp.getheader("ETag", "").strip('"'),
            location=resp.getheader("Location", ""), body=data,
        )

    def close(self) -> None:
        self.conn.close()


class Server:
    """One ``repro.service`` process on a fresh store under the checkout."""

    def __init__(self, traced: bool):
        os.makedirs(TMP_DIR, exist_ok=True)
        self.workdir = tempfile.mkdtemp(prefix="service-", dir=TMP_DIR)
        self.store = os.path.join(self.workdir, "store")
        self.spans_path = os.path.join(self.workdir, "spans.json") if traced else None
        self.proc: Optional[subprocess.Popen] = None
        self.reader: Optional[threading.Thread] = None
        self.output: List[str] = []
        self.host, self.port = "127.0.0.1", 0

    def _drain(self) -> None:
        for line in self.proc.stdout:
            self.output.append(line)

    def start(self) -> float:
        """Launch and wait for the readiness banner; returns the setup time."""
        args = ["--port", "0", "--store-dir", self.store,
                "--point-timeout-s", str(POINT_TIMEOUT_S), "--grace-s", "10"]
        if self.spans_path:
            cmd = [sys.executable, os.path.join(ROOT, "perfbench", "traced_server.py"),
                   self.spans_path, *args]
        else:
            cmd = [sys.executable, "-m", "repro.service", *args]
        started = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                                     text=True, env=child_env(), cwd=ROOT)
        banner = self.proc.stdout.readline()
        setup_s = time.perf_counter() - started
        # Keep draining the pipe so a chatty server can never block on it.
        self.reader = threading.Thread(target=self._drain, daemon=True)
        self.reader.start()
        marker = "service on http://"
        if marker not in banner:
            raise RuntimeError(f"server did not start: {banner!r}")
        address = banner.split(marker, 1)[1].split()[0]
        host, port = address.rsplit(":", 1)
        self.host, self.port = host, int(port)
        return setup_s

    def stop(self) -> List[str]:
        """SIGTERM, wait, and check the exit code, drain line and lock files."""
        problems: List[str] = []
        if self.proc is None:
            return ["server never started"]
        self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            problems.append("server ignored SIGTERM")
        self.reader.join(timeout=10)
        output = "".join(self.output)
        if self.proc.returncode != 0:
            problems.append(f"server exit code {self.proc.returncode}")
        if "drained:" not in output:
            problems.append("no drain report")
        locks = glob.glob(os.path.join(self.store, ".inflight", "*.lock"))
        if locks:
            problems.append(f"{len(locks)} leftover .inflight lock(s)")
        return problems

    def spans(self) -> List[Dict[str, Any]]:
        with open(self.spans_path, encoding="utf-8") as handle:
            return json.load(handle)

    def cleanup(self) -> None:
        if self.proc is not None:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()
            if self.reader is not None:
                self.reader.join(timeout=10)
            self.proc.stdout.close()
        shutil.rmtree(self.workdir, ignore_errors=True)


@dataclass
class Lifetime:
    """What one server lifetime measured."""

    setup_s: float = 0.0
    setup_wall_s: float = 0.0
    pass_s: float = 0.0
    wall_s: float = 0.0
    rss_mb: float = 0.0
    cold: List[Reply] = field(default_factory=list)
    warm: List[Reply] = field(default_factory=list)
    stats: Dict[str, Any] = field(default_factory=dict)
    spans: List[Dict[str, Any]] = field(default_factory=list)
    outputs: Dict[str, Dict[str, float]] = field(default_factory=dict)


def _cold_client(client: Client, specs, barrier: threading.Barrier, out: List[Reply]) -> None:
    for pid, spec in specs:
        try:
            barrier.wait(timeout=REQUEST_TIMEOUT_S)
        except threading.BrokenBarrierError:
            out.append(Reply(pid, "cold", "", 0.0, error="the other client stopped"))
            return
        body = json.dumps(spec.to_dict()).encode("utf-8")
        out.append(client.request(pid, "cold", "POST", "/run", body=body))


def _warm_client(client: Client, plan, out: List[Reply]) -> None:
    for label, method, path, body, headers in plan:
        out.append(client.request(label, "warm", method, path, body=body, headers=headers))


def _check_cold(pid: str, spec: ExperimentSpec, replies: List[Reply],
                pins: Dict[str, Any]) -> Tuple[List[str], Dict[str, Any]]:
    """Problems with one spec's cold replies, and the expected warm answer."""
    problems: List[str] = []
    for reply in replies:
        if reply.error or reply.status != 200:
            problems.append(f"status {reply.status} {reply.error}".strip())
    if problems:
        return problems, {}
    first = replies[0]
    for reply in replies:
        if reply.etag != hashlib.sha256(reply.body).hexdigest():
            problems.append("ETag is not the body's sha256")
        if (reply.body, reply.location) != (first.body, first.location):
            problems.append("the two clients got different answers")
    try:
        doc = json.loads(first.body)
    except ValueError:
        return problems + ["body is not JSON"], {}
    if doc.get("spec") != spec.to_dict():
        problems.append("body is for another spec")
    metrics = doc.get("metrics", {})
    if pins:
        problems += mismatches(metrics, pins[pid]) if pid in pins else ["no pinned value"]
    expected = {"key": first.location.rsplit("/", 1)[-1], "etag": first.etag,
                "body": first.body, "spec": spec, "metrics": metrics}
    return problems, expected


def _warm_plan(expected: List[Dict[str, Any]], client: int, rng: random.Random):
    """A client's warm requests: run, get, 304 per key, in a seeded key order."""
    if not expected:
        return []  # every cold request failed; those failures are counted
    order = list(range(len(expected)))
    rng.shuffle(order)
    offset = client * len(order) // CLIENTS
    plan = []
    for j in range(WARM_PER_CLIENT):
        want = expected[order[(j // 3 + offset) % len(order)]]
        kind = j % 3
        if kind == 0:
            body = json.dumps(want["spec"].to_dict()).encode("utf-8")
            plan.append((("run", want), "POST", "/run", body, None))
        elif kind == 1:
            plan.append((("get", want), "GET", f"/result/{want['key']}", None, None))
        else:
            headers = {"If-None-Match": f'"{want["etag"]}"'}
            plan.append((("304", want), "GET", f"/result/{want['key']}", None, headers))
    return plan


def _check_warm(reply: Reply) -> List[str]:
    kind, want = reply.label
    if reply.error:
        return [reply.error]
    if kind == "304":
        if reply.status != 304:
            return [f"conditional GET answered {reply.status}, not 304"]
        return [] if reply.etag == want["etag"] and not reply.body else ["bad 304 answer"]
    if reply.status != 200:
        return [f"{kind} answered {reply.status}"]
    problems = []
    if reply.body != want["body"] or reply.etag != want["etag"]:
        problems.append("body or ETag differs from the cold answer")
    if kind == "run" and reply.role != "store":
        problems.append(f"warm POST /run role {reply.role!r}, not 'store'")
    return problems


def run_lifetime(traced: bool, seed: int, pins: Dict[str, Any], tally: Tally) -> Lifetime:
    rng = random.Random(seed)
    specs = cold_specs()
    rng.shuffle(specs)
    life = Lifetime()
    server = Server(traced)
    try:
        reference = reference_s()
        life.setup_wall_s = server.start()
        life.setup_s = at_reference_speed(life.setup_wall_s, reference)
        clients = [Client(server.host, server.port, f"c{i}") for i in range(CLIENTS)]
        try:
            barrier = threading.Barrier(CLIENTS)
            per_client: List[List[Reply]] = [[] for _ in clients]
            reference = reference_s()
            started = time.perf_counter()
            threads = [threading.Thread(target=_cold_client, args=(c, specs, barrier, out))
                       for c, out in zip(clients, per_client)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            cold_s = time.perf_counter() - started
            # The cold phase simulates and is CPU-bound, so it is rescaled by
            # the host's speed; the warm phase mostly waits on the transport.
            cold_scaled = at_reference_speed(cold_s, (reference + reference_s()) / 2)

            expected = []
            for index, (pid, spec) in enumerate(specs):
                replies = [out[index] for out in per_client if index < len(out)]
                life.cold += replies
                problems, want = _check_cold(pid, spec, replies, pins)
                if len(replies) < CLIENTS:
                    problems.append("a client never sent this spec")
                for _ in range(CLIENTS):
                    tally.record(f"cold {pid}", problems)
                if want:
                    expected.append(want)
                    life.outputs[pid] = want["metrics"]

            plans = [_warm_plan(expected, i, random.Random(f"{seed}-{i}")) for i in range(CLIENTS)]
            per_client = [[] for _ in clients]
            started = time.perf_counter()
            threads = [threading.Thread(target=_warm_client, args=(c, plan, out))
                       for c, plan, out in zip(clients, plans, per_client)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            warm_s = time.perf_counter() - started
            life.wall_s = cold_s + warm_s
            life.pass_s = cold_scaled + warm_s
            for out in per_client:
                for reply in out:
                    life.warm.append(reply)
                    tally.record(f"warm {reply.label[0]} {reply.label[1]['key'][:12]}",
                                 _check_warm(reply))

            stats = clients[0].request("stats", "stats", "GET", "/stats")
            life.stats = json.loads(stats.body) if stats.status == 200 else {}
            life.rss_mb = vm_hwm_mb(server.proc.pid)
        finally:
            for client in clients:
                client.close()
        tally.record("server lifetime", server.stop())
        if traced:
            life.spans = server.spans()
    finally:
        server.cleanup()
    return life


def _ms(replies: List[Reply]) -> List[float]:
    return [1000.0 * r.latency_s for r in replies]


def _print_mix(lives: List[Lifetime]) -> None:
    roles = Counter(r.role or "-" for life in lives for r in life.cold + life.warm)
    statuses = Counter(r.status for life in lives for r in life.cold + life.warm)
    print(f"X-Repro-Role counts: {dict(sorted(roles.items()))}")
    print(f"HTTP status counts: {dict(sorted(statuses.items()))}")


def _report_outputs(seed: int, lives: List[Lifetime]) -> None:
    if seed == DEFAULT_SEED:
        print(f"simulated outputs checked against pins.json (seed {seed})")
    else:
        print(f"simulated-output digest (seed {seed}): {digest(lives[0].outputs)}")


def launch_once(tally: Tally) -> Tuple[float, float]:
    """Start a bare server and stop it; returns its setup time, as measured
    and at reference host speed."""
    server = Server(traced=False)
    try:
        reference = reference_s()
        setup_s = server.start()
        tally.record("server launch", server.stop())
    finally:
        server.cleanup()
    return setup_s, at_reference_speed(setup_s, reference)


def run_timed(seed: int, seconds: float, pins: Dict[str, Any], tally: Tally) -> List[Metric]:
    raw_setups, setups = [], []

    def launch(count: int) -> None:
        for _ in range(count):
            raw, scaled = launch_once(tally)
            raw_setups.append(raw)
            setups.append(scaled)

    launch(SETUP_PROBES // 2)
    lives: List[Lifetime] = []
    started = time.perf_counter()
    while len(lives) < MIN_LIFETIMES or time.perf_counter() - started < seconds:
        lives.append(run_lifetime(False, seed + len(lives), pins, tally))
        raw_setups.append(lives[-1].setup_wall_s)
        setups.append(lives[-1].setup_s)
    launch(SETUP_PROBES - SETUP_PROBES // 2)

    cold = [ms for life in lives for ms in _ms(life.cold)]
    warm = [ms for life in lives for ms in _ms(life.warm)]
    per_spec: Dict[str, List[float]] = {}
    for life in lives:
        slowest: Dict[str, float] = {}
        for reply in life.cold:
            slowest[reply.label] = max(slowest.get(reply.label, 0.0), reply.latency_s)
        for pid, secs in slowest.items():
            per_spec.setdefault(pid, []).append(secs)
    spec_medians = {pid: median(v) for pid, v in per_spec.items()} or {"none": 0.0}
    slowest_pid = max(spec_medians, key=spec_medians.get)
    _print_mix(lives)
    _report_outputs(seed, lives)
    return [
        Metric("pass_s", median([life.pass_s for life in lives]), "s", len(lives),
               f"median time of one cold + warm pass ({len(lives[0].cold)} cold, "
               f"{len(lives[0].warm)} warm requests), cold phase at reference host speed"),
        Metric("wall_s", median([life.wall_s for life in lives]), "s", len(lives),
               "the same, as measured"),
        Metric("setup_s", median(setups), "s", len(setups),
               "median of server launches: spawn until the readiness banner, "
               "at reference host speed"),
        Metric("setup_wall_s", median(raw_setups), "s", len(raw_setups),
               "the same, as measured"),
        Metric("peak_rss_mb", median([life.rss_mb for life in lives]), "MiB", len(lives),
               "median of the servers' VmHWM"),
        Metric("slowest_point_s", spec_medians[slowest_pid], "s",
               len(per_spec.get(slowest_pid, [])),
               f"median latency of the slowest cold request, {slowest_pid}"),
        Metric("cold_p50_ms", percentile(cold, 50), "ms", len(cold), "cold request latency"),
        Metric("cold_p90_ms", percentile(cold, 90), "ms", len(cold),
               f"{beyond(len(cold), 90):.0f} samples beyond"),
        Metric("warm_p50_ms", percentile(warm, 50), "ms", len(warm), "warm request latency"),
        Metric("warm_p99_ms", percentile(warm, 99), "ms", len(warm),
               f"{beyond(len(warm), 99):.0f} samples beyond"),
    ]


def run_traced(seed: int, pins: Dict[str, Any], tally: Tally) -> List[Metric]:
    """An untraced lifetime, then a traced one through ``traced_server.py``."""
    plain = run_lifetime(False, seed, pins, tally)
    life = run_lifetime(True, seed, pins, tally)
    if life.outputs != plain.outputs:
        tally.fail("traced service outputs differ from the untraced ones")

    def spans(name: str, phase: Optional[str] = None) -> List[Dict[str, Any]]:
        return [s for s in life.spans
                if s["name"] == name and (phase is None or s["phase"] == phase)]

    handler = {s["req"]: s["ms"] for s in spans("handler", "warm")}
    transport = [1000.0 * r.latency_s - handler[r.req] for r in life.warm if r.req in handler]
    guarded = spans("guarded")
    waits = [s["ms"] for s in spans("run_or_wait", "cold") if s["role"] != "leader"]
    named = {
        "api.validate_ms": [s["ms"] for s in spans("validate")],
        "api.simulate_ms": [s["elapsed_ms"] for s in guarded],
        "api.guarded_overhead_ms": [s["ms"] - s["elapsed_ms"] for s in guarded],
        "service.handler_ms": list(handler.values()),
        "service.transport_ms": transport,
        "service.store_read_ms": [s["ms"] for s in spans("store_read", "warm")],
        "service.store_put_ms": [s["ms"] for s in spans("store_put")],
        "service.dedup_wait_ms": waits,
    }
    values = {name: median(v) if v else 0.0 for name, v in named.items()}
    samples = {name: len(v) for name, v in named.items()}
    samples.update({name: 1 for name in (
        "service.leaders", "service.followers", "service.store_served",
        "service.responses_304", "trace.overhead_s")})
    dedup = life.stats.get("dedup", {})
    service = life.stats.get("service", {})
    values.update({
        "service.leaders": dedup.get("leaders", 0),
        "service.followers": dedup.get("followers", 0) + dedup.get("remote_followers", 0),
        "service.store_served": service.get("store_served", 0),
        "service.responses_304": service.get("responses_304", 0),
        "trace.overhead_s": life.wall_s - plain.wall_s,
    })
    warm_ms = _ms(life.warm)
    print(f"traced warm latency: p50 {percentile(warm_ms, 50):.3f} ms over {len(warm_ms)}; "
          f"handler p50 {values['service.handler_ms']:.3f} ms, "
          f"transport p50 {values['service.transport_ms']:.3f} ms")
    print(f"tracing overhead: traced {life.wall_s:.3f} s - untraced {plain.wall_s:.3f} s "
          f"= {life.wall_s - plain.wall_s:.3f} s")
    _print_mix([plain, life])
    _report_outputs(seed, [life])
    return layer_metrics(values, samples)


def pin_outputs() -> Dict[str, Any]:
    """Expected metrics of every cold spec, computed in-process."""
    from repro.api import run_point

    return {pid: run_point(spec).metrics for pid, spec in cold_specs()}
