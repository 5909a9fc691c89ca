"""The simulation workloads: Figure 8 (``fig8``) and lossy mesh traffic.

Timed runs go through the public ``repro.api.run_point``, serially and
uncached.  The traced run builds each machine with ``Machine.from_spec`` and
runs the registered workload the way the ``macro`` and ``traffic`` kinds do,
so that it can read the machine's accessors after the run; it profiles the
run with cProfile and folds self time by ``repro.<package>``.
"""

from __future__ import annotations

import cProfile
import os
import pstats
import subprocess
import sys
import time
from typing import Any, Dict, List, Tuple

from repro.api import ExperimentSpec, run_point
from repro.api.spec import DEFAULT_WORKLOAD_SEED

from perfbench.common import (
    DEFAULT_SEED,
    ROOT,
    Metric,
    Tally,
    at_reference_speed,
    child_env,
    digest,
    layer_metrics,
    median,
    mismatches,
    peak_rss_mb_self,
    reference_s,
)

FIG8_DEVICES = ("NI2w", "CNI4", "CNI16Q", "CNI512Q", "CNI16Qm")
FIG8_APPS = ("spsolve", "gauss", "em3d", "moldyn", "appbt")
LOSSY_PATTERNS = ("uniform", "transpose", "allreduce", "halo")
LOSSY_DEVICES = ("NI2w", "CNI16Qm")
LOSSY_PARAMS = {"fabric": "mesh4x4", "faults": "lossy1", "reliable_messaging": True}

#: The benchmark seed picks a lossy-mesh offset below this, and every offset
#: below it has been run to completion on every point.  Other draws can stall
#: in reliable messaging (traffic seed 3 with fault seed 3 stalls
#: uniform/NI2w into SimulationHangError), the same stall that keeps hotspot,
#: bursty and kv out of the mix; keeping to checked draws means no seed hangs.
LOSSY_SEED_OFFSETS = 32

#: Cycle budget both kinds use when a spec pins none.
MAX_CYCLES = 2_000_000_000
#: Setup probes per timed run; ``setup_s`` is their median.
SETUP_PROBES = 11
#: A timed run makes at least this many passes, whatever ``--seconds`` says.
MIN_PASSES = 2


def points(workload: str, seed: int) -> List[Tuple[str, ExperimentSpec]]:
    """The workload's point list, derived from the benchmark seed."""
    if workload == "fig8":
        return [
            (
                f"{app}/{device}",
                ExperimentSpec(
                    kind="macro", device=device, bus="memory", num_nodes=16,
                    workload=app, scale=0.5, seed=DEFAULT_WORKLOAD_SEED + seed,
                ),
            )
            for app in FIG8_APPS
            for device in FIG8_DEVICES
        ]
    offset = seed % LOSSY_SEED_OFFSETS
    return [
        (
            f"{pattern}/{device}",
            ExperimentSpec(
                kind="traffic", device=device, bus="memory", num_nodes=16,
                workload=pattern, scale=1.0, seed=DEFAULT_WORKLOAD_SEED + offset,
                params={**LOSSY_PARAMS, "fault_seed": offset},
            ),
        )
        for pattern in LOSSY_PATTERNS
        for device in LOSSY_DEVICES
    ]


def probe_ready(workload: str, seed: int) -> None:
    """Body of a setup probe: everything a run needs before its first point."""
    import repro.experiments.macro  # noqa: F401 — the macro kind's runner
    import repro.traffic.measure  # noqa: F401 — the traffic kind's runner

    for _, spec in points(workload, seed):
        spec.validate()


def measure_setup(workload: str, seed: int) -> float:
    """Wall time from spawning a fresh interpreter until it is ready to run."""
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--probe-setup", workload, "--seed", str(seed)],
        stdout=subprocess.PIPE, text=True, env=child_env(), cwd=ROOT,
    )
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - started
    finally:
        proc.stdout.close()
        proc.wait(timeout=60)
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"setup probe failed (exit {proc.returncode}, said {line!r})")
    return elapsed


def check(
    tally: Tally, label: str, outputs: Dict[str, float], expected: List[Dict[str, Any]]
) -> None:
    """One operation: ``outputs`` must match every expectation given."""
    problems: List[str] = []
    for want in expected:
        problems += mismatches(outputs, want)
    tally.record(label, problems)


def run_timed(
    workload: str, seed: int, seconds: float, pins: Dict[str, Any], tally: Tally
) -> List[Metric]:
    """Passes over the point list until ``seconds`` have been measured."""
    pts = points(workload, seed)
    warm_id, warm_spec = pts[-1]
    check(tally, f"warm-up {warm_id}", run_point(warm_spec).metrics,
          [pins[warm_id]["outputs"]] if pins else [])
    setup: List[float] = []
    raw_setup: List[float] = []

    def probe_setup(reference: float) -> None:
        raw_setup.append(measure_setup(workload, seed))
        setup.append(at_reference_speed(raw_setup[-1], reference))

    # The setup probes are spread over the passes, so that their median sees
    # the host in the same mix of fast and slow states as the passes do.
    stride = max(1, len(pts) * MIN_PASSES // SETUP_PROBES)
    points_run = 0

    first: Dict[str, Dict[str, float]] = {}
    per_point: Dict[str, List[float]] = {pid: [] for pid, _ in pts}
    pass_walls: List[float] = []
    pass_scaled: List[float] = []
    reference = reference_s()
    started = time.perf_counter()
    while len(pass_walls) < MIN_PASSES or time.perf_counter() - started < seconds:
        wall = scaled = 0.0
        for pid, spec in pts:
            point_start = time.perf_counter()
            try:
                result = run_point(spec)
            except Exception as exc:  # a failed point is counted, not fatal
                tally.fail(f"{pid}: {type(exc).__name__}: {exc}")
                continue
            elapsed = time.perf_counter() - point_start
            # The host's speed is gauged just before and just after the point.
            after = reference_s()
            wall += elapsed
            scaled += at_reference_speed(elapsed, (reference + after) / 2)
            reference = after
            points_run += 1
            if len(setup) < SETUP_PROBES and points_run % stride == 0:
                probe_setup(reference)
            per_point[pid].append(elapsed)
            expected = [pins[pid]["outputs"]] if pins else []
            if pid in first:
                expected.append(first[pid])
            else:
                first[pid] = result.metrics
            check(tally, pid, result.metrics, expected)
        pass_walls.append(wall)
        pass_scaled.append(scaled)
    while len(setup) < SETUP_PROBES:  # only when points failed
        probe_setup(reference_s())

    point_medians = {pid: median(t) for pid, t in per_point.items() if t} or {"none": 0.0}
    slowest = max(point_medians, key=point_medians.get)
    report_outputs(seed, first)
    return [
        Metric("pass_s", median(pass_scaled), "s", len(pass_scaled),
               f"median time of one pass over {len(pts)} points, at reference host speed"),
        Metric("wall_s", median(pass_walls), "s", len(pass_walls),
               "the same, as measured"),
        Metric("setup_s", median(setup), "s", len(setup),
               "median of fresh interpreters: start until ready to run, at reference speed"),
        Metric("setup_wall_s", median(raw_setup), "s", len(raw_setup), "the same, as measured"),
        Metric("peak_rss_mb", peak_rss_mb_self(), "MiB", 1,
               "peak RSS of the simulating process"),
        Metric("slowest_point_s", point_medians[slowest], "s", len(per_point.get(slowest, [])),
               f"median wall time of the slowest point, {slowest}"),
    ]


def report_outputs(seed: int, outputs: Dict[str, Dict[str, float]], what: str = "") -> None:
    if seed == DEFAULT_SEED:
        print(f"simulated outputs checked against pins.json (seed {seed})")
    else:
        print(f"{what}simulated-output digest (seed {seed}): {digest(outputs)}")


# ----------------------------------------------------------------------
# Traced run
# ----------------------------------------------------------------------

def simulate_traced(spec: ExperimentSpec, profile: cProfile.Profile) -> Tuple[Any, Any, float]:
    """Run one point as its kind does, profiled; returns (machine, result, build_s)."""
    from repro.apps import create_workload
    from repro.node.machine import Machine

    import repro.traffic  # noqa: F401 — registers the traffic patterns

    profile.enable()
    try:
        build_start = time.perf_counter()
        machine = Machine.from_spec(spec)
        build_s = time.perf_counter() - build_start
        kwargs = dict(spec.workload_kwargs)
        kwargs.setdefault("seed", spec.resolved_seed())
        work = create_workload(spec.workload, scale=spec.scale, **kwargs)
        max_cycles = spec.max_cycles if spec.max_cycles is not None else MAX_CYCLES
        result = work.run(machine, max_cycles=max_cycles)
    finally:
        profile.disable()
    return machine, result, build_s


def simulated_outputs(spec: ExperimentSpec, machine: Any, result: Any) -> Dict[str, float]:
    """The outputs ``run_point`` reports for this point, read off the machine."""
    out = {
        "cycles": float(result.cycles),
        "memory_bus_occupancy": float(result.memory_bus_occupancy),
        "io_bus_occupancy": float(result.io_bus_occupancy),
        "network_messages": float(result.network_messages),
    }
    if spec.kind == "traffic":
        net = machine.network_stats()
        out["user_messages"] = float(result.user_messages)
        out["messages_delivered"] = float(net.get("messages_delivered", 0))
        out["payload_bytes"] = float(net.get("payload_bytes", 0))
        for key in ("hops", "contention_cycles"):
            if key in net:
                out[f"fabric_{key}"] = float(net[key])
    return out


def fault_outputs(machine: Any) -> Dict[str, float]:
    """Fault-injection and recovery counters, flattened (empty without faults)."""
    if not machine.params.faults:
        return {}
    out: Dict[str, float] = {}
    for key, value in machine.fault_stats().items():
        if isinstance(value, dict):
            for sub, number in value.items():
                out[f"{key}_{sub}"] = float(number)
        elif isinstance(value, (int, float)) and not isinstance(value, bool) and key != "seed":
            out[key] = float(value)
    return out


def fold_profile(profile: cProfile.Profile) -> Tuple[Dict[str, float], Dict[str, int], List]:
    """Self time per ``repro.<package>``, hot call counts, and the top functions."""
    raw = pstats.Stats(profile).stats  # type: ignore[attr-defined]
    by_layer: Dict[str, float] = {}
    calls = {"resumes": 0, "transactions": 0}
    rows = []
    for (filename, line, func), (_, ncalls, selftime, _, _) in raw.items():
        parts = filename.replace(os.sep, "/").split("/repro/")
        if len(parts) > 1 and "/" in parts[-1]:
            layer = parts[-1].split("/")[0]
        elif len(parts) > 1:
            layer = "repro"
        else:
            layer = "other"
        by_layer[layer] = by_layer.get(layer, 0.0) + selftime
        if layer == "sim" and filename.endswith("process.py") and func == "_resume":
            calls["resumes"] += ncalls
        if layer == "coherence" and filename.endswith("bus.py") and func == "transaction":
            calls["transactions"] += ncalls
        short = parts[-1] if len(parts) > 1 else filename
        rows.append((selftime, ncalls, f"{short}:{line}({func})"))
    rows.sort(reverse=True)
    return by_layer, calls, rows[:10]


def run_traced(workload: str, seed: int, pins: Dict[str, Any], tally: Tally) -> List[Metric]:
    """An untraced pass, then a traced pass that must reproduce its outputs."""
    pts = points(workload, seed)
    run_point(pts[-1][1])  # warm-up

    untraced: Dict[str, Dict[str, float]] = {}
    started = time.perf_counter()
    for pid, spec in pts:
        try:
            untraced[pid] = run_point(spec).metrics
        except Exception as exc:
            tally.fail(f"untraced {pid}: {type(exc).__name__}: {exc}")
            continue
        check(tally, f"untraced {pid}", untraced[pid], [pins[pid]["outputs"]] if pins else [])
    untraced_s = time.perf_counter() - started

    profile = cProfile.Profile()
    totals: Dict[str, float] = {}
    recovery_p95: List[float] = []
    outputs: Dict[str, Dict[str, float]] = {}

    def add(key: str, value: float) -> None:
        totals[key] = totals.get(key, 0.0) + value

    started = time.perf_counter()
    for pid, spec in pts:
        try:
            machine, result, build_s = simulate_traced(spec, profile)
        except Exception as exc:
            tally.fail(f"traced {pid}: {type(exc).__name__}: {exc}")
            continue
        sim_out = simulated_outputs(spec, machine, result)
        faults = fault_outputs(machine)
        outputs[pid] = {**sim_out, **faults}
        # The traced pass reads the measured outputs, not the ones the kinds
        # derive from them (rates), so compare on the keys it has.
        expected = [{k: v for k, v in untraced.get(pid, {}).items() if k in sim_out}]
        if pins:
            pinned = pins[pid]["outputs"]
            expected += [{k: v for k, v in pinned.items() if k in sim_out},
                         pins[pid].get("faults", {})]
        check(tally, f"traced {pid}", outputs[pid], expected)

        add("build_s", build_s)
        add("events", machine.sim.event_count)
        spin = machine.spin_elision_stats()
        add("elided_events", spin["elided_events"])
        add("elided_spins", spin["elided_spins"])
        add("transitions", machine.coherence_stats()["protocol_transitions"])
        add("occupancy", machine.total_memory_bus_occupancy() + machine.total_io_bus_occupancy())
        add("polls", sum(node.ni.stats.get("polls") for node in machine.nodes))
        add("empty_polls", sum(node.ni.stats.get("empty_polls") for node in machine.nodes))
        add("user_messages", result.user_messages)
        add("network_messages", result.network_messages)
        net = machine.network_stats()
        add("delivered", net.get("messages_delivered", 0))
        add("hops", net.get("hops", 0))
        add("contention", net.get("contention_cycles", 0))
        add("latency_samples", machine.fabric.latency_samples.count)
        add("retransmits", faults.get("retransmits", 0))
        add("duplicates_discarded", faults.get("duplicates_discarded", 0))
        add("drops", faults.get("drops", 0))
        add("delayed", faults.get("delayed", 0))
        if "recovery_latency_p95" in faults:
            recovery_p95.append(faults["recovery_latency_p95"])
    traced_s = time.perf_counter() - started

    by_layer, calls, top = fold_profile(profile)
    total_self = sum(by_layer.values())
    print(f"cProfile self time by package ({total_self:.3f} s in all):")
    for layer, secs in sorted(by_layer.items(), key=lambda kv: -kv[1]):
        print(f"  {layer:<12} {secs:9.3f} s  {100.0 * secs / total_self:5.1f}%")
    hot = sum(by_layer.get(layer, 0.0) for layer in ("sim", "coherence", "ni"))
    print(f"  sim + coherence + ni: {100.0 * hot / total_self:.1f}% of self time")
    print("top 10 functions by self time:")
    for selftime, ncalls, name in top:
        print(f"  {selftime:9.3f} s  {ncalls:>10}  {name}")
    print(f"tracing overhead: traced {traced_s:.3f} s - untraced {untraced_s:.3f} s "
          f"= {traced_s - untraced_s:.3f} s")
    report_outputs(seed, outputs, "traced-run ")

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    t = totals.get
    values = {
        "sim.self_s": by_layer.get("sim", 0.0),
        "sim.events": t("events", 0),
        "sim.ns_per_event": 1e9 * ratio(by_layer.get("sim", 0.0), t("events", 0)),
        "sim.elided_events": t("elided_events", 0),
        "sim.process_resumes": calls["resumes"],
        "coherence.self_s": by_layer.get("coherence", 0.0),
        "coherence.bus_transactions": calls["transactions"],
        "coherence.us_per_transaction": 1e6 * ratio(
            by_layer.get("coherence", 0.0), calls["transactions"]),
        "coherence.protocol_transitions": t("transitions", 0),
        "coherence.bus_occupancy_cycles": t("occupancy", 0),
        "ni.self_s": by_layer.get("ni", 0.0),
        "ni.polls": t("polls", 0),
        "ni.empty_poll_frac": ratio(t("empty_polls", 0), t("polls", 0)),
        "ni.elided_spins": t("elided_spins", 0),
        "msglayer.self_s": by_layer.get("msglayer", 0.0),
        "msglayer.net_per_user_msg": ratio(t("network_messages", 0), t("user_messages", 0)),
        "msglayer.retransmits": t("retransmits", 0),
        "msglayer.spurious_retransmit_frac": ratio(
            t("duplicates_discarded", 0), t("retransmits", 0)),
        "msglayer.recovery_p95_cycles": max(recovery_p95, default=0.0),
        "network.self_s": by_layer.get("network", 0.0),
        "network.messages_delivered": t("delivered", 0),
        "network.hops": t("hops", 0),
        "network.contention_cycles": t("contention", 0),
        "network.latency_samples_kept": t("latency_samples", 0),
        "faults.self_s": by_layer.get("faults", 0.0),
        "faults.drops": t("drops", 0),
        "faults.delayed": t("delayed", 0),
        "node.build_s": t("build_s", 0.0),
        "apps.self_s": by_layer.get("apps", 0.0) + by_layer.get("traffic", 0.0),
        "other.self_s": by_layer.get("other", 0.0),
        "trace.overhead_s": traced_s - untraced_s,
    }
    samples = {name: len(outputs) for name in values}
    samples["trace.overhead_s"] = 1
    return layer_metrics(values, samples)


def pin_outputs(workload: str) -> Dict[str, Any]:
    """Expected outputs at the default seed, for ``pins.json``."""
    profile = cProfile.Profile()
    pinned: Dict[str, Any] = {}
    for pid, spec in points(workload, DEFAULT_SEED):
        entry: Dict[str, Any] = {"outputs": run_point(spec).metrics}
        machine, _, _ = simulate_traced(spec, profile)
        faults = fault_outputs(machine)
        if faults:
            entry["faults"] = faults
        pinned[pid] = entry
    return pinned

