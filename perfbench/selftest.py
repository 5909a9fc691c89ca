"""Self-test: the benchmark must report wrong outputs and exceptions as failures.

Run with ``python3 perfbench/run.py --self-test``.  Each case shrinks a
workload to one or two cheap points, injects one fault, and checks the
tally; a control case with nothing injected must report no failure.
"""

from __future__ import annotations

import copy
import json
import os
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Tuple

from perfbench import service_mix, simulate
from perfbench.common import Tally

PINS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pins.json")


@contextmanager
def patched(obj: Any, name: str, value: Any) -> Iterator[None]:
    saved = getattr(obj, name)
    setattr(obj, name, value)
    try:
        yield
    finally:
        setattr(obj, name, saved)


def _pins() -> Dict[str, Any]:
    with open(PINS_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def _one_point(workload: str, pid: str) -> Callable:
    full = simulate.points

    def points(_workload: str, seed: int) -> List[Tuple[str, Any]]:
        return [p for p in full(workload, seed) if p[0] == pid]

    return points


def sim_timed(pins: Dict[str, Any], run_point: Callable = None) -> Tally:
    tally = Tally()
    with patched(simulate, "points", _one_point("fig8", "spsolve/NI2w")), \
            patched(simulate, "SETUP_PROBES", 1), \
            patched(simulate, "run_point", run_point or simulate.run_point):
        simulate.run_timed("fig8", 0, 0.0, pins, tally)
    return tally


def sim_traced(pins: Dict[str, Any]) -> Tally:
    tally = Tally()
    with patched(simulate, "points", _one_point("lossy-mesh", "uniform/CNI16Qm")):
        simulate.run_traced("lossy-mesh", 0, pins, tally)
    return tally


def service(pins: Dict[str, Any], extra=None) -> Tally:
    full = service_mix.cold_specs()[:2] + ([extra] if extra else [])
    tally = Tally()
    with patched(service_mix, "cold_specs", lambda: list(full)), \
            patched(service_mix, "WARM_PER_CLIENT", 6):
        service_mix.run_lifetime(False, 0, pins, tally)
    return tally


def main() -> int:
    from repro.api import ExperimentSpec

    pins = _pins()
    perturbed = copy.deepcopy(pins)
    perturbed["fig8"]["spsolve/NI2w"]["outputs"]["cycles"] += 1
    perturbed["lossy-mesh"]["uniform/CNI16Qm"]["faults"]["retransmits"] += 1
    first_cold = service_mix.cold_specs()[0][0]
    perturbed["service-mix"][first_cold]["round_trip_cycles"] += 1

    calls = {"n": 0}
    real_run_point = simulate.run_point

    def flaky_run_point(spec):
        calls["n"] += 1
        if calls["n"] == 2:  # the first timed pass; the warm-up succeeds
            raise RuntimeError("injected failure")
        return real_run_point(spec)

    hanging = ("bandwidth/hang", ExperimentSpec(
        kind="bandwidth", device="NI2w", bus="memory", message_bytes=1024,
        messages=100, max_cycles=10))

    cases = [
        ("fig8 timed, pinned outputs", lambda: sim_timed(pins["fig8"]), False),
        ("fig8 timed, perturbed expectation", lambda: sim_timed(perturbed["fig8"]), True),
        ("fig8 timed, injected exception",
         lambda: sim_timed(pins["fig8"], flaky_run_point), True),
        ("lossy-mesh traced, pinned outputs", lambda: sim_traced(pins["lossy-mesh"]), False),
        ("lossy-mesh traced, perturbed fault counter",
         lambda: sim_traced(perturbed["lossy-mesh"]), True),
        ("service-mix, pinned outputs", lambda: service(pins["service-mix"]), False),
        ("service-mix, perturbed expectation",
         lambda: service(perturbed["service-mix"]), True),
        ("service-mix, simulation raises in the server",
         lambda: service(pins["service-mix"], hanging), True),
    ]
    bad = 0
    for name, case, should_fail in cases:
        tally = case()
        ok = (tally.failed > 0) == should_fail and tally.attempted > 0
        bad += not ok
        verdict = "ok  " if ok else "FAIL"
        print(f"{verdict} {name}: {tally.failed} of {tally.attempted} operations failed")
        for reason in tally.reasons[:2]:
            print(f"       {reason[:160]}")
    print(f"self-test: {len(cases) - bad} of {len(cases)} cases behave")
    return 1 if bad else 0
