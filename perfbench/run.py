"""Benchmark the simulator and its experiment service, end to end and by layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fig8 --seed 0 --seconds 10 --trace 0
    python3 perfbench/run.py --workload service-mix --seed 0 --seconds 10 --trace 1
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --write-pins

``--trace 0`` times the workload and prints the end-to-end metrics;
``--trace 1`` makes the separate traced run and prints the per-layer table.
Either way the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Simulated outputs
are checked against ``pins.json`` at the default seed (0); under any other
seed the run prints a digest of them instead.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench.common import (  # noqa: E402
    DEFAULT_SEED,
    TMP_DIR,
    Metric,
    Tally,
    emit,
    print_table,
    require_checkout,
)

WORKLOADS = ("fig8", "lossy-mesh", "service-mix")
#: The metrics of the JSON result line.  The rest of the table (the times as
#: measured, fail_frac, slowest_point_s, the service's latency percentiles)
#: is printed only.
END_TO_END = ("pass_s", "setup_s", "peak_rss_mb")
PINS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pins.json")


def load_pins(workload: str, seed: int) -> dict:
    """Pinned outputs for ``workload``; empty (nothing to check) off the default seed."""
    if seed != DEFAULT_SEED:
        return {}
    with open(PINS_PATH, encoding="utf-8") as handle:
        return json.load(handle)[workload]


def run(workload: str, seed: int, seconds: float, trace: bool, tally: Tally) -> list:
    pins = load_pins(workload, seed)
    if workload == "service-mix":
        from perfbench import service_mix

        if trace:
            return service_mix.run_traced(seed, pins, tally)
        return service_mix.run_timed(seed, seconds, pins, tally)
    from perfbench import simulate

    if trace:
        return simulate.run_traced(workload, seed, pins, tally)
    return simulate.run_timed(workload, seed, seconds, pins, tally)


def write_pins() -> None:
    from perfbench import service_mix, simulate

    pins = {
        "fig8": simulate.pin_outputs("fig8"),
        "lossy-mesh": simulate.pin_outputs("lossy-mesh"),
        "service-mix": service_mix.pin_outputs(),
    }
    with open(PINS_PATH, "w", encoding="utf-8") as handle:
        json.dump(pins, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {PINS_PATH}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="measure for at least this long (whole passes, at least two)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="check that the benchmark reports injected failures")
    parser.add_argument("--write-pins", action="store_true",
                        help="recompute pins.json at the default seed")
    parser.add_argument("--probe-setup", choices=WORKLOADS[:2], help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload is None and not (args.probe_setup or args.self_test or args.write_pins):
        parser.error("--workload is required")
    require_checkout()
    try:
        return dispatch(args)
    finally:
        try:
            os.rmdir(TMP_DIR)  # each server removes its own store
        except OSError:
            pass


def dispatch(args: argparse.Namespace) -> int:
    if args.probe_setup:
        from perfbench.simulate import probe_ready

        probe_ready(args.probe_setup, args.seed)
        print("ready", flush=True)
        return 0
    if args.self_test:
        from perfbench.selftest import main as self_test

        return self_test()
    if args.write_pins:
        write_pins()
        return 0

    tally = Tally()
    metrics = run(args.workload, args.seed, args.seconds, bool(args.trace), tally)
    kind = "per-layer (traced run)" if args.trace else "end-to-end"
    frac = tally.failed / tally.attempted if tally.attempted else 1.0
    shown = metrics + [Metric("fail_frac", frac, "fraction", tally.attempted,
                              f"{tally.failed} failed of {tally.attempted} operations")]
    print_table(f"{args.workload} seed={args.seed}: {kind} metrics", shown)
    emit(tally, metrics, None if args.trace else END_TO_END)
    return 0


if __name__ == "__main__":
    sys.exit(main())
