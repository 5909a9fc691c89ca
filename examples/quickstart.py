#!/usr/bin/env python
"""Quickstart: declare an experiment, run it through the unified API, and
poke at the machine underneath.

The three layers shown here:

1. ``ExperimentSpec`` — a declarative description of one measurement,
2. ``SweepRunner`` — executes specs (serially here; ``jobs=N`` for worker
   processes, ``cache_dir=...`` for an on-disk result cache),
3. ``Machine.from_spec`` — the simulated machine a spec describes, for
   writing your own programs against the messaging layer.

Run with::

    python examples/quickstart.py
"""

from repro import ExperimentSpec, Machine, SweepRunner, SweepSpec
from repro.common.params import cycles_to_us


def main() -> None:
    # ------------------------------------------------------------------
    # 1. Declare the experiment: 64-byte round-trip latency between two
    #    nodes with a CNI16Qm (the paper's best memory-bus device) and the
    #    default paper parameters (200 MHz CPUs, 100 MHz coherent memory
    #    bus, 64-byte blocks, 100-cycle network latency).
    # ------------------------------------------------------------------
    spec = ExperimentSpec(
        kind="latency",
        device="CNI16Qm",
        bus="memory",
        message_bytes=64,
        iterations=20,
        warmup=10,
    )
    print(f"spec: {spec.describe()}  (hash {spec.spec_hash()[:12]})")

    # ------------------------------------------------------------------
    # 2. Run it — and, because a sweep is just more points, compare the
    #    coherent device against the conventional NI2w in one go.
    # ------------------------------------------------------------------
    runner = SweepRunner()  # add jobs=4 and cache_dir=".repro-cache" at scale
    sweep = SweepSpec.cartesian(spec, device=("CNI16Qm", "NI2w"))
    results = runner.run(sweep)

    panel = results.pivot(series="device", x="message_bytes", value="round_trip_us")
    cni_us = panel["CNI16Qm"][64]
    ni2w_us = panel["NI2w"][64]
    print(f"64-byte round trip: CNI16Qm {cni_us:.2f} us, NI2w {ni2w_us:.2f} us "
          f"({ni2w_us / cni_us - 1:.0%} improvement)")

    # Structured results serialise losslessly — feed them to plots, CI, etc.
    print(f"results: {results!r}; JSON is {len(results.to_json())} bytes")

    # ------------------------------------------------------------------
    # 3. Drop below the API: build the machine a spec describes and write
    #    per-node programs against the Tempest-like messaging layer.
    #    Programs are generators; `yield from` composes messaging and
    #    compute operations, and plain `yield n` waits n processor cycles.
    # ------------------------------------------------------------------
    machine = Machine.from_spec(spec)
    print(machine.describe())

    ml0, ml1 = machine.messaging
    state = {"pings": 0, "pongs": 0}

    def on_ping(ml, source, nbytes, body):
        state["pings"] += 1
        yield from ml.send_active_message(source, "pong", nbytes)

    def on_pong(ml, source, nbytes, body):
        state["pongs"] += 1

    ml1.register_handler("ping", on_ping)
    ml0.register_handler("pong", on_pong)

    rounds = 5

    def node0():
        for i in range(rounds):
            yield from ml0.send_active_message(1, "ping", 64)
            while state["pongs"] <= i:
                got = yield from ml0.poll()
                if not got:
                    yield 20

    def node1():
        while state["pings"] < rounds:
            got = yield from ml1.poll()
            if not got:
                yield 20

    cycles = machine.run_programs([node0(), node1()])
    print(f"{rounds} ping-pong rounds finished at cycle {cycles} "
          f"({cycles_to_us(cycles):.1f} us simulated)")


if __name__ == "__main__":
    main()
