#!/usr/bin/env python
"""Compare network interfaces on latency and bandwidth — the paper's five
devices (a miniature of Figures 6 and 7) plus a *generative* sweep across
the taxonomy space the composable device kit opens (queue-size scaling for
the NI{n}Q and CNI{n}Q families), all expressed as declarative sweeps and
executed by one (optionally parallel, optionally cached) runner.

Run with::

    python examples/compare_interfaces.py [--sizes 8 64 256] [--jobs 4]
                                          [--cache-dir .repro-cache]
                                          [--queue-sizes 4 16 64 512]
"""

import argparse

from repro.api import SweepRunner, bandwidth_sweep, device_space_sweep, latency_sweep
from repro.experiments.macro import IO_BUS_DEVICES, MEMORY_BUS_DEVICES
from repro.experiments.report import format_series_panel


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sizes", type=int, nargs="+", default=[8, 64, 256])
    parser.add_argument("--messages", type=int, default=40)
    parser.add_argument("--iterations", type=int, default=15)
    parser.add_argument("--jobs", type=int, default=1, help="worker processes")
    parser.add_argument("--cache-dir", default=None, help="optional on-disk result cache")
    parser.add_argument("--queue-sizes", type=int, nargs="+", default=[4, 16, 64, 512],
                        help="exposed queue blocks for the device-space sweep")
    args = parser.parse_args()

    runner = SweepRunner(jobs=args.jobs, cache_dir=args.cache_dir)

    memory_configs = [(device, "memory") for device in MEMORY_BUS_DEVICES]
    latency = runner.run(
        latency_sweep(memory_configs, args.sizes, iterations=args.iterations, warmup=8)
    )
    bandwidth = runner.run(
        bandwidth_sweep(memory_configs, args.sizes, messages=args.messages, warmup=10)
    )
    io_latency = runner.run(
        latency_sweep([(device, "io") for device in IO_BUS_DEVICES],
                      args.sizes, iterations=args.iterations, warmup=8)
    )

    latency_panel = latency.pivot(series="device", x="message_bytes", value="round_trip_us")
    bandwidth_panel = bandwidth.pivot(series="device", x="message_bytes", value="bandwidth_mbps")
    io_panel = io_latency.pivot(series="device", x="message_bytes", value="round_trip_us")

    print(format_series_panel(latency_panel, "Round-trip latency on the memory bus (us)", "device"))
    print(format_series_panel(bandwidth_panel, "Bandwidth on the memory bus (MB/s)", "device"))
    print(format_series_panel(io_panel, "Round-trip latency on the coherent I/O bus (us)", "device"))

    largest = args.sizes[-1]
    ni2w = latency_panel["NI2w"][largest]
    best = min((series[largest], name) for name, series in latency_panel.items())
    print(f"Best device at {largest} bytes: {best[1]} "
          f"({ni2w / best[0] - 1:.0%} faster than NI2w)")

    # --- Beyond the paper's five devices: scale whole taxonomy families ---
    # Every NI{n}Q / CNI{n}Q name below is built from its taxonomy plan,
    # the same way as the paper devices.
    space = runner.run(
        device_space_sweep(
            kind="bandwidth",
            families=("NIQ", "CNIQ"),
            sizes=args.queue_sizes,
            message_bytes=244,
            messages=args.messages,
            warmup=10,
        )
    )
    from repro import parse_ni_name

    by_family = {"NI{n}Q (uncached)": {}, "CNI{n}Q (coherent)": {}}
    for result in space:
        spec = parse_ni_name(result.spec.device)
        family = "CNI{n}Q (coherent)" if spec.coherent else "NI{n}Q (uncached)"
        by_family[family][spec.exposed_size] = result.metrics["bandwidth_mbps"]
    print(format_series_panel(
        by_family, "Bandwidth at 244 B vs exposed queue size in blocks (MB/s)", "family"
    ))
    print("Queue-size scaling is the taxonomy axis the registry opens: the "
          "coherent family keeps gaining from buffering, the uncached family "
          "stays processor-bound.")


if __name__ == "__main__":
    main()
