"""Helpers shared by the benchmark suite.

Each pytest-benchmark script runs one experiment at a reduced sweep size
(so the whole suite runs in minutes on a laptop) and prints what it
produced.  Run with::

    pytest benchmarks/ --benchmark-only

For the full-size sweeps use ``python -m repro.experiments.run all``.

The benchmarks drive the simulator through :mod:`repro.api`: sweeps are
spec lists executed by a shared serial :class:`~repro.api.SweepRunner`
(timing must measure the simulation, so neither parallelism nor the
on-disk cache is enabled here).
"""

from __future__ import annotations

from repro.api import ExperimentSpec, SweepRunner, run_point


def single_run(benchmark, func, *args, **kwargs):
    """Run ``func`` exactly once under pytest-benchmark timing.

    The underlying experiments are deterministic simulations, so repeated
    rounds would only re-measure identical work; one round keeps the suite
    fast while still recording a wall-clock figure per experiment.
    """
    return benchmark.pedantic(func, args=args, kwargs=kwargs, rounds=1, iterations=1)


def runner() -> SweepRunner:
    """A fresh serial, uncached runner (benchmarks time the simulation)."""
    return SweepRunner(jobs=1, cache_dir=None)


def latency_point(device: str, bus: str, size: int, iterations: int, warmup: int):
    """One latency point as a :class:`~repro.api.RunResult`."""
    return run_point(
        ExperimentSpec(kind="latency", device=device, bus=bus, message_bytes=size,
                       iterations=iterations, warmup=warmup)
    )


def bandwidth_point(
    device: str, bus: str, size: int, messages: int, warmup: int, snarfing: bool = False
):
    """One bandwidth point as a :class:`~repro.api.RunResult`."""
    return run_point(
        ExperimentSpec(kind="bandwidth", device=device, bus=bus, message_bytes=size,
                       messages=messages, warmup=warmup, snarfing=snarfing)
    )
