"""Helpers shared by the benchmark suite.

Each pytest-benchmark script runs one experiment at a reduced sweep size
(so the whole suite runs in minutes on a laptop) and prints what it
produced.  Run with::

    pytest benchmarks/ --benchmark-only

For the full-size sweeps use ``python -m repro.experiments.run all``.

The benchmarks drive the simulator through :mod:`repro.api`.
"""

from __future__ import annotations


def single_run(benchmark, func, *args, **kwargs):
    """Run ``func`` exactly once under pytest-benchmark timing.

    The underlying experiments are deterministic simulations, so repeated
    rounds would only re-measure identical work; one round keeps the suite
    fast while still recording a wall-clock figure per experiment.
    """
    return benchmark.pedantic(func, args=args, kwargs=kwargs, rounds=1, iterations=1)
