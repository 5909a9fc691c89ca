"""Lightweight statistics collection for simulator components."""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Dict, Iterable, List


class Counter:
    """A named group of integer counters."""

    def __init__(self) -> None:
        self._counts: Dict[str, int] = defaultdict(int)

    def add(self, name: str, amount: int = 1) -> None:
        self._counts[name] += amount

    @property
    def raw(self) -> Dict[str, int]:
        """The underlying defaultdict, for hot paths that cannot afford a
        method call per increment.  Mutate with ``raw[key] += n`` only."""
        return self._counts

    def get(self, name: str) -> int:
        return self._counts.get(name, 0)

    def as_dict(self) -> Dict[str, int]:
        return dict(self._counts)

    def reset(self) -> None:
        self._counts.clear()

    def __getitem__(self, name: str) -> int:
        return self.get(name)

    def __repr__(self) -> str:
        return f"Counter({dict(self._counts)!r})"


class Summary:
    """Count, total and maximum of non-negative values, in constant memory.

    For per-message records such as fabric latencies, where only the count
    and mean are read; :class:`Samples` keeps every value, for percentiles.
    """

    __slots__ = ("count", "total", "maximum")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0
        self.maximum = 0

    def record(self, value) -> None:
        self.count += 1
        self.total += value
        if value > self.maximum:
            self.maximum = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0


class Samples:
    """Accumulates numeric samples and reports summary statistics."""

    def __init__(self) -> None:
        self._values: List[float] = []

    def record(self, value: float) -> None:
        self._values.append(float(value))

    def extend(self, values: Iterable[float]) -> None:
        for value in values:
            self.record(value)

    @property
    def count(self) -> int:
        return len(self._values)

    @property
    def total(self) -> float:
        return sum(self._values)

    @property
    def mean(self) -> float:
        if not self._values:
            return 0.0
        return self.total / len(self._values)

    @property
    def minimum(self) -> float:
        return min(self._values) if self._values else 0.0

    @property
    def maximum(self) -> float:
        return max(self._values) if self._values else 0.0

    @property
    def stddev(self) -> float:
        if len(self._values) < 2:
            return 0.0
        mean = self.mean
        variance = sum((v - mean) ** 2 for v in self._values) / (len(self._values) - 1)
        return math.sqrt(variance)

    def percentile(self, fraction: float) -> float:
        """Nearest-rank percentile; ``fraction`` in [0, 1]."""
        if not self._values:
            return 0.0
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("fraction must be within [0, 1]")
        ordered = sorted(self._values)
        rank = max(0, min(len(ordered) - 1, int(math.ceil(fraction * len(ordered))) - 1))
        return ordered[rank]

    def values(self) -> List[float]:
        return list(self._values)

    def reset(self) -> None:
        self._values.clear()


def safe_ratio(numerator: float, denominator: float, default: float = 0.0) -> float:
    """Return numerator/denominator guarding against a zero denominator."""
    if denominator == 0:
        return default
    return numerator / denominator
