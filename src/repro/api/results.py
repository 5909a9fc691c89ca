"""Structured experiment results: one record per point, sets with algebra.

:class:`RunResult` pairs a spec with the metrics the simulator produced for
it; :class:`ResultSet` is an ordered collection with filtering, pivoting
into figure panels, and lossless JSON (de)serialisation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional, Sequence

from repro.api.spec import ExperimentSpec, SpecError

#: Schema version written into every serialised result document.
RESULTS_VERSION = 1

#: The headline metric reported per experiment kind when no explicit
#: ``value`` is requested from :meth:`ResultSet.pivot`.
PRIMARY_METRIC = {
    "latency": "round_trip_us",
    "bandwidth": "relative_bandwidth",
    "macro": "cycles",
}


@dataclass(eq=False)
class RunResult:
    """Outcome of running one :class:`ExperimentSpec`.

    ``metrics`` holds the kind-specific measurements (see
    :data:`PRIMARY_METRIC` for the headline key per kind).  ``elapsed_s``
    and ``cached`` describe *how* the result was obtained and are excluded
    from equality, hashing and the cache key.

    ``error`` is set (and ``metrics`` left empty) when the point could not
    be computed — the worker crashed, timed out, or the simulation raised —
    and every retry was exhausted.  Failed results flow through sweeps and
    batches like any other point so one sick spec cannot wedge its
    siblings, but they are never written to the result cache.
    """

    spec: ExperimentSpec
    metrics: Dict[str, float] = field(default_factory=dict)
    elapsed_s: float = 0.0
    cached: bool = False
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        """Whether the point actually produced metrics."""
        return self.error is None

    @property
    def value(self) -> float:
        """The headline metric for this result's kind."""
        return self.metrics[PRIMARY_METRIC[self.spec.kind]]

    def get(self, key: str, default: Optional[float] = None) -> Optional[float]:
        return self.metrics.get(key, default)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RunResult):
            return NotImplemented
        return (
            self.spec == other.spec
            and self.metrics == other.metrics
            and self.error == other.error
        )

    def to_dict(self) -> Dict[str, Any]:
        out = {
            "spec": self.spec.to_dict(),
            "metrics": dict(self.metrics),
            "elapsed_s": self.elapsed_s,
            "cached": self.cached,
        }
        if self.error is not None:
            # Only failed results carry the key, so documents written before
            # the field existed round-trip byte-identically.
            out["error"] = self.error
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunResult":
        return cls(
            spec=ExperimentSpec.from_dict(data["spec"]),
            metrics=dict(data.get("metrics", {})),
            elapsed_s=float(data.get("elapsed_s", 0.0)),
            cached=bool(data.get("cached", False)),
            error=data.get("error"),
        )

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "RunResult":
        return cls.from_dict(json.loads(text))

    def __repr__(self) -> str:
        if self.error is not None:
            return f"<RunResult {self.spec.describe()} FAILED: {self.error}>"
        return f"<RunResult {self.spec.describe()} value={self.value:.4g}>"


def _spec_key(result: RunResult, name: str) -> Any:
    """Resolve a pivot/filter key against a result's spec (or ``config``)."""
    if name == "config":
        return result.spec.config
    if hasattr(result.spec, name):
        return getattr(result.spec, name)
    raise SpecError(f"unknown spec field {name!r}")


class ResultSet:
    """An ordered collection of :class:`RunResult` records."""

    def __init__(self, results: Optional[Sequence[RunResult]] = None):
        self.results: List[RunResult] = list(results or [])
        #: Cache/store traffic for the sweep that produced this set, filled
        #: in by :meth:`~repro.api.runner.SweepRunner.run` (``None`` when
        #: the set was built by hand or loaded from JSON).  Under ``--jobs``
        #: this already includes the worker processes' aggregated counters.
        self.cache_stats: Optional[Dict[str, int]] = None

    # ------------------------------------------------------------------
    # Collection protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self) -> Iterator[RunResult]:
        return iter(self.results)

    def __getitem__(self, index: int) -> RunResult:
        return self.results[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ResultSet):
            return NotImplemented
        return self.results == other.results

    def append(self, result: RunResult) -> None:
        self.results.append(result)

    def extend(self, results: "ResultSet | Sequence[RunResult]") -> None:
        self.results.extend(results)

    def merge(self, other: "ResultSet") -> "ResultSet":
        """A new set with the other's points appended, deduplicated by hash."""
        seen = {r.spec.spec_hash() for r in self.results}
        merged = list(self.results)
        merged.extend(r for r in other if r.spec.spec_hash() not in seen)
        return ResultSet(merged)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def filter(
        self,
        predicate: Optional[Callable[[RunResult], bool]] = None,
        **criteria: Any,
    ) -> "ResultSet":
        """Results whose spec fields match ``criteria`` (and ``predicate``).

        A criterion value may be a scalar (equality) or a collection
        (membership): ``results.filter(kind="latency", device=("NI2w",))``.
        """
        out = []
        for result in self.results:
            if predicate is not None and not predicate(result):
                continue
            ok = True
            for name, want in criteria.items():
                have = _spec_key(result, name)
                if isinstance(want, (list, tuple, set, frozenset)):
                    ok = have in want
                else:
                    ok = have == want
                if not ok:
                    break
            if ok:
                out.append(result)
        return ResultSet(out)

    def values(self, metric: Optional[str] = None) -> List[float]:
        if metric is None:
            return [r.value for r in self.results]
        return [r.metrics[metric] for r in self.results]

    def pivot(
        self,
        series: str = "config",
        x: str = "message_bytes",
        value: Optional[str] = None,
    ) -> Dict[Any, Dict[Any, float]]:
        """Reshape into ``{series_key: {x_key: metric}}`` figure panels.

        ``series``/``x`` name spec fields (or the synthetic ``"config"``
        key); ``value`` names a metric, defaulting to each result's
        headline metric.  Later results win on key collisions.
        """
        panel: Dict[Any, Dict[Any, float]] = {}
        for result in self.results:
            y = result.value if value is None else result.metrics[value]
            panel.setdefault(_spec_key(result, series), {})[_spec_key(result, x)] = y
        return panel

    def by_hash(self) -> Dict[str, RunResult]:
        return {r.spec.spec_hash(): r for r in self.results}

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "results_version": RESULTS_VERSION,
            "results": [r.to_dict() for r in self.results],
        }
        if self.cache_stats is not None:
            out["cache_stats"] = dict(self.cache_stats)
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ResultSet":
        version = data.get("results_version", RESULTS_VERSION)
        if version != RESULTS_VERSION:
            raise SpecError(f"unsupported results_version {version!r}")
        out = cls([RunResult.from_dict(r) for r in data.get("results", [])])
        stats = data.get("cache_stats")
        if stats is not None:
            out.cache_stats = dict(stats)
        return out

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "ResultSet":
        return cls.from_dict(json.loads(text))

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json())

    @classmethod
    def load(cls, path: str) -> "ResultSet":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_json(handle.read())

    def __repr__(self) -> str:
        kinds: Dict[str, int] = {}
        for result in self.results:
            kinds[result.spec.kind] = kinds.get(result.spec.kind, 0) + 1
        summary = ", ".join(f"{k}={v}" for k, v in sorted(kinds.items()))
        return f"<ResultSet {len(self.results)} results ({summary})>"
