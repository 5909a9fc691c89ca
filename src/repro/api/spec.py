"""Declarative experiment specifications and sweeps.

An :class:`ExperimentSpec` fully describes one simulator run — the kind of
measurement (latency, bandwidth or a macrobenchmark), the device/bus
placement, machine size, message size or workload, and any device or
machine-parameter overrides.  Specs are plain data: they serialise to
canonical JSON, and :meth:`ExperimentSpec.spec_hash` over that canonical
form is the identity used by the result cache and for deterministic
per-point seeds.

A :class:`SweepSpec` is a family of points, either a full cartesian product
over named axes or an explicit point list.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass, field, fields, replace
from typing import Any, Dict, Iterator, List, Mapping, Optional, Sequence

from repro.api.kinds import check_kind, describe_point, validate_kind
from repro.common.types import BusKind

#: Version tag baked into every canonical form so that cache entries from
#: incompatible schema revisions never collide.
SPEC_VERSION = 1

#: Seed used when a macro spec does not pin one (the workloads' canonical
#: seed, matching :class:`repro.apps.workload.Workload`).
DEFAULT_WORKLOAD_SEED = 12345


class SpecError(ValueError):
    """Raised for malformed experiment specifications."""


def _freeze(value: Any) -> Any:
    """Normalise nested values into JSON-stable plain types."""
    if isinstance(value, Mapping):
        return {str(k): _freeze(value[k]) for k in sorted(value, key=str)}
    if isinstance(value, (list, tuple)):
        return [_freeze(v) for v in value]
    if isinstance(value, BusKind):
        return value.value
    return value


@dataclass(frozen=True)
class ExperimentSpec:
    """One point of the evaluation space.

    ``kind`` selects the measurement:

    * ``"latency"`` — Figure 6 round-trip latency microbenchmark
      (uses ``message_bytes``, ``iterations``, ``warmup``);
    * ``"bandwidth"`` — Figure 7 streaming bandwidth microbenchmark
      (uses ``message_bytes``, ``messages``, ``warmup``);
    * ``"macro"`` — one Figure 8 macrobenchmark run (uses ``workload``,
      ``scale``, ``workload_kwargs``).

    ``params`` holds :class:`~repro.common.params.MachineParams` overrides
    (e.g. ``{"sliding_window": 4}``), ``ni_kwargs`` device-constructor
    overrides (validated early, see :meth:`validate`).  ``seed`` defaults to
    a deterministic value derived from the spec hash so that every distinct
    point gets a distinct, reproducible seed.
    """

    kind: str = "latency"
    device: str = "CNI16Qm"
    bus: str = "memory"
    snarfing: bool = False
    num_nodes: int = 2
    message_bytes: int = 64
    iterations: int = 30
    messages: int = 100
    warmup: Optional[int] = None
    workload: Optional[str] = None
    scale: float = 1.0
    max_cycles: Optional[int] = None
    seed: Optional[int] = None
    workload_kwargs: Dict[str, Any] = field(default_factory=dict)
    ni_kwargs: Dict[str, Any] = field(default_factory=dict)
    params: Dict[str, Any] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def validate(self) -> "ExperimentSpec":
        """Check the spec for consistency, raising early.

        Taxonomy problems (unknown device, unsupported ``ni_kwargs``) raise
        :class:`~repro.ni.taxonomy.TaxonomyError`; everything else raises
        :class:`SpecError`.
        """
        from repro.ni.taxonomy import validate_ni_kwargs

        check_kind(self.kind)
        try:
            BusKind(self.bus)
        except ValueError:
            raise SpecError(f"unknown bus {self.bus!r}") from None
        if self.num_nodes < 2:
            raise SpecError("experiments need at least two nodes")
        if (
            self.seed is not None
            and "seed" in self.workload_kwargs
            and self.workload_kwargs["seed"] != self.seed
        ):
            raise SpecError(
                f"seed={self.seed} conflicts with "
                f"workload_kwargs['seed']={self.workload_kwargs['seed']!r}; set one"
            )
        # Per-kind checks come from the kind registry (the historic
        # latency/bandwidth/macro rules live on their KindSpecs now, with
        # identical messages); plugin kinds hook in the same way.
        validate_kind(self)
        # Early taxonomy validation against the device registry: any legal
        # taxonomy name resolves (registered or synthesized from primitives);
        # illegal names and unsupported device kwargs fail here, not sixteen
        # constructors deep in Node.__init__.
        validate_ni_kwargs(self.device, self.ni_kwargs)
        # Early machine-parameter validation, against *this* point's node
        # count: unknown fields, illegal values and fabric names that do
        # not fit the machine (e.g. "mesh4x4" with num_nodes=8) fail here,
        # with their own error types, not inside a worker process.
        if self.params:
            try:
                self.machine_params()
            except TypeError:
                from repro.common.params import DEFAULT_PARAMS

                known = {f.name for f in fields(DEFAULT_PARAMS)}
                unknown = sorted(set(self.params) - known)
                if not unknown:
                    # A known field with a value its validation rules
                    # cannot even compare (e.g. a string hop count): let
                    # the original TypeError name the real problem.
                    raise
                raise SpecError(
                    f"unknown MachineParams override(s) {unknown}"
                ) from None
        return self

    def machine_params(self):
        """The validated :class:`~repro.common.params.MachineParams` this
        point runs with.

        The spec's node count joins the overrides *before* validation so
        shape-dependent parameters (an explicit grid fabric such as
        ``"torus2x2"``) validate against the machine actually being built;
        an explicit ``params["num_nodes"]`` override still wins.  This is
        the one place the merge happens — the runner and
        :meth:`~repro.node.machine.Machine.from_spec` both call it.
        """
        from repro.common.params import DEFAULT_PARAMS

        return DEFAULT_PARAMS.with_overrides(
            **{"num_nodes": self.num_nodes, **self.params}
        )

    # ------------------------------------------------------------------
    # Canonical form, hashing, seeds
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Plain-data form (JSON-compatible), suitable for ``from_dict``."""
        out: Dict[str, Any] = {}
        for f in fields(self):
            out[f.name] = _freeze(getattr(self, f.name))
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExperimentSpec":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise SpecError(f"unknown ExperimentSpec fields {sorted(unknown)}")
        return cls(**dict(data))

    def canonical(self) -> str:
        """Canonical JSON encoding (sorted keys, version-tagged)."""
        payload = {"spec_version": SPEC_VERSION}
        payload.update(self.to_dict())
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    def spec_hash(self) -> str:
        """Stable hex digest identifying this point (cache key)."""
        return hashlib.sha256(self.canonical().encode("utf-8")).hexdigest()

    def resolved_seed(self) -> int:
        """The seed actually passed to workload construction.

        Explicit ``seed`` wins, then a ``seed`` inside ``workload_kwargs``,
        then the canonical workload seed (:meth:`validate` rejects the two
        explicit seeds disagreeing).  The default is deliberately NOT
        derived from the full spec hash: two specs that differ only in
        device/bus placement must run the *same* problem instance, or
        speedups over the baseline would compare different workloads.
        """
        if self.seed is not None:
            return self.seed
        if "seed" in self.workload_kwargs:
            return int(self.workload_kwargs["seed"])
        return DEFAULT_WORKLOAD_SEED

    def resolved_warmup(self) -> int:
        """Warm-up rounds: explicit, or the per-kind default."""
        if self.warmup is not None:
            return self.warmup
        return 8 if self.kind == "latency" else 16

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------
    @property
    def config(self) -> str:
        """The figure-panel series key, e.g. ``"CNI16Qm@memory"``."""
        suffix = "+snarf" if self.snarfing else ""
        return f"{self.device}@{self.bus}{suffix}"

    def with_overrides(self, **overrides: Any) -> "ExperimentSpec":
        """A copy of this spec with the given fields replaced."""
        return replace(self, **overrides)

    def describe(self) -> str:
        return f"{self.kind}[{self.config}] {describe_point(self)}"


@dataclass
class SweepSpec:
    """A family of experiment points.

    Either a cartesian product of ``axes`` over a ``base`` spec (axis names
    are :class:`ExperimentSpec` field names), or an explicit ``points``
    list.  Iterating a sweep yields validated :class:`ExperimentSpec`\\ s.
    """

    base: ExperimentSpec = field(default_factory=ExperimentSpec)
    axes: Dict[str, Sequence[Any]] = field(default_factory=dict)
    points: Optional[List[ExperimentSpec]] = None
    name: str = ""

    @classmethod
    def cartesian(
        cls, base: ExperimentSpec, name: str = "", **axes: Sequence[Any]
    ) -> "SweepSpec":
        """Full cartesian product of the given axes over ``base``."""
        field_names = {f.name for f in fields(ExperimentSpec)}
        unknown = set(axes) - field_names
        if unknown:
            raise SpecError(f"unknown sweep axes {sorted(unknown)}")
        return cls(base=base, axes={k: list(v) for k, v in axes.items()}, name=name)

    @classmethod
    def explicit(cls, points: Sequence[ExperimentSpec], name: str = "") -> "SweepSpec":
        """An explicit, ordered list of points."""
        return cls(points=list(points), name=name)

    def expand(self) -> List[ExperimentSpec]:
        """The ordered list of points this sweep describes (validated)."""
        if self.points is not None:
            return [p.validate() for p in self.points]
        if not self.axes:
            return [self.base.validate()]
        names = list(self.axes)
        out: List[ExperimentSpec] = []
        for combo in itertools.product(*(self.axes[n] for n in names)):
            out.append(self.base.with_overrides(**dict(zip(names, combo))).validate())
        return out

    def __iter__(self) -> Iterator[ExperimentSpec]:
        return iter(self.expand())

    def __len__(self) -> int:
        if self.points is not None:
            return len(self.points)
        if not self.axes:
            return 1
        total = 1
        for values in self.axes.values():
            total *= len(values)
        return total

    def sweep_hash(self) -> str:
        """Stable digest over the (expanded) point hashes."""
        digest = hashlib.sha256()
        for spec in self.expand():
            digest.update(spec.spec_hash().encode("ascii"))
        return digest.hexdigest()

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"name": self.name}
        if self.points is not None:
            out["points"] = [p.to_dict() for p in self.points]
        else:
            out["base"] = self.base.to_dict()
            out["axes"] = _freeze(self.axes)
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SweepSpec":
        if "points" in data:
            return cls.explicit(
                [ExperimentSpec.from_dict(p) for p in data["points"]],
                name=data.get("name", ""),
            )
        return cls(
            base=ExperimentSpec.from_dict(data.get("base", {})),
            axes={k: list(v) for k, v in data.get("axes", {}).items()},
            name=data.get("name", ""),
        )


def as_points(
    sweep: "SweepSpec | ExperimentSpec | Sequence[ExperimentSpec]",
) -> List[ExperimentSpec]:
    """Normalise any sweep-like argument into a validated point list."""
    if isinstance(sweep, ExperimentSpec):
        return [sweep.validate()]
    if isinstance(sweep, SweepSpec):
        return sweep.expand()
    points = list(sweep)
    for point in points:
        if not isinstance(point, ExperimentSpec):
            raise SpecError(f"not an ExperimentSpec: {point!r}")
    return [p.validate() for p in points]
