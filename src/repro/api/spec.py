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
from typing import Any, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence

from repro.api.kinds import SpecError, describe_point, kind_spec, validate_kind
from repro.common.types import BusKind

#: Version tag baked into every canonical form so that cache entries from
#: incompatible schema revisions never collide.
SPEC_VERSION = 1

#: Seed used when a macro spec does not pin one (the workloads' canonical
#: seed, matching :class:`repro.apps.workload.Workload`).
DEFAULT_WORKLOAD_SEED = 12345

#: The exact types a scalar field of each annotation accepts, and their
#: wording in an error: a bool is no int, and a ``float`` field takes an int.
_SCALAR_TYPES = {
    "str": ((str,), "a str"),
    "Optional[str]": ((str, type(None)), "a str or None"),
    "bool": ((bool,), "a bool"),
    "int": ((int,), "an int"),
    "Optional[int]": ((int, type(None)), "an int or None"),
    "float": ((int, float), "an int or a float"),
}


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

    ``params`` overrides fields of
    :class:`~repro.common.params.MachineParams` (e.g.
    ``{"sliding_window": 4}``), the machine's experiment axes: machine size
    and network, cache geometry, fabric, coherence protocol, fault injection
    and recovery, and spin elision.  The paper's fixed machine (the
    processor clock, the Table 2 occupancies) is constants of that module,
    not parameters.  ``ni_kwargs`` holds device-constructor overrides
    (validated early, see :meth:`validate`).  ``seed`` defaults to the
    workloads' canonical seed (see :meth:`resolved_seed`).

    Every scalar field takes exactly its annotated type: a bool is no int,
    and ``scale`` takes an int or a float.
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

        Every error is a ``ValueError``: :class:`~repro.ni.taxonomy.TaxonomyError`
        for an unknown or illegal device name and its ``ni_kwargs``,
        :class:`~repro.node.node.NodeConfigError` for a bus placement or
        snarfing the machine cannot build, the errors of
        ``MachineParams.validate`` for the ``params`` overrides, and
        :class:`SpecError` for everything else, an ill-typed field included.
        """
        from repro.common.params import DEFAULT_PARAMS
        from repro.node.node import NodeConfig

        for name, kinds, wording in _SCALAR_FIELDS:
            value = getattr(self, name)
            if type(value) not in kinds:  # exact: a bool is no int here
                raise SpecError(
                    f"{name} must be {wording}, not {type(value).__name__} {value!r}"
                )
        kind_spec(self.kind)
        for name in ("workload_kwargs", "ni_kwargs", "params"):
            value = getattr(self, name)
            if not isinstance(value, Mapping):
                raise SpecError(f"{name} must be a JSON object, not {type(value).__name__}")
        try:
            BusKind(self.bus)
        except ValueError:
            raise SpecError(f"unknown bus {self.bus!r}") from None
        if "seed" in self.workload_kwargs:
            # One spelling, one spec hash: the workload seed is ``seed``.
            raise SpecError("workload_kwargs must not hold 'seed'; set the spec's seed instead")
        if self.num_nodes < 2:
            raise SpecError("experiments need at least two nodes")
        if self.warmup is not None and self.warmup < 0:
            raise SpecError(f"warmup must be >= 0, not {self.warmup}")
        if self.max_cycles is not None and self.max_cycles < 1:
            raise SpecError(f"max_cycles must be >= 1, not {self.max_cycles}")
        # Per-kind checks come from the kind registry (the historic
        # latency/bandwidth/macro rules live on their KindSpecs now, with
        # identical messages); plugin kinds hook in the same way.
        validate_kind(self)
        # Early machine-parameter validation, against *this* point's node
        # count: unknown fields, ill-typed or illegal values and fabric
        # names that do not fit the machine (e.g. "mesh4x4" with
        # num_nodes=8) fail here, with their own error types, not inside a
        # worker process.
        machine_params = DEFAULT_PARAMS
        if self.params:
            try:
                machine_params = self.machine_params()
            except TypeError:
                known = {f.name for f in fields(DEFAULT_PARAMS)}
                unknown = sorted(set(self.params) - known)
                if not unknown:
                    raise
                raise SpecError(
                    f"unknown MachineParams override(s) {unknown}"
                ) from None
        # The node every machine of this point is built from, checked as the
        # machine will check it: the device against the registry (any legal
        # taxonomy name resolves), its ni_kwargs, its bus placement and
        # snarfing under the point's coherence protocol.
        NodeConfig(
            ni_name=self.device,
            ni_bus=BusKind(self.bus),
            snarfing=self.snarfing,
            ni_kwargs=dict(self.ni_kwargs),
        ).validate(machine_params.protocol)
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
        if not isinstance(data, Mapping):
            raise SpecError(f"a spec must be a JSON object, not {type(data).__name__}")
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

        Explicit ``seed`` wins, then the canonical workload seed (the only
        spelling: :meth:`validate` rejects a ``seed`` inside
        ``workload_kwargs``).  The default is deliberately NOT derived from
        the full spec hash: two specs that differ only in device/bus
        placement must run the *same* problem instance, or speedups over
        the baseline would compare different workloads.
        """
        return DEFAULT_WORKLOAD_SEED if self.seed is None else self.seed

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


#: ``(name, types, wording)`` of the scalar fields, which ``validate``
#: type-checks (the mapping fields are checked as JSON objects).
_SCALAR_FIELDS = tuple(
    (f.name, *_SCALAR_TYPES[f.type])
    for f in fields(ExperimentSpec)
    if not f.type.startswith("Dict[")
)


def _axis_values(name: str, values: Any) -> List[Any]:
    """Sweep axis ``name``'s values, from a list or tuple: a string or mapping
    is iterable too, but ``"12"`` would sweep the seeds ``"1"`` and ``"2"``."""
    if isinstance(values, (str, bytes, Mapping)) or not isinstance(values, Iterable):
        raise SpecError(f"sweep axis {name!r} must be a list, not {type(values).__name__}")
    return list(values)


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
        return cls(base=base, axes={k: _axis_values(k, v) for k, v in axes.items()}, name=name)

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
        axes = data.get("axes", {})
        if not isinstance(axes, Mapping):
            raise SpecError(f"sweep axes must be a JSON object, not {type(axes).__name__}")
        return cls(
            base=ExperimentSpec.from_dict(data.get("base", {})),
            axes={k: _axis_values(k, v) for k, v in axes.items()},
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
