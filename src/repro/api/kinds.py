"""Pluggable experiment-kind registry.

An experiment *kind* is one measurement recipe: how a validated
:class:`~repro.api.spec.ExperimentSpec` turns into metrics.  Kinds used to
be a frozen tuple in ``spec.py`` plus if/elif chains in ``runner.py``; this
module replaces that with a dispatch table so new scenario classes
(synthetic traffic, trace replay, plugins) register instead of editing the
core API — the same generative move the device (PR 3), fabric (PR 5),
protocol (PR 6) and workload registries make.

Each :class:`KindSpec` bundles the per-kind hooks:

``measure``
    ``spec -> metrics dict`` — the actual simulation entry point.
``validate``
    extra :meth:`ExperimentSpec.validate` checks (may raise ``SpecError``).
``describe``
    the human-readable "what" fragment of ``spec.describe()``.
``cost``
    rough relative wall-clock cost, used only to order parallel work.
``folds_workload_schema`` / ``cache_token``
    widen the result-store key with :data:`WORKLOAD_SCHEMA_VERSION
    <repro.apps.registry.WORKLOAD_SCHEMA_VERSION>` (and an optional
    per-spec token, e.g. a trace-file digest).  Only the new kinds opt in;
    the legacy kinds keep their exact pre-registry cache identity.

``KINDS`` stays importable from here (and re-exported by ``spec.py``) as a
*live* sequence view of the registered names, so historic
``spec.kind in KINDS`` checks and error messages keep working.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, Iterator, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.spec import ExperimentSpec

MeasureFn = Callable[["ExperimentSpec"], Dict[str, float]]
SpecHook = Callable[["ExperimentSpec"], Any]


def _spec_error(message: str):
    # Lazy: spec.py imports KINDS from this module, so the exception class
    # must be fetched at raise time, not import time.
    from repro.api.spec import SpecError

    return SpecError(message)


@dataclass(frozen=True)
class KindSpec:
    """One registered experiment kind: its hooks and cache identity."""

    name: str
    measure: MeasureFn
    validate: Optional[SpecHook] = None
    describe: Optional[Callable[["ExperimentSpec"], str]] = None
    cost: Optional[Callable[["ExperimentSpec"], float]] = None
    folds_workload_schema: bool = False
    cache_token: Optional[Callable[["ExperimentSpec"], str]] = None
    doc: str = ""


_REGISTRY: Dict[str, KindSpec] = {}  # repro: allow[MUTSTATE] import-time experiment-kind plugin registry
_BUILTIN: Tuple[str, ...] = ()  # repro: allow[MUTSTATE] sealed once at the end of this module


class _KindsView(Sequence):
    """Live, ordered, read-only view of the registered kind names.

    Prints like the historic tuple so error messages such as
    ``unknown experiment kind 'x'; choose from ('latency', ...)`` keep
    their shape.
    """

    __slots__ = ()

    def __getitem__(self, index):
        return tuple(_REGISTRY)[index]

    def __len__(self) -> int:
        return len(_REGISTRY)

    def __iter__(self) -> Iterator[str]:
        return iter(tuple(_REGISTRY))

    def __contains__(self, name: object) -> bool:
        return name in _REGISTRY

    def __repr__(self) -> str:
        return repr(tuple(_REGISTRY))

    def __eq__(self, other: object) -> bool:
        return tuple(_REGISTRY) == other

    def __hash__(self):
        return hash(tuple(_REGISTRY))


#: Measurement kinds understood by :func:`repro.api.runner.run_point`
#: (live view; see module docstring).
KINDS = _KindsView()


def register_kind(
    name: str,
    measure: Optional[MeasureFn] = None,
    *,
    validate: Optional[SpecHook] = None,
    describe: Optional[Callable[["ExperimentSpec"], str]] = None,
    cost: Optional[Callable[["ExperimentSpec"], float]] = None,
    folds_workload_schema: bool = False,
    cache_token: Optional[Callable[["ExperimentSpec"], str]] = None,
    doc: str = "",
    replace: bool = False,
):
    """Register an experiment kind; usable as decorator or direct call.

    Decorator form registers the decorated function as the ``measure``
    hook::

        @register_kind("powertrace", doc="per-cycle power estimate")
        def _measure_powertrace(spec):
            return {"watts": ...}

    Direct form takes the measure function as the second argument.
    ``measure`` must be a pure function of the spec: that is what lets every
    kind's results be stored and served from the result store.
    Re-registering a name raises ``SpecError`` unless ``replace=True``;
    built-in kinds cannot be replaced or removed.
    """

    def install(measure_fn: MeasureFn) -> MeasureFn:
        if not name or not isinstance(name, str):
            raise _spec_error(f"experiment kind needs a non-empty string name, got {name!r}")
        if not callable(measure_fn):
            raise _spec_error(f"experiment kind {name!r} needs a callable measure hook")
        if name in _BUILTIN:
            raise _spec_error(f"cannot replace built-in experiment kind {name!r}")
        if name in _REGISTRY and not replace:
            raise _spec_error(
                f"experiment kind {name!r} is already registered "
                f"(pass replace=True to override)"
            )
        _REGISTRY[name] = KindSpec(
            name=name,
            measure=measure_fn,
            validate=validate,
            describe=describe,
            cost=cost,
            folds_workload_schema=folds_workload_schema,
            cache_token=cache_token,
            doc=doc or (measure_fn.__doc__ or "").strip().split("\n")[0],
        )
        return measure_fn

    if measure is not None:
        return install(measure)
    return install


def unregister_kind(name: str) -> None:
    """Remove a plugin kind (built-ins are protected)."""
    if name in _BUILTIN:
        raise _spec_error(f"cannot unregister built-in experiment kind {name!r}")
    if name not in _REGISTRY:
        raise _spec_error(f"unknown experiment kind {name!r}; choose from {KINDS}")
    del _REGISTRY[name]


def kind_spec(name: str) -> KindSpec:
    """The :class:`KindSpec` registered under ``name`` (SpecError if none)."""
    spec = _REGISTRY.get(name)
    if spec is None:
        raise _spec_error(f"unknown experiment kind {name!r}; choose from {KINDS}")
    return spec


def available_kinds() -> Dict[str, KindSpec]:
    """Registered kinds in registration order."""
    return dict(_REGISTRY)


def check_kind(name: str) -> None:
    """Membership check with the historic error message."""
    if name not in _REGISTRY:
        raise _spec_error(f"unknown experiment kind {name!r}; choose from {KINDS}")


def folds_workload_schema(name: Optional[str]) -> bool:
    """Whether this kind's cache identity includes the workload schema."""
    spec = _REGISTRY.get(name) if isinstance(name, str) else None
    return False if spec is None else spec.folds_workload_schema


def workload_schema_version() -> int:
    """The live workload schema stamp (looked up at call time so tests can
    monkeypatch :mod:`repro.apps.registry` and watch keys change)."""
    from repro.apps import registry as workload_registry

    return workload_registry.WORKLOAD_SCHEMA_VERSION


def cache_suffix(spec: "ExperimentSpec") -> str:
    """Extra cache-key components for ``spec``'s kind (empty for the
    legacy kinds, whose keys must stay bit-identical to pre-registry)."""
    kind = _REGISTRY.get(spec.kind)
    if kind is None or not kind.folds_workload_schema:
        return ""
    suffix = f":workload-schema-{workload_schema_version()}"
    if kind.cache_token is not None:
        token = kind.cache_token(spec)
        if token:
            suffix += f":{token}"
    return suffix


def measure_point(spec: "ExperimentSpec") -> Dict[str, float]:
    """Dispatch ``spec`` to its kind's measure hook."""
    return kind_spec(spec.kind).measure(spec)


def validate_kind(spec: "ExperimentSpec") -> None:
    """Run the per-kind validation hook (no-op for hookless kinds)."""
    kind = kind_spec(spec.kind)
    if kind.validate is not None:
        kind.validate(spec)


def describe_point(spec: "ExperimentSpec") -> str:
    """The human-readable "what" fragment of ``spec.describe()``."""
    kind = _REGISTRY.get(spec.kind)
    if kind is not None and kind.describe is not None:
        return kind.describe(spec)
    return f"{spec.message_bytes} B"


def point_cost(spec: "ExperimentSpec") -> float:
    """Rough relative wall-clock cost of one experiment point.

    Used only to order parallel work, so precision does not matter — just
    the gross ranking: workload runs dwarf bandwidth streams, which dwarf
    latency ping-pongs.  Kinds without a cost hook are assumed heavy
    (workload-sized) so schedulers start them early.
    """
    kind = _REGISTRY.get(spec.kind)
    if kind is not None and kind.cost is not None:
        return kind.cost(spec)
    return 1_000_000.0 * spec.scale * max(1, spec.num_nodes)


# ----------------------------------------------------------------------
# Built-in kinds.  The measure hooks import their entry points lazily so
# that importing the API layer stays cheap and cycle-free; the validate
# hooks preserve the historic checks (and error messages) verbatim.
# ----------------------------------------------------------------------

def _validate_latency(spec: "ExperimentSpec") -> None:
    if spec.message_bytes <= 0:
        raise _spec_error("message_bytes must be positive")
    if spec.iterations < 1:
        raise _spec_error("latency experiments need at least one iteration")


def _validate_bandwidth(spec: "ExperimentSpec") -> None:
    if spec.message_bytes <= 0:
        raise _spec_error("message_bytes must be positive")
    if spec.messages < 1:
        raise _spec_error("bandwidth experiments need at least one message")


def _validate_macro(spec: "ExperimentSpec") -> None:
    from repro.apps import DIAGNOSTIC_WORKLOADS, MACROBENCHMARKS

    if spec.workload is None:
        raise _spec_error("macro experiments need a workload name")
    if spec.workload not in MACROBENCHMARKS and spec.workload not in DIAGNOSTIC_WORKLOADS:
        raise _spec_error(
            f"unknown workload {spec.workload!r}; choose from "
            f"{sorted(MACROBENCHMARKS) + sorted(DIAGNOSTIC_WORKLOADS)}"
        )
    if spec.scale <= 0:
        raise _spec_error("scale must be positive")


def _validate_traffic(spec: "ExperimentSpec") -> None:
    import repro.traffic  # noqa: F401 — registers the shipped patterns

    from repro.apps.registry import available_workloads

    if spec.workload is None:
        raise _spec_error("traffic experiments need a pattern (workload) name")
    info = available_workloads().get(spec.workload)
    if info is None or not ({"traffic", "fine-grain"} & set(info.tags)):
        patterns = sorted(available_workloads("traffic")) + sorted(
            available_workloads("fine-grain")
        )
        raise _spec_error(
            f"unknown traffic pattern {spec.workload!r}; choose from {patterns}"
        )
    if spec.scale <= 0:
        raise _spec_error("scale must be positive")


def _validate_replay(spec: "ExperimentSpec") -> None:
    import repro.trace  # noqa: F401 — registers the replay workload

    from repro.trace.format import TraceError, read_header

    trace_path = spec.workload_kwargs.get("trace")
    if not trace_path or not isinstance(trace_path, str):
        raise _spec_error(
            "replay experiments need workload_kwargs['trace'] "
            "(path to a recorded trace file)"
        )
    try:
        header = read_header(trace_path)
    except TraceError as exc:
        raise _spec_error(f"unreadable trace {trace_path!r}: {exc}") from None
    if header["num_nodes"] != spec.num_nodes:
        raise _spec_error(
            f"trace {trace_path!r} was recorded on {header['num_nodes']} nodes; "
            f"spec has num_nodes={spec.num_nodes}"
        )


def _describe_workload(spec: "ExperimentSpec") -> str:
    return f"{spec.workload} x{spec.scale:g} on {spec.num_nodes} nodes"


def _describe_replay(spec: "ExperimentSpec") -> str:
    trace_path = spec.workload_kwargs.get("trace", "?")
    return f"trace {trace_path} on {spec.num_nodes} nodes"


def _cost_latency(spec: "ExperimentSpec") -> float:
    return 10.0 * spec.iterations * max(1, spec.message_bytes) / 256.0


def _cost_bandwidth(spec: "ExperimentSpec") -> float:
    return 1_000.0 * spec.messages * max(1, spec.message_bytes) / 256.0


def _cost_workload(spec: "ExperimentSpec") -> float:
    return 1_000_000.0 * spec.scale * max(1, spec.num_nodes)


def _cost_replay(spec: "ExperimentSpec") -> float:
    # Replay skips the messaging-layer software path: markedly cheaper
    # than a fresh workload run of the same shape.
    return 100_000.0 * spec.scale * max(1, spec.num_nodes)


def _replay_cache_token(spec: "ExperimentSpec") -> str:
    from repro.trace.format import trace_digest

    return f"trace-{trace_digest(spec.workload_kwargs['trace'])}"


@register_kind(
    "latency",
    validate=_validate_latency,
    cost=_cost_latency,
    doc="Figure 6 round-trip latency microbenchmark",
)
def _measure_latency(spec: "ExperimentSpec") -> Dict[str, float]:
    from repro.experiments.microbench import measure_latency

    return measure_latency(spec)


@register_kind(
    "bandwidth",
    validate=_validate_bandwidth,
    cost=_cost_bandwidth,
    doc="Figure 7 streaming bandwidth microbenchmark",
)
def _measure_bandwidth(spec: "ExperimentSpec") -> Dict[str, float]:
    from repro.experiments.microbench import measure_bandwidth

    return measure_bandwidth(spec)


@register_kind(
    "macro",
    validate=_validate_macro,
    describe=_describe_workload,
    cost=_cost_workload,
    doc="Figure 8 macrobenchmark run",
)
def _measure_macro(spec: "ExperimentSpec") -> Dict[str, float]:
    from repro.apps.workload import run_spec, workload_metrics

    return workload_metrics(*run_spec(spec))


@register_kind(
    "traffic",
    validate=_validate_traffic,
    describe=_describe_workload,
    cost=_cost_workload,
    folds_workload_schema=True,
    doc="synthetic / fine-grain traffic pattern run",
)
def _measure_traffic(spec: "ExperimentSpec") -> Dict[str, float]:
    from repro.traffic.measure import run_traffic_point

    return run_traffic_point(spec)


@register_kind(
    "replay",
    validate=_validate_replay,
    describe=_describe_replay,
    cost=_cost_replay,
    folds_workload_schema=True,
    cache_token=_replay_cache_token,
    doc="message-level trace replay (sweep accelerator)",
)
def _measure_replay(spec: "ExperimentSpec") -> Dict[str, float]:
    from repro.trace.replay import run_replay_point

    return run_replay_point(spec)


_BUILTIN = tuple(_REGISTRY)
