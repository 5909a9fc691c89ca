"""Pluggable experiment-kind registry.

An experiment *kind* is one measurement recipe: how a validated
:class:`~repro.api.spec.ExperimentSpec` turns into metrics.  Kinds used to
be a frozen tuple in ``spec.py`` plus if/elif chains in ``runner.py``; this
module replaces that with a dispatch table so new scenario classes
(synthetic traffic, plugins) register instead of editing the core API,
the same generative move the device, fabric, protocol and workload
registries make.

Each :class:`KindSpec` bundles the per-kind hooks:

``measure``
    ``spec -> metrics dict`` — the actual simulation entry point.
``validate``
    extra :meth:`ExperimentSpec.validate` checks (may raise ``SpecError``).
``describe``
    the human-readable "what" fragment of ``spec.describe()``.
``cost``
    rough relative wall-clock cost, used only to order parallel work.

A kind has no say in its store key: every kind's results are keyed by the
spec hash and :data:`repro.service.store.STORE_SCHEMA_VERSION`, which is
bumped whenever a kind's metric set or measurement changes.  The built-in
kinds are sealed (:class:`~repro.common.registry.Registry`).

:class:`SpecError` lives here, not in ``spec.py`` (which re-exports it),
because the kind table raises it from import time on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, Optional, Tuple

from repro.common.registry import Registry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.spec import ExperimentSpec

MeasureFn = Callable[["ExperimentSpec"], Dict[str, float]]
SpecHook = Callable[["ExperimentSpec"], Any]


class SpecError(ValueError):
    """Raised for malformed experiment specifications."""


@dataclass(frozen=True)
class KindSpec:
    """One registered experiment kind and its hooks."""

    name: str
    measure: MeasureFn
    validate: Optional[SpecHook] = None
    describe: Optional[Callable[["ExperimentSpec"], str]] = None
    cost: Optional[Callable[["ExperimentSpec"], float]] = None


_KINDS: Registry[KindSpec] = Registry("experiment kind", SpecError)


def register_kind(
    name: str,
    measure: Optional[MeasureFn] = None,
    *,
    validate: Optional[SpecHook] = None,
    describe: Optional[Callable[["ExperimentSpec"], str]] = None,
    cost: Optional[Callable[["ExperimentSpec"], float]] = None,
):
    """Register an experiment kind; usable as decorator or direct call.

    Decorator form registers the decorated function as the ``measure``
    hook::

        @register_kind("powertrace")
        def _measure_powertrace(spec):
            return {"watts": ...}

    Direct form takes the measure function as the second argument.
    ``measure`` must be a pure function of the spec: that is what lets every
    kind's results be stored and served from the result store.  A built-in
    or already registered name raises ``SpecError``.
    """

    def install(measure_fn: MeasureFn) -> MeasureFn:
        if not callable(measure_fn):
            raise SpecError(f"experiment kind {name!r} needs a callable measure hook")
        _KINDS.register(
            name,
            KindSpec(
                name=name, measure=measure_fn, validate=validate, describe=describe, cost=cost
            ),
        )
        return measure_fn

    if measure is not None:
        return install(measure)
    return install


def unregister_kind(name: str) -> None:
    """Remove a plugin kind; a built-in or unknown name raises ``SpecError``."""
    _KINDS.unregister(name)


def kind_spec(name: str) -> KindSpec:
    """The :class:`KindSpec` registered under ``name`` (SpecError if none)."""
    return _KINDS.lookup(name)


def available_kinds() -> Dict[str, KindSpec]:
    """Registered kinds in registration order."""
    return dict(_KINDS.items())


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
    kind = _KINDS.get(spec.kind)
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
    kind = _KINDS.get(spec.kind)
    if kind is not None and kind.cost is not None:
        return kind.cost(spec)
    return 1_000_000.0 * spec.scale * max(1, spec.num_nodes)


# ----------------------------------------------------------------------
# Built-in kinds.  The measure hooks import their entry points lazily so
# that importing the API layer stays cheap and cycle-free.
# ----------------------------------------------------------------------

def _validate_latency(spec: "ExperimentSpec") -> None:
    if spec.message_bytes <= 0:
        raise SpecError("message_bytes must be positive")
    if spec.iterations < 1:
        raise SpecError("latency experiments need at least one iteration")


def _validate_bandwidth(spec: "ExperimentSpec") -> None:
    if spec.message_bytes <= 0:
        raise SpecError("message_bytes must be positive")
    if spec.messages < 1:
        raise SpecError("bandwidth experiments need at least one message")


def _check_workload(spec: "ExperimentSpec", what: str, tags: Tuple[str, ...]) -> None:
    from repro.apps import workload_names

    if spec.workload is None:
        raise SpecError(f"{spec.kind} experiments need a {what} name")
    names = [name for tag in tags for name in sorted(workload_names(tag))]
    if spec.workload not in names:
        raise SpecError(f"unknown {what} {spec.workload!r}; choose from {names}")
    if not 0 < spec.scale < math.inf:  # NaN fails both comparisons
        raise SpecError(f"scale must be positive and finite, not {spec.scale}")


def _validate_macro(spec: "ExperimentSpec") -> None:
    _check_workload(spec, "workload", ("macro", "diagnostic"))


def _validate_traffic(spec: "ExperimentSpec") -> None:
    import repro.traffic  # noqa: F401 — registers the shipped patterns

    _check_workload(spec, "traffic pattern", ("traffic", "fine-grain"))


def _describe_workload(spec: "ExperimentSpec") -> str:
    return f"{spec.workload} x{spec.scale:g} on {spec.num_nodes} nodes"


def _cost_latency(spec: "ExperimentSpec") -> float:
    return 10.0 * spec.iterations * max(1, spec.message_bytes) / 256.0


def _cost_bandwidth(spec: "ExperimentSpec") -> float:
    return 1_000.0 * spec.messages * max(1, spec.message_bytes) / 256.0


def _cost_workload(spec: "ExperimentSpec") -> float:
    return 1_000_000.0 * spec.scale * max(1, spec.num_nodes)


@register_kind("latency", validate=_validate_latency, cost=_cost_latency)
def _measure_latency(spec: "ExperimentSpec") -> Dict[str, float]:
    """Figure 6 round-trip latency microbenchmark."""
    from repro.experiments.microbench import measure_latency

    return measure_latency(spec)


@register_kind("bandwidth", validate=_validate_bandwidth, cost=_cost_bandwidth)
def _measure_bandwidth(spec: "ExperimentSpec") -> Dict[str, float]:
    """Figure 7 streaming bandwidth microbenchmark."""
    from repro.experiments.microbench import measure_bandwidth

    return measure_bandwidth(spec)


@register_kind(
    "macro",
    validate=_validate_macro,
    describe=_describe_workload,
    cost=_cost_workload,
)
def _measure_macro(spec: "ExperimentSpec") -> Dict[str, float]:
    """Figure 8 macrobenchmark run."""
    from repro.apps.workload import run_spec, workload_metrics

    return workload_metrics(*run_spec(spec))


@register_kind(
    "traffic",
    validate=_validate_traffic,
    describe=_describe_workload,
    cost=_cost_workload,
)
def _measure_traffic(spec: "ExperimentSpec") -> Dict[str, float]:
    """Synthetic / fine-grain traffic pattern run."""
    from repro.traffic.measure import run_traffic_point

    return run_traffic_point(spec)


_KINDS.seal()
