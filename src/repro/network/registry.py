"""Fabric registry: topology names resolved to fabric implementations.

The counterpart of the NI device registry (:mod:`repro.ni.registry`) for
the interconnect axis: a fabric *kind* (the grammar's leading word —
``ideal``, ``xbar``, ``mesh``, ``torus``) maps to an
:class:`~repro.network.fabric.AbstractFabric` subclass, and
:func:`create_fabric` builds the fabric a machine's parameters name.
Plugins register new kinds with :func:`register_fabric` (plain call or
decorator), after which their names parse everywhere a built-in name does
— ``MachineParams(fabric="myfabric")``, experiment specs, sweeps.  A change
to a fabric's delivery timing that alters an existing spec's result bumps
:data:`repro.service.store.STORE_SCHEMA_VERSION`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple, Type

from repro.common.params import MachineParams
from repro.network.fabric import AbstractFabric, IdealFabric
from repro.network.fabricspec import FabricError, FabricSpec, parse_fabric_name
from repro.network.topology import CrossbarFabric, MeshFabric, TorusFabric
from repro.sim import Simulator

#: The pinned built-in fabrics; ``unregister_fabric`` restores these if a
#: plugin shadowed one of the kinds.
_BUILTIN_CLASSES: Dict[str, Type[AbstractFabric]] = {  # repro: allow[MUTSTATE] import-time fabric plugin registry
    "ideal": IdealFabric,
    "xbar": CrossbarFabric,
    "mesh": MeshFabric,
    "torus": TorusFabric,
}

_FABRIC_CLASSES: Dict[str, Type[AbstractFabric]] = dict(_BUILTIN_CLASSES)  # repro: allow[MUTSTATE] import-time fabric plugin registry


def parse_fabric(name: str) -> FabricSpec:
    """Parse a fabric name against every *registered* kind.

    Like :func:`~repro.network.fabricspec.parse_fabric_name` but the
    accepted kinds include plugins, so ``MachineParams.validate`` and spec
    validation recognise registered custom fabrics.
    """
    return parse_fabric_name(name, known_kinds=tuple(_FABRIC_CLASSES))


def fabric_class(kind: str) -> Type[AbstractFabric]:
    """Return the fabric class registered for a kind."""
    cls = _FABRIC_CLASSES.get(kind)
    if cls is None:
        raise FabricError(
            f"unknown fabric kind {kind!r}; choose from {sorted(_FABRIC_CLASSES)}"
        )
    return cls


def register_fabric(kind: str, cls: Optional[Type[AbstractFabric]] = None):
    """Register a fabric implementation under a grammar kind.

    Either a plain call, ``register_fabric("fat", FatTreeFabric)``, or the
    decorator form — the public plugin hook::

        @register_fabric("fattree")
        class FatTreeFabric(AbstractFabric):
            ...

    Kinds must fit the grammar's kind field (lowercase letters).  A plugin
    may also shadow a built-in kind; :func:`unregister_fabric` restores the
    original.  Returns the class, enabling decorator use.
    """
    if cls is None:
        def _decorator(klass: Type[AbstractFabric]) -> Type[AbstractFabric]:
            return register_fabric(kind, klass)

        return _decorator
    if not (kind.isalpha() and kind == kind.lower()):
        raise FabricError(
            f"fabric kind {kind!r} does not fit the grammar kind field "
            f"(lowercase letters only)"
        )
    if not (isinstance(cls, type) and issubclass(cls, AbstractFabric)):
        raise FabricError(f"{cls!r} is not an AbstractFabric subclass")
    _FABRIC_CLASSES[kind] = cls
    return cls


def unregister_fabric(kind: str) -> None:
    """Remove a registered fabric kind (no-op for unknown kinds).

    The built-in kinds cannot be removed: unregistering one restores the
    original pinned implementation, so a plugin that shadowed a built-in
    fabric is always reversible.
    """
    original = _BUILTIN_CLASSES.get(kind)
    if original is not None:
        _FABRIC_CLASSES[kind] = original
    else:
        _FABRIC_CLASSES.pop(kind, None)


@dataclass(frozen=True)
class FabricInfo:
    """Metadata for one registered fabric kind."""

    kind: str
    cls_name: str
    builtin: bool
    summary: str

    def describe(self) -> str:
        origin = "built-in" if self.builtin else "plugin"
        return f"{self.kind}: {self.summary} ({origin}, {self.cls_name})"


def available_fabrics() -> Tuple[FabricInfo, ...]:
    """Metadata for every registered fabric kind, sorted by kind."""
    infos = []
    for kind in sorted(_FABRIC_CLASSES):
        cls = _FABRIC_CLASSES[kind]
        doc = (cls.__doc__ or "").strip().split("\n", 1)[0].rstrip(".")
        infos.append(
            FabricInfo(
                kind=kind,
                cls_name=cls.__name__,
                builtin=_BUILTIN_CLASSES.get(kind) is cls,
                summary=doc or "no description",
            )
        )
    return tuple(infos)


def create_fabric(sim: Simulator, params: MachineParams) -> AbstractFabric:
    """Build the fabric ``params.fabric`` names, attached to nothing yet.

    Under a fault plan its ``faults`` is the plan's seeded
    :class:`~repro.faults.fabric.FaultInjector`.  Raises
    :class:`~repro.network.fabricspec.FabricError` for names that do not
    parse, name an unregistered kind, or whose grid dimensions cannot host
    ``params.num_nodes`` nodes.
    """
    spec = parse_fabric(params.fabric).validate_nodes(params.num_nodes)
    fabric = fabric_class(spec.kind)(sim, params, spec=spec)
    if params.faults:
        # Lazy import: a run without a plan never loads the fault layer.
        from repro.faults.fabric import FaultInjector
        from repro.faults.plan import resolve_plan

        fabric.faults = FaultInjector(resolve_plan(params.faults), params.fault_seed)
    return fabric
