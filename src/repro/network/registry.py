"""Fabric registry: topology names resolved to fabric implementations.

The counterpart of the NI device registry (:mod:`repro.ni.registry`) for
the interconnect axis: a fabric *kind* (the grammar's leading word —
``ideal``, ``xbar``, ``mesh``, ``torus``) maps to an
:class:`~repro.network.fabric.AbstractFabric` subclass, and
:func:`create_fabric` builds the fabric a machine's parameters name.
Plugins register new kinds with :func:`register_fabric` (plain call or
decorator), after which their names parse everywhere a built-in name does
— ``MachineParams(fabric="myfabric")``, experiment specs, sweeps.  The
built-in kinds are sealed (:class:`~repro.common.registry.Registry`).  A
change to a fabric's delivery timing that alters an existing spec's result
bumps :data:`repro.service.store.STORE_SCHEMA_VERSION`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple, Type

from repro.common.params import MachineParams
from repro.common.registry import Registry
from repro.network.fabric import AbstractFabric, IdealFabric
from repro.network.fabricspec import FabricError, FabricSpec, parse_fabric_name
from repro.network.topology import CrossbarFabric, MeshFabric, TorusFabric
from repro.sim import Simulator

_FABRICS: Registry[Type[AbstractFabric]] = Registry("fabric kind", FabricError)  # repro: allow[MUTSTATE] import-time fabric plugin registry


def parse_fabric(name: str) -> FabricSpec:
    """Parse a fabric name like ``"mesh4x4"`` against every registered kind.

    The one fabric-name parser: ``MachineParams.validate``, spec validation
    and :func:`create_fabric` all read names through it, so a registered
    plugin kind parses wherever a built-in does.
    """
    return parse_fabric_name(name, _FABRICS)


def fabric_class(kind: str) -> Type[AbstractFabric]:
    """Return the fabric class registered for a kind."""
    return _FABRICS.lookup(kind)


def register_fabric(kind: str, cls: Optional[Type[AbstractFabric]] = None):
    """Register a fabric implementation under a grammar kind.

    Either a plain call, ``register_fabric("fat", FatTreeFabric)``, or the
    decorator form — the public plugin hook::

        @register_fabric("fattree")
        class FatTreeFabric(AbstractFabric):
            ...

    Kinds must fit the grammar's kind field (lowercase letters), and a
    built-in or already registered kind raises.  Returns the class,
    enabling decorator use.
    """
    if cls is None:
        def _decorator(klass: Type[AbstractFabric]) -> Type[AbstractFabric]:
            return register_fabric(kind, klass)

        return _decorator
    if not (isinstance(kind, str) and kind.isalpha() and kind == kind.lower()):
        raise FabricError(
            f"fabric kind {kind!r} does not fit the grammar kind field "
            f"(lowercase letters only)"
        )
    if not (isinstance(cls, type) and issubclass(cls, AbstractFabric)):
        raise FabricError(f"{cls!r} is not an AbstractFabric subclass")
    return _FABRICS.register(kind, cls)


def unregister_fabric(kind: str) -> None:
    """Remove a plugin fabric kind; a built-in or unknown kind raises."""
    _FABRICS.unregister(kind)


for _cls in (IdealFabric, CrossbarFabric, MeshFabric, TorusFabric):
    register_fabric(_cls.kind, _cls)
_FABRICS.seal()


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
    for kind, cls in sorted(_FABRICS.items()):
        doc = (cls.__doc__ or "").strip().split("\n", 1)[0].rstrip(".")
        infos.append(
            FabricInfo(
                kind=kind,
                cls_name=cls.__name__,
                builtin=kind in _FABRICS.builtins,
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
