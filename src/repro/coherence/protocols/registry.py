"""Registry of coherence-protocol rule tables.

Mirrors the device registry (:mod:`repro.ni.registry`) and the fabric
registry (:mod:`repro.network.registry`): built-in tables register at
import, and plugins register at runtime under their spec's name.  A change
to a built-in table or to :class:`ProtocolSpec` semantics that alters an
existing spec's result bumps
:data:`repro.service.store.STORE_SCHEMA_VERSION`, so stored results
computed under the old transition rules stop matching.

Plugins use the plain call or the decorator form::

    register_protocol(my_spec)

    @register_protocol
    def dragon() -> ProtocolSpec:
        return ProtocolSpec(name="dragon", ...)

The decorator registers the *built* spec and rebinds the function name to
it, so ``dragon`` is the :class:`ProtocolSpec` afterwards.
"""

from __future__ import annotations

import functools
from typing import Callable, Dict, Tuple, Union

from repro.coherence.protocols.spec import ProtocolError, ProtocolSpec

_BUILTIN: Dict[str, ProtocolSpec] = {}  # repro: allow[MUTSTATE] import-time protocol plugin registry
_REGISTRY: Dict[str, ProtocolSpec] = {}  # repro: allow[MUTSTATE] import-time protocol plugin registry


def register_protocol(
    spec: Union[ProtocolSpec, Callable[[], ProtocolSpec], None] = None,
    *,
    replace: bool = False,
):
    """Register a protocol table under ``spec.name``.

    Accepts a :class:`ProtocolSpec` directly, or decorates a zero-argument
    builder function (the spec it returns is registered and returned).
    ``replace=True`` allows shadowing an existing name; built-ins shadowed
    this way are restored by :func:`unregister_protocol`.
    """
    if spec is None:
        return functools.partial(register_protocol, replace=replace)
    if not isinstance(spec, ProtocolSpec):
        if not callable(spec):
            raise ProtocolError(f"register_protocol expects a ProtocolSpec, got {spec!r}")
        built = spec()
        if not isinstance(built, ProtocolSpec):
            raise ProtocolError(
                f"@register_protocol builder {spec!r} returned {built!r}, "
                f"not a ProtocolSpec"
            )
        return register_protocol(built, replace=replace)
    spec.validate()
    if spec.name in _REGISTRY and not replace:
        raise ProtocolError(
            f"protocol {spec.name!r} is already registered "
            f"(pass replace=True to shadow it)"
        )
    _REGISTRY[spec.name] = spec
    return spec


def _register_builtin(spec: ProtocolSpec) -> ProtocolSpec:
    spec.validate()
    _BUILTIN[spec.name] = spec
    _REGISTRY[spec.name] = spec
    return spec


def unregister_protocol(name: str) -> None:
    """Remove a registered protocol; shadowed built-ins are restored."""
    if name not in _REGISTRY:
        raise ProtocolError(f"protocol {name!r} is not registered")
    if name in _BUILTIN:
        _REGISTRY[name] = _BUILTIN[name]
    else:
        del _REGISTRY[name]


def protocol_spec(name: str) -> ProtocolSpec:
    """The registered table for ``name``; raises :class:`ProtocolError`."""
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise ProtocolError(
            f"unknown coherence protocol {name!r}; registered: {known}"
        ) from None


def available_protocols() -> Tuple[ProtocolSpec, ...]:
    """Every registered table, sorted by name."""
    return tuple(_REGISTRY[name] for name in sorted(_REGISTRY))


def is_builtin(name: str) -> bool:
    return name in _BUILTIN and _REGISTRY.get(name) is _BUILTIN[name]
