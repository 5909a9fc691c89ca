"""Registry of coherence-protocol rule tables.

Mirrors the device registry (:mod:`repro.ni.registry`) and the fabric
registry (:mod:`repro.network.registry`): built-in tables register and
are sealed at import (:mod:`repro.coherence.protocols.tables`), and
plugins register at runtime under their spec's name.  A change to a
built-in table or to :class:`ProtocolSpec` semantics that alters an
existing spec's result bumps :data:`repro.service.store.STORE_SCHEMA_VERSION`,
so stored results computed under the old transition rules stop matching.

Plugins use the plain call or the decorator form::

    register_protocol(my_spec)

    @register_protocol
    def dragon() -> ProtocolSpec:
        return ProtocolSpec(name="dragon", ...)

The decorator registers the *built* spec and rebinds the function name to
it, so ``dragon`` is the :class:`ProtocolSpec` afterwards.
"""

from __future__ import annotations

from typing import Callable, Tuple, Union

from repro.coherence.protocols.spec import ProtocolError, ProtocolSpec
from repro.common.registry import Registry

_PROTOCOLS: Registry[ProtocolSpec] = Registry("coherence protocol", ProtocolError)  # repro: allow[MUTSTATE] import-time protocol plugin registry


def register_protocol(spec: Union[ProtocolSpec, Callable[[], ProtocolSpec], None] = None):
    """Register a protocol table under ``spec.name``.

    Accepts a :class:`ProtocolSpec` directly, or decorates a zero-argument
    builder function (the spec it returns is registered and returned).  A
    built-in or already registered name raises :class:`ProtocolError`.
    """
    if spec is None:
        return register_protocol
    if not isinstance(spec, ProtocolSpec):
        if not callable(spec):
            raise ProtocolError(f"register_protocol expects a ProtocolSpec, got {spec!r}")
        built = spec()
        if not isinstance(built, ProtocolSpec):
            raise ProtocolError(
                f"@register_protocol builder {spec!r} returned {built!r}, "
                f"not a ProtocolSpec"
            )
        return register_protocol(built)
    spec.validate()
    return _PROTOCOLS.register(spec.name, spec)


def unregister_protocol(name: str) -> None:
    """Remove a plugin protocol; a built-in or unknown name raises."""
    _PROTOCOLS.unregister(name)


def protocol_spec(name: str) -> ProtocolSpec:
    """The registered table for ``name``; raises :class:`ProtocolError`."""
    return _PROTOCOLS.lookup(name)


def available_protocols() -> Tuple[ProtocolSpec, ...]:
    """Every registered table, sorted by name."""
    return tuple(spec for _, spec in sorted(_PROTOCOLS.items()))
