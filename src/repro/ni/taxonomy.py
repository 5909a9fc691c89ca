"""The NI/CNI taxonomy of Section 3 and the factory that builds any device.

Device names follow the paper's notation ``NI_iX`` / ``CNI_iX``:

* the ``CNI`` prefix means the device participates in the coherence
  protocol (caches its NI queues), the ``NI`` prefix means it does not;
* ``i`` is the exposed queue size in cache blocks, or in 4-byte words when
  suffixed with ``w``;
* ``X`` is empty (no explicit queue pointers), ``Q`` (explicit memory-based
  queue homed on the device) or ``Qm`` (explicit queue homed in main
  memory).

Examples from the paper: the CM-5 NI is ``NI2w``, Alewife is ``NI16w``,
*T-NG is ``NI128Q`` and the four evaluated coherent devices are ``CNI4``,
``CNI16Q``, ``CNI512Q`` and ``CNI16Qm``.
"""

from __future__ import annotations

import inspect
import re
from dataclasses import dataclass
from typing import (
    Dict, FrozenSet, Literal, Mapping, Optional, Tuple, Type, Union,
    get_args, get_origin, get_type_hints,
)

from repro.common.registry import Registry
from repro.ni.base import AbstractNI


class TaxonomyError(ValueError):
    """Raised for malformed or unsupported taxonomy names.

    Error messages name the offending field of the ``NI_iX`` grammar
    (``prefix``, ``size``, ``unit`` or ``queue``) so callers can see *which*
    axis of the taxonomy a name violates.
    """


_NAME_PATTERN = re.compile(r"^(?P<prefix>C?NI)(?P<size>\d+)(?P<unit>w?)(?P<queue>Qm|Q)?$")
_NAME_PATTERN_LAX = re.compile(
    r"^(?P<prefix>C?NI)(?P<size>\d+)(?P<unit>w?)(?P<queue>Qm|Q)?$", re.IGNORECASE
)


@dataclass(frozen=True)
class NISpec:
    """Parsed form of a taxonomy name."""

    name: str
    coherent: bool
    exposed_size: int
    unit: str                   # "blocks" or "words"
    queue: Optional[str]        # None, "Q" or "Qm"

    @property
    def exposed_blocks(self) -> Optional[int]:
        """Exposed size in cache blocks (None when expressed in words)."""
        return self.exposed_size if self.unit == "blocks" else None

    @property
    def home(self) -> str:
        """Where the exposed queue is homed."""
        if self.queue == "Qm":
            return "memory"
        return "device"

    def describe(self) -> str:
        unit = "cache blocks" if self.unit == "blocks" else "4-byte words"
        pointers = "explicit queue pointers" if self.queue else "no explicit queue pointers"
        kind = "coherent (cached NI queues)" if self.coherent else "uncached NI access"
        return f"{self.name}: {kind}, {self.exposed_size} {unit} exposed, {pointers}, home={self.home}"


def parse_ni_name(name: str) -> NISpec:
    """Parse a taxonomy name like ``"CNI16Qm"`` into an :class:`NISpec`.

    Raises :class:`TaxonomyError` for malformed names, with the message
    naming the offending grammar field.  Enforced grammar rules:

    * ``size`` must be a positive integer;
    * ``unit`` ``w`` (words) requires the ``NI`` prefix — coherent devices
      exchange whole cache blocks;
    * ``queue`` suffixes (``Q``/``Qm``) require block-sized exposure —
      explicit queues are arrays of message entries;
    * ``queue`` ``Qm`` requires the ``CNI`` prefix — a memory-homed queue
      needs coherent access to main memory.

    Names are exact: a non-string, or a name with surrounding whitespace,
    is rejected rather than read as another spelling of a device (each
    spelling would get its own spec hash and store key).
    """
    if not isinstance(name, str):
        raise TaxonomyError(
            f"NI taxonomy name must be a string, not {type(name).__name__} {name!r}"
        )
    stripped = name.strip()
    if stripped != name:
        raise TaxonomyError(
            f"{name!r}: NI taxonomy name must not have surrounding whitespace "
            f"(write {stripped!r})"
        )
    match = _NAME_PATTERN.match(name)
    if not match:
        lax = _NAME_PATTERN_LAX.match(name)
        if lax:
            candidate = (
                f"{lax.group('prefix').upper()}{lax.group('size')}"
                f"{lax.group('unit').lower()}{(lax.group('queue') or '').capitalize()}"
            )
            try:
                parse_ni_name(candidate)
            except TaxonomyError:
                hint = ""  # the case-fixed name is itself illegal; no hint
            else:
                hint = f" — did you mean {candidate!r}?"
            raise TaxonomyError(
                f"cannot parse NI taxonomy name {name!r}: names are "
                f"case-sensitive (prefix NI/CNI, unit 'w', queue 'Q'/'Qm')"
                f"{hint}"
            )
        raise TaxonomyError(
            f"cannot parse NI taxonomy name {name!r}: expected prefix NI or "
            f"CNI, a positive size, an optional unit 'w' and an optional "
            f"queue suffix 'Q' or 'Qm'"
        )
    prefix = match.group("prefix")
    size = int(match.group("size"))
    if size <= 0:
        raise TaxonomyError(f"{name!r}: size field (exposed queue size) must be positive")
    if match.group("size") != str(size):
        # Leading zeros would alias distinct spellings of the same device
        # ("NI04" vs "NI4") into distinct spec hashes and cache entries.
        raise TaxonomyError(
            f"{name!r}: size field must not have leading zeros (write {size})"
        )
    unit = "words" if match.group("unit") == "w" else "blocks"
    queue = match.group("queue")
    if unit == "words" and prefix == "CNI":
        raise TaxonomyError(
            f"{name!r}: unit field 'w' conflicts with the CNI prefix — "
            f"coherent devices expose whole cache blocks, not words"
        )
    if queue is not None and unit == "words":
        raise TaxonomyError(
            f"{name!r}: queue field {queue!r} requires block-sized exposure — "
            f"explicit queues are arrays of message-sized block entries"
        )
    if queue == "Qm" and prefix != "CNI":
        raise TaxonomyError(
            f"{name!r}: queue field 'Qm' (memory-homed queue) requires the "
            f"coherent CNI prefix"
        )
    return NISpec(
        name=name,
        coherent=prefix == "CNI",
        exposed_size=size,
        unit=unit,
        queue=queue,
    )


#: The five devices evaluated in the paper.
EVALUATED_DEVICES = ("NI2w", "CNI4", "CNI16Q", "CNI512Q", "CNI16Qm")

#: Plugin devices.  Every legal taxonomy name is a built-in device, built
#: from its plan, so this table holds plugins only.
_DEVICES: Registry[Type[AbstractNI]] = Registry("device", TaxonomyError)  # repro: allow[MUTSTATE] import-time device plugin registry


def device_class(name: str) -> Type[AbstractNI]:
    """Return the class that implements device ``name``.

    A :func:`register_device` plugin is its registered class; every other
    *legal* taxonomy name is its plan's family class
    (:class:`~repro.ni.registry.DeviceSpec`), so the whole generative space
    is buildable.  Raises :class:`TaxonomyError` for names that are neither
    registered nor valid taxonomy points.
    """
    cls = _DEVICES.get(name)
    if cls is not None:
        return cls
    from repro.ni.registry import DeviceSpec

    return DeviceSpec.from_name(name).base_class


def _refuse_taxonomy_name(name: str) -> None:
    """Raise if ``name`` is a taxonomy point: those are built in."""
    try:
        parse_ni_name(name)
    except TaxonomyError:
        return
    raise TaxonomyError(f"device {name!r} is a taxonomy point, built in by the grammar")


def register_device(name: str, cls: Optional[Type[AbstractNI]] = None):
    """Register a device implementation under a name.

    Either a plain call, ``register_device("MyNI", MyClass)``, or the
    decorator form — the public plugin hook::

        @register_device("HybridNI")
        class HybridNI(AbstractNI):
            ...

    Every name :func:`parse_ni_name` accepts is a built-in taxonomy point
    and raises, as does an already registered name.  Returns the class,
    enabling decorator use.
    """
    if cls is None:
        def _decorator(klass: Type[AbstractNI]) -> Type[AbstractNI]:
            return register_device(name, klass)

        return _decorator
    if not (isinstance(cls, type) and issubclass(cls, AbstractNI)):
        raise TaxonomyError(f"{cls!r} is not an AbstractNI subclass")
    _refuse_taxonomy_name(name)
    _DEVICES.register(name, cls)
    _ALLOWED_KWARGS_CACHE.pop(cls, None)
    return cls


def unregister_device(name: str) -> None:
    """Remove a plugin device; a taxonomy point or unknown name raises."""
    _refuse_taxonomy_name(name)
    _DEVICES.unregister(name)


@dataclass(frozen=True)
class DeviceInfo:
    """Metadata for one registered or generable device.

    ``cls_name`` names the implementing class: the registered class for a
    plugin, the plan's family class (e.g. ``UncachedNI``) for a taxonomy
    point.
    """

    name: str
    cls_name: str
    spec: Optional[NISpec]    # parsed taxonomy form, None for a plugin
    tunables: Tuple[str, ...]  # constructor kwargs accepted via ni_kwargs
    generated: bool = False    # built from its taxonomy plan, not a plugin

    def describe(self) -> str:
        if self.spec is not None:
            return f"{self.spec.describe()} [generated]"
        return f"{self.name}: custom device ({self.cls_name})"


def _device_info(name: str, cls: Type[AbstractNI], generated: bool) -> DeviceInfo:
    return DeviceInfo(
        name=name,
        cls_name=cls.__name__,
        spec=parse_ni_name(name) if generated else None,
        tunables=tuple(sorted(_allowed_ni_kwargs(cls))),
        generated=generated,
    )


def available_devices(generative: bool = True) -> Tuple[DeviceInfo, ...]:
    """Metadata for every buildable device, sorted by name.

    Registered plugins come flagged ``generated=False``; with ``generative``
    (the default) the enumeration also covers the registry's canonical
    sample of the generative space (:data:`repro.ni.registry.GENERATIVE_SAMPLE`,
    the paper's five included — the space itself is unbounded: any legal
    ``NI_iX``/``CNI_iX`` name builds).  Each entry carries the parsed
    :class:`NISpec` (when the name follows the taxonomy grammar) and the
    constructor keywords the device accepts through ``ni_kwargs``.
    """
    entries: Dict[str, DeviceInfo] = {
        name: _device_info(name, cls, generated=False)
        for name, cls in _DEVICES.items()
    }
    if generative:
        from repro.ni.registry import GENERATIVE_SAMPLE

        for name in GENERATIVE_SAMPLE:
            entries[name] = _device_info(name, device_class(name), generated=True)
    return tuple(entries[name] for name in sorted(entries))


def available_device_names(generative: bool = True) -> Tuple[str, ...]:
    """Just the buildable taxonomy names, sorted."""
    return tuple(info.name for info in available_devices(generative=generative))


#: Constructor parameters supplied by :class:`repro.node.node.Node` itself;
#: never acceptable through user-facing ``ni_kwargs``.
_INFRA_PARAMS: FrozenSet[str] = frozenset(
    {"self", "sim", "node_id", "params", "addrmap", "interconnect", "fabric",
     "bus_kind", "dram_allocator", "taxonomy_name"}
)

_ALLOWED_KWARGS_CACHE: Dict[type, Dict[str, object]] = {}  # repro: allow[MUTSTATE] memo keyed by device class, machine-free


def _allowed_ni_kwargs(cls: type) -> Dict[str, object]:
    """Keywords a device constructor accepts beyond the infra params, each
    with its declared type (``None`` where it declares none that resolves).

    Device ``__init__``\\ s are ``(*args, name=..., **kwargs)`` chains, so
    the acceptable set is the union of explicitly named parameters across
    the MRO (the most derived declaration wins), minus the infrastructure
    arguments the Node always passes.
    """
    cached = _ALLOWED_KWARGS_CACHE.get(cls)
    if cached is not None:
        return cached
    allowed: Dict[str, object] = {}
    for klass in cls.__mro__:
        init = klass.__dict__.get("__init__")
        if init is None:
            continue
        try:
            signature = inspect.signature(init)
        except (TypeError, ValueError):
            continue
        try:
            hints = get_type_hints(init)
        except (NameError, SyntaxError, TypeError):
            hints = {}  # an annotation that does not resolve is not checked
        for param in signature.parameters.values():
            if param.name not in _INFRA_PARAMS and param.kind in (
                inspect.Parameter.POSITIONAL_OR_KEYWORD,
                inspect.Parameter.KEYWORD_ONLY,
            ):
                allowed.setdefault(param.name, hints.get(param.name))
    _ALLOWED_KWARGS_CACHE[cls] = allowed
    return allowed


def _has_type(value: object, declared: object) -> bool:
    """Whether ``value`` has the declared type: exactly (a bool is no int),
    as one arm of an ``Optional``, or as one value of a ``Literal``.  No or
    another kind of annotation accepts anything."""
    origin, args = get_origin(declared), get_args(declared)
    if origin is Union:
        return any(_has_type(value, arm) for arm in args)
    if origin is Literal:
        return any(type(value) is type(v) and value == v for v in args)
    return type(value) is declared or not isinstance(declared, type)


def validate_ni_kwargs(name: str, ni_kwargs: Optional[Mapping] = None) -> None:
    """Check that ``ni_kwargs`` are acceptable for device ``name``.

    Raises :class:`TaxonomyError` for an unknown device, for keyword
    arguments the device constructor does not accept, and for a value that
    does not have its keyword's declared type — *before* a machine gets
    assembled, instead of an error deep in ``Node.__init__``.
    """
    cls = device_class(name)
    if not ni_kwargs:
        return
    allowed = _allowed_ni_kwargs(cls)
    unknown = sorted(set(ni_kwargs) - allowed.keys())
    if unknown:
        raise TaxonomyError(
            f"device {name!r} does not accept ni_kwargs {unknown}; "
            f"supported: {sorted(allowed)}"
        )
    for key, value in ni_kwargs.items():
        declared = allowed[key]
        if not _has_type(value, declared):
            wanted = declared.__name__ if isinstance(declared, type) else str(declared)
            raise TaxonomyError(
                f"device {name!r}: ni_kwargs[{key!r}] must be "
                f"{wanted.replace('typing.', '')}, not {type(value).__name__} {value!r}"
            )
    # Mutually exclusive kwarg groups declared by the device family (e.g.
    # the uncached family's two FIFO-sizing axes).
    for group in getattr(cls, "EXCLUSIVE_NI_KWARGS", ()):
        present = sorted(k for k in group if k in ni_kwargs)
        if len(present) > 1:
            raise TaxonomyError(
                f"device {name!r} accepts only one of {sorted(group)}, "
                f"got {present}"
            )


def create_ni(name: str, *args, **kwargs) -> AbstractNI:
    """Build device ``name``; the one way a device is instantiated.

    Positional/keyword arguments are forwarded to the device constructor
    (simulator, node id, params, address map, interconnect, fabric, ...,
    and the device's ``ni_kwargs``).  A :func:`register_device` plugin is
    instantiated as registered; every other name builds its
    :class:`~repro.ni.registry.DeviceSpec` plan's family class with the
    plan's sizing overlaid by ``kwargs`` (:meth:`DeviceSpec.sizing`).  The
    device is named ``name`` either way (``taxonomy_name``).
    """
    cls = _DEVICES.get(name)
    if cls is None:
        from repro.ni.registry import DeviceSpec

        plan = DeviceSpec.from_name(name)
        cls, kwargs = plan.base_class, plan.sizing(kwargs)
    return cls(*args, taxonomy_name=name, **kwargs)


def classify_existing_machines() -> Dict[str, str]:
    """The paper's classification of existing machines (Section 3)."""
    return {
        "TMC CM-5": "NI2w",
        "MIT Alewife": "NI16w",
        "MIT *T-NG": "NI128Q",
    }
