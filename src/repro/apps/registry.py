"""Generative workload registry: tagged, pluggable workload classes.

Workloads used to live in two static dicts (``MACROBENCHMARKS`` and
``DIAGNOSTIC_WORKLOADS``), so a new scenario class meant editing
``repro.apps`` itself.  This module makes workloads generative the same
way devices (PR 3), fabrics (PR 5) and coherence protocols (PR 6) are:
a :func:`register_workload` decorator installs a
:class:`~repro.apps.workload.Workload` subclass under a name with one or
more *tags* (``macro``, ``diagnostic``, ``traffic``, ``fine-grain``, …),
:func:`available_workloads` enumerates the registry (optionally filtered
by tag), and :class:`TagView` gives the old dict names live, read-only
``name -> class`` semantics over the registry so existing callers keep
working unchanged.

A change to a registered workload's pattern (message sizes, schedules,
pacing) that alters an existing spec's result bumps
:data:`repro.service.store.STORE_SCHEMA_VERSION`, so stored results
computed under the old rules stop matching.
"""

from __future__ import annotations

import difflib
from collections.abc import Mapping
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Tuple, Type

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.apps.workload import Workload

#: Tags used by the shipped workloads.  Plugins may invent new tags; these
#: are the ones presets, the CLI and the docs know about.
WORKLOAD_TAGS = ("macro", "diagnostic", "traffic", "fine-grain")


class WorkloadError(ValueError):
    """Raised for unknown or ill-registered workloads.

    Subclasses :class:`ValueError` so callers of the historic
    ``create_workload`` keep catching what they always caught.
    """


@dataclass(frozen=True)
class WorkloadInfo:
    """One registry entry: the class, its tags, and a one-line doc."""

    name: str
    cls: Type["Workload"]
    tags: Tuple[str, ...]
    doc: str = ""


_REGISTRY: Dict[str, WorkloadInfo] = {}


def _first_doc_line(cls: type) -> str:
    doc = (cls.__doc__ or "").strip()
    return doc.splitlines()[0] if doc else ""


def register_workload(
    name: Optional[str] = None,
    *,
    tags: Tuple[str, ...] = ("macro",),
    replace: bool = False,
):
    """Class decorator registering a workload under ``name`` with ``tags``.

    ``name`` defaults to the class's ``name`` attribute.  Registration
    order is preserved (it is the order views and ``available_workloads``
    enumerate), so the paper's Table-3 ordering survives the registry.
    Re-registering an existing name raises unless ``replace=True`` —
    plugins that deliberately shadow a shipped workload must say so.
    """

    def install(cls: Type["Workload"]) -> Type["Workload"]:
        workload_name = name or getattr(cls, "name", None)
        if not workload_name or not isinstance(workload_name, str):
            raise WorkloadError(
                f"workload class {cls.__name__} needs a name (decorator "
                f"argument or class attribute)"
            )
        tag_tuple = tuple(tags)
        if not tag_tuple or not all(t and isinstance(t, str) for t in tag_tuple):
            raise WorkloadError(
                f"workload {workload_name!r} needs at least one non-empty string tag"
            )
        if workload_name in _REGISTRY and not replace:
            raise WorkloadError(
                f"workload {workload_name!r} is already registered "
                f"(pass replace=True to override)"
            )
        _REGISTRY[workload_name] = WorkloadInfo(
            name=workload_name, cls=cls, tags=tag_tuple, doc=_first_doc_line(cls)
        )
        return cls

    return install


def unregister_workload(name: str) -> None:
    """Remove a registered workload (plugin teardown, tests)."""
    if name not in _REGISTRY:
        raise WorkloadError(_unknown_message(name))
    del _REGISTRY[name]


def available_workloads(tag: Optional[str] = None) -> Dict[str, WorkloadInfo]:
    """Registered workloads in registration order, optionally one tag's."""
    return {
        name: info
        for name, info in _REGISTRY.items()
        if tag is None or tag in info.tags
    }


def workload_names(tag: Optional[str] = None) -> List[str]:
    """Registered workload names in registration order."""
    return list(available_workloads(tag))


def _unknown_message(name: str) -> str:
    """Error text for an unknown workload, naming the nearest registered
    name so a typo ('unifrom') points straight at the fix."""
    close = difflib.get_close_matches(name, list(_REGISTRY), n=1)
    hint = f" (closest match: {close[0]!r})" if close else ""
    return f"unknown workload {name!r}{hint}; choose from {sorted(_REGISTRY)}"


def workload_class(name: str) -> Type["Workload"]:
    """The registered class for ``name``; unknown names raise with the
    nearest registered name in the message."""
    info = _REGISTRY.get(name)
    if info is None:
        raise WorkloadError(_unknown_message(name))
    return info.cls


def create_workload(name: str, **kwargs) -> "Workload":
    """Instantiate a registered workload by name."""
    return workload_class(name)(**kwargs)


class TagView(Mapping):
    """Live, read-only ``name -> Workload class`` view of one tag.

    The historic ``MACROBENCHMARKS`` / ``DIAGNOSTIC_WORKLOADS`` dicts are
    instances of this class: membership tests, iteration order and
    ``.items()`` behave exactly as the dicts did, but the contents track
    the registry — a plugin registered with the right tag appears in the
    view immediately, and mutation is impossible.
    """

    __slots__ = ("_tag",)

    def __init__(self, tag: str):
        self._tag = tag

    @property
    def tag(self) -> str:
        return self._tag

    def __getitem__(self, name: str) -> Type["Workload"]:
        info = _REGISTRY.get(name)
        if info is None or self._tag not in info.tags:
            raise KeyError(name)
        return info.cls

    def __iter__(self) -> Iterator[str]:
        return iter([n for n, i in _REGISTRY.items() if self._tag in i.tags])

    def __len__(self) -> int:
        return sum(1 for i in _REGISTRY.values() if self._tag in i.tags)

    def __repr__(self) -> str:
        return f"TagView({self._tag!r}: {list(self)})"
