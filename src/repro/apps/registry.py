"""Generative workload registry: tagged, pluggable workload classes.

Workloads are generative the same way devices, fabrics and coherence
protocols are: a :func:`register_workload` decorator installs a
:class:`~repro.apps.workload.Workload` subclass under a name with one or
more *tags* (``macro``, ``diagnostic``, ``traffic``, ``fine-grain``, …),
and :func:`available_workloads` / :func:`workload_names` enumerate the
table, optionally one tag's.  The shipped workloads are sealed built-ins
(:class:`~repro.common.registry.Registry`) once :mod:`repro.apps` and
:mod:`repro.traffic` have registered them.

A change to a registered workload's pattern (message sizes, schedules,
pacing) that alters an existing spec's result bumps
:data:`repro.service.store.STORE_SCHEMA_VERSION`, so stored results
computed under the old rules stop matching.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple, Type

from repro.common.registry import Registry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.apps.workload import Workload


class WorkloadError(ValueError):
    """Raised for unknown or ill-registered workloads.

    Subclasses :class:`ValueError` so callers of the historic
    ``create_workload`` keep catching what they always caught.
    """


@dataclass(frozen=True)
class WorkloadInfo:
    """One registry entry: the class and its tags."""

    name: str
    cls: Type["Workload"]
    tags: Tuple[str, ...]


_WORKLOADS: Registry[WorkloadInfo] = Registry("workload", WorkloadError)


def register_workload(name: Optional[str] = None, *, tags: Tuple[str, ...] = ("macro",)):
    """Class decorator registering a workload under ``name`` with ``tags``.

    ``name`` defaults to the class's ``name`` attribute.  Registration
    order is preserved (it is the order ``available_workloads``
    enumerates), so the paper's Table-3 ordering survives the registry.
    A built-in or already registered name raises :class:`WorkloadError`.
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
        _WORKLOADS.register(workload_name, WorkloadInfo(workload_name, cls, tag_tuple))
        return cls

    return install


def unregister_workload(name: str) -> None:
    """Remove a plugin workload; a built-in or unknown name raises."""
    _WORKLOADS.unregister(name)


def available_workloads(tag: Optional[str] = None) -> Dict[str, WorkloadInfo]:
    """Registered workloads in registration order, optionally one tag's."""
    return {
        name: info
        for name, info in _WORKLOADS.items()
        if tag is None or tag in info.tags
    }


def workload_names(tag: Optional[str] = None) -> List[str]:
    """Registered workload names in registration order."""
    return list(available_workloads(tag))


def workload_class(name: str) -> Type["Workload"]:
    """The registered class for ``name``; unknown names raise with the
    nearest registered name in the message."""
    return _WORKLOADS.lookup(name).cls


def create_workload(name: str, **kwargs) -> "Workload":
    """Instantiate a registered workload by name."""
    return workload_class(name)(**kwargs)
