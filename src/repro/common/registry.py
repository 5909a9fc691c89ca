"""One table type for every name -> plugin registry.

Devices, fabrics, coherence protocols, workloads, experiment kinds, fault
plans and lint rules are each a :class:`Registry` with one rule.  The names
the package registers itself are sealed once their module has registered
them (:meth:`Registry.seal`): they can be neither registered over nor
unregistered, so a spec that names a built-in always runs the shipped
physics under the store key it hashes to.  Every other name is a plugin's,
registered once and freed by :meth:`Registry.unregister`.  A plugin's
results are stored under its name, so a plugin whose physics changes needs
a new name.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Generic, ItemsView, Iterator, Optional, Type, TypeVar, ValuesView

T = TypeVar("T")


class Registry(Generic[T]):
    """A table from name to plugin, in registration order.

    ``what`` names an entry in messages (``"fabric kind"``); ``error`` is the
    table's own exception type, raised by every refusal.
    """

    def __init__(self, what: str, error: Type[Exception]):
        self.what = what
        self.error = error
        self.builtins: FrozenSet[str] = frozenset()
        self._entries: Dict[str, T] = {}

    def register(self, name: str, value: T) -> T:
        """Add ``name``; a built-in or already registered name raises."""
        if not isinstance(name, str) or not name:
            raise self.error(f"{self.what} name must be a non-empty string, not {name!r}")
        if name in self.builtins:
            raise self.error(f"{self.what} {name!r} is built in and cannot be registered over")
        if name in self._entries:
            raise self.error(f"{self.what} {name!r} is already registered; unregister it first")
        self._entries[name] = value
        return value

    def unregister(self, name: str) -> None:
        """Free plugin ``name``; a built-in or unknown name raises."""
        self.lookup(name)
        if name in self.builtins:
            raise self.error(f"{self.what} {name!r} is built in and cannot be unregistered")
        del self._entries[name]

    def seal(self, *names: str) -> None:
        """Mark ``names``, or with none given every name registered so far, built-in."""
        self.builtins |= frozenset(names or self._entries)

    def get(self, name: str) -> Optional[T]:
        """The entry for ``name``, or ``None`` (for a name that is no string too)."""
        return self._entries.get(name) if isinstance(name, str) else None

    def lookup(self, name: str) -> T:
        """The entry for ``name``; an unknown name raises, naming the closest
        registered one so a typo points straight at the fix."""
        entry = self.get(name)
        if entry is not None:
            return entry
        hint = ""
        if isinstance(name, str):
            import difflib  # only on this error path: keeps imports light

            close = difflib.get_close_matches(name, list(self._entries), n=1)
            hint = f" (closest match: {close[0]!r})" if close else ""
        raise self.error(f"unknown {self.what} {name!r}{hint}; choose from {sorted(self._entries)}")

    def items(self) -> ItemsView[str, T]:
        return self._entries.items()

    def values(self) -> ValuesView[T]:
        return self._entries.values()

    def __contains__(self, name: object) -> bool:
        return self.get(name) is not None

    def __iter__(self) -> Iterator[str]:
        return iter(self._entries)
