"""Declarative interconnect-fabric specifications: the topology grammar.

The paper idealizes the network (Section 4.1: every message takes a fixed
100 cycles, topology ignored).  To ask the scalability and sensitivity
questions that idealization forecloses, a machine now *names* its fabric
declaratively — ``MachineParams.fabric`` holds a topology string parsed by
this module, in the style of the ``NI_iX`` device taxonomy grammar
(:mod:`repro.ni.taxonomy`):

* ``ideal`` — the paper's fixed-latency, topology-free fabric (default);
* ``xbar`` — a full crossbar with per-port serialization and bandwidth;
* ``mesh`` / ``torus`` — a 2D grid with dimension-order routing, per-hop
  latency and link-contention queuing.  Bare names derive a near-square
  shape from the node count; ``mesh4x4`` / ``torus8x8`` pin it explicitly.

Like taxonomy names, fabric names are part of experiment-spec hashes, so
the grammar is canonical: one topology, one spelling.  Parse errors name
the offending grammar field (``kind`` or ``dims``) the way
:class:`~repro.ni.taxonomy.TaxonomyError` messages do.

This module is deliberately dependency-free (no simulator imports).  The
concrete fabric classes live in :mod:`repro.network.fabric` and
:mod:`repro.network.topology`, keyed by ``kind`` through
:mod:`repro.network.registry`, whose
:func:`~repro.network.registry.parse_fabric` is the public parser: it
reads a name against the registered kinds.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Collection, Optional, Tuple


class FabricError(ValueError):
    """Raised for malformed or unsupported fabric names.

    Error messages name the offending field of the fabric grammar
    (``kind`` or ``dims``) so callers can see which axis of the topology
    space a name violates.
    """


#: Kinds that accept (or derive) 2D grid dimensions.
GRID_KINDS: Tuple[str, ...] = ("mesh", "torus")

#: Common aliases rejected with a hint, keeping the grammar canonical (one
#: topology, one spelling — fabric names feed experiment-spec hashes).
_KIND_HINTS = {"crossbar": "xbar", "xb": "xbar", "grid": "mesh", "ring": "torus"}  # repro: allow[MUTSTATE] constant alias-hint table

_NAME_PATTERN = re.compile(r"^(?P<kind>[a-z]+)(?P<dims>\d+x\d+)?$")


@dataclass(frozen=True)
class FabricSpec:
    """Parsed form of a fabric name.

    ``width``/``height`` are ``None`` for non-grid fabrics and for bare
    grid names (``"mesh"``), whose shape is derived from the machine's
    node count by :meth:`resolve_dims`.
    """

    name: str
    kind: str
    width: Optional[int] = None
    height: Optional[int] = None

    @property
    def is_grid(self) -> bool:
        return self.kind in GRID_KINDS

    @property
    def explicit_dims(self) -> bool:
        return self.width is not None

    def resolve_dims(self, num_nodes: int) -> Tuple[int, int]:
        """The (width, height) grid this spec gives a ``num_nodes`` machine.

        Explicit dimensions must multiply out to the node count; bare grid
        names take the most nearly square factorization (``16 -> 4x4``,
        ``8 -> 2x4``, a prime ``p -> 1xp``).
        """
        if not self.is_grid:
            raise FabricError(f"{self.name!r}: kind {self.kind!r} has no grid dimensions")
        if self.explicit_dims:
            if self.width * self.height != num_nodes:
                raise FabricError(
                    f"{self.name!r}: dims field {self.width}x{self.height} holds "
                    f"{self.width * self.height} nodes, but the machine has "
                    f"{num_nodes} (write {self.kind!r} for an automatic shape)"
                )
            return self.width, self.height
        width = 1
        for candidate in range(2, int(num_nodes**0.5) + 1):
            if num_nodes % candidate == 0:
                width = candidate
        return width, num_nodes // width

    def validate_nodes(self, num_nodes: int) -> "FabricSpec":
        """Check this fabric can host ``num_nodes`` nodes (grid dims match)."""
        if self.is_grid:
            self.resolve_dims(num_nodes)
        return self

    def describe(self) -> str:
        if self.is_grid:
            shape = f"{self.width}x{self.height}" if self.explicit_dims else "auto-shaped"
            return f"{self.name}: 2D {self.kind}, {shape}, dimension-order routing"
        if self.kind == "ideal":
            return f"{self.name}: fixed-latency fabric, topology ignored (paper Section 4.1)"
        if self.kind == "xbar":
            return f"{self.name}: full crossbar with per-port serialization"
        return f"{self.name}: custom fabric kind {self.kind!r}"


def parse_fabric_name(name: str, known_kinds: Collection[str]) -> FabricSpec:
    """Parse a fabric name like ``"mesh4x4"`` into a :class:`FabricSpec`.

    The grammar behind :func:`repro.network.registry.parse_fabric`, which
    passes the registered kinds as ``known_kinds``.  Raises
    :class:`FabricError` for malformed names, with the message naming the
    offending grammar field.  Enforced grammar rules:

    * ``kind`` must be one of ``known_kinds``;
    * ``dims``, when present, requires a grid kind — ``ideal`` and
      ``xbar`` ignore topology by construction;
    * ``dims`` components must be positive and written without leading
      zeros (``mesh4x4``, never ``mesh04x4`` — names feed spec hashes);
    * the name is a string without surrounding whitespace, for the same
      reason.
    """
    if not isinstance(name, str):
        raise FabricError(
            f"fabric name must be a string, not {type(name).__name__} {name!r}"
        )
    stripped = name.strip()
    if stripped != name:
        raise FabricError(
            f"{name!r}: fabric name must not have surrounding whitespace "
            f"(write {stripped!r})"
        )
    match = _NAME_PATTERN.match(name)
    if not match:
        lowered = name.lower()
        if lowered != name and _NAME_PATTERN.match(lowered):
            try:
                parse_fabric_name(lowered, known_kinds)
            except FabricError:
                pass  # the case-fixed name is itself illegal; no hint
            else:
                raise FabricError(
                    f"cannot parse fabric name {name!r}: kind field is "
                    f"lowercase — did you mean {lowered!r}?"
                )
        raise FabricError(
            f"cannot parse fabric name {name!r}: expected a fabric kind "
            f"({', '.join(known_kinds)}) with optional WxH grid dims, "
            f"e.g. 'ideal', 'xbar', 'mesh4x4', 'torus8x8'"
        )
    kind = match.group("kind")
    dims = match.group("dims")
    if kind not in known_kinds:
        hint = _KIND_HINTS.get(kind)
        if hint in known_kinds:
            raise FabricError(
                f"{name!r}: kind field {kind!r} is not canonical — did you "
                f"mean {hint!r}?"
            )
        raise FabricError(
            f"{name!r}: unknown fabric kind {kind!r}; choose from "
            f"{sorted(known_kinds)}"
        )
    if dims is None:
        return FabricSpec(name=name, kind=kind)
    if kind not in GRID_KINDS:
        raise FabricError(
            f"{name!r}: dims field {dims!r} requires a grid kind "
            f"({', '.join(GRID_KINDS)}) — {kind!r} ignores topology"
        )
    width_text, height_text = dims.split("x")
    width, height = int(width_text), int(height_text)
    for label, value, text in (("width", width, width_text), ("height", height, height_text)):
        if value <= 0:
            raise FabricError(f"{name!r}: dims field {label} must be positive")
        if text != str(value):
            raise FabricError(
                f"{name!r}: dims field must not have leading zeros "
                f"(write {width}x{height})"
            )
    return FabricSpec(name=name, kind=kind, width=width, height=height)
