"""Static ownership map of the source tree for the partition-safety lint.

The dynamic side of the analyzer resolves *objects* to partitions via
:meth:`repro.node.machine.Machine.partition_map`; this module is the static
mirror: it resolves *modules* (by their path under ``src/repro/``) to the
architectural domain they belong to, so lint rules can scope themselves the
same way the PDES decomposition does:

* ``kernel`` — the simulation kernel and shared value types (``sim/``,
  ``common/``).  Deterministic by construction; wall-clock and RNG are
  banned here.
* ``node`` — code that runs inside one node's partition (``node/``,
  ``ni/``, ``msglayer/``, the coherent cache).  Must never reach into
  another node except through a mediation layer.
* ``mediation`` — the layers that are *allowed* to touch multiple
  partitions: the snooping bus, the home directory and the network fabric,
  with the fault injector that runs inside it (``faults/fabric.py``).
* ``assembly`` — machine construction/reporting (``node/machine.py``),
  which legitimately iterates over all nodes.
* ``coherence`` — protocol tables and the model checker (the rest of
  ``coherence/``).
* ``harness`` — experiment drivers, workloads, the api layer and this
  analysis package; ordinary Python rules apply, simulator-idiom rules
  mostly do not.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Iterator, Tuple

#: Root of the linted package, resolved relative to this file so the lint
#: works from any CWD (tests, CI, editable installs).
SRC_ROOT = Path(__file__).resolve().parent.parent

#: Modules that form the cross-partition mediation layer.
MEDIATION_MODULES = frozenset(
    {
        "coherence/bus.py",
        "coherence/directory.py",
        "faults/fabric.py",
    }
)


def domain_for(relpath: str) -> str:
    """Architectural domain of a module, from its path under ``src/repro``."""
    relpath = relpath.replace(os.sep, "/")
    if relpath in MEDIATION_MODULES or relpath.startswith("network/"):
        return "mediation"
    if relpath == "node/machine.py":
        return "assembly"
    if (
        relpath.startswith(("node/", "ni/", "msglayer/"))
        or relpath == "coherence/cache.py"
    ):
        return "node"
    if relpath.startswith(("sim/", "common/")):
        return "kernel"
    if relpath.startswith("coherence/"):
        return "coherence"
    return "harness"


#: Domains whose modules are clients of the simulation kernel: scheduling
#: state must live on instances (per-Simulator), never at module level.
KERNEL_CLIENT_DOMAINS = frozenset({"kernel", "node", "mediation", "coherence", "assembly"})

#: Domains where simulated time is the only clock (WALLCLOCK rule scope).
SIMULATED_TIME_PREFIXES = ("sim/", "coherence/", "ni/")


def iter_modules(root: Path = SRC_ROOT) -> Iterator[Tuple[str, Path]]:
    """Yield ``(relpath, abspath)`` for every ``.py`` module under ``root``."""
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root).as_posix()
        yield rel, path
