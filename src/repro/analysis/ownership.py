"""Which modules of the source tree are clients of the simulation kernel.

Lint rules scope themselves by a module's path under ``src/repro/``.  The
one distinction the ``MUTSTATE`` and ``SLOTS`` rules read is whether a
module is a *kernel client*: code the simulation kernel runs, or that
builds what it runs, so two machines in one process must never share its
module-level state.  The kernel clients are:

* the kernel and the shared value types (``sim/``, ``common/``);
* the coherence layer (``coherence/``) and the network fabric
  (``network/``), with the fault injector that runs inside the fabric
  (``faults/fabric.py``);
* the nodes and their assembly (``node/``), the devices (``ni/``) and the
  message layer (``msglayer/``).

Everything else is *harness*: experiment drivers, workloads, the api layer,
the service and this analysis package.  Ordinary Python rules apply there,
and the simulator-idiom rules mostly do not.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Iterator, Tuple

#: Root of the linted package, resolved relative to this file so the lint
#: works from any CWD (tests, CI, editable installs).
SRC_ROOT = Path(__file__).resolve().parent.parent

#: Packages whose every module is a kernel client.
KERNEL_CLIENT_PACKAGES = (
    "sim/", "common/", "coherence/", "network/", "node/", "ni/", "msglayer/",
)
#: Kernel-client modules inside a harness package.
KERNEL_CLIENT_MODULES = frozenset({"faults/fabric.py"})


def is_kernel_client(relpath: str) -> bool:
    """Whether the module at ``relpath`` (under ``src/repro``) is a kernel client."""
    relpath = relpath.replace(os.sep, "/")
    return relpath.startswith(KERNEL_CLIENT_PACKAGES) or relpath in KERNEL_CLIENT_MODULES


def iter_modules(root: Path = SRC_ROOT) -> Iterator[Tuple[str, Path]]:
    """Yield ``(relpath, abspath)`` for every ``.py`` module under ``root``."""
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root).as_posix()
        yield rel, path
