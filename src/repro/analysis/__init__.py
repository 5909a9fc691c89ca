"""Simulator-idiom lint and the stat-key registry it checks against.

* :mod:`repro.analysis.lint` — static AST lint of simulator idiom
  (module-level mutable state, ``__slots__`` on hot-path classes,
  wall-clock/RNG in simulated code, enum member loads on the
  per-transaction path, stat-key typos, unused waivers),
* :mod:`repro.analysis.statkeys` — the registry of stat keys produced
  anywhere in ``src/repro``, generated from the same AST pass,
* :mod:`repro.analysis.ownership` — which modules are kernel clients, the
  scope of the state and ``__slots__`` rules.

Run ``python -m repro.analysis --help`` (or ``run.py analyze``) for the
command-line surface; ``python -m repro.analysis --self-test`` checks that
every rule catches its planted defect.
"""

from repro.analysis.lint import (
    Finding,
    LintReport,
    Rule,
    lint_source,
    lint_tree,
    register_rule,
)
from repro.analysis.statkeys import StatKeyRegistry, generate_registry

__all__ = [
    "Finding",
    "LintReport",
    "Rule",
    "StatKeyRegistry",
    "generate_registry",
    "lint_source",
    "lint_tree",
    "register_rule",
]
