"""Deterministic, seeded fault injection for the CNI reproduction.

* :mod:`repro.faults.plan` — declarative :class:`FaultPlan` grammar,
  inline-spec parser, and the named-plan registry (``lossy1``, ``chaos``,
  …), selected through ``MachineParams.faults``.
* :mod:`repro.faults.fabric` — :class:`FaultInjector`, the policy a fabric
  consults on every message under a plan: it injects drops, duplicates,
  corruption, jitter, reordering and transient link outages from
  bit-reproducible seeded streams.
"""

from repro.faults.fabric import FaultInjector
from repro.faults.plan import (
    FaultPlan,
    FaultPlanError,
    FaultRule,
    parse_inline,
    register_plan,
    registered_plans,
    resolve_plan,
    unregister_plan,
)

__all__ = [
    "FaultInjector",
    "FaultPlan",
    "FaultPlanError",
    "FaultRule",
    "parse_inline",
    "register_plan",
    "registered_plans",
    "resolve_plan",
    "unregister_plan",
]
