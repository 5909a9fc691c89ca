"""Declarative fault-plan grammar and registry.

A :class:`FaultPlan` describes, per link, which faults the interconnect
may inject: message drop, duplication, payload corruption, delay jitter,
reordering, and deterministic transient link-down windows.  Plans are
selected by name through ``MachineParams.faults`` (like fabrics and
coherence protocols) and applied inside whichever fabric the machine
builds, by that fabric's :class:`repro.faults.fabric.FaultInjector`.

Plans are *declarative data*: every fault decision is drawn from a seeded
RNG stream keyed by ``(fault_seed, source, dest, per-link message index)``,
so a run under a given ``(plan, seed)`` is bit-reproducible regardless of
process interleaving, ``--jobs`` parallelism, or host.  The plan name is
part of ``MachineParams`` and therefore folds into the spec hash — fault
runs are cache-keyed like any other experiment point.

Grammar
-------

``MachineParams.faults`` accepts either a registered plan name
(``"lossy1"``, ``"chaos"``, …) or an inline single-rule spec::

    drop=0.01,dup=0.002,corrupt=0.001,jitter=20,reorder=0.05:40,down=1000/50

where ``reorder=RATE:WINDOW`` delays a fraction RATE of messages by up to
WINDOW extra cycles (letting later messages overtake) and
``down=PERIOD/CYCLES`` takes every link down for the first CYCLES of each
PERIOD-cycle interval.  Multi-rule plans (per-link patterns like
``"3->*"``) are built programmatically and registered with
:func:`register_plan`; the shipped plans are sealed built-ins
(:class:`~repro.common.registry.Registry`), so a plugin plan needs a name
of its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.common.registry import Registry


class FaultPlanError(ValueError):
    """Raised for malformed fault plans or unknown plan names."""


def _parse_endpoint(text: str) -> Optional[int]:
    text = text.strip()
    if text == "*":
        return None
    try:
        return int(text)
    except ValueError as exc:
        raise FaultPlanError(f"bad link endpoint {text!r} (want int or '*')") from exc


@dataclass(frozen=True)
class FaultRule:
    """Fault profile applied to the links matching ``links``.

    ``links`` selects directed links: ``"*"`` (every link), ``"2->5"``
    (one directed link), ``"3->*"`` / ``"*->3"`` (every link out of / into
    a node), or ``"3<->*"`` (both directions touching a node).  Rules are
    evaluated in declaration order; the first matching rule applies.
    """

    links: str = "*"
    #: Probability a message is silently dropped after link-level accept
    #: (the hardware sliding-window slot is still freed; recovery is the
    #: end-to-end reliability layer's job).
    drop: float = 0.0
    #: Probability a message is delivered twice.
    duplicate: float = 0.0
    #: Probability a message arrives with its payload corrupted
    #: (``NetworkMessage.corrupted``); the reliability layer discards it.
    corrupt: float = 0.0
    #: Max extra delivery delay (cycles), uniform in [0, jitter], applied
    #: to every message on the link.
    jitter: int = 0
    #: Fraction of messages additionally held back by up to
    #: ``reorder_window`` cycles so later messages can overtake.
    reorder: float = 0.0
    reorder_window: int = 0
    #: Deterministic transient outage: the link is down for the first
    #: ``down_cycles`` of every ``down_period``-cycle interval (starting at
    #: ``down_phase``); messages injected while down are dropped.
    down_period: int = 0
    down_cycles: int = 0
    down_phase: int = 0

    def __post_init__(self) -> None:
        for name in ("drop", "duplicate", "corrupt", "reorder"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise FaultPlanError(f"{name} rate {rate!r} not in [0, 1]")
        for name in ("jitter", "reorder_window", "down_period", "down_cycles", "down_phase"):
            if getattr(self, name) < 0:
                raise FaultPlanError(f"{name} must be >= 0")
        if self.reorder > 0.0 and self.reorder_window <= 0:
            raise FaultPlanError("reorder rate needs a positive reorder_window")
        if self.down_cycles > 0 and self.down_period <= self.down_cycles:
            raise FaultPlanError("down_period must exceed down_cycles")
        # Parse eagerly so bad patterns fail at construction, not mid-run.
        self._compile_links()

    def _compile_links(self) -> Tuple[Tuple[Optional[int], Optional[int]], ...]:
        """Directed (src, dst) patterns this rule matches (None = any)."""
        text = self.links.strip()
        if text in ("*", "*->*"):
            return ((None, None),)
        if "<->" in text:
            left, right = text.split("<->", 1)
            a, b = _parse_endpoint(left), _parse_endpoint(right)
            return ((a, b), (b, a))
        if "->" in text:
            left, right = text.split("->", 1)
            return ((_parse_endpoint(left), _parse_endpoint(right)),)
        raise FaultPlanError(f"bad links pattern {self.links!r}")

    def matches(self, src: int, dst: int) -> bool:
        for a, b in self._compile_links():
            if (a is None or a == src) and (b is None or b == dst):
                return True
        return False

    def is_noop(self) -> bool:
        return (
            self.drop == 0.0
            and self.duplicate == 0.0
            and self.corrupt == 0.0
            and self.jitter == 0
            and self.reorder == 0.0
            and self.down_cycles == 0
        )

    def is_lossy(self) -> bool:
        """True if this rule can lose or damage a message (drop, duplicate,
        corrupt, or outage) — i.e. completing under it needs end-to-end
        reliability, not just patience."""
        return (
            self.drop > 0.0
            or self.duplicate > 0.0
            or self.corrupt > 0.0
            or self.down_cycles > 0
        )


@dataclass(frozen=True)
class FaultPlan:
    """A named, ordered collection of :class:`FaultRule`."""

    name: str
    rules: Tuple[FaultRule, ...] = ()
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise FaultPlanError("fault plan needs a name")
        object.__setattr__(self, "rules", tuple(self.rules))

    def rule_for(self, src: int, dst: int) -> Optional[FaultRule]:
        """First rule matching the directed link, or None (no faults)."""
        for rule in self.rules:
            if rule.matches(src, dst):
                return None if rule.is_noop() else rule
        return None

    def is_lossy(self) -> bool:
        return any(rule.is_lossy() for rule in self.rules)


# ----------------------------------------------------------------------
# Inline grammar
# ----------------------------------------------------------------------

_INLINE_KEYS = ("drop", "dup", "corrupt", "jitter", "reorder", "down")


def parse_inline(text: str) -> FaultPlan:
    """Parse an inline single-rule plan like ``"drop=0.01,reorder=0.05:40"``."""
    fields: Dict[str, object] = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise FaultPlanError(f"bad inline fault term {part!r} (want key=value)")
        key, _, value = part.partition("=")
        key = key.strip()
        value = value.strip()
        try:
            if key == "drop":
                fields["drop"] = float(value)
            elif key == "dup":
                fields["duplicate"] = float(value)
            elif key == "corrupt":
                fields["corrupt"] = float(value)
            elif key == "jitter":
                fields["jitter"] = int(value)
            elif key == "reorder":
                rate, _, window = value.partition(":")
                fields["reorder"] = float(rate)
                fields["reorder_window"] = int(window) if window else 40
            elif key == "down":
                period, _, cycles = value.partition("/")
                fields["down_period"] = int(period)
                fields["down_cycles"] = int(cycles) if cycles else int(period) // 10
            else:
                raise FaultPlanError(
                    f"unknown inline fault key {key!r} (known: {', '.join(_INLINE_KEYS)})"
                )
        except ValueError as exc:
            raise FaultPlanError(f"bad value in fault term {part!r}: {exc}") from exc
    return FaultPlan(name=text, rules=(FaultRule(**fields),), description="inline plan")


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------

_PLANS: Registry[FaultPlan] = Registry("fault plan", FaultPlanError)


def register_plan(plan: FaultPlan) -> FaultPlan:
    """Register a named plan; a built-in or already registered name raises,
    and so does a name with ``=``, an inline plan built in by the grammar."""
    if "=" in plan.name:
        raise FaultPlanError(f"fault plan {plan.name!r} is an inline plan, built in by the grammar")
    return _PLANS.register(plan.name, plan)


def unregister_plan(name: str) -> None:
    """Remove a plugin plan; a built-in or unknown name raises."""
    _PLANS.unregister(name)


def registered_plans() -> Tuple[str, ...]:
    return tuple(sorted(_PLANS))


def resolve_plan(name: str) -> FaultPlan:
    """Resolve ``MachineParams.faults``: registry name or inline grammar."""
    if not name:
        raise FaultPlanError("empty fault plan name")
    return parse_inline(name) if "=" in name else _PLANS.lookup(name)


# ----------------------------------------------------------------------
# Built-in plans
# ----------------------------------------------------------------------

register_plan(
    FaultPlan(
        name="zero",
        rules=(FaultRule(),),
        description="all rates zero — fault-layer overhead / determinism baseline",
    )
)

register_plan(
    FaultPlan(
        name="lossy1",
        rules=(FaultRule(drop=0.01, reorder=0.05, reorder_window=60),),
        description="1% drop + 5% reorder within 60 cycles on every link",
    )
)

register_plan(
    FaultPlan(
        name="lossy5",
        rules=(
            FaultRule(
                drop=0.05,
                duplicate=0.01,
                corrupt=0.005,
                jitter=20,
                reorder=0.1,
                reorder_window=80,
            ),
        ),
        description="heavy loss: 5% drop, 1% dup, 0.5% corrupt, jitter + reorder",
    )
)

register_plan(
    FaultPlan(
        name="jitter",
        rules=(FaultRule(jitter=40),),
        description="delay jitter only (non-lossy): up to 40 extra cycles",
    )
)

register_plan(
    FaultPlan(
        name="flaky-links",
        rules=(
            FaultRule(drop=0.002, down_period=20_000, down_cycles=1_000, down_phase=5_000),
        ),
        description="transient outages: every link down 1k of every 20k cycles",
    )
)

register_plan(
    FaultPlan(
        name="chaos",
        rules=(
            FaultRule(
                drop=0.02,
                duplicate=0.01,
                corrupt=0.01,
                jitter=30,
                reorder=0.1,
                reorder_window=100,
                down_period=50_000,
                down_cycles=2_000,
            ),
        ),
        description="everything at once — the chaos-smoke plan",
    )
)

_PLANS.seal()
