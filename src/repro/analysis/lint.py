"""Static simulator-idiom lint: an ``ast`` rule engine over ``src/repro``.

The rules encode how the sequential simulator's code must be written.  Two
of them scope themselves to the kernel clients of
:mod:`repro.analysis.ownership`; the others name their own paths:

* ``MUTSTATE`` — no module-level mutable state in kernel clients; two
  machines in one process must never share scheduling or statistics state.
* ``SLOTS`` — hot-path event/message classes (``*Event``, ``*Message``,
  ``*Transaction``, ``*Response``) in kernel clients must declare
  ``__slots__`` (directly or via ``dataclass(slots=True)``).
* ``WALLCLOCK`` — no wall-clock (``time.time``/``perf_counter``) or
  ``random`` use where simulated time rules (``sim/``, ``coherence/``,
  ``ni/``); nondeterminism there breaks bit-identical replay.
* ``STATKEY`` — stat-key literals a module *consumes* must exist in the
  generated producer registry (:mod:`repro.analysis.statkeys`); a typo'd
  key reads as a silent zero otherwise.
* ``ENUMATTR`` — no ``BusOp``/``BusKind``/``AgentKind``/``CoherenceState``
  member loads inside function bodies on the per-transaction path (``sim/``,
  ``ni/``, the bus, the caches, the directory); compare against the
  module-level names :mod:`repro.common.types` binds instead.

Rules are pluggable through :func:`register_rule` (mirroring the protocol
and device registries), findings can be waived per line with
``# repro: allow[RULE] reason`` comments, and :func:`report_to_dict` gives
the JSON shape the CLI and CI emit.  A waiver comment that suppresses no
finding on its line is itself a finding (``WAIVER``), so a waiver cannot
outlive the code it excused.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.analysis.ownership import SRC_ROOT, is_kernel_client, iter_modules
from repro.analysis.statkeys import StatKeyRegistry, consumed_keys, generate_registry
from repro.common.registry import Registry


class LintError(RuntimeError):
    """Raised for misuse of the lint engine (bad rule registrations)."""


# ----------------------------------------------------------------------
# Findings and waivers
# ----------------------------------------------------------------------
@dataclass
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str
    waived: bool = False
    waiver_reason: str = ""

    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.col}"

    def to_dict(self) -> Dict:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "waived": self.waived,
            "waiver_reason": self.waiver_reason,
        }


_WAIVER_RE = re.compile(
    r"#\s*repro:\s*allow\[([A-Za-z0-9_,\s-]+)\]\s*(.*)$"
)


def parse_waivers(lines: List[str]) -> Dict[int, Tuple[frozenset, str]]:
    """Per-line waivers: ``lineno -> (rule ids, reason)`` (1-based).

    Only comments are read: waiver syntax inside a string, such as a
    docstring that shows it, waives nothing.
    """
    waivers: Dict[int, Tuple[frozenset, str]] = {}
    source = io.StringIO("\n".join(lines) + "\n")
    for token in tokenize.generate_tokens(source.readline):
        if token.type != tokenize.COMMENT:
            continue
        match = _WAIVER_RE.search(token.string)
        if match is not None:
            rules = frozenset(
                part.strip().upper() for part in match.group(1).split(",") if part.strip()
            )
            waivers[token.start[0]] = (rules, match.group(2).strip())
    return waivers


# ----------------------------------------------------------------------
# Module model and rule registry
# ----------------------------------------------------------------------
@dataclass
class ModuleFile:
    """A parsed module plus the metadata rules scope themselves by."""

    relpath: str
    kernel_client: bool
    tree: ast.Module
    lines: List[str]


@dataclass
class LintContext:
    """Cross-module inputs shared by all rules in one lint run."""

    stat_registry: StatKeyRegistry


class Rule:
    """Base class for lint rules.

    Subclasses set ``id``/``summary``, optionally restrict themselves via
    :meth:`applies_to`, and yield ``(lineno, col, message)`` from
    :meth:`check`.
    """

    id = "RULE"
    summary = ""

    def applies_to(self, module: ModuleFile) -> bool:
        return True

    def check(self, module: ModuleFile, context: LintContext) -> Iterator[Tuple[int, int, str]]:
        raise NotImplementedError


_RULES: Registry[Rule] = Registry("lint rule", LintError)


def register_rule(rule=None):
    """Register a lint rule (decorator or direct call).

    Accepts a :class:`Rule` instance or a zero-argument rule class, exactly
    like the protocol/device registries accept specs or builders::

        @register_rule
        class NoFooRule(Rule):
            id = "NOFOO"
            ...

    A built-in or already registered rule id raises :class:`LintError`.
    """
    if rule is None:
        return register_rule
    instance = rule() if isinstance(rule, type) else rule
    if not isinstance(instance, Rule):
        raise LintError(f"register_rule needs a Rule, got {instance!r}")
    _RULES.register(instance.id.upper(), instance)
    return rule


def unregister_rule(rule_id: str) -> None:
    """Remove a plugin rule; a built-in or unknown rule id raises."""
    _RULES.unregister(rule_id.upper())


def registered_rules() -> Dict[str, Rule]:
    return dict(_RULES.items())


# ----------------------------------------------------------------------
# Built-in rules
# ----------------------------------------------------------------------
_MUTABLE_CALLS = frozenset({
    "dict", "list", "set", "deque", "defaultdict", "Counter", "OrderedDict", "bytearray",
    "Registry",  # a plugin table is module-level state like any dict
})


@register_rule
class ModuleMutableStateRule(Rule):
    id = "MUTSTATE"
    summary = "no module-level mutable state in kernel clients"

    def applies_to(self, module: ModuleFile) -> bool:
        return module.kernel_client

    def _mutable(self, value: ast.AST) -> bool:
        if isinstance(value, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)):
            return True
        if isinstance(value, ast.Call):
            func = value.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            return name in _MUTABLE_CALLS
        return False

    def check(self, module, context):
        for stmt in module.tree.body:
            if isinstance(stmt, ast.Assign):
                value, targets = stmt.value, stmt.targets
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                value, targets = stmt.value, [stmt.target]
            else:
                continue
            names_list = [t.id for t in targets if isinstance(t, ast.Name)]
            if names_list and all(
                n.startswith("__") and n.endswith("__") for n in names_list
            ):
                continue  # __all__ and friends: export metadata, not state
            if self._mutable(value):
                names = ", ".join(names_list) or "<target>"
                yield (
                    stmt.lineno,
                    stmt.col_offset,
                    f"module-level mutable state '{names}' in a kernel client "
                    "(two machines in one process would share it)",
                )


_HOT_CLASS_RE = re.compile(r".+(Event|Message|Transaction|Response)$")


@register_rule
class SlotsRule(Rule):
    id = "SLOTS"
    summary = "hot-path event/message classes must declare __slots__"

    def applies_to(self, module: ModuleFile) -> bool:
        return module.kernel_client

    def _has_slots(self, cls: ast.ClassDef) -> bool:
        for stmt in cls.body:
            if isinstance(stmt, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__slots__" for t in stmt.targets
            ):
                return True
            if isinstance(stmt, ast.AnnAssign) and (
                isinstance(stmt.target, ast.Name) and stmt.target.id == "__slots__"
            ):
                return True
        for deco in cls.decorator_list:
            if isinstance(deco, ast.Call):
                name = (
                    deco.func.id
                    if isinstance(deco.func, ast.Name)
                    else getattr(deco.func, "attr", None)
                )
                if name == "dataclass" and any(
                    kw.arg == "slots"
                    and isinstance(kw.value, ast.Constant)
                    and kw.value.value is True
                    for kw in deco.keywords
                ):
                    return True
        return False

    def check(self, module, context):
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if not _HOT_CLASS_RE.match(node.name):
                continue
            if node.name.endswith("Error"):
                continue
            if not self._has_slots(node):
                yield (
                    node.lineno,
                    node.col_offset,
                    f"hot-path class {node.name!r} has no __slots__ "
                    "(instances are allocated per event/message)",
                )


_WALLCLOCK_FUNCS = frozenset(
    {"time", "perf_counter", "monotonic", "time_ns", "perf_counter_ns", "monotonic_ns"}
)
#: Where simulated time is the only clock.
_WALLCLOCK_PREFIXES = ("sim/", "coherence/", "ni/")


@register_rule
class WallClockRule(Rule):
    id = "WALLCLOCK"
    summary = "no wall-clock or random in simulated-time code (sim/, coherence/, ni/)"

    def applies_to(self, module: ModuleFile) -> bool:
        return module.relpath.startswith(_WALLCLOCK_PREFIXES)

    def check(self, module, context):
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                base = node.value.id
                if base in ("time", "_time") and node.attr in _WALLCLOCK_FUNCS:
                    yield (
                        node.lineno,
                        node.col_offset,
                        f"wall-clock call '{base}.{node.attr}' in simulated-time code",
                    )
                elif base == "random":
                    yield (
                        node.lineno,
                        node.col_offset,
                        f"'random.{node.attr}' in simulated-time code "
                        "(seedable determinism belongs to the harness)",
                    )
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = (
                    [node.module]
                    if isinstance(node, ast.ImportFrom)
                    else [alias.name for alias in node.names]
                )
                if "random" in names:
                    yield (
                        node.lineno,
                        node.col_offset,
                        "import of 'random' in simulated-time code",
                    )


@register_rule
class StatKeyRule(Rule):
    id = "STATKEY"
    summary = "consumed stat-key literals must exist in the generated producer registry"

    def check(self, module, context):
        registry = context.stat_registry
        for lineno, col, key in consumed_keys(module.tree):
            if key not in registry:
                yield (
                    lineno,
                    col,
                    f"stat key {key!r} is consumed but never produced "
                    "(typo'd keys read as silent zeros)",
                )


#: Enumerations whose members the per-transaction path compares against.
_HOT_ENUMS = frozenset({"BusOp", "BusKind", "AgentKind", "CoherenceState"})
_ENUM_MEMBER_RE = re.compile(r"^[A-Z][A-Z0-9_]*$")
#: Modules on the per-transaction path.  Protocol tables, the model checker
#: and node assembly build once per machine, so they stay out of scope.
_ENUMATTR_PREFIXES = ("sim/", "ni/")
_ENUMATTR_MODULES = frozenset(
    {"coherence/bus.py", "coherence/cache.py", "coherence/directory.py"}
)


class _FunctionBodyEnumLoads(ast.NodeVisitor):
    """Collects ``<Enum>.<MEMBER>`` loads that run each time a function does.

    Default argument values and decorators are evaluated once, when the
    function is defined, so they are visited as outside any body.
    """

    def __init__(self, enum_names: Set[str]):
        self.enum_names = enum_names
        self.depth = 0
        self.loads: List[ast.Attribute] = []

    def _visit_function(self, node) -> None:
        once = list(getattr(node, "decorator_list", []))
        once += node.args.defaults + [d for d in node.args.kw_defaults if d is not None]
        for expr in once:
            self.visit(expr)
        self.depth += 1
        for part in node.body if isinstance(node.body, list) else [node.body]:
            self.visit(part)
        self.depth -= 1

    visit_FunctionDef = visit_AsyncFunctionDef = visit_Lambda = _visit_function

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if (
            self.depth
            and isinstance(node.value, ast.Name)
            and node.value.id in self.enum_names
            and _ENUM_MEMBER_RE.match(node.attr)
        ):
            self.loads.append(node)
        self.generic_visit(node)


@register_rule
class EnumAttrRule(Rule):
    id = "ENUMATTR"
    summary = (
        "no BusOp/BusKind/AgentKind/CoherenceState member loads inside function "
        "bodies on the per-transaction path (sim/, ni/, bus, caches, directory)"
    )

    def applies_to(self, module: ModuleFile) -> bool:
        return (
            module.relpath.startswith(_ENUMATTR_PREFIXES)
            or module.relpath in _ENUMATTR_MODULES
        )

    def check(self, module, context):
        # Follow ``from ... import BusOp as Op`` aliases too.
        names = set(_HOT_ENUMS)
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ImportFrom):
                names.update(a.asname for a in node.names if a.asname and a.name in _HOT_ENUMS)
        visitor = _FunctionBodyEnumLoads(names)
        visitor.visit(module.tree)
        for node in visitor.loads:
            yield (
                node.lineno,
                node.col_offset,
                f"enum member '{node.value.id}.{node.attr}' loaded in a function "
                "body (EnumType.__getattr__ makes it ~10x a global load; use the "
                "name repro.common.types binds)",
            )


_RULES.seal()


# ----------------------------------------------------------------------
# Engine
# ----------------------------------------------------------------------
@dataclass
class LintReport:
    """Outcome of one lint run."""

    findings: List[Finding] = field(default_factory=list)
    modules_checked: int = 0

    @property
    def active(self) -> List[Finding]:
        return [f for f in self.findings if not f.waived]

    @property
    def waived(self) -> List[Finding]:
        return [f for f in self.findings if f.waived]

    @property
    def ok(self) -> bool:
        return not self.active

    def to_dict(self) -> Dict:
        counts: Dict[str, int] = {}
        for finding in self.active:
            counts[finding.rule] = counts.get(finding.rule, 0) + 1
        return {
            "ok": self.ok,
            "modules_checked": self.modules_checked,
            "counts_by_rule": counts,
            "findings": [f.to_dict() for f in self.active],
            "waived": [f.to_dict() for f in self.waived],
            "rules": {rule_id: rule.summary for rule_id, rule in sorted(_RULES.items())},
        }


def _make_context(root: Path) -> LintContext:
    return LintContext(stat_registry=generate_registry(root))


def _check_module(
    module: ModuleFile, context: LintContext, rules: Iterable[Rule]
) -> List[Finding]:
    waivers = parse_waivers(module.lines)
    used: Set[Tuple[int, str]] = set()
    findings: List[Finding] = []
    for rule in rules:
        if not rule.applies_to(module):
            continue
        for lineno, col, message in rule.check(module, context):
            finding = Finding(rule.id, module.relpath, lineno, col, message)
            waiver = waivers.get(lineno)
            if waiver is not None and rule.id.upper() in waiver[0]:
                finding.waived = True
                finding.waiver_reason = waiver[1]
                used.add((lineno, rule.id.upper()))
            findings.append(finding)
    for lineno, (rule_ids, _) in waivers.items():
        unused = sorted(rule_id for rule_id in rule_ids if (lineno, rule_id) not in used)
        if unused:
            findings.append(Finding(
                "WAIVER", module.relpath, lineno, 0,
                f"waiver for {', '.join(unused)} suppresses no finding on this line",
            ))
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings


def lint_source(
    source: str,
    relpath: str,
    context: Optional[LintContext] = None,
    root: Path = SRC_ROOT,
) -> List[Finding]:
    """Lint one module given as text (fixtures, tests, editor buffers)."""
    if context is None:
        context = _make_context(root)
    module = ModuleFile(
        relpath=relpath,
        kernel_client=is_kernel_client(relpath),
        tree=ast.parse(source, filename=relpath),
        lines=source.splitlines(),
    )
    return _check_module(module, context, _RULES.values())


def lint_tree(root: Path = SRC_ROOT) -> LintReport:
    """Lint every module under ``root`` (default: the repro package)."""
    context = _make_context(root)
    report = LintReport()
    rules = list(_RULES.values())
    for relpath, path in iter_modules(root):
        source = path.read_text(encoding="utf-8")
        try:
            tree = ast.parse(source, filename=str(path))
        except SyntaxError as exc:
            report.findings.append(
                Finding("SYNTAX", relpath, exc.lineno or 0, 0, f"syntax error: {exc.msg}")
            )
            continue
        module = ModuleFile(relpath, is_kernel_client(relpath), tree, source.splitlines())
        report.findings.extend(_check_module(module, context, rules))
        report.modules_checked += 1
    return report


# ----------------------------------------------------------------------
# Self-test fixtures: one minimal offending snippet per built-in rule
# ----------------------------------------------------------------------
FIXTURES: Dict[str, Tuple[str, str, int]] = {
    # rule id -> (virtual relpath, snippet, offending 1-based line)
    "MUTSTATE": (
        "ni/_fixture.py",
        "from repro.common.registry import Registry\n\n"
        "_PLUGINS = Registry('plugin', ValueError)\n",
        3,
    ),
    "SLOTS": (
        "sim/_fixture.py",
        "class WakeEvent:\n    def __init__(self):\n        self.when = 0\n",
        1,
    ),
    "WALLCLOCK": (
        "sim/_fixture.py",
        "import time\n\ndef stamp():\n    return time.time()\n",
        4,
    ),
    "STATKEY": (
        "node/_fixture.py",
        "def read(stats):\n    return stats.get('no_such_stat_key_xyz')\n",
        2,
    ),
    "ENUMATTR": (
        "coherence/bus.py",
        "from repro.common.types import BusOp\n\n"
        "def is_read(txn):\n    return txn.op is BusOp.READ_SHARED\n",
        4,
    ),
}


def self_test(verbose: bool = False) -> List[str]:
    """Prove every built-in rule fires on its fixture, every waiver works,
    and a waiver that suppresses nothing is reported.

    Returns a list of failure descriptions (empty means the engine passed).
    """
    failures: List[str] = []
    context = _make_context(SRC_ROOT)
    for rule_id, (relpath, snippet, line) in FIXTURES.items():
        findings = lint_source(snippet, relpath, context=context)
        hits = [f for f in findings if f.rule == rule_id and f.line == line]
        if not hits:
            failures.append(
                f"{rule_id}: fixture produced no finding at {relpath}:{line} "
                f"(got {[f.rule for f in findings]})"
            )
            continue
        if verbose:
            print(f"  {rule_id}: fixture flagged ({hits[0].message})")
        # The same snippet with a waiver comment on the offending line must
        # come back waived.
        lines = snippet.splitlines()
        lines[line - 1] += f"  # repro: allow[{rule_id}] fixture waiver"
        waived = lint_source("\n".join(lines) + "\n", relpath, context=context)
        still_active = [f for f in waived if f.rule == rule_id and f.line == line and not f.waived]
        if still_active:
            failures.append(f"{rule_id}: waiver comment did not suppress the finding")
        elif verbose:
            print(f"  {rule_id}: waiver suppressed")
    # A planted waiver on a line no rule flags must come back as a finding.
    planted = "x = 1  # repro: allow[MUTSTATE] planted unused waiver\n"
    unused = lint_source(planted, "ni/_fixture.py", context=context)
    if not [f for f in unused if f.rule == "WAIVER" and f.line == 1 and not f.waived]:
        failures.append("WAIVER: an unused waiver comment was not reported")
    elif verbose:
        print("  WAIVER: unused waiver flagged")
    return failures
