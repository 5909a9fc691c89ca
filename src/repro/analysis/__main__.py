"""Command-line surface of the simulator-idiom lint.

Usage::

    python -m repro.analysis lint [--json] [--show-waived]
    python -m repro.analysis statkeys [--json]
    python -m repro.analysis --self-test [--verbose]

``lint`` exits non-zero on unwaived findings, and ``--self-test`` when a
rule misses its planted defect.  ``run.py analyze ...`` forwards here.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.analysis import lint as lint_mod
from repro.analysis.statkeys import generate_registry


def _print(text: str) -> None:
    sys.stdout.write(text)
    sys.stdout.flush()


def cmd_lint(args) -> int:
    report = lint_mod.lint_tree()
    if args.json:
        _print(json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n")
    else:
        for finding in report.findings:
            if finding.waived and not args.show_waived:
                continue
            status = "waived" if finding.waived else "FAIL"
            _print(f"[{status}] {finding.location()}: {finding.rule}: {finding.message}\n")
        _print(
            f"lint: {report.modules_checked} modules, "
            f"{len(report.active)} active, {len(report.waived)} waived\n"
        )
    return 0 if report.ok else 1


def cmd_statkeys(args) -> int:
    registry = generate_registry()
    if args.json:
        _print(json.dumps(registry.to_dict(), indent=2, sort_keys=True) + "\n")
    else:
        for key in sorted(registry.literals):
            _print(f"{key}\n")
        for pattern in sorted(registry.patterns):
            _print(f"~ {pattern}\n")
        _print(
            f"statkeys: {len(registry.literals)} literal keys, "
            f"{len(registry.patterns)} patterns\n"
        )
    return 0


def run_self_test(verbose: bool = False) -> int:
    failures = lint_mod.self_test(verbose=verbose)
    if failures:
        for failure in failures:
            _print(f"FAIL: {failure}\n")
        return 1
    _print("self-test: every lint rule catches its planted defects\n")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = argparse.ArgumentParser(
        prog="repro.analysis",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "--self-test",
        action="store_true",
        help="verify every lint rule catches its planted defect",
    )
    parser.add_argument("--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command")

    lint_p = sub.add_parser("lint", help="static simulator-idiom lint")
    lint_p.add_argument("--json", action="store_true")
    lint_p.add_argument("--show-waived", action="store_true")

    keys_p = sub.add_parser("statkeys", help="dump the generated stat-key registry")
    keys_p.add_argument("--json", action="store_true")

    args = parser.parse_args(argv)
    if args.self_test:
        return run_self_test(verbose=args.verbose)
    if args.command == "lint":
        return cmd_lint(args)
    if args.command == "statkeys":
        return cmd_statkeys(args)
    parser.print_help()
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
