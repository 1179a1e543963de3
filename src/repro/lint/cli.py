"""Command-line entry point: ``python -m repro.lint [paths...]``.

Exit status: ``0`` when no active finding remains (findings covered by a
``# repro-lint: disable=`` comment do not count), ``1`` when violations
exist, ``2`` for usage errors.  ``--format json`` prints the full
machine-readable report; ``--out`` additionally writes that JSON to a file
regardless of the display format (the CI lane uploads it as an artifact).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro.lint.engine import default_rules, lint_paths
from repro.lint.findings import render_text


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description=(
            "AST-based invariant checker for the repro package: "
            "lock discipline, batch-parity coverage, frozen-type, "
            "ceil-division and from_dict rules."
        ),
    )
    parser.add_argument(
        "paths", nargs="*", default=["src/repro"],
        help="files or directories to lint (default: src/repro)",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report format on stdout (default: text)",
    )
    parser.add_argument(
        "--tests", default="tests", metavar="DIR",
        help=(
            "test tree for cross-reference rules such as PAR001 "
            "(default: tests; skipped when the directory does not exist)"
        ),
    )
    parser.add_argument(
        "--rules", default=None, metavar="ID[,ID...]",
        help="comma-separated subset of rule ids to run (default: all)",
    )
    parser.add_argument(
        "--out", default=None, metavar="FILE",
        help="also write the JSON report to FILE (any display format)",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalog and exit",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    only = (
        [r.strip() for r in args.rules.split(",") if r.strip()]
        if args.rules
        else None
    )
    try:
        rules = default_rules(only=only)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2

    if args.list_rules:
        for rule in rules:
            print(f"{rule.id}  {rule.title}")
            if rule.rationale:
                print(f"        {rule.rationale}")
        return 0

    paths = [Path(p) for p in args.paths]
    missing = [p for p in paths if not p.exists()]
    if missing:
        names = ", ".join(str(p) for p in missing)
        print(f"no such file or directory: {names}", file=sys.stderr)
        return 2
    tests_root: Optional[Path] = Path(args.tests)
    if not tests_root.exists():
        tests_root = None

    report = lint_paths(paths, tests_root=tests_root, rules=rules)

    payload = json.dumps(report.to_dict(), indent=2, sort_keys=True)
    if args.out:
        Path(args.out).write_text(payload + "\n", encoding="utf-8")
    if args.format == "json":
        print(payload)
    else:
        for line in render_text(report.findings):
            print(line)
        summary = report.summary()
        print(
            f"{summary['files']} files checked, "
            f"{summary['active']} active finding(s) "
            f"({summary['suppressed']} suppressed)"
        )
    return 0 if report.ok else 1


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
