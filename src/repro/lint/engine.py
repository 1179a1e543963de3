"""The lint engine: package AST context, rule registry, and the runner.

The engine parses every Python file under the target roots once into a
:class:`PackageContext` and hands that whole-package view to each registered
:class:`Rule` — rules therefore can be purely local (walk one file's AST) or
cross-referential (compare ``core/backends.py`` registrations against the
test tree, as ``PAR001`` does).  Findings come back typed
(:class:`~repro.lint.findings.Finding`), get inline suppressions applied,
and are wrapped in a :class:`LintReport`.

Adding a rule::

    from repro.lint.engine import Rule, register_rule

    @register_rule
    class MyRule(Rule):
        id = "MYR001"
        title = "short imperative description"
        rationale = "why the invariant matters in this codebase"

        def check(self, ctx):
            for f in self.targets(ctx):
                ...
                yield self.finding(f, node.lineno, "message")

Registered rules are active by default in the CLI and in
:func:`default_rules`.
"""

from __future__ import annotations

import abc
import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Type

from repro.lint.findings import Finding, Severity, Suppressions


@dataclass(frozen=True)
class SourceFile:
    """One parsed Python file of the linted tree."""

    path: str
    source: str
    tree: ast.Module
    #: Whether the file belongs to the test tree (cross-reference target)
    #: rather than the linted package.
    is_test: bool = False

    @property
    def parts(self) -> Sequence[str]:
        """Path components, for rule scoping."""
        return Path(self.path).parts

    @classmethod
    def parse(
        cls, path: str, source: str, is_test: bool = False
    ) -> "SourceFile":
        return cls(
            path=path,
            source=source,
            tree=ast.parse(source, filename=path),
            is_test=is_test,
        )


@dataclass
class PackageContext:
    """Everything a rule may look at: package files plus the test tree."""

    files: List[SourceFile] = field(default_factory=list)
    test_files: List[SourceFile] = field(default_factory=list)
    #: Files that failed to parse, as findings (rule ``PARSE``).
    parse_failures: List[Finding] = field(default_factory=list)

    @classmethod
    def from_sources(
        cls,
        files: Mapping[str, str],
        tests: Optional[Mapping[str, str]] = None,
    ) -> "PackageContext":
        """Build a context from in-memory sources (the test fixtures' path)."""
        ctx = cls()
        for path, source in files.items():
            ctx.add_source(path, source, is_test=False)
        for path, source in (tests or {}).items():
            ctx.add_source(path, source, is_test=True)
        return ctx

    def add_source(self, path: str, source: str, is_test: bool) -> None:
        """Parse and add one source; a syntax error becomes a finding."""
        try:
            parsed = SourceFile.parse(path, source, is_test=is_test)
        except SyntaxError as exc:
            self.parse_failures.append(Finding(
                rule="PARSE",
                path=path,
                line=exc.lineno or 1,
                message=f"file does not parse: {exc.msg}",
            ))
            return
        (self.test_files if is_test else self.files).append(parsed)

    @classmethod
    def from_paths(
        cls,
        roots: Sequence[Path],
        tests_root: Optional[Path] = None,
    ) -> "PackageContext":
        """Parse every ``*.py`` under the roots (and the test tree)."""
        ctx = cls()
        for root, is_test in [(r, False) for r in roots] + (
            [(tests_root, True)] if tests_root is not None else []
        ):
            root = Path(root)
            if root.is_file():
                paths = [root]
            else:
                paths = sorted(
                    p for p in root.rglob("*.py")
                    if "__pycache__" not in p.parts
                )
            for path in paths:
                ctx.add_source(
                    str(path),
                    path.read_text(encoding="utf-8"),
                    is_test=is_test,
                )
        return ctx


class Rule(abc.ABC):
    """One statically checkable invariant.

    Subclasses set ``id`` / ``title`` / ``rationale`` and implement
    :meth:`check`.  ``scope_parts``, when non-empty, restricts the rule to
    files whose path contains at least one of the named directories —
    :meth:`targets` applies it.
    """

    id: str = "RULE"
    title: str = ""
    rationale: str = ""
    severity: Severity = Severity.ERROR
    #: Directory names the rule is scoped to (empty = every file).
    scope_parts: Sequence[str] = ()
    #: Path suffixes exempt from the rule (e.g. the blessed helper module).
    exempt_suffixes: Sequence[str] = ()

    @abc.abstractmethod
    def check(self, ctx: PackageContext) -> Iterator[Finding]:
        """Yield every violation found in the context."""

    def applies(self, source: SourceFile) -> bool:
        """Whether the rule covers ``source`` (scope minus exemptions)."""
        if any(source.path.endswith(sfx) for sfx in self.exempt_suffixes):
            return False
        if not self.scope_parts:
            return True
        return any(part in source.parts for part in self.scope_parts)

    def targets(self, ctx: PackageContext) -> Iterator[SourceFile]:
        """The package files this rule applies to."""
        return (f for f in ctx.files if self.applies(f))

    def finding(
        self, source: SourceFile, line: int, message: str, column: int = 0
    ) -> Finding:
        """A finding of this rule anchored in ``source``."""
        return Finding(
            rule=self.id,
            path=source.path,
            line=line,
            column=column,
            message=message,
            severity=self.severity,
        )


#: The default rule registry, populated by :func:`register_rule`.
RULE_REGISTRY: Dict[str, Type[Rule]] = {}


def register_rule(rule_cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the default registry by ``id``."""
    rule_id = rule_cls.id
    if not rule_id or rule_id == Rule.id:
        raise ValueError(
            f"rule class {rule_cls.__name__} needs a distinctive id"
        )
    if rule_id in RULE_REGISTRY and RULE_REGISTRY[rule_id] is not rule_cls:
        raise ValueError(f"a rule with id {rule_id!r} is already registered")
    RULE_REGISTRY[rule_id] = rule_cls
    return rule_cls


def default_rules(
    only: Optional[Sequence[str]] = None,
) -> List[Rule]:
    """Instances of every registered rule (optionally a named subset)."""
    # Importing the rule pack registers it; deferred to avoid a cycle at
    # package-import time.
    from repro.lint import rules as _rules  # noqa: F401

    names = sorted(RULE_REGISTRY) if only is None else list(only)
    instances = []
    for name in names:
        try:
            instances.append(RULE_REGISTRY[name]())
        except KeyError as exc:
            known = ", ".join(sorted(RULE_REGISTRY))
            raise KeyError(
                f"unknown lint rule {name!r}; registered rules: {known}"
            ) from exc
    return instances


@dataclass
class LintReport:
    """Every finding of one engine run, suppressions applied."""

    findings: List[Finding]
    checked_files: int = 0
    rules: Sequence[str] = ()

    @property
    def active(self) -> List[Finding]:
        """Findings that no suppression comment covers."""
        return [f for f in self.findings if f.active]

    @property
    def ok(self) -> bool:
        """Whether the run should exit zero."""
        return not self.active

    def summary(self) -> Dict[str, int]:
        return {
            "files": self.checked_files,
            "total": len(self.findings),
            "suppressed": sum(1 for f in self.findings if f.suppressed),
            "active": len(self.active),
        }

    def to_dict(self) -> Dict[str, object]:
        return {
            "rules": list(self.rules),
            "summary": self.summary(),
            "findings": [f.to_dict() for f in self.findings],
        }


class LintEngine:
    """Runs a rule set over a :class:`PackageContext`."""

    def __init__(self, rules: Optional[Iterable[Rule]] = None) -> None:
        self.rules: List[Rule] = (
            list(rules) if rules is not None else default_rules()
        )
        ids = [rule.id for rule in self.rules]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate rule ids in engine: {ids}")

    def run(self, ctx: PackageContext) -> LintReport:
        """Check every rule, then apply suppressions."""
        raw: List[Finding] = list(ctx.parse_failures)
        for rule in self.rules:
            raw.extend(rule.check(ctx))
        suppressions = {
            f.path: Suppressions.scan(f.source)
            for f in ctx.files + ctx.test_files
        }
        findings: List[Finding] = []
        for finding in raw:
            table = suppressions.get(finding.path)
            if table is not None:
                finding = table.apply(finding)
            findings.append(finding)
        findings.sort(key=lambda f: (f.path, f.line, f.rule))
        return LintReport(
            findings=findings,
            checked_files=len(ctx.files),
            rules=[rule.id for rule in self.rules],
        )


def lint_sources(
    files: Mapping[str, str],
    tests: Optional[Mapping[str, str]] = None,
    rules: Optional[Iterable[Rule]] = None,
) -> LintReport:
    """Lint in-memory sources — the fixture entry point used by the tests."""
    engine = LintEngine(rules=rules)
    return engine.run(PackageContext.from_sources(files, tests=tests))


def lint_paths(
    paths: Sequence[Path],
    tests_root: Optional[Path] = None,
    rules: Optional[Iterable[Rule]] = None,
) -> LintReport:
    """Lint files/directories on disk — the CLI entry point."""
    engine = LintEngine(rules=rules)
    ctx = PackageContext.from_paths(list(paths), tests_root=tests_root)
    return engine.run(ctx)
