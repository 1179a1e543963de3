"""Typed findings and suppression comments for ``repro.lint``.

A :class:`Finding` is one rule violation anchored to a file and line.  An
**inline suppression comment** on the offending line keeps a finding from
failing the build::

    object.__setattr__(self, "_memo", value)  # repro-lint: disable=FRZ001 -- write-once memo

Several rules separate with commas (``disable=LCK001,CEIL001``), and a
standalone ``# repro-lint: disable-file=RULE`` line anywhere in a file
disables the rule for that whole file.  Text after ``--`` (or in
parentheses) records the justification and is carried on the finding.

``python -m repro.lint`` exits non-zero only for findings that are not
suppressed.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Mapping, Optional, Sequence


class Severity(enum.Enum):
    """How bad a finding is; only errors fail the CI lane."""

    ERROR = "error"
    WARNING = "warning"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class Finding:
    """One rule violation at a specific source location."""

    rule: str
    path: str
    line: int
    message: str
    severity: Severity = Severity.ERROR
    column: int = 0
    #: Set when an inline comment suppresses this finding.
    suppressed: bool = False
    #: The justification text of the suppression comment, if any.
    suppression_reason: str = ""

    @property
    def active(self) -> bool:
        """Whether the finding should fail the run."""
        return not self.suppressed

    def location(self) -> str:
        """``path:line`` — the clickable anchor used by the text format."""
        return f"{self.path}:{self.line}"

    def to_dict(self) -> Dict[str, Any]:
        """The finding as a JSON-serialisable dictionary."""
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "column": self.column,
            "severity": self.severity.value,
            "message": self.message,
            "suppressed": self.suppressed,
            "suppression_reason": self.suppression_reason,
            "active": self.active,
        }


# --------------------------------------------------------------------- #
# Inline suppression comments
# --------------------------------------------------------------------- #
#: ``# repro-lint: disable=RULE[,RULE...] [-- reason]`` (same line) or
#: ``# repro-lint: disable-file=RULE[,RULE...] [-- reason]`` (whole file).
_SUPPRESSION = re.compile(
    r"#\s*repro-lint:\s*(?P<scope>disable(?:-file)?)\s*=\s*"
    r"(?P<rules>[A-Za-z0-9_*]+(?:\s*,\s*[A-Za-z0-9_*]+)*)"
    r"(?:\s*(?:--|—)\s*(?P<reason>.*))?"
)


@dataclass(frozen=True)
class Suppressions:
    """Parsed suppression comments of one source file.

    ``by_line`` maps line numbers to ``{rule: reason}``; ``file_wide`` maps
    rules disabled for the whole file to their reason.  The wildcard rule
    ``*`` matches every rule.
    """

    by_line: Mapping[int, Mapping[str, str]] = field(default_factory=dict)
    file_wide: Mapping[str, str] = field(default_factory=dict)

    @classmethod
    def scan(cls, source: str) -> "Suppressions":
        """Parse every suppression comment out of ``source``."""
        by_line: Dict[int, Dict[str, str]] = {}
        file_wide: Dict[str, str] = {}
        for lineno, text in enumerate(source.splitlines(), start=1):
            match = _SUPPRESSION.search(text)
            if match is None:
                continue
            reason = (match.group("reason") or "").strip().rstrip(")")
            rules = [
                r.strip() for r in match.group("rules").split(",") if r.strip()
            ]
            target = (
                file_wide
                if match.group("scope") == "disable-file"
                else by_line.setdefault(lineno, {})
            )
            for rule in rules:
                target[rule] = reason
        return cls(by_line=by_line, file_wide=file_wide)

    def lookup(self, rule: str, line: int) -> Optional[str]:
        """The suppression reason covering ``rule`` at ``line``, or ``None``.

        A per-line comment covers its own line and the line directly
        below it, so a suppression may sit on the flagged statement or on
        a standalone comment line immediately above it.
        """
        for table in (
            self.file_wide,
            self.by_line.get(line, {}),
            self.by_line.get(line - 1, {}),
        ):
            for key in (rule, "*"):
                if key in table:
                    return table[key]
        return None

    def apply(self, finding: Finding) -> Finding:
        """The finding, marked suppressed when a comment covers it."""
        reason = self.lookup(finding.rule, finding.line)
        if reason is None:
            return finding
        return replace(
            finding, suppressed=True, suppression_reason=reason or "",
        )


def render_text(findings: Sequence[Finding]) -> List[str]:
    """The text-format report lines, one per finding (active ones first)."""
    lines: List[str] = []
    for finding in sorted(
        findings, key=lambda f: (not f.active, f.path, f.line)
    ):
        status = ""
        if finding.suppressed:
            status = " [suppressed" + (
                f": {finding.suppression_reason}]"
                if finding.suppression_reason
                else "]"
            )
        lines.append(
            f"{finding.location()}: {finding.severity.value} "
            f"{finding.rule}: {finding.message}{status}"
        )
    return lines
