"""Self-hosted static analysis for the repro package.

``repro.lint`` walks the package's ASTs and checks the invariants the
runtime test suite cannot exhaustively enforce: lock discipline on the
thread-shared session/serving/registry state (``LCK001``), scalar-parity
test coverage for every batch-capable backend family (``PAR001``),
frozen-dataclass immutability (``FRZ001``), the single blessed
ceil-division idiom behind bit-for-bit scalar/batch agreement
(``CEIL001``), and unknown-key rejection in every ``from_dict``
deserialiser (``DIC001``).

Run it as ``python -m repro.lint`` (see :mod:`repro.lint.cli`), silence a
deliberate violation with ``# repro-lint: disable=RULE -- reason``, and
add rules via :func:`~repro.lint.engine.register_rule`.
"""

from repro.lint.engine import (
    LintEngine,
    LintReport,
    PackageContext,
    Rule,
    RULE_REGISTRY,
    SourceFile,
    default_rules,
    lint_paths,
    lint_sources,
    register_rule,
)
from repro.lint.findings import (
    Finding,
    Severity,
    Suppressions,
    render_text,
)

__all__ = [
    "Finding",
    "LintEngine",
    "LintReport",
    "PackageContext",
    "Rule",
    "RULE_REGISTRY",
    "Severity",
    "SourceFile",
    "Suppressions",
    "default_rules",
    "lint_paths",
    "lint_sources",
    "register_rule",
    "render_text",
]
