"""Static validation of ATGPU pseudocode programs.

Checks the rules the notation imposes (Section II of the paper):

* naming conventions already enforced by variable construction are
  re-checked against the statements that use the variables;
* every variable referenced by a statement must be declared;
* the ``W`` operator may only connect host and global variables, ``⇐`` only
  global and shared, ``←`` only produces shared values;
* an ``if`` statement has a single conditional block (no ``else``) -- this is
  structural in :class:`~repro.pseudocode.ast_nodes.If`, but nesting depth is
  limited to keep divergence analysable;
* capacity rules against a machine: declared global variables must fit in
  ``G`` and each kernel's shared declarations in ``M``.
"""

from __future__ import annotations

from typing import Iterable, List

from repro.core.machine import ATGPUMachine
from repro.pseudocode.ast_nodes import (
    GlobalToShared,
    If,
    Loop,
    SharedCompute,
    SharedToGlobal,
    Statement,
)
from repro.pseudocode.program import Program, Round
from repro.pseudocode.variables import Scope


class ValidationError(ValueError):
    """Raised when a pseudocode program violates the notation's rules."""


#: Maximum nesting depth of If statements tolerated by the validator.
MAX_IF_DEPTH = 1


def _walk(statements: Iterable[Statement], depth: int = 0):
    for statement in statements:
        yield statement, depth
        if isinstance(statement, If):
            yield from _walk(statement.body, depth + 1)
        elif isinstance(statement, Loop):
            yield from _walk(statement.body, depth)


def _check_statement_scopes(program: Program, statement: Statement, errors: List[str]) -> None:
    def require(name: str, scope: Scope, role: str) -> None:
        if not program.declared(name):
            errors.append(f"{role} {name!r} is not declared by program {program.name!r}")
            return
        actual = program.variable(name).scope
        if actual is not scope:
            errors.append(
                f"{role} {name!r} must be a {scope.value} variable, "
                f"but it is declared as {actual.value}"
            )

    if isinstance(statement, GlobalToShared):
        require(statement.dest, Scope.SHARED, "global-read destination")
        require(statement.src, Scope.GLOBAL, "global-read source")
    elif isinstance(statement, SharedToGlobal):
        require(statement.dest, Scope.GLOBAL, "global-write destination")
        require(statement.src, Scope.SHARED, "global-write source")
    elif isinstance(statement, SharedCompute):
        require(statement.dest, Scope.SHARED, "shared-compute destination")


def validate_round(program: Program, round_: Round, errors: List[str]) -> None:
    """Collect rule violations of one round into ``errors``."""
    for transfer in round_.transfers_in:
        if not program.declared(transfer.dest) or not program.declared(transfer.src):
            errors.append(
                f"transfer {transfer.src!r} W {transfer.dest!r} references an "
                "undeclared variable"
            )
    for transfer in round_.transfers_out:
        if not program.declared(transfer.dest) or not program.declared(transfer.src):
            errors.append(
                f"transfer {transfer.src!r} W {transfer.dest!r} references an "
                "undeclared variable"
            )
    for launch in round_.launches:
        for declaration in launch.shared_declarations:
            if not program.declared(declaration.name):
                errors.append(
                    f"kernel {launch.label!r} declares shared variable "
                    f"{declaration.name!r} which is not in the program's declarations"
                )
        for statement, depth in _walk(launch.body):
            if isinstance(statement, If) and depth >= MAX_IF_DEPTH:
                errors.append(
                    f"kernel {launch.label!r} nests If statements deeper than "
                    f"{MAX_IF_DEPTH}; the notation allows a single conditional block"
                )
            _check_statement_scopes(program, statement, errors)


def validate_program(program: Program, machine: ATGPUMachine = None) -> None:
    """Raise :class:`ValidationError` listing every rule violation found."""
    errors: List[str] = []
    for round_ in program.rounds:
        validate_round(program, round_, errors)
    if machine is not None:
        if program.global_words() > machine.G:
            errors.append(
                f"declared global variables occupy {program.global_words()} words "
                f"which exceeds the machine's G={machine.G}; the algorithm cannot "
                "be run on this model instance"
            )
        if program.shared_words_per_mp() > machine.M:
            errors.append(
                f"per-block shared declarations occupy {program.shared_words_per_mp()} "
                f"words which exceeds the machine's M={machine.M}"
            )
    if errors:
        raise ValidationError(
            f"program {program.name!r} violates the pseudocode rules:\n  - "
            + "\n  - ".join(errors)
        )

