"""The ATGPU pseudocode notation as an embedded DSL.

The paper extends the AGPU pseudocode with explicit data transfer; this
package implements that notation as Python objects: variables with the
paper's three scopes and naming conventions, statements for the ``W`` /
``⇐`` / ``←`` operators, rounds and programs, static validation of the
notation's rules, a static analyzer that derives the Section III metrics,
an interpreter that executes programs on the simulator, and a renderer that
prints programs in the paper's listing style.
"""

from repro.pseudocode.analyzer import analyse_program, analyse_round
from repro.pseudocode.ast_nodes import (
    Barrier,
    Compute,
    GlobalToShared,
    If,
    KernelLaunch,
    Loop,
    SharedCompute,
    SharedToGlobal,
    Statement,
    TransferIn,
    TransferOut,
)
from repro.pseudocode.interpreter import (
    ExecutionResult,
    MissingSemanticsError,
    ProgramInterpreter,
)
from repro.pseudocode.program import Program, Round
from repro.pseudocode.render import render_launch, render_program
from repro.pseudocode.validation import ValidationError, validate_program
from repro.pseudocode.variables import (
    NamingError,
    Scope,
    Variable,
    global_var,
    host_var,
    scope_of_name,
    shared_var,
)

__all__ = [
    "analyse_program",
    "analyse_round",
    "Barrier",
    "Compute",
    "GlobalToShared",
    "If",
    "KernelLaunch",
    "Loop",
    "SharedCompute",
    "SharedToGlobal",
    "Statement",
    "TransferIn",
    "TransferOut",
    "ExecutionResult",
    "MissingSemanticsError",
    "ProgramInterpreter",
    "Program",
    "Round",
    "render_launch",
    "render_program",
    "ValidationError",
    "validate_program",
    "NamingError",
    "Scope",
    "Variable",
    "global_var",
    "host_var",
    "scope_of_name",
    "shared_var",
]
