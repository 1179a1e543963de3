"""Variables of the ATGPU pseudocode notation.

The paper distinguishes three variable scopes purely by naming convention
(Section II, "Notation for Pseudocode"):

* **Host** variables reside in host memory, are accessible only to the host,
  and their names begin with a capital letter (``A``, ``Input``).
* **Global** variables reside in device global memory, are accessible to the
  host and to all MPs, and their names begin with a lower-case letter
  (``a``, ``partials``).
* **Shared** variables reside in an MP's shared memory, are accessible only
  to that MP's cores, and their names begin with an underscore (``_a``).

The classes below enforce those conventions at construction time so that a
mis-scoped pseudocode program fails immediately with a clear error.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.utils.validation import ensure_positive_int


class Scope(enum.Enum):
    """The three variable scopes of the ATGPU pseudocode."""

    HOST = "host"
    GLOBAL = "global"
    SHARED = "shared"


class NamingError(ValueError):
    """Raised when a variable name violates the scope naming convention."""


def scope_of_name(name: str) -> Scope:
    """Infer the scope of ``name`` from the paper's naming convention."""
    if not name:
        raise NamingError("variable names must be non-empty")
    first = name[0]
    if first == "_":
        return Scope.SHARED
    if first.isalpha() and first.isupper():
        return Scope.HOST
    if first.isalpha() and first.islower():
        return Scope.GLOBAL
    raise NamingError(
        f"variable name {name!r} must start with a capital letter (host), a "
        "lower-case letter (global) or an underscore (shared)"
    )


def validate_name(name: str, expected: Scope) -> str:
    """Return ``name`` if its naming convention matches ``expected``."""
    actual = scope_of_name(name)
    if actual is not expected:
        raise NamingError(
            f"variable {name!r} is named as a {actual.value} variable but is "
            f"declared with {expected.value} scope"
        )
    return name


@dataclass(frozen=True)
class Variable:
    """A named, sized pseudocode variable.

    ``size`` is the number of words the variable occupies in its memory
    space; scalars have size 1.
    """

    name: str
    size: int
    scope: Scope

    def __post_init__(self) -> None:
        ensure_positive_int(self.size, "size")
        validate_name(self.name, self.scope)


def host_var(name: str, size: int = 1) -> Variable:
    """Declare a host variable (name must start with a capital letter)."""
    return Variable(name=name, size=size, scope=Scope.HOST)


def global_var(name: str, size: int = 1) -> Variable:
    """Declare a global variable (name must start with a lower-case letter)."""
    return Variable(name=name, size=size, scope=Scope.GLOBAL)


def shared_var(name: str, size: int = 1) -> Variable:
    """Declare a shared variable (name must start with an underscore)."""
    return Variable(name=name, size=size, scope=Scope.SHARED)
