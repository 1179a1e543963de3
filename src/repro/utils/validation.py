"""Argument-validation helpers.

All validators raise :class:`ValueError` (or :class:`TypeError` for wrong
types) with a message that names the offending parameter, so errors raised
deep inside the model or the simulator are still actionable for a caller of
the public API.
"""

from __future__ import annotations

from numbers import Integral, Real
from typing import Iterable, Optional, Sequence


class UnknownFieldError(ValueError):
    """A mapping carried keys the target dataclass does not declare.

    Raised by the ``from_dict`` deserialisers so a typo'd field (e.g.
    ``"topolgy"`` on an :class:`~repro.experiments.spec.ExperimentSpec`)
    fails loudly with the offending name instead of silently producing a
    default-valued object.  Subclasses :class:`ValueError` so existing
    broad handlers keep working; the offending names are available
    programmatically on :attr:`fields`.
    """

    def __init__(
        self, kind: str, fields: Sequence[str], known: Iterable[str]
    ) -> None:
        self.kind = kind
        self.fields = tuple(fields)
        self.known = tuple(sorted(known))
        plural = "s" if len(self.fields) != 1 else ""
        super().__init__(
            f"unknown {kind} field{plural}: {', '.join(self.fields)}; "
            f"known fields: {', '.join(self.known)}"
        )


def reject_unknown_fields(
    kind: str, data: Iterable[str], known: Iterable[str]
) -> None:
    """Raise :class:`UnknownFieldError` for keys outside ``known``."""
    known = set(known)
    unknown = sorted(set(data) - known)
    if unknown:
        raise UnknownFieldError(kind, unknown, known)


def ensure_positive(value: float, name: str) -> float:
    """Return ``value`` if it is a strictly positive real number.

    Parameters
    ----------
    value:
        The value to check.
    name:
        Parameter name used in the error message.
    """
    # Exact-type fast path: the abc machinery behind ``isinstance(x, Real)``
    # costs ~1 µs per call, which dominates hot loops that build thousands
    # of RoundMetrics (``type is`` cannot match bool, so no bool guard).
    if type(value) is not float and type(value) is not int:
        if isinstance(value, bool) or not isinstance(value, Real):
            raise TypeError(f"{name} must be a real number, got {type(value).__name__}")
    if not value > 0:
        raise ValueError(f"{name} must be > 0, got {value!r}")
    return value if type(value) is float else _as_float(value, name)


def ensure_non_negative(value: float, name: str) -> float:
    """Return ``value`` if it is a real number >= 0 (NaN is rejected)."""
    if type(value) is not float and type(value) is not int:
        if isinstance(value, bool) or not isinstance(value, Real):
            raise TypeError(f"{name} must be a real number, got {type(value).__name__}")
    if not value >= 0:
        raise ValueError(f"{name} must be >= 0, got {value!r}")
    return value if type(value) is float else _as_float(value, name)


def _as_float(value: float, name: str) -> float:
    """``float(value)``; an integer too large for a float is a ValueError."""
    try:
        return float(value)
    except OverflowError:
        raise ValueError(
            f"{name} must fit in a float, got {value!r}"
        ) from None


def ensure_positive_int(value: int, name: str) -> int:
    """Return ``value`` if it is a strictly positive integer."""
    if type(value) is not int:
        if isinstance(value, bool) or not isinstance(value, Integral):
            raise TypeError(f"{name} must be an integer, got {type(value).__name__}")
    if value <= 0:
        raise ValueError(f"{name} must be a positive integer, got {value!r}")
    return int(value)


def ensure_non_negative_int(value: int, name: str) -> int:
    """Return ``value`` if it is an integer >= 0."""
    if type(value) is not int:
        if isinstance(value, bool) or not isinstance(value, Integral):
            raise TypeError(f"{name} must be an integer, got {type(value).__name__}")
    if value < 0:
        raise ValueError(f"{name} must be a non-negative integer, got {value!r}")
    return int(value)


def ensure_in_range(
    value: float,
    name: str,
    low: Optional[float] = None,
    high: Optional[float] = None,
    inclusive: bool = True,
) -> float:
    """Return ``value`` if it lies inside ``[low, high]`` (or ``(low, high)``).

    ``low`` / ``high`` may be ``None`` to leave the corresponding side
    unbounded.  Each bound is tested as the condition that must hold, so
    NaN fails every bound.
    """
    if isinstance(value, bool) or not isinstance(value, Real):
        raise TypeError(f"{name} must be a real number, got {type(value).__name__}")
    if low is not None:
        if inclusive and not value >= low:
            raise ValueError(f"{name} must be >= {low}, got {value!r}")
        if not inclusive and not value > low:
            raise ValueError(f"{name} must be > {low}, got {value!r}")
    if high is not None:
        if inclusive and not value <= high:
            raise ValueError(f"{name} must be <= {high}, got {value!r}")
        if not inclusive and not value < high:
            raise ValueError(f"{name} must be < {high}, got {value!r}")
    return float(value)

