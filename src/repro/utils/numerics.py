"""Numeric idioms shared by the scalar and the vectorized cost paths.

The package's bit-for-bit scalar/batch parity (PR 4/PR 5) rests on every
ceiling-of-a-quotient being computed the same way on both paths: the scalar
models use ``math.ceil(a / b)`` (true float division, then ceil) and the
array programs mirror it with ``np.ceil(a / b)``.  Mixing in the integer
idiom ``-(-a // b)`` — or floor-dividing on one path and float-dividing on
the other — produces values that differ in the last bit for large operands,
which the parity tests then surface as a one-ULP cost disagreement.

:func:`ceil_div` is the single blessed spelling of that idiom.  The static
checker (:mod:`repro.lint`, rule ``CEIL001``) flags any direct
``math.ceil(x / y)`` / ``np.ceil(x / y)`` / ``-(-x // y)`` in metrics and
cost code outside this module, so the float-division contract cannot drift
call site by call site.

:func:`ordered_sum` is the one spelling of a float total that must equal
an array replay's: the builtin ``sum`` of floats is compensated from
Python 3.12, while the batched simulator adds in order.
"""

from __future__ import annotations

import math
from typing import Iterable, Union

import numpy as np

__all__ = ["ceil_div", "ordered_sum"]

#: Operand types :func:`ceil_div` accepts on either side.
Number = Union[int, float, np.ndarray]


def ceil_div(numerator: Number, denominator: Number) -> Number:
    """Ceiling of ``numerator / denominator`` via true float division.

    Dispatches on the operand types so one spelling serves both paths:

    * scalars evaluate ``math.ceil(numerator / denominator)`` and return a
      Python ``int`` — exactly the scalar models' historical idiom;
    * arrays (either operand) evaluate ``np.ceil(numerator / denominator)``
      and return a float array — exactly the batch programs' idiom, which
      NumPy's elementwise ceil-of-true-division makes bitwise identical to
      the scalar result for every element.

    Callers needing integer arrays keep their ``.astype(np.int64)`` at the
    call site, as before.
    """
    if isinstance(numerator, np.ndarray) or isinstance(denominator, np.ndarray):
        return np.ceil(numerator / denominator)
    return math.ceil(numerator / denominator)


def ordered_sum(values: Iterable[float]) -> float:
    """Add ``values`` left to right from ``0.0``, rounding after each add.

    The order ``np.add.accumulate`` and the simulator's array replays use,
    on every interpreter (the builtin ``sum`` of floats is compensated from
    Python 3.12, so it can differ from them in the last bit).
    """
    total = 0.0
    for value in values:
        total += value
    return total
