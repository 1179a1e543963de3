"""Shared utilities for the ATGPU reproduction.

This package contains small, dependency-free helpers used across the core
model, the simulator and the experiment harness:

* :mod:`repro.utils.validation` -- argument-checking helpers with consistent
  error messages.
* :mod:`repro.utils.stats` -- series normalisation, relative errors and the
  "capture fraction" statistics reported in Section IV-D of the paper.
* :mod:`repro.utils.numerics` -- the blessed numeric idioms (``ceil_div``,
  ``ordered_sum``) that keep the scalar and vectorized paths bitwise
  identical.
"""

from repro.utils.numerics import ceil_div
from repro.utils.stats import (
    average,
    capture_fraction,
    mean_absolute_difference,
    normalise_series,
    relative_error,
    transfer_proportion,
)
from repro.utils.validation import (
    ensure_in_range,
    ensure_positive,
    ensure_positive_int,
)

__all__ = [
    "average",
    "ceil_div",
    "capture_fraction",
    "mean_absolute_difference",
    "normalise_series",
    "relative_error",
    "transfer_proportion",
    "ensure_in_range",
    "ensure_positive",
    "ensure_positive_int",
]
