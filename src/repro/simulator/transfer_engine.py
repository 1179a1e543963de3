"""The host↔device transfer engine of the simulator.

Models a PCIe-like link: every transfer pays a fixed per-transaction latency
(driver call, DMA setup, page pinning) plus a streaming time proportional to
the byte count at the link's effective bandwidth.  Pageable and pinned host
memory use different effective bandwidths, reflecting the measurements of
Fujii et al. and Van Werkhoven et al. cited by the paper.

This is the *mechanistic* counterpart of the abstract model's Boyer cost
``T = n̂·α + n·β``: the simulator produces transfer times from link
parameters, and the calibration machinery in :mod:`repro.core.calibration`
can recover ``α`` and ``β`` from those times.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

import numbers

import numpy as np

from repro.core.transfer import TransferDirection
from repro.simulator.config import WORD_BYTES, DeviceConfig
from repro.utils.numerics import ordered_sum
from repro.utils.validation import ensure_non_negative


def validate_word_count(words, name: str = "words") -> int:
    """Validate a transfer word count and return it as an ``int``.

    Transfers move whole words; a fractional count would make the stored
    record (integer words) disagree with a duration computed from the raw
    value, so anything non-integral is rejected rather than truncated.
    Integral floats (e.g. ``4.0`` from size arithmetic) are accepted.
    """
    if isinstance(words, bool) or not isinstance(words, numbers.Real):
        raise TypeError(f"{name} must be a real number, got {type(words).__name__}")
    as_float = float(words)
    if as_float != int(as_float):
        raise ValueError(
            f"{name} must be a whole number of words, got {words!r}"
        )
    ensure_non_negative(as_float, name)
    return int(as_float)


def duration_grid(
    config: DeviceConfig,
    words,
    direction: TransferDirection,
    pinned: bool = False,
):
    """Vectorized twin of :meth:`TransferEngine.duration` over word arrays.

    ``words`` is an integer array of per-size word counts; the result is a
    float array of durations with the same shape.  Each element follows the
    scalar path exactly: zero-word transfers are free markers, everything
    else pays ``transfer_latency_s`` plus streaming time at the direction's
    (optionally pinned-scaled) bandwidth.  ``int64 → float64`` conversion and
    the ``words * WORD_BYTES / bandwidth`` operand order match the scalar
    expression, so the durations are bit-for-bit identical.
    """
    counts = np.asarray(words)
    if not np.issubdtype(counts.dtype, np.integer):
        as_float = np.asarray(counts, dtype=float)
        if np.any(as_float != np.floor(as_float)):
            raise ValueError("words must be whole numbers of words")
        counts = as_float.astype(np.int64)
    if np.any(counts < 0):
        raise ValueError("words must be non-negative")
    if direction is TransferDirection.HOST_TO_DEVICE:
        bandwidth = config.h2d_bandwidth_bytes_per_s
    elif direction is TransferDirection.DEVICE_TO_HOST:
        bandwidth = config.d2h_bandwidth_bytes_per_s
    else:  # pragma: no cover - defensive
        raise TypeError("direction must be a TransferDirection")
    if pinned:
        bandwidth *= config.pinned_speedup
    streaming = counts * WORD_BYTES / bandwidth
    return np.where(counts == 0, 0.0, config.transfer_latency_s + streaming)


@dataclass(frozen=True)
class TransferRecord:
    """One completed host↔device transfer."""

    direction: TransferDirection
    words: int
    duration_s: float
    pinned: bool
    label: str = ""

    @property
    def bytes(self) -> int:
        """Bytes moved by the transfer."""
        return self.words * WORD_BYTES

    @property
    def effective_bandwidth_bytes_per_s(self) -> float:
        """Achieved bandwidth including the fixed overhead."""
        if self.duration_s == 0:
            return float("inf")
        return self.bytes / self.duration_s


@dataclass
class TransferEngine:
    """Computes transfer durations and accumulates transfer statistics."""

    config: DeviceConfig
    records: List[TransferRecord] = field(default_factory=list)

    # ------------------------------------------------------------------ #
    # Timing model
    # ------------------------------------------------------------------ #
    def duration(
        self, words: int, direction: TransferDirection, pinned: bool = False
    ) -> float:
        """Duration in seconds of a transfer of ``words`` whole words.

        A zero-word transfer is a free marker — no DMA is set up, no
        latency is paid and it is not a transaction.  The cost model charges
        a zero-word transfer statement the same way, so the simulator and
        the Boyer model agree operation for operation.
        """
        words = validate_word_count(words)
        if words == 0:
            return 0.0
        if direction is TransferDirection.HOST_TO_DEVICE:
            bandwidth = self.config.h2d_bandwidth_bytes_per_s
        elif direction is TransferDirection.DEVICE_TO_HOST:
            bandwidth = self.config.d2h_bandwidth_bytes_per_s
        else:  # pragma: no cover - defensive
            raise TypeError("direction must be a TransferDirection")
        if pinned:
            bandwidth *= self.config.pinned_speedup
        streaming = words * WORD_BYTES / bandwidth
        return self.config.transfer_latency_s + streaming

    def transfer(
        self,
        words: int,
        direction: TransferDirection,
        pinned: bool = False,
        label: str = "",
    ) -> TransferRecord:
        """Perform (account for) a transfer and append it to the record list.

        ``words`` must be a whole number (see :func:`validate_word_count`):
        the record stores an integer count, so the duration is computed from
        the same validated value to keep the recorded
        :attr:`TransferRecord.effective_bandwidth_bytes_per_s` and
        :meth:`total_words` consistent with the timing.
        """
        words = validate_word_count(words)
        duration = self.duration(words, direction, pinned=pinned)
        record = TransferRecord(
            direction=direction,
            words=words,
            duration_s=duration,
            pinned=pinned,
            label=label,
        )
        self.records.append(record)
        return record

    # ------------------------------------------------------------------ #
    # Statistics
    # ------------------------------------------------------------------ #
    def total_time(self) -> float:
        """Total seconds spent transferring (both directions)."""
        return ordered_sum(r.duration_s for r in self.records)

    def total_words(self, direction: TransferDirection = None) -> int:
        """Total words moved, optionally restricted to one direction."""
        return sum(
            r.words for r in self.records
            if direction is None or r.direction is direction
        )

    def transaction_count(self, direction: TransferDirection = None) -> int:
        """Number of transfer transactions performed.

        Zero-word records are free markers, not transactions, as in the
        cost model, so they are excluded.
        """
        return sum(
            1 for r in self.records
            if r.words > 0 and (direction is None or r.direction is direction)
        )

    def implied_boyer_parameters(self) -> Tuple[float, float]:
        """The ``(α, β)`` this engine realises for pageable host→device copies.

        ``α`` is the configured per-transaction latency; ``β`` is the
        per-word streaming time at the pageable host→device bandwidth.  This
        is what a user should plug into :class:`repro.core.cost.CostParameters`
        to have the cost model and the simulator agree on transfer behaviour.
        """
        alpha = self.config.transfer_latency_s
        beta = WORD_BYTES / self.config.h2d_bandwidth_bytes_per_s
        return alpha, beta
