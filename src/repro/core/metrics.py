"""Per-round and per-algorithm metrics of the ATGPU model (Section III).

The paper analyses an algorithm by, for each round ``i``:

* the parallel time ``t_i`` -- the maximum number of operations executed by
  any MP in the round,
* the I/O ``q_i`` -- the total number of global-memory blocks accessed in the
  round across all MPs,
* the global and shared memory space used,
* the inward transfer ``I_i`` (words moved host → device at the start of the
  round) and the outward transfer ``O_i`` (words moved device → host at the
  end of the round), together with the corresponding transaction counts
  ``Î_i`` and ``Ô_i`` used by the Boyer transfer-cost model.

:class:`RoundMetrics` captures one round; :class:`AlgorithmMetrics` is the
ordered collection of rounds together with machine-level validation
(the algorithm "cannot be run on our model" if it exceeds ``G`` or ``M``).

The module also provides the **array-native** row of the same description:
:class:`RoundMetricsArrays` holds one round's metrics as NumPy columns over a
whole vector of input sizes, and
:meth:`repro.core.batch.MetricsBatch.from_rounds` stacks an algorithm's rows
into the packed sweep form — the Section IV analyses are closed-form in
``n``, so an algorithm can describe an entire sweep at once instead of
constructing thousands of per-size :class:`RoundMetrics` objects (see
:meth:`repro.algorithms.base.GPUAlgorithm.metrics_batch`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.machine import ATGPUMachine
from repro.utils.validation import (
    ensure_non_negative,
    ensure_non_negative_int,
    ensure_positive_int,
)


@dataclass(frozen=True)
class RoundMetrics:
    """Metrics of a single ATGPU round.

    Parameters
    ----------
    time:
        ``t_i`` -- maximum number of operations executed by any MP.
    io_blocks:
        ``q_i`` -- total number of global-memory blocks accessed by all MPs.
    inward_words / outward_words:
        ``I_i`` / ``O_i`` -- words transferred host→device / device→host.
    inward_transactions / outward_transactions:
        ``Î_i`` / ``Ô_i`` -- number of distinct transfer transactions.  A
        transaction typically corresponds to one logical array (one
        ``cudaMemcpy`` in a concrete implementation).
    global_words:
        Words resident in global memory during the round.
    shared_words_per_mp:
        Maximum words of shared memory used by any single MP.
    thread_blocks:
        ``k_i`` -- number of thread blocks the kernel of this round launches.
        Used by the GPU-cost function (Expression 2) to compute the number of
        block waves ``⌈k_i / (k'·ℓ)⌉``.
    label:
        Optional human-readable round label (e.g. ``"reduction level 3"``).
    """

    time: float
    io_blocks: float
    inward_words: float = 0.0
    outward_words: float = 0.0
    inward_transactions: int = 0
    outward_transactions: int = 0
    global_words: float = 0.0
    shared_words_per_mp: float = 0.0
    thread_blocks: int = 1
    label: Optional[str] = None

    def __post_init__(self) -> None:
        ensure_non_negative(self.time, "time")
        ensure_non_negative(self.io_blocks, "io_blocks")
        ensure_non_negative(self.inward_words, "inward_words")
        ensure_non_negative(self.outward_words, "outward_words")
        ensure_non_negative_int(self.inward_transactions, "inward_transactions")
        ensure_non_negative_int(self.outward_transactions, "outward_transactions")
        ensure_non_negative(self.global_words, "global_words")
        ensure_non_negative(self.shared_words_per_mp, "shared_words_per_mp")
        ensure_positive_int(self.thread_blocks, "thread_blocks")
        if self.inward_transactions == 0 and self.inward_words > 0:
            raise ValueError(
                "inward_words > 0 requires at least one inward transaction"
            )
        if self.outward_transactions == 0 and self.outward_words > 0:
            raise ValueError(
                "outward_words > 0 requires at least one outward transaction"
            )

    @property
    def transfer_words(self) -> float:
        """Total words transferred in this round, ``I_i + O_i``."""
        return self.inward_words + self.outward_words

    @property
    def transfer_transactions(self) -> int:
        """Total transfer transactions in this round, ``Î_i + Ô_i``."""
        return self.inward_transactions + self.outward_transactions

    def with_label(self, label: str) -> "RoundMetrics":
        """Return a copy of these metrics carrying ``label``."""
        return RoundMetrics(
            time=self.time,
            io_blocks=self.io_blocks,
            inward_words=self.inward_words,
            outward_words=self.outward_words,
            inward_transactions=self.inward_transactions,
            outward_transactions=self.outward_transactions,
            global_words=self.global_words,
            shared_words_per_mp=self.shared_words_per_mp,
            thread_blocks=self.thread_blocks,
            label=label,
        )


class AlgorithmMetrics:
    """Ordered collection of :class:`RoundMetrics` for a whole algorithm.

    Exposes the aggregate quantities of Section III: the number of rounds
    ``R``, the total transfer volume ``Σ (I_i + O_i)``, and the maxima of the
    space metrics, plus a :meth:`validate_against` check implementing the
    paper's rule that an algorithm exceeding ``G`` or ``M`` cannot run on the
    model instance.
    """

    def __init__(self, rounds: Iterable[RoundMetrics], name: str = "") -> None:
        self._rounds: List[RoundMetrics] = list(rounds)
        if not self._rounds:
            raise ValueError("an algorithm must have at least one round")
        self.name = name

    # ------------------------------------------------------------------ #
    # Container protocol
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._rounds)

    def __iter__(self) -> Iterator[RoundMetrics]:
        return iter(self._rounds)

    def __getitem__(self, index: int) -> RoundMetrics:
        return self._rounds[index]

    @property
    def rounds(self) -> Sequence[RoundMetrics]:
        """The per-round metrics, in execution order."""
        return tuple(self._rounds)

    # ------------------------------------------------------------------ #
    # Aggregate metrics (Section III)
    # ------------------------------------------------------------------ #
    @property
    def num_rounds(self) -> int:
        """``R`` -- the number of rounds."""
        return len(self._rounds)

    @property
    def total_time(self) -> float:
        """``Σ_i t_i`` -- total parallel operations across rounds."""
        return sum(r.time for r in self._rounds)

    @property
    def total_io_blocks(self) -> float:
        """``Σ_i q_i`` -- total global-memory blocks accessed."""
        return sum(r.io_blocks for r in self._rounds)

    @property
    def total_inward_words(self) -> float:
        """``Σ_i I_i`` -- total words transferred host → device."""
        return sum(r.inward_words for r in self._rounds)

    @property
    def total_outward_words(self) -> float:
        """``Σ_i O_i`` -- total words transferred device → host."""
        return sum(r.outward_words for r in self._rounds)

    @property
    def total_transfer_words(self) -> float:
        """``Σ_i (I_i + O_i)`` -- the paper's total data-transfer measure."""
        return self.total_inward_words + self.total_outward_words

    @property
    def total_transfer_transactions(self) -> int:
        """``Σ_i (Î_i + Ô_i)``."""
        return sum(r.transfer_transactions for r in self._rounds)

    @property
    def max_global_words(self) -> float:
        """Largest global-memory footprint over all rounds."""
        return max(r.global_words for r in self._rounds)

    @property
    def max_shared_words_per_mp(self) -> float:
        """Largest per-MP shared-memory footprint over all rounds."""
        return max(r.shared_words_per_mp for r in self._rounds)

    @property
    def max_thread_blocks(self) -> int:
        """Largest thread-block count launched by any round."""
        return max(r.thread_blocks for r in self._rounds)

    # ------------------------------------------------------------------ #
    # Validation
    # ------------------------------------------------------------------ #
    def validate_against(self, machine: ATGPUMachine) -> None:
        """Raise :class:`CapacityError` if the algorithm cannot run on ``machine``.

        Implements the two space rules of Section III: the global-memory
        footprint must not exceed ``G`` and the per-MP shared-memory footprint
        must not exceed ``M``.
        """
        if not machine.fits_in_global_memory(int(self.max_global_words)):
            raise CapacityError(
                f"algorithm {self.name or '<unnamed>'} uses "
                f"{self.max_global_words:.0f} words of global memory but the "
                f"machine only has G={machine.G}"
            )
        if not machine.fits_in_shared_memory(int(self.max_shared_words_per_mp)):
            raise CapacityError(
                f"algorithm {self.name or '<unnamed>'} uses "
                f"{self.max_shared_words_per_mp:.0f} words of shared memory per "
                f"MP but the machine only has M={machine.M}"
            )

    def runs_on(self, machine: ATGPUMachine) -> bool:
        """Return ``True`` when :meth:`validate_against` would not raise."""
        try:
            self.validate_against(machine)
        except CapacityError:
            return False
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"AlgorithmMetrics(name={self.name!r}, rounds={self.num_rounds}, "
            f"time={self.total_time}, io={self.total_io_blocks}, "
            f"transfer_words={self.total_transfer_words})"
        )


class CapacityError(RuntimeError):
    """Raised when an algorithm exceeds the machine's ``G`` or ``M`` limits."""


# --------------------------------------------------------------------- #
# Array-native metrics (whole-sweep description)
# --------------------------------------------------------------------- #
#: Largest input size a sweep may name: sizes become int64 columns.
MAX_SIZE = int(np.iinfo(np.int64).max)


def validate_sizes(ns: Sequence[int], name: str = "n") -> Tuple[int, ...]:
    """Validate a sweep's input sizes and return them as a tuple of ints.

    Every sweep boundary (``ExperimentSpec``, ``MetricsBatch.compile``, the
    batched simulator and, through :func:`size_vector`, the array-native
    metrics factories) routes its sizes through this, so each size follows
    ``ensure_positive_int``: NumPy integers pass as ``int``; floats,
    strings and bools raise :class:`TypeError`; non-positive sizes and
    sizes above :data:`MAX_SIZE` raise :class:`ValueError`, as does an
    empty sweep.  A sweep of in-range exact ``int`` values is returned as
    is, without per-size calls.
    """
    sizes = tuple(ns)
    if not sizes:
        raise ValueError("a sweep needs at least one input size")
    if not all(type(n) is int and 0 < n <= MAX_SIZE for n in sizes):
        sizes = tuple(ensure_positive_int(n, name) for n in sizes)
        for n in sizes:
            if n > MAX_SIZE:
                raise ValueError(
                    f"{name} must fit in int64 (at most {MAX_SIZE}), got {n}"
                )
    return sizes


def size_vector(ns: Sequence[int], name: str = "n") -> np.ndarray:
    """Validate a sweep's input sizes (:func:`validate_sizes`) and return
    them as an int64 column."""
    return np.asarray(validate_sizes(ns, name), dtype=np.int64)


def _as_column(value, n_sizes: int, name: str, dtype) -> np.ndarray:
    """Broadcast a scalar or per-size sequence to a ``(n_sizes,)`` column."""
    column = np.asarray(value, dtype=dtype)
    if column.ndim == 0:
        column = np.full(n_sizes, column, dtype=dtype)
    if column.shape != (n_sizes,):
        raise ValueError(
            f"{name} must be a scalar or a ({n_sizes},) column; got shape "
            f"{column.shape}"
        )
    return column


@dataclass(frozen=True)
class RoundMetricsArrays:
    """One round's metrics as per-size NumPy columns over a size vector.

    The vector analogue of :class:`RoundMetrics`: every field holds one value
    per sweep point.  :attr:`present` marks the sizes for which the round
    exists at all — algorithms whose round count grows with ``n`` (the
    reduction's log tree) simply mark the deeper rounds absent for the small
    sizes.  Fields of absent entries are ignored (they are neutralised when
    :meth:`~repro.core.batch.MetricsBatch.from_rounds` stacks the rows), so
    factories may leave whatever their vectorized recurrence produced there.

    Build instances through :func:`round_arrays`, which broadcasts scalar
    values to full columns.
    """

    time: np.ndarray
    io_blocks: np.ndarray
    inward_words: np.ndarray
    outward_words: np.ndarray
    inward_transactions: np.ndarray
    outward_transactions: np.ndarray
    global_words: np.ndarray
    shared_words_per_mp: np.ndarray
    thread_blocks: np.ndarray
    present: np.ndarray
    label: Optional[str] = None

    #: Columns that must be non-negative wherever the round is present.
    _NON_NEGATIVE = (
        "time", "io_blocks", "inward_words", "outward_words",
        "inward_transactions", "outward_transactions", "global_words",
        "shared_words_per_mp",
    )

    def __post_init__(self) -> None:
        # One fused check keeps the happy path cheap (a factory builds many
        # tiny rounds); the precise per-field error is produced lazily.
        # Each test states the valid range (``x >= 0``), so NaN fails it.
        valid = (
            (self.time >= 0) & (self.io_blocks >= 0)
            & (self.inward_words >= 0) & (self.outward_words >= 0)
            & (self.inward_transactions >= 0) & (self.outward_transactions >= 0)
            & (self.global_words >= 0) & (self.shared_words_per_mp >= 0)
            & (self.thread_blocks >= 1)
        )
        problems = (
            ~valid
            | ((self.inward_transactions == 0) & (self.inward_words > 0))
            | ((self.outward_transactions == 0) & (self.outward_words > 0))
        )
        if (problems & self.present).any():
            self._raise_invalid()

    def _raise_invalid(self) -> None:
        p = self.present
        for name in self._NON_NEGATIVE:
            if (~(getattr(self, name) >= 0) & p).any():
                raise ValueError(f"{name} must be >= 0 wherever present")
        if (~(self.thread_blocks >= 1) & p).any():
            raise ValueError("thread_blocks must be >= 1 wherever present")
        if (p & (self.inward_transactions == 0) & (self.inward_words > 0)).any():
            raise ValueError(
                "inward_words > 0 requires at least one inward transaction"
            )
        raise ValueError(
            "outward_words > 0 requires at least one outward transaction"
        )

    @property
    def num_sizes(self) -> int:
        """Number of sweep points covered by the columns."""
        return int(self.present.shape[0])


def round_arrays(
    n_sizes: int,
    *,
    time,
    io_blocks,
    inward_words=0.0,
    outward_words=0.0,
    inward_transactions=0,
    outward_transactions=0,
    global_words=0.0,
    shared_words_per_mp=0.0,
    thread_blocks=1,
    present=True,
    label: Optional[str] = None,
) -> RoundMetricsArrays:
    """Build a :class:`RoundMetricsArrays`, broadcasting scalars to columns.

    Every argument may be a scalar (one value for the whole sweep) or a
    ``(n_sizes,)`` sequence.  ``present`` defaults to the round existing at
    every size.
    """
    ensure_positive_int(n_sizes, "n_sizes")
    return RoundMetricsArrays(
        time=_as_column(time, n_sizes, "time", float),
        io_blocks=_as_column(io_blocks, n_sizes, "io_blocks", float),
        inward_words=_as_column(inward_words, n_sizes, "inward_words", float),
        outward_words=_as_column(outward_words, n_sizes, "outward_words", float),
        inward_transactions=_as_column(
            inward_transactions, n_sizes, "inward_transactions", np.int64
        ),
        outward_transactions=_as_column(
            outward_transactions, n_sizes, "outward_transactions", np.int64
        ),
        global_words=_as_column(global_words, n_sizes, "global_words", float),
        shared_words_per_mp=_as_column(
            shared_words_per_mp, n_sizes, "shared_words_per_mp", float
        ),
        thread_blocks=_as_column(thread_blocks, n_sizes, "thread_blocks", np.int64),
        present=_as_column(present, n_sizes, "present", bool),
        label=label,
    )


@dataclass
class MetricsBuilder:
    """Incremental builder used by the pseudocode analyzer.

    The static analyzer walks a pseudocode program and accumulates counts
    into one builder per round; :meth:`build` then freezes the result into a
    :class:`RoundMetrics`.
    """

    time: float = 0.0
    io_blocks: float = 0.0
    inward_words: float = 0.0
    outward_words: float = 0.0
    inward_transactions: int = 0
    outward_transactions: int = 0
    global_words: float = 0.0
    shared_words_per_mp: float = 0.0
    thread_blocks: int = 1
    label: Optional[str] = None
    _shared_current: float = field(default=0.0, repr=False)

    def add_operations(self, count: float) -> None:
        """Add ``count`` lockstep operations to the round time ``t_i``."""
        ensure_non_negative(count, "count")
        self.time += count

    def add_io(self, blocks: float) -> None:
        """Record ``blocks`` global-memory block transactions."""
        ensure_non_negative(blocks, "blocks")
        self.io_blocks += blocks

    def add_inward(self, words: float, transactions: int = 1) -> None:
        """Record an inward (host → device) transfer."""
        ensure_non_negative(words, "words")
        ensure_non_negative_int(transactions, "transactions")
        self.inward_words += words
        self.inward_transactions += transactions

    def add_outward(self, words: float, transactions: int = 1) -> None:
        """Record an outward (device → host) transfer."""
        ensure_non_negative(words, "words")
        ensure_non_negative_int(transactions, "transactions")
        self.outward_words += words
        self.outward_transactions += transactions

    def use_global(self, words: float) -> None:
        """Record that ``words`` words are resident in global memory."""
        ensure_non_negative(words, "words")
        self.global_words = max(self.global_words, words)

    def use_shared(self, words: float) -> None:
        """Record a per-MP shared-memory footprint of ``words`` words."""
        ensure_non_negative(words, "words")
        self.shared_words_per_mp = max(self.shared_words_per_mp, words)

    def set_thread_blocks(self, blocks: int) -> None:
        """Set ``k_i``, the number of thread blocks launched in the round."""
        ensure_positive_int(blocks, "blocks")
        self.thread_blocks = blocks

    def build(self) -> RoundMetrics:
        """Freeze the accumulated counts into a :class:`RoundMetrics`."""
        return RoundMetrics(
            time=self.time,
            io_blocks=self.io_blocks,
            inward_words=self.inward_words,
            outward_words=self.outward_words,
            inward_transactions=self.inward_transactions,
            outward_transactions=self.outward_transactions,
            global_words=self.global_words,
            shared_words_per_mp=self.shared_words_per_mp,
            thread_blocks=self.thread_blocks,
            label=self.label,
        )
