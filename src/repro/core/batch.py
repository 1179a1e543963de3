"""Vectorized batch evaluation of the cost models over whole sweeps.

The ATGPU cost functions (Expressions 1 and 2 of the paper) are closed-form
sums over per-round metrics, so evaluating a *sweep* of input sizes does not
need a Python loop per size: the per-round metrics of every size pack into
``rounds × sizes`` NumPy arrays once, and each cost-model family evaluates
the whole sweep as one array program.

:class:`MetricsBatch` is that packed form — built once per
algorithm/sweep by the algorithm's array-native ``metrics_batch`` factory
(or packed from a list of pre-built
:class:`~repro.core.metrics.AlgorithmMetrics`) — and the module-level
evaluators mirror the scalar models exactly:

==============================  ==========================================
:func:`perfect_cost_batch`       Expression (1), no occupancy term
:func:`gpu_cost_batch`           Expression (2) with the occupancy ceiling
:func:`swgpu_cost_batch`         Expression (2) with ``α = β = 0``
:func:`agpu_time_batch`          the AGPU unit-less device-step view
:func:`overlapped_cost_batch`    per-round compute/copy overlap
                                 (``atgpu-async``)
:func:`sharded_cost_batch`       multi-device straggler cost
                                 (``atgpu-multi``)
==============================  ==========================================

Parity with the scalar path is bit-for-bit, not merely approximate: every
per-round component is computed with the same expressions in the same
operand order as the scalar models, and the reduction over rounds
(:func:`_column_sum`) adds rows in execution order exactly as the scalar
``CostBreakdown`` accumulation does, so no floating-point reassociation can
creep in.  ``tests/test_batch.py`` enforces this for every built-in backend
family.

Algorithms whose round count varies with the input size (e.g. the
reduction's ``log`` levels) produce ragged per-size round lists; the batch
pads the short columns with neutral rounds (zero time, zero words, one
thread block) and masks the per-round synchronisation ``σ`` so padding
contributes exactly ``0.0`` to every sum.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.cost import CostParameters
from repro.core.machine import ATGPUMachine
from repro.core.metrics import (
    AlgorithmMetrics,
    CapacityError,
    RoundMetrics,
    RoundMetricsArrays,
    validate_sizes,
)
from repro.core.occupancy import (
    OccupancyModel,
    blocks_per_multiprocessor_grid,
    wave_count_grid,
)
from repro.core.topology import contended_streaming
from repro.utils.numerics import ceil_div
from repro.utils.validation import ensure_in_range, ensure_positive_int

#: Signature of a per-size metrics factory (same as ``predict_sweep`` uses).
BatchMetricsFactory = Callable[[int], AlgorithmMetrics]

#: Signature of a whole-sweep (array-native) metrics factory.
SweepMetricsFactory = Callable[[Sequence[int]], "MetricsBatch"]


def _column_sum(rows: np.ndarray) -> np.ndarray:
    """Sum a ``(rounds, sizes)`` grid over rounds **in round order**.

    The scalar models accumulate ``CostBreakdown`` components round by round
    starting from ``0.0``; adding the rows sequentially reproduces that exact
    floating-point addition order, which a blocked/pairwise ``np.sum`` would
    not guarantee.  Round counts are small (tens), so this costs nothing.
    """
    total = np.zeros(rows.shape[1], dtype=float)
    for row in rows:
        total = total + row
    return total


@dataclass(frozen=True)
class MetricsBatch:
    """Per-round metrics of a whole sweep, packed as ``(rounds, sizes)`` arrays.

    The one array form of a sweep's metrics.  Every built-in
    ``metrics_batch`` factory ends in :meth:`from_rounds`, which stacks its
    :class:`~repro.core.metrics.RoundMetricsArrays` rows;
    :meth:`from_metrics` packs pre-built per-size metrics; :meth:`compile`
    runs either kind of factory over a size list.  :meth:`metrics_at`
    rebuilds one size's :class:`~repro.core.metrics.AlgorithmMetrics` for
    backends without a vectorized evaluator.

    All grids share the shape ``(max rounds, len(sizes))``; columns shorter
    than the deepest size are padded with neutral rounds (zero values, one
    thread block) and :attr:`mask` (``1.0`` for real rounds, ``0.0`` for
    padding) gates every per-round constant term (the synchronisation ``σ``).
    """

    algorithm: str
    sizes: Tuple[int, ...]
    round_counts: np.ndarray
    mask: np.ndarray
    time: np.ndarray
    io_blocks: np.ndarray
    inward_words: np.ndarray
    outward_words: np.ndarray
    inward_transactions: np.ndarray
    outward_transactions: np.ndarray
    global_words: np.ndarray
    shared_words_per_mp: np.ndarray
    thread_blocks: np.ndarray
    max_global_words: np.ndarray
    max_shared_words: np.ndarray
    #: Each row's round label, for :meth:`metrics_at`.
    labels: Tuple[Optional[str], ...]

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_rounds(
        cls,
        sizes: Sequence[int],
        rounds: Iterable[RoundMetricsArrays],
        algorithm: str = "",
    ) -> "MetricsBatch":
        """Stack an algorithm's per-round rows into a batch.

        Row ``i``'s column ``j`` describes round ``i`` at sweep size
        ``sizes[j]``.  Presence masks must be *top-aligned* — a round
        present at some size requires every earlier round present there
        too — and every size needs at least one round.  Absent cells are
        neutralised: zero values, one thread block, mask ``0``.
        """
        sizes = tuple(int(n) for n in sizes)
        if not sizes:
            raise ValueError("a metrics batch needs at least one input size")
        rows = tuple(rounds)
        if not rows:
            raise ValueError("an algorithm must have at least one round")
        for index, row in enumerate(rows):
            if row.num_sizes != len(sizes):
                raise ValueError(
                    f"round {index} covers {row.num_sizes} sizes "
                    f"but the batch has {len(sizes)}"
                )
        present = np.stack([row.present for row in rows])
        orphaned = present[1:] & ~present[:-1]
        if orphaned.any():
            index = int(np.argmax(orphaned.any(axis=1))) + 1
            raise ValueError(
                f"round {index} is present at a size where round "
                f"{index - 1} is absent; presence masks must be top-aligned"
            )
        if not present[0].all():
            at = int(np.argmax(~present[0]))
            raise ValueError(
                f"size {sizes[at]} has no rounds; every size needs at "
                "least one"
            )
        padded = not present.all()

        def stack(name: str, fill: float = 0.0) -> np.ndarray:
            values = np.stack([getattr(row, name) for row in rows])
            values = values.astype(float, copy=False)
            return np.where(present, values, fill) if padded else values

        global_words = stack("global_words")
        shared_words = stack("shared_words_per_mp")
        return cls(
            algorithm=algorithm,
            sizes=sizes,
            round_counts=present.sum(axis=0),
            mask=present.astype(float),
            time=stack("time"),
            io_blocks=stack("io_blocks"),
            inward_words=stack("inward_words"),
            outward_words=stack("outward_words"),
            inward_transactions=stack("inward_transactions"),
            outward_transactions=stack("outward_transactions"),
            global_words=global_words,
            shared_words_per_mp=shared_words,
            # Padded rounds keep one thread block so the wave count stays
            # well-defined; their zero time makes the product vanish anyway.
            thread_blocks=stack("thread_blocks", fill=1.0),
            max_global_words=global_words.max(axis=0),
            max_shared_words=shared_words.max(axis=0),
            labels=tuple(row.label for row in rows),
        )

    @classmethod
    def from_metrics(
        cls,
        sizes: Sequence[int],
        metrics_list: Sequence[AlgorithmMetrics],
        algorithm: str = "",
    ) -> "MetricsBatch":
        """Pack pre-built per-size metrics into a batch.

        Each round level becomes one row with one array build per field
        rather than a per-cell Python loop of NumPy scalar assignments;
        sizes with fewer rounds are absent from the deeper rows.  The name
        defaults to the first named metrics in the list.
        """
        if len(sizes) == 0:
            raise ValueError("a metrics batch needs at least one input size")
        if len(sizes) != len(metrics_list):
            raise ValueError(
                f"got {len(sizes)} sizes but {len(metrics_list)} metrics"
            )
        if not algorithm:
            algorithm = next((m.name for m in metrics_list if m.name), "")
        depth = max(len(m) for m in metrics_list)
        rounds: List[RoundMetricsArrays] = []
        for level in range(depth):
            at_level = [m[level] if level < len(m) else None for m in metrics_list]
            label = next(
                (r.label for r in at_level if r is not None and r.label), None
            )
            rounds.append(RoundMetricsArrays(
                time=np.array(
                    [r.time if r else 0.0 for r in at_level], dtype=float
                ),
                io_blocks=np.array(
                    [r.io_blocks if r else 0.0 for r in at_level], dtype=float
                ),
                inward_words=np.array(
                    [r.inward_words if r else 0.0 for r in at_level], dtype=float
                ),
                outward_words=np.array(
                    [r.outward_words if r else 0.0 for r in at_level],
                    dtype=float,
                ),
                inward_transactions=np.array(
                    [r.inward_transactions if r else 0 for r in at_level],
                    dtype=np.int64,
                ),
                outward_transactions=np.array(
                    [r.outward_transactions if r else 0 for r in at_level],
                    dtype=np.int64,
                ),
                global_words=np.array(
                    [r.global_words if r else 0.0 for r in at_level],
                    dtype=float,
                ),
                shared_words_per_mp=np.array(
                    [r.shared_words_per_mp if r else 0.0 for r in at_level],
                    dtype=float,
                ),
                thread_blocks=np.array(
                    [r.thread_blocks if r else 1 for r in at_level],
                    dtype=np.int64,
                ),
                present=np.array(
                    [r is not None for r in at_level], dtype=bool
                ),
                label=label,
            ))
        return cls.from_rounds(sizes, rounds, algorithm=algorithm)

    @classmethod
    def compile(
        cls,
        algorithm: str,
        sizes: Sequence[int],
        metrics_factory: Optional[BatchMetricsFactory] = None,
        grid_factory: Optional[SweepMetricsFactory] = None,
    ) -> "MetricsBatch":
        """Build the batch from a metrics factory.

        ``grid_factory`` is the array-native path: it receives the whole size
        list at once and returns the batch itself (an algorithm's
        ``metrics_batch``), without constructing any per-size
        :class:`~repro.core.metrics.RoundMetrics` objects.
        ``metrics_factory`` is the scalar path, invoked once per size.
        Exactly one must be given.
        """
        sizes = list(validate_sizes(sizes))
        if grid_factory is not None:
            if metrics_factory is not None:
                raise ValueError(
                    "pass either metrics_factory or grid_factory, not both"
                )
            batch = grid_factory(sizes)
            if batch.sizes != tuple(sizes):
                raise ValueError(
                    "grid_factory returned a batch over sizes "
                    f"{batch.sizes} but the compile asked for {tuple(sizes)}"
                )
            if algorithm and batch.algorithm != algorithm:
                batch = replace(batch, algorithm=algorithm)
            return batch
        if metrics_factory is None:
            raise ValueError("compile needs a metrics_factory or grid_factory")
        return cls.from_metrics(
            sizes, [metrics_factory(n) for n in sizes], algorithm=algorithm
        )

    # ------------------------------------------------------------------ #
    # Views
    # ------------------------------------------------------------------ #
    @property
    def num_sizes(self) -> int:
        """Number of sweep points (columns)."""
        return len(self.sizes)

    @property
    def depth(self) -> int:
        """Largest per-size round count (rows, including padding)."""
        return int(self.time.shape[0])

    def metrics_at(self, index: int) -> AlgorithmMetrics:
        """The scalar :class:`~repro.core.metrics.AlgorithmMetrics` of one
        sweep point, rebuilt from its column's real (unpadded) rounds."""
        return AlgorithmMetrics(
            [
                RoundMetrics(
                    time=float(self.time[row, index]),
                    io_blocks=float(self.io_blocks[row, index]),
                    inward_words=float(self.inward_words[row, index]),
                    outward_words=float(self.outward_words[row, index]),
                    inward_transactions=int(
                        self.inward_transactions[row, index]
                    ),
                    outward_transactions=int(
                        self.outward_transactions[row, index]
                    ),
                    global_words=float(self.global_words[row, index]),
                    shared_words_per_mp=float(
                        self.shared_words_per_mp[row, index]
                    ),
                    thread_blocks=int(self.thread_blocks[row, index]),
                    label=self.labels[row],
                )
                for row in range(int(self.round_counts[index]))
            ],
            name=self.algorithm,
        )

    def select(self, indices: Sequence[int]) -> "MetricsBatch":
        """A sub-batch restricted to the given size columns, in order.

        This is how a shared batch compiled over the union of several
        sweeps serves each individual sweep without re-packing.  Every row
        is kept, so a selection may carry rows that are padding in all of
        its columns.
        """
        idx = list(indices)
        if not idx:
            raise ValueError("a metrics batch needs at least one input size")
        cols = np.asarray(idx, dtype=int)
        return MetricsBatch(
            algorithm=self.algorithm,
            sizes=tuple(self.sizes[i] for i in idx),
            round_counts=self.round_counts[cols],
            mask=self.mask[:, cols],
            time=self.time[:, cols],
            io_blocks=self.io_blocks[:, cols],
            inward_words=self.inward_words[:, cols],
            outward_words=self.outward_words[:, cols],
            inward_transactions=self.inward_transactions[:, cols],
            outward_transactions=self.outward_transactions[:, cols],
            global_words=self.global_words[:, cols],
            shared_words_per_mp=self.shared_words_per_mp[:, cols],
            thread_blocks=self.thread_blocks[:, cols],
            max_global_words=self.max_global_words[cols],
            max_shared_words=self.max_shared_words[cols],
            labels=self.labels,
        )

    # ------------------------------------------------------------------ #
    # Validation
    # ------------------------------------------------------------------ #
    def validate_against(self, machine: ATGPUMachine) -> None:
        """Vectorized form of ``AlgorithmMetrics.validate_against``.

        Raises :class:`~repro.core.metrics.CapacityError` naming the first
        offending size when any sweep point exceeds ``G`` or ``M``.
        """
        over_global = np.floor(self.max_global_words) > machine.G
        if np.any(over_global):
            at = int(np.argmax(over_global))
            raise CapacityError(
                f"algorithm {self.algorithm or '<unnamed>'} uses "
                f"{self.max_global_words[at]:.0f} words of global memory at "
                f"size {self.sizes[at]} but the machine only has "
                f"G={machine.G}"
            )
        over_shared = np.floor(self.max_shared_words) > machine.M
        if np.any(over_shared):
            at = int(np.argmax(over_shared))
            raise CapacityError(
                f"algorithm {self.algorithm or '<unnamed>'} uses "
                f"{self.max_shared_words[at]:.0f} words of shared memory per "
                f"MP at size {self.sizes[at]} but the machine only has "
                f"M={machine.M}"
            )

    def runs_on(self, machine: ATGPUMachine) -> bool:
        """``True`` when :meth:`validate_against` would not raise."""
        try:
            self.validate_against(machine)
        except CapacityError:
            return False
        return True


@dataclass(frozen=True)
class BatchBreakdown:
    """Per-size itemised cost arrays (the vector analogue of ``CostBreakdown``).

    Every attribute is one value per sweep point; the derived views combine
    them in the same operand order as the scalar
    :class:`~repro.core.cost.CostBreakdown` so totals match bit for bit.
    """

    inward_transfer: np.ndarray
    outward_transfer: np.ndarray
    compute: np.ndarray
    io: np.ndarray
    synchronisation: np.ndarray

    @property
    def transfer(self) -> np.ndarray:
        """Total transfer component per size."""
        return self.inward_transfer + self.outward_transfer

    @property
    def kernel(self) -> np.ndarray:
        """Kernel-side component per size (compute + I/O + synchronisation)."""
        return self.compute + self.io + self.synchronisation

    @property
    def total(self) -> np.ndarray:
        """Full cost per size."""
        return self.transfer + self.kernel

    @property
    def transfer_proportion(self) -> np.ndarray:
        """``ΔT`` per size (``0.0`` where the total cost is zero)."""
        total = self.total
        transfer = self.transfer
        out = np.zeros_like(total)
        nz = total != 0
        np.divide(transfer, total, out=out, where=nz)
        return out


def _waves(
    batch: MetricsBatch,
    machine: ATGPUMachine,
    occupancy: OccupancyModel,
    thread_blocks: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Wave grid of the batch under an occupancy model."""
    ell = blocks_per_multiprocessor_grid(
        machine.M, batch.shared_words_per_mp, occupancy.hardware_block_limit
    )
    blocks = batch.thread_blocks if thread_blocks is None else thread_blocks
    return wave_count_grid(blocks, occupancy.physical_mps, ell)


# --------------------------------------------------------------------- #
# Serial cost families (Expressions 1 and 2, SWGPU, AGPU)
# --------------------------------------------------------------------- #
def batch_breakdown(
    batch: MetricsBatch,
    machine: ATGPUMachine,
    parameters: CostParameters,
    occupancy: Optional[OccupancyModel] = None,
    use_occupancy: bool = False,
    validate: bool = True,
) -> BatchBreakdown:
    """Itemised per-size cost of the whole batch (vector ``ATGPUCostModel``).

    With ``use_occupancy=False`` this is Expression (1); with
    ``use_occupancy=True`` each round's time scales by its wave count as in
    Expression (2).
    """
    if validate:
        batch.validate_against(machine)
    time = batch.time
    if use_occupancy:
        if occupancy is None:
            raise ValueError(
                "GPU-cost (Expression 2) requires an OccupancyModel; "
                "pass one to the batch evaluator"
            )
        time = _waves(batch, machine, occupancy) * batch.time
    params = parameters
    inward = batch.inward_transactions * params.alpha \
        + batch.inward_words * params.beta
    outward = batch.outward_transactions * params.alpha \
        + batch.outward_words * params.beta
    compute = time / params.gamma
    io = params.lam * batch.io_blocks / params.gamma
    sync = params.sigma * batch.mask
    return BatchBreakdown(
        inward_transfer=_column_sum(inward),
        outward_transfer=_column_sum(outward),
        compute=_column_sum(compute),
        io=_column_sum(io),
        synchronisation=_column_sum(sync),
    )


def perfect_cost_batch(
    batch: MetricsBatch,
    machine: ATGPUMachine,
    parameters: CostParameters,
    occupancy: Optional[OccupancyModel] = None,
) -> np.ndarray:
    """Expression (1) per size (the ``perfect`` backend, vectorized)."""
    return batch_breakdown(
        batch, machine, parameters, occupancy, use_occupancy=False
    ).total


def gpu_cost_batch(
    batch: MetricsBatch,
    machine: ATGPUMachine,
    parameters: CostParameters,
    occupancy: Optional[OccupancyModel] = None,
) -> np.ndarray:
    """Expression (2) per size (the ``atgpu`` backend, vectorized)."""
    return batch_breakdown(
        batch, machine, parameters, occupancy, use_occupancy=True
    ).total


def swgpu_cost_batch(
    batch: MetricsBatch,
    machine: ATGPUMachine,
    parameters: CostParameters,
    occupancy: Optional[OccupancyModel] = None,
) -> np.ndarray:
    """The SWGPU comparison cost per size (``α = β = 0``), vectorized."""
    return batch_breakdown(
        batch, machine, parameters.without_transfer(), occupancy,
        use_occupancy=True,
    ).total


def agpu_time_batch(
    batch: MetricsBatch,
    machine: ATGPUMachine,
    parameters: CostParameters,
    occupancy: Optional[OccupancyModel] = None,
) -> np.ndarray:
    """The AGPU unit-less device-step view per size (``Σ_i t_i``)."""
    return _column_sum(batch.time)


# --------------------------------------------------------------------- #
# Overlapped (async-stream) cost
# --------------------------------------------------------------------- #
def overlapped_cost_batch(
    batch: MetricsBatch,
    machine: ATGPUMachine,
    parameters: CostParameters,
    occupancy: Optional[OccupancyModel],
    chunks: int = 2,
) -> np.ndarray:
    """Vector form of :func:`repro.core.backends.overlapped_cost`.

    Per round: the kernel-side cost keeps the serial model, transfers may
    split into ``chunks`` pieces and pipeline against the kernel, and the
    round is charged the cheaper of its serial and pipelined costs (plus
    ``σ``), exactly as the scalar ``atgpu-async`` backend does.
    """
    ensure_positive_int(chunks, "chunks")
    if occupancy is None:
        raise ValueError(
            "GPU-cost (Expression 2) requires an OccupancyModel; "
            "pass one to the batch evaluator"
        )
    batch.validate_against(machine)
    params = parameters
    waves = _waves(batch, machine, occupancy)
    compute = waves * batch.time / params.gamma
    io = params.lam * batch.io_blocks / params.gamma
    kernel = compute + io
    inward = batch.inward_transactions * params.alpha \
        + batch.inward_words * params.beta
    outward = batch.outward_transactions * params.alpha \
        + batch.outward_words * params.beta
    # Chunked stage totals: every transaction splits into ``chunks``
    # sub-transactions, paying the per-transaction ``α`` each time.
    chunked_in = (chunks * batch.inward_transactions) * params.alpha \
        + batch.inward_words * params.beta
    chunked_out = (chunks * batch.outward_transactions) * params.alpha \
        + batch.outward_words * params.beta
    stage_total = chunked_in + kernel + chunked_out
    bottleneck = np.maximum(np.maximum(chunked_in, kernel), chunked_out)
    pipelined = stage_total / chunks + (chunks - 1) * bottleneck / chunks
    serial = (inward + outward) + kernel
    # Padded rounds have zero stages, so their min() is exactly 0.0; only
    # the constant ``σ`` needs masking.
    per_round = np.minimum(pipelined, serial) + params.sigma * batch.mask
    return _column_sum(per_round)


# --------------------------------------------------------------------- #
# Sharded (multi-device) cost
# --------------------------------------------------------------------- #
def _straggler_shard_grid(words: np.ndarray, devices: int) -> np.ndarray:
    """Words on the most-loaded of ``P`` equal devices, elementwise.

    Whole-word counts split near-evenly (the first shards carry the
    extra word), so the straggler holds ``⌈words / P⌉``; non-integral
    word counts (continuous analyses) split exactly evenly.
    """
    whole = words == np.floor(words)
    return np.where(whole, ceil_div(words, devices), words / devices)


def sharded_transfer_grid(
    words: np.ndarray,
    transactions: np.ndarray,
    parameters: CostParameters,
    devices: int,
    contention: float,
) -> np.ndarray:
    """Elementwise straggler link time on ``P`` devices sharing one link.

    ``T·α + (c·W + (1−c)·⌈W/P⌉)·β``; one device streams all ``W``
    words, exactly the serial Boyer cost.
    """
    if devices == 1:
        streaming = words
    else:
        shard = _straggler_shard_grid(words, devices)
        streaming = contended_streaming(words, shard, contention)
    return transactions * parameters.alpha + streaming * parameters.beta


def sharded_cost_batch(
    batch: MetricsBatch,
    machine: ATGPUMachine,
    parameters: CostParameters,
    occupancy: Optional[OccupancyModel],
    devices: int = 1,
    contention: float = 0.0,
) -> np.ndarray:
    """Uniform-fleet fast path of :func:`repro.core.sharding.topology_cost_batch`.

    Vector form of :func:`repro.core.sharding.topology_gpu_cost` on
    ``Topology.homogeneous(devices, contention)``: each round's words and
    thread blocks shard near-evenly over ``P`` devices and the round is
    charged the straggler device's transfer + kernel time plus one
    pool-wide ``σ``.  The straggler is device 0, which holds the ceiling
    shards, so only its components are priced.
    """
    ensure_positive_int(devices, "devices")
    ensure_in_range(contention, "contention", 0.0, 1.0)
    if occupancy is None:
        raise ValueError(
            "sharded GPU-cost requires an OccupancyModel (the per-device "
            "wave count of Expression 2)"
        )
    batch.validate_against(machine)
    params = parameters
    straggler = ceil_div(batch.thread_blocks, devices)
    waves = _waves(batch, machine, occupancy, thread_blocks=straggler)
    compute = waves * batch.time / params.gamma
    io_share = straggler / batch.thread_blocks
    io = params.lam * batch.io_blocks * io_share / params.gamma
    inward = sharded_transfer_grid(
        batch.inward_words, batch.inward_transactions, params,
        devices, contention,
    )
    outward = sharded_transfer_grid(
        batch.outward_words, batch.outward_transactions, params,
        devices, contention,
    )
    # Padded rounds contribute exact zeros to every component (zero words,
    # transactions, time and I/O); only the constant ``σ`` needs masking.
    sync = params.sigma * batch.mask
    breakdown = BatchBreakdown(
        inward_transfer=_column_sum(inward),
        outward_transfer=_column_sum(outward),
        compute=_column_sum(compute),
        io=_column_sum(io),
        synchronisation=_column_sum(sync),
    )
    return breakdown.total
