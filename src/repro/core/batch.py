"""Vectorized batch evaluation of the cost models over whole sweeps.

The ATGPU cost functions (Expressions 1 and 2 of the paper) are closed-form
sums over per-round metrics, so evaluating a *sweep* of input sizes does not
need a Python loop per size: the per-round metrics of every size pack into
``rounds × sizes`` NumPy arrays once, and each cost-model family evaluates
the whole sweep as one array program.

:class:`MetricsBatch` is that packed form — compiled once per
algorithm/sweep from a metrics factory (or a list of pre-built
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

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.cost import CostParameters
from repro.core.machine import ATGPUMachine
from repro.core.metrics import (
    AlgorithmMetrics,
    CapacityError,
    MetricsGrid,
    validate_sizes,
)
from repro.core.occupancy import OccupancyModel
from repro.core.topology import contended_streaming
from repro.utils.numerics import ceil_div
from repro.utils.validation import ensure_in_range, ensure_positive_int

#: Signature of a per-size metrics factory (same as ``predict_sweep`` uses).
BatchMetricsFactory = Callable[[int], AlgorithmMetrics]

#: Signature of a whole-sweep (array-native) metrics factory.
GridMetricsFactory = Callable[[Sequence[int]], MetricsGrid]


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

    Compile once per algorithm/sweep via :meth:`compile` (from a metrics
    factory) or :meth:`from_metrics` (from pre-built metrics).  The original
    :class:`~repro.core.metrics.AlgorithmMetrics` objects are retained in
    :attr:`metrics` so backends without a vectorized implementation can fall
    back to their scalar path on the very same data.

    All grids share the shape ``(max rounds, len(sizes))``; columns shorter
    than the deepest size are padded with neutral rounds and :attr:`mask`
    (``1.0`` for real rounds, ``0.0`` for padding) gates every per-round
    constant term (the synchronisation ``σ``).
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
    shared_words_per_mp: np.ndarray
    thread_blocks: np.ndarray
    max_global_words: np.ndarray
    max_shared_words: np.ndarray
    #: The per-size metrics the batch was packed from (scalar-fallback data).
    metrics: Tuple[AlgorithmMetrics, ...] = field(default=(), repr=False)
    #: The array-native grid the batch was packed from, when compiled through
    #: a vectorized factory; used to materialise scalar metrics on demand.
    grid: Optional[MetricsGrid] = field(default=None, repr=False, compare=False)

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_grid(
        cls,
        grid: MetricsGrid,
        algorithm: str = "",
        metrics: Tuple[AlgorithmMetrics, ...] = (),
    ) -> "MetricsBatch":
        """Pack an array-native :class:`~repro.core.metrics.MetricsGrid`.

        This is pure array work — each round's columns stack into one row of
        the ``(rounds, sizes)`` grids, absent entries neutralised (zero
        everything, one thread block) exactly as the scalar packing pads
        ragged columns.
        """
        present = np.stack([r.present for r in grid.rounds])
        mask = present.astype(float)

        def stack(name: str, fill: float = 0.0) -> np.ndarray:
            # masked_columns owns the absence semantics (shared with the
            # grid's aggregate properties); only the float dtype is local.
            columns = np.stack(grid.masked_columns(name, fill))
            return columns.astype(float, copy=False)

        return cls(
            algorithm=algorithm or grid.name,
            sizes=grid.sizes,
            round_counts=present.sum(axis=0),
            mask=mask,
            time=stack("time"),
            io_blocks=stack("io_blocks"),
            inward_words=stack("inward_words"),
            outward_words=stack("outward_words"),
            inward_transactions=stack("inward_transactions"),
            outward_transactions=stack("outward_transactions"),
            shared_words_per_mp=stack("shared_words_per_mp"),
            # Padded rounds keep one thread block so the wave count stays
            # well-defined; their zero time makes the product vanish anyway.
            thread_blocks=stack("thread_blocks", fill=1.0),
            max_global_words=grid.max_global_words,
            max_shared_words=grid.max_shared_words_per_mp,
            metrics=tuple(metrics),
            grid=grid,
        )

    @classmethod
    def from_metrics(
        cls,
        sizes: Sequence[int],
        metrics_list: Sequence[AlgorithmMetrics],
        algorithm: str = "",
    ) -> "MetricsBatch":
        """Pack pre-built per-size metrics into a batch.

        The metrics pack column-wise through
        :meth:`~repro.core.metrics.MetricsGrid.from_metrics` (one array build
        per field per round level) rather than a per-cell Python double loop,
        and the originals are retained in :attr:`metrics` for backends that
        need the scalar fallback.
        """
        if not sizes:
            raise ValueError("a metrics batch needs at least one input size")
        if len(sizes) != len(metrics_list):
            raise ValueError(
                f"got {len(sizes)} sizes but {len(metrics_list)} metrics"
            )
        grid = MetricsGrid.from_metrics(sizes, metrics_list, name=algorithm)
        return cls.from_grid(
            grid, algorithm=algorithm, metrics=tuple(metrics_list)
        )

    @classmethod
    def compile(
        cls,
        algorithm: str,
        sizes: Sequence[int],
        metrics_factory: Optional[BatchMetricsFactory] = None,
        grid_factory: Optional[GridMetricsFactory] = None,
    ) -> "MetricsBatch":
        """Build the batch from a metrics factory.

        ``grid_factory`` is the array-native path: it receives the whole size
        list at once and returns a :class:`~repro.core.metrics.MetricsGrid`,
        which packs without constructing any intermediate per-size
        :class:`~repro.core.metrics.RoundMetrics` objects.  ``metrics_factory``
        is the scalar path, invoked once per size.  Exactly one must be given.
        """
        sizes = list(validate_sizes(sizes))
        if grid_factory is not None:
            if metrics_factory is not None:
                raise ValueError(
                    "pass either metrics_factory or grid_factory, not both"
                )
            grid = grid_factory(sizes)
            if tuple(grid.sizes) != tuple(sizes):
                raise ValueError(
                    "grid_factory returned a grid over sizes "
                    f"{grid.sizes} but the batch asked for {tuple(sizes)}"
                )
            return cls.from_grid(grid, algorithm=algorithm)
        if metrics_factory is None:
            raise ValueError("compile needs a metrics_factory or grid_factory")
        return cls.from_metrics(
            sizes, [metrics_factory(n) for n in sizes], algorithm=algorithm
        )

    def materialized_metrics(self) -> Tuple[AlgorithmMetrics, ...]:
        """Per-size scalar metrics, building them from the grid if needed.

        Batches packed from scalar metrics return the retained originals;
        batches compiled through an array-native factory materialise
        equivalent :class:`~repro.core.metrics.AlgorithmMetrics` from the
        grid columns on demand (backends without a batch evaluator are the
        only consumer).  Returns ``()`` when neither source is available.
        """
        if self.metrics:
            return self.metrics
        if self.grid is not None:
            return tuple(
                self.grid.metrics_at(index)
                for index in range(self.grid.num_sizes)
            )
        return ()

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

    def columns_for(self, sizes: Sequence[int]) -> List[int]:
        """Column indices of the given size values, in request order.

        The coalescing machinery compiles one batch over the union of
        several requested sweeps and scatters per-request views back out;
        this maps a request's sizes to the union's columns (duplicate
        columns in :attr:`sizes` resolve to the first occurrence).  Raises
        :class:`KeyError` naming the first size the batch does not cover.
        """
        column = {n: j for j, n in reversed(list(enumerate(self.sizes)))}
        try:
            return [column[int(n)] for n in sizes]
        except KeyError as exc:
            raise KeyError(
                f"batch over sizes {self.sizes} has no column for size "
                f"{exc.args[0]}"
            ) from exc

    def select(self, indices: Sequence[int]) -> "MetricsBatch":
        """A sub-batch restricted to the given size columns, in order.

        This is how a shared batch compiled over the union of several
        sweeps serves each individual sweep without re-packing.
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
            shared_words_per_mp=self.shared_words_per_mp[:, cols],
            thread_blocks=self.thread_blocks[:, cols],
            max_global_words=self.max_global_words[cols],
            max_shared_words=self.max_shared_words[cols],
            metrics=tuple(self.metrics[i] for i in idx) if self.metrics else (),
            grid=self.grid.select(idx) if self.grid is not None else None,
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


# --------------------------------------------------------------------- #
# Vectorized occupancy
# --------------------------------------------------------------------- #
def blocks_per_mp_grid(
    shared_memory_capacity: int,
    shared_words: np.ndarray,
    hardware_block_limit: int,
) -> np.ndarray:
    """Elementwise ``ℓ = min(⌊M / m⌋, H)`` over a grid of per-round ``m``.

    Replicates :func:`repro.core.occupancy.blocks_per_multiprocessor`
    exactly, including the relative-epsilon snap for fractional ``m`` and
    the hard error when a block cannot fit at all.
    """
    ensure_positive_int(shared_memory_capacity, "shared_memory_capacity")
    ensure_positive_int(hardware_block_limit, "hardware_block_limit")
    m = np.asarray(shared_words, dtype=float)
    out = np.full(m.shape, float(hardware_block_limit))
    uses_shared = m > 0
    if not np.any(uses_shared):
        return out
    ratio = np.divide(
        float(shared_memory_capacity), m, out=np.ones_like(m), where=uses_shared
    )
    nearest = np.round(ratio)
    snap = (nearest > 0) & (np.abs(ratio - nearest) <= 1e-9 * nearest)
    by_memory = np.where(snap, nearest, np.floor(ratio))
    impossible = uses_shared & (by_memory == 0)
    if np.any(impossible):
        at = np.argwhere(impossible)[0]
        raise ValueError(
            f"a thread block needs {m[tuple(at)]} shared words but the "
            f"MP only has {shared_memory_capacity}: the kernel cannot run"
        )
    out[uses_shared] = np.minimum(
        by_memory, float(hardware_block_limit)
    )[uses_shared]
    return out


def wave_grid(
    thread_blocks: np.ndarray,
    physical_mps: int,
    blocks_per_mp: np.ndarray,
) -> np.ndarray:
    """Elementwise wave count ``⌈k_i / (k'·ℓ)⌉`` over the batch grids."""
    ensure_positive_int(physical_mps, "physical_mps")
    return ceil_div(thread_blocks, (physical_mps * blocks_per_mp))


def _waves(
    batch: MetricsBatch,
    machine: ATGPUMachine,
    occupancy: OccupancyModel,
    thread_blocks: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Wave grid of the batch under an occupancy model."""
    ell = blocks_per_mp_grid(
        machine.M, batch.shared_words_per_mp, occupancy.hardware_block_limit
    )
    blocks = batch.thread_blocks if thread_blocks is None else thread_blocks
    return wave_grid(blocks, occupancy.physical_mps, ell)


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
def _largest_shard_grid(words: np.ndarray, devices: int) -> np.ndarray:
    """Elementwise :func:`repro.core.sharding.largest_shard` over a grid."""
    whole = words == np.floor(words)
    return np.where(whole, ceil_div(words, devices), words / devices)


def sharded_transfer_grid(
    words: np.ndarray,
    transactions: np.ndarray,
    parameters: CostParameters,
    devices: int,
    contention: float,
) -> np.ndarray:
    """Elementwise straggler link time of ``ShardedTransferModel.cost``."""
    if devices == 1:
        streaming = words
    else:
        shard = _largest_shard_grid(words, devices)
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
    """Vector form of :func:`repro.core.sharding.sharded_gpu_cost`.

    Each round's words and thread blocks shard near-evenly over ``P``
    devices and the round is charged the straggler device's transfer +
    kernel time plus one pool-wide ``σ``, exactly as the scalar
    ``atgpu-multi`` backend does.
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
