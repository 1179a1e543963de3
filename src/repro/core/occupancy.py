"""Occupancy computations used by the GPU-cost function (Expression 2).

A physical streaming multiprocessor can hold ``ℓ = min(⌊M / m⌋, H)`` thread
blocks concurrently, where ``m`` is the shared memory used per block and
``H`` is a hardware-imposed limit on resident blocks.  With ``k'`` physical
MPs, an algorithm round that launches ``k_i`` thread blocks executes in
``⌈k_i / (k'·ℓ)⌉`` *waves*; Expression (2) scales the round's parallel time
``t_i`` by that wave count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.utils.numerics import ceil_div
from repro.utils.validation import ensure_non_negative, ensure_positive_int


def blocks_per_multiprocessor(
    shared_memory_capacity: int,
    shared_words_per_block: float,
    hardware_block_limit: int,
) -> int:
    """Return ``ℓ = min(⌊M / m⌋, H)``.

    Parameters
    ----------
    shared_memory_capacity:
        ``M`` -- shared-memory words available per MP.
    shared_words_per_block:
        ``m`` -- shared-memory words consumed by one resident thread block.
        A block using no shared memory is only limited by ``H``.
    hardware_block_limit:
        ``H`` -- the hardware cap on concurrently resident blocks per MP.
    """
    ensure_positive_int(shared_memory_capacity, "shared_memory_capacity")
    ensure_non_negative(shared_words_per_block, "shared_words_per_block")
    ensure_positive_int(hardware_block_limit, "hardware_block_limit")
    if shared_words_per_block == 0:
        return hardware_block_limit
    # With fractional ``m`` the division is inexact in binary (e.g.
    # M=10, m=0.1 gives 99.999...), and a bare floor would lose a resident
    # block the MP really has room for.  Snap to the nearest integer only
    # when the ratio is within a relative tolerance of it — a blanket
    # multiplicative epsilon would instead *overcount* huge exact ratios.
    ratio = shared_memory_capacity / shared_words_per_block
    nearest = round(ratio)
    if nearest > 0 and abs(ratio - nearest) <= 1e-9 * nearest:
        by_memory = int(nearest)
    else:
        by_memory = int(math.floor(ratio))
    if by_memory == 0:
        raise ValueError(
            f"a thread block needs {shared_words_per_block} shared words but the "
            f"MP only has {shared_memory_capacity}: the kernel cannot run"
        )
    return min(by_memory, hardware_block_limit)


def wave_count(thread_blocks: int, physical_mps: int, blocks_per_mp: int) -> int:
    """Return the number of block waves ``⌈k_i / (k'·ℓ)⌉``."""
    ensure_positive_int(thread_blocks, "thread_blocks")
    ensure_positive_int(physical_mps, "physical_mps")
    ensure_positive_int(blocks_per_mp, "blocks_per_mp")
    return ceil_div(thread_blocks, (physical_mps * blocks_per_mp))


def blocks_per_multiprocessor_grid(
    shared_memory_capacity: int,
    shared_words_per_block,
    hardware_block_limit: int,
):
    """Vectorized twin of :func:`blocks_per_multiprocessor`.

    ``shared_words_per_block`` is an array of per-launch (or per-round)
    ``m`` values; the return value is an ``int64`` array of ``ℓ`` with the
    same shape.  Every element follows the scalar function exactly,
    including the nearest-integer snap for fractional ``m`` (``round`` and
    ``np.round`` both round half to even, so the snap candidates agree bit
    for bit) and the error when a block cannot fit at all.
    """
    ensure_positive_int(shared_memory_capacity, "shared_memory_capacity")
    ensure_positive_int(hardware_block_limit, "hardware_block_limit")
    shared = np.asarray(shared_words_per_block, dtype=float)
    if not (shared >= 0).all():
        raise ValueError("shared_words_per_block must be non-negative")
    uses_shared = shared > 0
    ratio = np.divide(
        float(shared_memory_capacity), shared,
        out=np.ones_like(shared), where=uses_shared,
    )
    nearest = ratio.round()
    snap = (nearest > 0) & (np.abs(ratio - nearest) <= 1e-9 * nearest)
    by_memory = np.where(snap, nearest, np.floor(ratio))
    impossible = by_memory == 0
    if impossible.any():
        raise ValueError(
            f"a thread block needs {shared[impossible].flat[0]} shared words "
            f"but the MP only has {shared_memory_capacity}: the kernel "
            "cannot run"
        )
    resident = np.where(uses_shared, by_memory, hardware_block_limit)
    return np.minimum(resident, hardware_block_limit).astype(np.int64)


def wave_count_grid(thread_blocks, physical_mps: int, blocks_per_mp):
    """Vectorized twin of :func:`wave_count` over launch arrays.

    ``ceil_div`` dispatches to its ``np.ceil`` branch, which is bit-for-bit
    identical to the scalar ``math.ceil`` branch element by element.
    Unlike the scalar function, a cell with zero thread blocks (an idle
    device of a topology) prices to zero waves.
    """
    ensure_positive_int(physical_mps, "physical_mps")
    blocks = np.asarray(thread_blocks)
    resident = np.asarray(blocks_per_mp)
    if not (blocks >= 0).all():
        raise ValueError("thread_blocks must be non-negative")
    if not (resident > 0).all():
        raise ValueError("blocks_per_mp must be positive")
    return ceil_div(blocks, physical_mps * resident).astype(np.int64)


@dataclass(frozen=True)
class OccupancyModel:
    """Occupancy of a physical GPU with ``k'`` MPs and block limit ``H``.

    This couples the two hardware parameters that Expression (2) introduces
    on top of the abstract machine: the number of physical multiprocessors
    ``k'`` and the hardware limit ``H`` on blocks resident per MP.
    """

    physical_mps: int
    hardware_block_limit: int

    def __post_init__(self) -> None:
        ensure_positive_int(self.physical_mps, "physical_mps")
        ensure_positive_int(self.hardware_block_limit, "hardware_block_limit")

    def blocks_per_mp(
        self, shared_memory_capacity: int, shared_words_per_block: float
    ) -> int:
        """``ℓ`` for a kernel using ``shared_words_per_block`` words per block."""
        return blocks_per_multiprocessor(
            shared_memory_capacity,
            shared_words_per_block,
            self.hardware_block_limit,
        )

    def concurrent_blocks(
        self, shared_memory_capacity: int, shared_words_per_block: float
    ) -> int:
        """Device-wide concurrent blocks, ``k'·ℓ``."""
        return self.physical_mps * self.blocks_per_mp(
            shared_memory_capacity, shared_words_per_block
        )

    def waves(
        self,
        thread_blocks: int,
        shared_memory_capacity: int,
        shared_words_per_block: float,
    ) -> int:
        """Number of waves ``⌈k_i / (k'·ℓ)⌉`` needed to run ``thread_blocks``."""
        return wave_count(
            thread_blocks,
            self.physical_mps,
            self.blocks_per_mp(shared_memory_capacity, shared_words_per_block),
        )

    def occupancy_fraction(
        self,
        thread_blocks: int,
        shared_memory_capacity: int,
        shared_words_per_block: float,
    ) -> float:
        """Fraction of the device's block slots filled by the last (or only) wave.

        This is a convenience diagnostic: ``1.0`` means every wave fills all
        ``k'·ℓ`` slots; smaller values indicate a ragged final wave or a
        kernel too small to fill the device.
        """
        slots = self.concurrent_blocks(
            shared_memory_capacity, shared_words_per_block
        )
        waves = wave_count(thread_blocks, self.physical_mps,
                           self.blocks_per_mp(shared_memory_capacity,
                                              shared_words_per_block))
        return thread_blocks / (waves * slots)
