"""The ATGPU abstract machine.

The paper (Section II) defines an instance of the model as
``ATGPU(p, b, M, G)``:

* ``p``  -- total number of cores,
* ``b``  -- cores per multiprocessor (MP); also the warp width, the number of
  shared-memory banks, and the size in words of one global-memory block,
* ``M``  -- words of shared memory per MP,
* ``G``  -- words of global memory (the *global memory limit* is the
  architectural addition of ATGPU over SWGPU/AGPU).

There are therefore ``k = p / b`` multiprocessors; the shared memory of each
MP is split into ``b`` banks such that ``b`` successive words reside in
distinct banks, and the global memory is divided into blocks of ``b`` words.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.numerics import ceil_div
from repro.utils.validation import ensure_positive_int


@dataclass(frozen=True)
class ATGPUMachine:
    """An instance ``ATGPU(p, b, M, G)`` of the abstract machine.

    Parameters
    ----------
    p:
        Total number of cores on the device.
    b:
        Number of cores per multiprocessor.  ``b`` must divide ``p``.  ``b``
        is simultaneously the warp width, the number of shared-memory banks
        per MP and the number of words per global-memory block.
    M:
        Words of shared memory per multiprocessor.
    G:
        Words of global memory on the device.

    Examples
    --------
    >>> machine = ATGPUMachine(p=64, b=32, M=12288, G=1 << 28)
    >>> machine.k
    2
    >>> machine.global_memory_blocks
    8388608
    """

    p: int
    b: int
    M: int
    G: int

    def __post_init__(self) -> None:
        ensure_positive_int(self.p, "p")
        ensure_positive_int(self.b, "b")
        ensure_positive_int(self.M, "M")
        ensure_positive_int(self.G, "G")
        if self.p % self.b != 0:
            raise ValueError(
                f"b ({self.b}) must divide p ({self.p}): the model has k = p/b "
                "multiprocessors of exactly b cores each"
            )
        if self.M < self.b:
            raise ValueError(
                f"M ({self.M}) must be at least b ({self.b}): each MP needs at "
                "least one word per bank of shared memory"
            )
        if self.G < self.b:
            raise ValueError(
                f"G ({self.G}) must be at least b ({self.b}): global memory is "
                "divided into blocks of b words"
            )

    # ------------------------------------------------------------------ #
    # Derived quantities
    # ------------------------------------------------------------------ #
    @property
    def k(self) -> int:
        """Number of multiprocessors, ``k = p / b``."""
        return self.p // self.b

    @property
    def num_multiprocessors(self) -> int:
        """Alias of :attr:`k`."""
        return self.k

    @property
    def warp_width(self) -> int:
        """Number of lockstep cores per MP (alias of ``b``)."""
        return self.b

    @property
    def shared_memory_banks(self) -> int:
        """Number of shared-memory banks per MP (equal to ``b``)."""
        return self.b

    @property
    def words_per_block(self) -> int:
        """Number of words per global-memory block (equal to ``b``)."""
        return self.b

    @property
    def global_memory_blocks(self) -> int:
        """Number of whole global-memory blocks, ``⌊G / b⌋``."""
        return self.G // self.b

    # ------------------------------------------------------------------ #
    # Capacity checks (Section III: space metrics)
    # ------------------------------------------------------------------ #
    def fits_in_global_memory(self, words: int) -> bool:
        """Whether ``words`` words fit within the global-memory limit ``G``."""
        if words < 0:
            raise ValueError(f"words must be >= 0, got {words!r}")
        return words <= self.G

    def fits_in_shared_memory(self, words: int) -> bool:
        """Whether ``words`` words fit within one MP's shared memory ``M``."""
        if words < 0:
            raise ValueError(f"words must be >= 0, got {words!r}")
        return words <= self.M

    # ------------------------------------------------------------------ #
    # Memory-geometry helpers shared by the analysis and the simulator
    # ------------------------------------------------------------------ #
    def blocks_for_words(self, words: int) -> int:
        """Number of global-memory blocks needed to hold ``words`` words."""
        if words < 0:
            raise ValueError(f"words must be >= 0, got {words!r}")
        return ceil_div(words, self.b)

    def block_of_address(self, address: int) -> int:
        """Index of the global-memory block containing word ``address``."""
        if address < 0 or address >= self.G:
            raise ValueError(
                f"address {address!r} outside global memory of {self.G} words"
            )
        return address // self.b

    def bank_of_address(self, address: int) -> int:
        """Shared-memory bank of word ``address`` (successive words rotate banks)."""
        if address < 0:
            raise ValueError(f"address must be >= 0, got {address!r}")
        return address % self.b

    def thread_blocks_for(self, threads: int) -> int:
        """Number of ``b``-wide thread blocks needed for ``threads`` threads."""
        if threads <= 0:
            raise ValueError(f"threads must be > 0, got {threads!r}")
        return ceil_div(threads, self.b)

    def thread_blocks_grid(self, threads) -> np.ndarray:
        """Vectorized twin of :meth:`thread_blocks_for` over a size vector.

        Mirrors the scalar's ``ceil(threads / b)`` float division exactly
        (same IEEE operation per element), so batch metrics factories built
        on it stay bit-for-bit equal to the scalar factories.
        """
        t = np.asarray(threads)
        if np.any(t <= 0):
            at = t[t <= 0]
            raise ValueError(f"threads must be > 0, got {int(at.flat[0])!r}")
        return ceil_div(t, self.b).astype(np.int64)

    def describe(self) -> str:
        """One-line human readable description of the machine instance."""
        return (
            f"ATGPU(p={self.p}, b={self.b}, M={self.M}, G={self.G}) "
            f"with k={self.k} multiprocessors"
        )

