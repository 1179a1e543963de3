"""Memory subsystems of the abstract-GPU simulator.

Three memory spaces mirror the abstract machine:

* :class:`HostMemory` -- named NumPy buffers living on the host.
* :class:`GlobalMemory` -- the device's off-chip memory, bounded by ``G``
  words and divided into blocks of ``b`` words;
  :func:`coalesced_transactions` is its coalescing analysis (the number of
  block transactions needed to satisfy a warp's set of addresses).
* :class:`SharedMemory` -- per-MP on-chip memory of ``M`` words split into
  ``b`` banks; provides bank-conflict analysis (the serialisation degree of
  a warp access).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.simulator.errors import (
    AllocationError,
    InvalidAccessError,
    OutOfGlobalMemoryError,
    OutOfSharedMemoryError,
)


def _warp_addresses(addresses, space: str) -> list:
    """A warp access's addresses as Python numbers; rejects negative ones."""
    values = np.asarray(addresses).ravel().tolist()
    if values and min(values) < 0:
        raise InvalidAccessError(f"negative {space} address in warp access")
    return values


def coalesced_transactions(addresses: np.ndarray, words_per_block: int) -> int:
    """Number of global-memory block transactions for a warp's addresses.

    The model coalesces accesses that fall in the same ``b``-word block into
    a single transaction; addresses spread over ``l`` blocks need ``l``
    transactions (Section II, "Execution of Algorithms on the Model").
    """
    if words_per_block <= 0:
        raise ValueError("words_per_block must be positive")
    values = _warp_addresses(addresses, "global-memory")
    return len({address // words_per_block for address in values})


def bank_conflict_degree(addresses: np.ndarray, num_banks: int) -> int:
    """Serialisation degree of a shared-memory warp access.

    Returns the maximum number of *distinct words* that map to the same bank
    (1 means conflict-free).  Accesses by several lanes to the *same* word
    are broadcast and do not conflict, matching CUDA semantics.
    """
    if num_banks <= 0:
        raise ValueError("num_banks must be positive")
    values = _warp_addresses(addresses, "shared-memory")
    banks = [word % num_banks for word in set(values)]
    if len(set(banks)) == len(banks):  # at most one distinct word per bank
        return 1
    return max(Counter(banks).values())


class HostMemory:
    """Named host-side buffers (the CPU side of the model)."""

    def __init__(self) -> None:
        self._buffers: Dict[str, np.ndarray] = {}

    def store(self, name: str, data: np.ndarray) -> np.ndarray:
        """Store (a copy of) ``data`` under ``name`` and return the copy."""
        array = np.array(data, copy=True)
        self._buffers[name] = array
        return array

    def load(self, name: str) -> np.ndarray:
        """Return the buffer stored under ``name``."""
        try:
            return self._buffers[name]
        except KeyError as exc:
            raise AllocationError(f"no host buffer named {name!r}") from exc

    def __contains__(self, name: str) -> bool:
        return name in self._buffers

    def names(self) -> Tuple[str, ...]:
        """Names of all host buffers."""
        return tuple(self._buffers)


@dataclass
class DeviceArray:
    """A named allocation in global memory.

    The array owns its NumPy backing store (so element dtype is preserved)
    and records its base word offset inside global memory, which is what the
    coalescing analysis uses to map element indices to memory blocks.
    """

    name: str
    offset: int
    length: int
    data: np.ndarray = field(repr=False)

    def __len__(self) -> int:
        return self.length

    def global_addresses(self, indices: np.ndarray) -> np.ndarray:
        """Map element indices to absolute global-memory word addresses."""
        idx = np.asarray(indices, dtype=np.int64)
        if idx.size and (idx.min() < 0 or idx.max() >= self.length):
            raise InvalidAccessError(
                f"indices out of range for device array {self.name!r} "
                f"(length {self.length})"
            )
        return self.offset + idx

    def to_host(self) -> np.ndarray:
        """Copy of the whole array contents."""
        return self.data.copy()


class GlobalMemory:
    """Bounded device global memory with a first-fit allocator.

    Capacity is expressed in words (``G`` of the abstract machine).  The
    allocator is deliberately simple -- first fit over a sorted free list --
    because allocation performance is irrelevant here; what matters is the
    capacity bound and stable word offsets for coalescing analysis.
    """

    def __init__(self, capacity_words: int, words_per_block: int) -> None:
        if capacity_words <= 0:
            raise ValueError("capacity_words must be positive")
        if words_per_block <= 0:
            raise ValueError("words_per_block must be positive")
        self.capacity_words = int(capacity_words)
        self.words_per_block = int(words_per_block)
        self._arrays: Dict[str, DeviceArray] = {}
        # Free list of (offset, length) holes, kept sorted by offset.
        self._free: List[Tuple[int, int]] = [(0, self.capacity_words)]

    # ------------------------------------------------------------------ #
    # Allocation
    # ------------------------------------------------------------------ #
    @property
    def used_words(self) -> int:
        """Words currently allocated."""
        return self.capacity_words - sum(length for _, length in self._free)

    @property
    def free_words(self) -> int:
        """Words currently free."""
        return self.capacity_words - self.used_words

    def allocate(
        self, name: str, length: int, dtype: np.dtype = np.int64, fill: Optional[float] = None
    ) -> DeviceArray:
        """Allocate ``length`` words under ``name``.

        Raises :class:`OutOfGlobalMemoryError` if no hole is large enough --
        this is the simulator-side realisation of the paper's global-memory
        limit ``G``.
        """
        if name in self._arrays:
            raise AllocationError(f"device array {name!r} already allocated")
        if length <= 0:
            raise AllocationError(f"allocation length must be positive, got {length}")
        for i, (offset, hole) in enumerate(self._free):
            if hole >= length:
                data = np.zeros(length, dtype=dtype)
                if fill is not None:
                    data[:] = fill
                array = DeviceArray(name=name, offset=offset, length=length, data=data)
                remaining = hole - length
                if remaining:
                    self._free[i] = (offset + length, remaining)
                else:
                    del self._free[i]
                self._arrays[name] = array
                return array
        raise OutOfGlobalMemoryError(
            f"cannot allocate {length} words for {name!r}: "
            f"{self.free_words} of {self.capacity_words} words free "
            "(global memory limit G exceeded)"
        )

    def free(self, name: str) -> None:
        """Release the allocation named ``name`` and coalesce the free list."""
        try:
            array = self._arrays.pop(name)
        except KeyError as exc:
            raise AllocationError(f"no device array named {name!r}") from exc
        self._free.append((array.offset, array.length))
        self._free.sort()
        merged: List[Tuple[int, int]] = []
        for offset, length in self._free:
            if merged and merged[-1][0] + merged[-1][1] == offset:
                merged[-1] = (merged[-1][0], merged[-1][1] + length)
            else:
                merged.append((offset, length))
        self._free = merged

    def get(self, name: str) -> DeviceArray:
        """Look up an allocation by name."""
        try:
            return self._arrays[name]
        except KeyError as exc:
            raise AllocationError(f"no device array named {name!r}") from exc

    def __contains__(self, name: str) -> bool:
        return name in self._arrays

    def names(self) -> Tuple[str, ...]:
        """Names of live allocations."""
        return tuple(self._arrays)


class SharedMemory:
    """Per-MP shared memory of ``M`` words in ``b`` banks.

    One instance is created per thread block (the abstract model runs one
    warp-wide block per MP at a time, so block-lifetime allocation is
    exactly per-MP usage).  Allocations are bump-pointer; exceeding ``M``
    raises :class:`OutOfSharedMemoryError`, mirroring the AGPU/ATGPU rule
    that such algorithms cannot run on the model.
    """

    def __init__(self, capacity_words: int, num_banks: int) -> None:
        if capacity_words <= 0:
            raise ValueError("capacity_words must be positive")
        if num_banks <= 0:
            raise ValueError("num_banks must be positive")
        self.capacity_words = int(capacity_words)
        self.num_banks = int(num_banks)
        self._arrays: Dict[str, Tuple[int, np.ndarray]] = {}
        self._next_offset = 0

    @property
    def used_words(self) -> int:
        """Words currently allocated in this block's shared memory."""
        return self._next_offset

    def allocate(self, name: str, length: int, dtype: np.dtype = np.float64) -> np.ndarray:
        """Allocate ``length`` shared words under ``name``."""
        if name in self._arrays:
            raise AllocationError(f"shared array {name!r} already allocated")
        if length <= 0:
            raise AllocationError(f"allocation length must be positive, got {length}")
        if self._next_offset + length > self.capacity_words:
            raise OutOfSharedMemoryError(
                f"shared allocation of {length} words for {name!r} exceeds the "
                f"per-MP capacity of {self.capacity_words} words "
                f"({self._next_offset} already in use)"
            )
        data = np.zeros(length, dtype=dtype)
        self._arrays[name] = (self._next_offset, data)
        self._next_offset += length
        return data

    def get(self, name: str) -> np.ndarray:
        """Return the backing array of a shared allocation."""
        try:
            return self._arrays[name][1]
        except KeyError as exc:
            raise AllocationError(f"no shared array named {name!r}") from exc

    def conflict_degree(self, name: str, indices: np.ndarray) -> int:
        """Bank-conflict serialisation degree of a warp access to ``name[indices]``."""
        offset, data = self._arrays.get(name, (None, None))
        if data is None:
            raise AllocationError(f"no shared array named {name!r}")
        idx = np.asarray(indices, dtype=np.int64)
        if idx.size and (idx.min() < 0 or idx.max() >= data.size):
            raise InvalidAccessError(
                f"indices out of range for shared array {name!r} (length {data.size})"
            )
        return bank_conflict_degree(offset + idx, self.num_banks)
