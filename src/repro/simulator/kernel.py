"""Kernel programs and the warp-level block execution context.

A :class:`KernelProgram` describes one kernel launch of the abstract model:
a grid of warp-wide thread blocks, each executing the same
:meth:`KernelProgram.run_block` body in lockstep on ``b`` lanes.  The body
manipulates data exclusively through a :class:`BlockContext`, which

* performs the actual data movement (so functional execution produces real
  results),
* records an :class:`~repro.simulator.trace.BlockTrace` of warp-level
  instructions (global/shared accesses with their coalescing / bank-conflict
  behaviour, compute instructions, barriers) for the timing engine, and
* enforces the shared-memory capacity limit ``M``.

Its data operations come at two grains.  The per-warp calls
(``global_read``, ``global_write``, ``shared_read``, ``shared_write``)
move one warp access each.  The staging calls ``global_to_shared`` and
``shared_to_global`` execute the pseudocode's ``GlobalToShared`` and
``SharedToGlobal`` statements: one call moves a ``rows × lanes`` tile, one
warp access per row, and traces it as one
:class:`~repro.simulator.trace.RowRun` whose records, errors and data equal
those of the per-warp loop over its rows.  A block analyses each tile
pattern once: a staging call that stages the same index pattern as the
block's last call between the same arrays, at a new base (as each k-step
of a tiled loop does), reuses that call's index extremes, conflict degrees
and, for a residue seen before, transaction counts, and only moves the
data.

Kernels whose grids are too large to execute block-by-block in pure Python
may additionally provide :meth:`KernelProgram.vectorised_result`, a NumPy
implementation of the same semantics used by the device to fill in the
functional results when it falls back to trace-sampling (see
:class:`repro.simulator.device.GPUDevice`).
"""

from __future__ import annotations

import abc
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.simulator.config import DeviceConfig
from repro.simulator.errors import InvalidAccessError, LaunchError
from repro.simulator.memory import (
    DeviceArray,
    GlobalMemory,
    SharedMemory,
    coalesced_transactions,
)
from repro.simulator.trace import (
    BlockTrace,
    InstructionKind,
    InstructionRecord,
    RowRun,
)


def _check_rows(idx: np.ndarray, length: int, what: str) -> None:
    """Raise :class:`InvalidAccessError` unless every index is in ``[0, length)``."""
    if idx.size and (idx.min() < 0 or idx.max() >= length):
        raise InvalidAccessError(
            f"indices out of range for {what} (length {length})"
        )


def _assign_in_order(target: np.ndarray, idx: np.ndarray,
                     values: np.ndarray, increasing: bool) -> None:
    """``target[idx] = values`` as writes of one row after another leave it.

    Of repeated indices the last in row-major order wins.  NumPy does not
    say which of repeated fancy-index assignments wins, so each index is
    assigned once: a stable sort puts an index's writes in order, and the
    last of each is kept.  Where ``idx`` strictly increases in row-major
    order (``increasing``) no index repeats, and the plain assignment is
    that write.
    """
    if increasing:
        target[idx] = values
        return
    flat = idx.ravel()
    order = np.argsort(flat, kind="stable")
    ordered = flat[order]
    last = np.ones(flat.size, dtype=bool)
    last[:-1] = ordered[1:] != ordered[:-1]
    target[ordered[last]] = values.ravel()[order[last]]


def _increasing(idx: np.ndarray) -> bool:
    """Whether ``idx`` strictly increases in row-major order."""
    flat = idx.ravel()
    return bool((flat[1:] > flat[:-1]).all())


def _read_only(column: np.ndarray) -> np.ndarray:
    column.flags.writeable = False
    return column


def _row_transactions(addresses: np.ndarray,
                      words_per_block: int) -> np.ndarray:
    """Coalesced transactions of each row of a ``rows × lanes`` access."""
    rows, lanes = addresses.shape
    if not lanes:
        return np.zeros(rows, dtype=np.int64)
    blocks = np.sort(addresses // words_per_block, axis=1)
    return 1 + (blocks[:, 1:] != blocks[:, :-1]).sum(axis=1)


def _row_conflict_degrees(words: np.ndarray, num_banks: int) -> np.ndarray:
    """Bank-conflict degree of each row of a ``rows × lanes`` shared access:
    the most distinct words of the row in one bank."""
    rows, lanes = words.shape
    if not lanes:
        return np.ones(rows, dtype=np.int64)
    words = np.sort(words, axis=1)
    distinct = np.ones(words.shape, dtype=bool)
    distinct[:, 1:] = words[:, 1:] != words[:, :-1]
    row_banks = np.arange(rows)[:, None] * num_banks + words % num_banks
    return np.bincount(
        row_banks[distinct], minlength=rows * num_banks
    ).reshape(rows, num_banks).max(axis=1)


class _TileAnalysis:
    """What one staging call's indices decide, kept for the calls of the
    block that repeat its tile pattern.

    A call's *base* is its first global index and its *pattern* its global
    rows minus the base.  A later call in the same direction between the
    same arrays repeats this one when its shared rows and its pattern equal
    the ones kept here.  Everything kept is then exact for it too:

    * Conflict degrees depend only on the shared rows: adding the shared
      array's offset to every word permutes the banks, so they are counted
      on the indices.
    * With ``w`` words per block and ``c = array.offset + base = q·w + s``,
      ``(c + p) // w = q + (s + p) // w``, so a row's transaction count
      depends only on its pattern row and the residue ``s``.  Counts are
      kept per residue.
    * Every global index is ``base + p``, so ``base + low >= 0`` and
      ``base + high < array.length`` bound the whole global side.  The
      shared indices were in range when kept, so ``shared_high`` against
      the shared array's size bounds the shared side.
    * A side whose indices strictly increase repeats no index, so a plain
      fancy assignment is its ordered write.

    The index arrays are private copies, so a caller that rewrites its
    array in place between calls is compared by content, and the columns
    are read-only, because the :class:`RowRun` of every repeat shares them.
    """

    def __init__(self, shared_idx: np.ndarray, global_idx: np.ndarray,
                 base: int, num_banks: int) -> None:
        self.shared_rows = shared_idx.copy()
        self.pattern = global_idx - base
        self.conflict_degrees = _read_only(
            _row_conflict_degrees(shared_idx, num_banks)
        )
        self.transactions: Dict[int, np.ndarray] = {}
        # The pattern holds 0, and shared indices are non-negative, so the
        # initial values leave the extremes of a non-empty tile unchanged.
        self.low = int(self.pattern.min(initial=0))
        self.high = int(self.pattern.max(initial=0))
        self.shared_high = int(shared_idx.max(initial=0))
        self.shared_increasing = _increasing(shared_idx)
        self.global_increasing = _increasing(self.pattern)

    def repeated_by(self, shared_idx: np.ndarray, global_idx: np.ndarray,
                    base: int) -> bool:
        """Whether a call with these indices repeats the kept pattern."""
        return (
            shared_idx.shape == self.shared_rows.shape
            and bool((shared_idx == self.shared_rows).all())
            and bool((global_idx - base == self.pattern).all())
        )

    def global_fits(self, base: int, length: int) -> bool:
        """Whether every global index of a repeat at ``base`` is in range."""
        return base + self.low >= 0 and base + self.high < length

    def shared_fits(self, size: int) -> bool:
        """Whether every shared index of a repeat is in range."""
        return self.shared_high < size


class BlockContext:
    """Execution context of one warp-wide thread block.

    All methods operate at warp granularity: index arguments are arrays with
    one entry per active lane (shorter arrays simply mean fewer active
    lanes, e.g. a ragged final block).
    """

    def __init__(
        self,
        block_index: int,
        num_blocks: int,
        config: DeviceConfig,
        global_memory: GlobalMemory,
        arrays: Dict[str, DeviceArray],
    ) -> None:
        self.block_index = block_index
        self.num_blocks = num_blocks
        self.config = config
        self._global_memory = global_memory
        self._arrays = arrays
        self._shared = SharedMemory(
            capacity_words=config.shared_memory_words,
            num_banks=config.warp_width,
        )
        self.trace = BlockTrace(block_index=block_index)
        # The last tile analysis per (direction, shared name, global
        # name); the dict is made on the block's first staging call.
        self._tiles: Optional[Dict[tuple, _TileAnalysis]] = None

    # ------------------------------------------------------------------ #
    # Lane helpers
    # ------------------------------------------------------------------ #
    @property
    def warp_width(self) -> int:
        """Number of lanes (cores) in the block."""
        return self.config.warp_width

    @property
    def lanes(self) -> np.ndarray:
        """Lane indices ``0 .. b-1`` (the ``j`` of ``c_{i,j}`` in the paper)."""
        return np.arange(self.config.warp_width, dtype=np.int64)

    def global_thread_ids(self) -> np.ndarray:
        """Global thread indices ``block_index * b + lane``."""
        return self.block_index * self.config.warp_width + self.lanes

    # ------------------------------------------------------------------ #
    # Device array lookup
    # ------------------------------------------------------------------ #
    def array(self, name: str) -> DeviceArray:
        """Look up a kernel-argument device array by name."""
        try:
            return self._arrays[name]
        except KeyError as exc:
            raise LaunchError(
                f"kernel block referenced unknown device array {name!r}; "
                f"available arrays: {sorted(self._arrays)}"
            ) from exc

    # ------------------------------------------------------------------ #
    # Global memory (the ``⇐`` operator)
    # ------------------------------------------------------------------ #
    def _global_access(
        self, kind: InstructionKind, name: str, indices: np.ndarray
    ) -> Tuple[DeviceArray, np.ndarray]:
        """Bounds-check and trace one warp access to ``name[indices]``.

        The absolute addresses are computed once: they raise
        :class:`~repro.simulator.errors.InvalidAccessError` on a negative or
        out-of-range index before any data moves, and they give the
        access's coalesced transaction count.
        """
        array = self.array(name)
        idx = np.asarray(indices, dtype=np.int64)
        addresses = array.global_addresses(idx)
        self.trace.append(InstructionRecord(
            kind=kind,
            transactions=coalesced_transactions(
                addresses, self._global_memory.words_per_block
            ),
            words=int(idx.size),
            label=name,
        ))
        return array, idx

    def global_read(self, name: str, indices: np.ndarray) -> np.ndarray:
        """Warp-wide read of ``name[indices]`` from global memory."""
        array, idx = self._global_access(InstructionKind.GLOBAL_READ, name, indices)
        return array.data[idx]

    def global_write(self, name: str, indices: np.ndarray, values: np.ndarray) -> None:
        """Warp-wide write of ``values`` to ``name[indices]`` in global memory."""
        array, idx = self._global_access(InstructionKind.GLOBAL_WRITE, name, indices)
        array.data[idx] = values

    # ------------------------------------------------------------------ #
    # Shared memory (the ``←`` operator)
    # ------------------------------------------------------------------ #
    def shared_alloc(self, name: str, length: int, dtype: np.dtype = np.float64) -> np.ndarray:
        """Allocate a per-block shared array of ``length`` words."""
        data = self._shared.allocate(name, length, dtype=dtype)
        self.trace.shared_words_used = self._shared.used_words
        return data

    def shared_read(self, name: str, indices: np.ndarray) -> np.ndarray:
        """Warp-wide read from a shared array."""
        idx = np.asarray(indices, dtype=np.int64)
        degree = self._shared.conflict_degree(name, idx)
        self.trace.append(InstructionRecord(
            kind=InstructionKind.SHARED_READ,
            words=int(idx.size),
            conflict_degree=degree,
            label=name,
        ))
        return self._shared.get(name)[idx]

    def shared_write(self, name: str, indices: np.ndarray, values: np.ndarray) -> None:
        """Warp-wide write to a shared array."""
        idx = np.asarray(indices, dtype=np.int64)
        degree = self._shared.conflict_degree(name, idx)
        self.trace.append(InstructionRecord(
            kind=InstructionKind.SHARED_WRITE,
            words=int(idx.size),
            conflict_degree=degree,
            label=name,
        ))
        self._shared.get(name)[idx] = values

    # ------------------------------------------------------------------ #
    # Tile staging (the pseudocode's ``GlobalToShared``/``SharedToGlobal``)
    # ------------------------------------------------------------------ #
    def global_to_shared(
        self,
        shared_name: str,
        global_name: str,
        shared_rows: np.ndarray,
        global_rows: np.ndarray,
    ) -> None:
        """Stage a tile: ``shared_name[shared_rows] ← global_name[global_rows]``.

        Both index arrays are ``rows × lanes``.  Row ``r`` is traced as
        :meth:`global_read` of ``global_rows[r]`` followed by
        :meth:`shared_write` to ``shared_rows[r]`` (see :meth:`_stage`).
        """
        self._stage(True, shared_name, global_name, shared_rows, global_rows)

    def shared_to_global(
        self,
        global_name: str,
        shared_name: str,
        global_rows: np.ndarray,
        shared_rows: np.ndarray,
    ) -> None:
        """Write a tile back: ``global_name[global_rows] ← shared_name[shared_rows]``.

        Row ``r`` is traced as :meth:`shared_read` of ``shared_rows[r]``
        followed by :meth:`global_write` to ``global_rows[r]``.
        """
        self._stage(False, shared_name, global_name, shared_rows, global_rows)

    def _stage(
        self,
        to_shared: bool,
        shared_name: str,
        global_name: str,
        shared_rows: np.ndarray,
        global_rows: np.ndarray,
    ) -> None:
        """Move ``rows × lanes`` words between global and shared memory.

        One NumPy pass counts every row's coalesced transactions and
        bank-conflict degree, and one :class:`RowRun` traces all rows.
        Records, errors and data equal those of the per-warp loop over the
        rows.  Errors come in the loop's order: the read side's name and
        its row 0, then the written side's name, then any other row.  All
        rows are checked before any data moves; a block that raises is
        discarded, so the loop's partial writes cannot be observed.

        A block analyses each tile pattern once.  A call that repeats the
        block's last call in its direction between the same arrays (the
        same shared rows, the global rows at a new base; see
        :class:`_TileAnalysis`) is found by one ``==`` pass per side.  It
        checks its bounds in O(1), reuses the conflict degrees and, for a
        residue seen before, the transaction counts, and moves the data.
        Any other call, and a repeat whose O(1) bounds fail, is checked
        row by row and analysed afresh, so records, data and errors stay
        those of the loop.
        """
        shared_idx = np.asarray(shared_rows, dtype=np.int64)
        global_idx = np.asarray(global_rows, dtype=np.int64)
        if shared_idx.ndim != 2 or shared_idx.shape != global_idx.shape:
            raise ValueError(
                "staging takes shared and global indices of one rows × lanes "
                f"shape, got {shared_idx.shape} and {global_idx.shape}"
            )
        rows, lanes = shared_idx.shape
        if rows == 0:
            return
        base = int(global_idx[0, 0]) if lanes else 0
        if self._tiles is None:
            self._tiles = {}
        key = (to_shared, shared_name, global_name)
        tile = self._tiles.get(key)
        if tile is not None and not tile.repeated_by(
            shared_idx, global_idx, base
        ):
            tile = None
        global_what = f"device array {global_name!r}"
        shared_what = f"shared array {shared_name!r}"
        if to_shared:
            array = self.array(global_name)
            if tile is None or not tile.global_fits(base, array.length):
                _check_rows(global_idx[0], array.length, global_what)
            shared = self._shared.get(shared_name)
        else:
            shared = self._shared.get(shared_name)
            if tile is None or not tile.shared_fits(shared.size):
                _check_rows(shared_idx[0], shared.size, shared_what)
            array = self.array(global_name)
        if tile is None or not (tile.global_fits(base, array.length)
                                and tile.shared_fits(shared.size)):
            _check_rows(global_idx, array.length, global_what)
            _check_rows(shared_idx, shared.size, shared_what)
            tile = self._tiles[key] = _TileAnalysis(
                shared_idx, global_idx, base, self._shared.num_banks
            )

        words_per_block = self._global_memory.words_per_block
        residue = (array.offset + base) % words_per_block
        transactions = tile.transactions.get(residue)
        if transactions is None:
            transactions = tile.transactions[residue] = _read_only(
                _row_transactions(array.offset + global_idx, words_per_block)
            )
        if to_shared:
            _assign_in_order(shared, shared_idx, array.data[global_idx],
                             tile.shared_increasing)
        else:
            _assign_in_order(array.data, global_idx, shared[shared_idx],
                             tile.global_increasing)
        self.trace.append_rows(RowRun(
            to_shared, global_name, shared_name, lanes, transactions,
            tile.conflict_degrees,
        ))

    # ------------------------------------------------------------------ #
    # Compute, divergence and synchronisation
    # ------------------------------------------------------------------ #
    def compute(self, operations: float = 1.0, label: str = "") -> None:
        """Charge ``operations`` warp-wide arithmetic/control instructions."""
        if operations < 0:
            raise ValueError("operations must be >= 0")
        self.trace.append(InstructionRecord(
            kind=InstructionKind.COMPUTE, operations=float(operations), label=label,
        ))

    def diverge(self, path_operations: Sequence[float], label: str = "divergent branch") -> None:
        """Charge a divergent branch: *all* paths are executed (Section II).

        ``path_operations`` gives the warp-instruction count of each branch
        path; the charge is their sum, reflecting the model's rule that when
        execution paths diverge every path is executed by the lockstep warp.
        """
        total = float(sum(path_operations))
        if total < 0:
            raise ValueError("path operation counts must be >= 0")
        self.compute(total, label=label)

    def barrier(self) -> None:
        """Block-wide barrier (warps of the block synchronise)."""
        self.trace.append(InstructionRecord(kind=InstructionKind.BARRIER))

    @property
    def shared_words_used(self) -> int:
        """Shared-memory words currently allocated by this block."""
        return self._shared.used_words


class KernelProgram(abc.ABC):
    """One kernel launch of the abstract model.

    Subclasses describe a concrete kernel: its grid size, the device arrays
    it expects, its per-block body, and (optionally) a vectorised NumPy
    fallback for large grids.
    """

    #: Human-readable kernel name, used in timelines and reports.
    name: str = "kernel"

    @abc.abstractmethod
    def grid_size(self) -> int:
        """Number of thread blocks launched."""

    @abc.abstractmethod
    def array_names(self) -> Tuple[str, ...]:
        """Names of the device arrays the kernel body references."""

    @abc.abstractmethod
    def run_block(self, ctx: BlockContext) -> None:
        """Execute one block's work through ``ctx`` (lockstep warp semantics)."""

    # ------------------------------------------------------------------ #
    # Optional hooks
    # ------------------------------------------------------------------ #
    def shared_words_per_block(self) -> int:
        """Shared-memory words each block allocates (for occupancy).

        The default traces nothing and returns 0; kernels that allocate
        shared memory should override (or rely on the traced value, which the
        device uses when available).
        """
        return 0

    def representative_blocks(self) -> Sequence[Tuple[int, int]]:
        """One traced block per block class of the grid.

        Returns ``(block_index, multiplicity)`` pairs covering the whole
        grid in block order: each pair's class is the next ``multiplicity``
        blocks, and ``block_index`` is one of them.  Sampled launches weight
        each class's trace by its multiplicity; the timing of a launch that
        would run functionally adds it once per block
        (:meth:`~repro.simulator.timing.TimingEngine.launch_totals`).  Either
        is exact only if every block's trace matches its representative's.
        The default assumes a structurally uniform grid: block 0 stands for
        blocks ``0 .. grid-2`` and the last block, which may be ragged, for
        itself.
        """
        grid = self.grid_size()
        if grid <= 2:
            return [(i, 1) for i in range(grid)]
        return [(0, grid - 1), (grid - 1, 1)]

    def vectorised_result(self, arrays: Dict[str, DeviceArray]) -> None:
        """Apply the kernel's semantics to the device arrays with NumPy.

        Used by the device when it skips full functional execution for very
        large grids.  The default raises, forcing small-grid execution.
        """
        raise NotImplementedError(
            f"kernel {self.name!r} provides no vectorised fallback; "
            "reduce the grid size or raise functional_block_limit"
        )

    def validate(self, global_memory: GlobalMemory) -> None:
        """Check the launch is well-formed against the device's global memory."""
        if self.grid_size() <= 0:
            raise LaunchError(f"kernel {self.name!r} launched with an empty grid")
        missing = [n for n in self.array_names() if n not in global_memory]
        if missing:
            raise LaunchError(
                f"kernel {self.name!r} requires device arrays {missing} "
                "which are not allocated"
            )
