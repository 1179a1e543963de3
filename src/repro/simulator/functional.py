"""Block-by-block execution of kernel programs.

The functional engine runs a kernel's blocks through a
:class:`~repro.simulator.kernel.BlockContext`, so data movement really
happens and each executed block yields its trace.  It offers two ways to
cover a grid:

* :meth:`FunctionalEngine.execute_all` executes *every* block.  The
  :class:`~repro.simulator.device.GPUDevice` uses it for functional-size
  grids, which makes ``observe(n)`` the independent oracle of the faster
  path below.
* :meth:`FunctionalEngine.execute_sampled` traces one representative block
  per block class (:meth:`KernelProgram.representative_blocks`) and pairs
  it with the class's size.  Paper-scale grids are timed this way, and so
  are the batched probe's and the stream and shard plans' launches of any
  size.  For a grid the device would run functionally,
  :meth:`~repro.simulator.timing.TimingEngine.launch_totals` sums each
  class's run of blocks one block at a time, in block order, so the timing
  equals a full execution bit for bit whenever each block's trace matches
  its class representative's (the block-class faithfulness property,
  tested for every algorithm that sets ``sim_trace_data_dependent =
  False``).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.simulator.config import DeviceConfig
from repro.simulator.kernel import BlockContext, KernelProgram
from repro.simulator.memory import DeviceArray, GlobalMemory
from repro.simulator.trace import BlockTrace


class FunctionalEngine:
    """Executes kernels block by block with real data movement."""

    def __init__(self, config: DeviceConfig, global_memory: GlobalMemory) -> None:
        self.config = config
        self.global_memory = global_memory

    def _arrays_for(self, kernel: KernelProgram) -> Dict[str, DeviceArray]:
        return {name: self.global_memory.get(name) for name in kernel.array_names()}

    def execute_block(self, kernel: KernelProgram, block_index: int) -> BlockTrace:
        """Execute a single block and return its trace."""
        if not 0 <= block_index < kernel.grid_size():
            raise ValueError(
                f"block_index {block_index} outside grid of {kernel.grid_size()} blocks"
            )
        ctx = BlockContext(
            block_index=block_index,
            num_blocks=kernel.grid_size(),
            config=self.config,
            global_memory=self.global_memory,
            arrays=self._arrays_for(kernel),
        )
        kernel.run_block(ctx)
        return ctx.trace

    def execute_all(self, kernel: KernelProgram) -> List[BlockTrace]:
        """Execute every block of the kernel in block-index order."""
        kernel.validate(self.global_memory)
        return [
            self.execute_block(kernel, block_index)
            for block_index in range(kernel.grid_size())
        ]

    def execute_sampled(
        self, kernel: KernelProgram
    ) -> List[Tuple[BlockTrace, int]]:
        """Trace only the kernel's representative blocks.

        Returns ``(trace, multiplicity)`` pairs covering the grid, one per
        block class.  The untraced blocks do no work, so a caller that needs
        the launch's data applies the kernel's vectorised fallback.
        """
        kernel.validate(self.global_memory)
        grid = kernel.grid_size()
        pairs: List[Tuple[BlockTrace, int]] = []
        covered = 0
        for block_index, multiplicity in kernel.representative_blocks():
            if not 0 <= block_index < grid:
                raise ValueError(
                    f"representative block {block_index} outside grid of {grid}"
                )
            trace = self.execute_block(kernel, block_index)
            pairs.append((trace, multiplicity))
            covered += multiplicity
        if covered != grid:
            raise ValueError(
                f"representative blocks of kernel {kernel.name!r} cover "
                f"{covered} blocks but the grid has {grid}"
            )
        return pairs
