"""Matrix multiplication on the ATGPU model (Section IV-C of the paper).

``C = A × B`` for two ``n×n`` matrices, using the well-known shared-memory
tiled method of the CUDA Programming Guide, modified (as in the paper) for
the single warp per multiprocessor of the model: each thread block owns one
``b×b`` output tile, iterates over the ``n/b`` tile pairs of ``A`` and ``B``,
stages each pair in shared memory and accumulates the partial products.

The paper's analysis:

* rounds ``R = 1``;
* parallel time ``O(n·b)``;
* I/O ``O((n/b)²·(n + b))`` block transactions;
* global memory ``O(n²)``, shared memory ``O(b²)`` per block;
* transfer ``O(α + βn²)``: two inward matrices and one outward matrix.

This is the paper's example where data transfer does *not* dominate, so the
SWGPU (kernel-only) prediction is already adequate.

The simulator kernel executes the statements of
:meth:`MatrixMultiplication.build_pseudocode` one for one: each
``GlobalToShared`` is one :meth:`~repro.simulator.kernel.BlockContext.global_to_shared`
call that stages a whole tile, and the closing ``SharedToGlobal`` one
:meth:`~repro.simulator.kernel.BlockContext.shared_to_global` call.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.algorithms.base import GPUAlgorithm, RunResult
from repro.core.batch import MetricsBatch
from repro.core.machine import ATGPUMachine
from repro.core.metrics import (
    AlgorithmMetrics,
    RoundMetrics,
    round_arrays,
    size_vector,
)
from repro.pseudocode.ast_nodes import (
    Barrier,
    GlobalToShared,
    KernelLaunch,
    Loop,
    SharedCompute,
    SharedToGlobal,
    TransferIn,
    TransferOut,
)
from repro.pseudocode.program import Program, Round
from repro.pseudocode.variables import global_var, host_var, shared_var
from repro.simulator.device import GPUDevice
from repro.simulator.kernel import BlockContext, KernelProgram
from repro.simulator.memory import DeviceArray
from repro.utils.numerics import ceil_div
from repro.utils.validation import ensure_positive_int


class MatrixMultiplicationKernel(KernelProgram):
    """Tiled matrix-multiplication kernel (one warp per ``b×b`` output tile)."""

    name = "matrix_multiplication_kernel"

    def __init__(self, n: int, warp_width: int) -> None:
        self.n = ensure_positive_int(n, "n")
        self.warp_width = ensure_positive_int(warp_width, "warp_width")
        if n % warp_width != 0 and n >= warp_width:
            raise ValueError(
                f"matrix side {n} must be a multiple of the warp width {warp_width} "
                "(the paper evaluates sides 32, 64, ..., 1024)"
            )
        self.tile = min(n, warp_width)

    @property
    def tiles_per_side(self) -> int:
        """Number of ``b``-wide tiles along one matrix side."""
        return ceil_div(self.n, self.tile)

    def grid_size(self) -> int:
        return self.tiles_per_side ** 2

    def array_names(self) -> Tuple[str, ...]:
        return ("ma", "mb", "mc")

    def shared_words_per_block(self) -> int:
        return 3 * self.tile * self.tile

    def run_block(self, ctx: BlockContext) -> None:
        """One output tile: per k-tile two ``GlobalToShared``, a barrier,
        the compute and a barrier, then one ``SharedToGlobal``."""
        n, tile = self.n, self.tile
        tile_row, tile_col = divmod(ctx.block_index, self.tiles_per_side)
        # Row r, lane l of a tile: word r·n + l of the matrix past the
        # tile's corner, and word r·b + l of its shared copy.
        matrix_rows = np.arange(tile)[:, None] * n + np.arange(tile)
        tile_rows = np.arange(tile * tile).reshape(tile, tile)
        shared_a = ctx.shared_alloc("_ta", tile * tile)
        shared_b = ctx.shared_alloc("_tb", tile * tile)
        shared_c = ctx.shared_alloc("_tc", tile * tile)
        acc = np.zeros((tile, tile), dtype=np.float64)
        for kt in range(self.tiles_per_side):
            ctx.global_to_shared(
                "_ta", "ma", tile_rows, matrix_rows + (tile_row * n + kt) * tile
            )
            ctx.global_to_shared(
                "_tb", "mb", tile_rows, matrix_rows + (kt * n + tile_col) * tile
            )
            ctx.barrier()
            # Each of the b cores accumulates one column of the output tile:
            # b·b multiply-adds per core, issued as b·b warp instructions.
            ctx.compute(float(tile * tile), label="tile multiply-accumulate")
            acc += shared_a.reshape(tile, tile) @ shared_b.reshape(tile, tile)
            ctx.barrier()
        shared_c[:] = acc.reshape(-1)
        ctx.shared_to_global(
            "mc", "_tc", matrix_rows + (tile_row * n + tile_col) * tile, tile_rows
        )

    def vectorised_result(self, arrays: Dict[str, DeviceArray]) -> None:
        n = self.n
        a = arrays["ma"].data[: n * n].reshape(n, n)
        b = arrays["mb"].data[: n * n].reshape(n, n)
        arrays["mc"].data[: n * n] = (a @ b).reshape(-1)


class MatrixMultiplication(GPUAlgorithm):
    """Tiled matrix multiplication, the paper's compute-bound example."""

    name = "matrix_multiplication"
    description = "C = A x B for n x n integer matrices via shared-memory tiling"

    #: Block traces depend only on indices, so the batched probe may skip
    #: input materialisation (parity-tested in tests/test_sim_batch.py).
    sim_trace_data_dependent = False

    #: Grids larger than this run via representative-block tracing.
    _functional_limit = 16

    # ------------------------------------------------------------------ #
    # Workload
    # ------------------------------------------------------------------ #
    def default_sizes(self) -> List[int]:
        """The paper sweeps square matrices of side n = 32, 64, ..., 1024."""
        return [32 * i for i in (1, 2, 4, 8, 16, 24, 32)]

    def generate_input(self, n: int, seed: int = 0) -> Dict[str, np.ndarray]:
        ensure_positive_int(n, "n")
        rng = np.random.default_rng(seed)
        return {
            "A": rng.integers(0, 64, size=(n, n)).astype(np.float64),
            "B": rng.integers(0, 64, size=(n, n)).astype(np.float64),
        }

    def sim_inputs(self, n: int, seed: int = 0) -> Dict[str, np.ndarray]:
        ensure_positive_int(n, "n")
        return {
            "A": np.zeros((n, n), dtype=np.float64),
            "B": np.zeros((n, n), dtype=np.float64),
        }

    def reference(self, inputs: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
        return {"C": inputs["A"] @ inputs["B"]}

    # ------------------------------------------------------------------ #
    # Model-side analysis (Section IV-C)
    # ------------------------------------------------------------------ #
    def metrics(self, n: int, machine: ATGPUMachine) -> AlgorithmMetrics:
        ensure_positive_int(n, "n")
        b = min(machine.b, n)
        tiles = ceil_div(n, b)
        blocks = tiles ** 2
        io_per_block = tiles * 2 * b + b  # load A+B tiles each k-step, store C tile
        round_metrics = RoundMetrics(
            time=float(n * b),
            io_blocks=float(blocks * io_per_block),
            inward_words=2.0 * n * n,
            outward_words=float(n * n),
            inward_transactions=2,
            outward_transactions=1,
            global_words=3.0 * n * n,
            shared_words_per_mp=3.0 * b * b,
            thread_blocks=blocks,
            label="matrix multiplication",
        )
        return AlgorithmMetrics([round_metrics], name=self.name)

    def metrics_batch(self, ns, machine: ATGPUMachine) -> MetricsBatch:
        """Vectorized :meth:`metrics` over a vector of matrix sides.

        The tile width ``b = min(machine.b, n)`` is itself size-dependent,
        so every derived quantity is a per-size column.
        """
        sizes = size_vector(ns)
        b = np.minimum(machine.b, sizes)
        tiles = ceil_div(sizes, b).astype(np.int64)
        blocks = tiles ** 2
        io_per_block = tiles * 2 * b + b  # load A+B tiles each k-step, store C tile
        return MetricsBatch.from_rounds(sizes, [round_arrays(
            len(sizes),
            time=(sizes * b).astype(float),
            # Float products: for sides up to G the int64 ones could wrap.
            io_blocks=blocks.astype(float) * io_per_block,
            inward_words=2.0 * sizes * sizes,
            outward_words=sizes.astype(float) * sizes,
            inward_transactions=2,
            outward_transactions=1,
            global_words=3.0 * sizes * sizes,
            shared_words_per_mp=3.0 * b * b,
            thread_blocks=blocks,
            label="matrix multiplication",
        )], algorithm=self.name)

    def build_pseudocode(self, n: int, machine: ATGPUMachine) -> Program:
        ensure_positive_int(n, "n")
        b = min(machine.b, n)
        tiles = ceil_div(n, b)
        kernel = KernelLaunch(
            grid_blocks=tiles ** 2,
            shared_declarations=(
                shared_var("_ta", b * b), shared_var("_tb", b * b),
                shared_var("_tc", b * b),
            ),
            label="tiled matrix multiplication kernel",
            body=(
                Loop(
                    count=tiles,
                    var="kt",
                    body=(
                        GlobalToShared("_ta", "ma", blocks_per_mp=b, operations=b),
                        GlobalToShared("_tb", "mb", blocks_per_mp=b, operations=b),
                        Barrier(),
                        SharedCompute("_tc", "_tc + _ta · _tb", operations=b * b),
                        Barrier(),
                    ),
                ),
                SharedToGlobal("mc", "_tc", blocks_per_mp=b, operations=b),
            ),
        )
        return Program(
            name="matrix-multiplication",
            variables=(
                host_var("A", n * n), host_var("B", n * n), host_var("C", n * n),
                global_var("ma", n * n), global_var("mb", n * n), global_var("mc", n * n),
                shared_var("_ta", b * b), shared_var("_tb", b * b), shared_var("_tc", b * b),
            ),
            rounds=(
                Round(
                    transfers_in=(
                        TransferIn("ma", "A", words=n * n),
                        TransferIn("mb", "B", words=n * n),
                    ),
                    launches=(kernel,),
                    transfers_out=(TransferOut("C", "mc", words=n * n),),
                    label="matrix multiplication",
                ),
            ),
            params={"n": float(n), "b": float(b)},
        )

    # ------------------------------------------------------------------ #
    # Simulator-side execution
    # ------------------------------------------------------------------ #
    def run(self, device: GPUDevice, inputs: Dict[str, np.ndarray]) -> RunResult:
        a = np.asarray(inputs["A"], dtype=np.float64)
        b_matrix = np.asarray(inputs["B"], dtype=np.float64)
        if a.shape != b_matrix.shape or a.shape[0] != a.shape[1]:
            raise ValueError("A and B must be square matrices of the same size")
        n = a.shape[0]
        device.reset_timers()
        device.memcpy_htod("ma", a.reshape(-1))
        device.memcpy_htod("mb", b_matrix.reshape(-1))
        device.allocate("mc", n * n, dtype=np.float64)
        kernel = MatrixMultiplicationKernel(n, device.config.warp_width)
        force_functional = None
        if kernel.grid_size() > self._functional_limit:
            force_functional = False
        device.launch(kernel, force_functional=force_functional)
        c = device.memcpy_dtoh("mc").reshape(n, n)
        device.synchronise("matrix multiplication round")
        result = RunResult(
            outputs={"C": c},
            total_time_s=device.total_time_s,
            kernel_time_s=device.kernel_time_s,
            transfer_time_s=device.transfer_time_s,
            sync_time_s=device.sync_time_s,
        )
        for name in ("ma", "mb", "mc"):
            device.free(name)
        return result
