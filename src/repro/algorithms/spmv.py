"""Sparse matrix–vector product (CSR SpMV) on the ATGPU model.

An extension problem with *data-dependent* irregular memory behaviour: the
matrix is stored in CSR format and each thread block processes one row per
lane using the scalar-CSR scheme (each lane walks its row's nonzeros).  The
column-index gathers from the dense vector are generally uncoalesced, so the
per-block transaction count depends on the sparsity pattern — something the
three regular examples of the paper never exercise.

Transfer-wise SpMV resembles vector addition: the values, column indices,
row pointers and the dense vector all move to the device, and only the small
result vector returns; for low ``nnz/row`` the transfer share is high.
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


class CSRSpMVKernel(KernelProgram):
    """Scalar-CSR SpMV: one matrix row per lane."""

    name = "csr_spmv_kernel"

    def __init__(self, rows: int, warp_width: int, max_row_nnz: int) -> None:
        self.rows = ensure_positive_int(rows, "rows")
        self.warp_width = ensure_positive_int(warp_width, "warp_width")
        self.max_row_nnz = ensure_positive_int(max_row_nnz, "max_row_nnz")

    def grid_size(self) -> int:
        return ceil_div(self.rows, self.warp_width)

    def array_names(self) -> Tuple[str, ...]:
        return ("values", "colidx", "rowptr", "x", "y")

    def shared_words_per_block(self) -> int:
        return self.warp_width

    def run_block(self, ctx: BlockContext) -> None:
        b = self.warp_width
        start = ctx.block_index * b
        count = min(b, self.rows - start)
        lanes = np.arange(count)
        acc = ctx.shared_alloc("_acc", b)
        row_start = ctx.global_read("rowptr", start + lanes).astype(np.int64)
        row_end = ctx.global_read("rowptr", start + lanes + 1).astype(np.int64)
        lengths = row_end - row_start
        for step in range(int(lengths.max()) if count else 0):
            active = lengths > step
            if not np.any(active):
                break
            positions = (row_start + step)[active]
            cols = ctx.global_read("colidx", positions).astype(np.int64)
            vals = ctx.global_read("values", positions)
            xs = ctx.global_read("x", cols)
            ctx.compute(1.0, label="multiply-accumulate")
            acc[np.flatnonzero(active)] += vals * xs
        ctx.shared_write("_acc", lanes, acc[:count])
        ctx.global_write("y", start + lanes, acc[:count])

    def vectorised_result(self, arrays: Dict[str, DeviceArray]) -> None:
        rowptr = arrays["rowptr"].data[: self.rows + 1].astype(np.int64)
        nnz = int(rowptr[-1])
        values = arrays["values"].data[:nnz]
        colidx = arrays["colidx"].data[:nnz].astype(np.int64)
        x = arrays["x"].data
        contrib = values * x[colidx]
        y = np.add.reduceat(contrib, rowptr[:-1]) if nnz else np.zeros(self.rows)
        # reduceat misbehaves for empty rows; recompute those as zero.
        row_lengths = np.diff(rowptr)
        y = np.where(row_lengths > 0, y, 0.0)
        arrays["y"].data[: self.rows] = y


class SpMV(GPUAlgorithm):
    """CSR sparse matrix–vector product (extension problem)."""

    name = "spmv"
    description = "y = M x for a random sparse CSR matrix with a fixed nnz per row"

    _functional_limit = 2048

    def __init__(self, nnz_per_row: int = 8) -> None:
        self.nnz_per_row = ensure_positive_int(nnz_per_row, "nnz_per_row")

    def default_sizes(self) -> List[int]:
        return [1 << e for e in range(12, 20)]

    def generate_input(self, n: int, seed: int = 0) -> Dict[str, np.ndarray]:
        rng = np.random.default_rng(seed)
        nnz = self.nnz_per_row
        colidx = rng.integers(0, n, size=(n, nnz)).astype(np.int64)
        values = rng.normal(size=(n, nnz))
        rowptr = np.arange(0, (n + 1) * nnz, nnz, dtype=np.int64)
        x = rng.normal(size=n)
        return {
            "Values": values.reshape(-1),
            "ColIdx": colidx.reshape(-1),
            "RowPtr": rowptr,
            "X": x,
        }

    def reference(self, inputs: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
        rowptr = inputs["RowPtr"].astype(np.int64)
        n = rowptr.size - 1
        values = inputs["Values"]
        colidx = inputs["ColIdx"].astype(np.int64)
        x = inputs["X"]
        y = np.zeros(n)
        contrib = values * x[colidx]
        for row in range(n):
            y[row] = contrib[rowptr[row]:rowptr[row + 1]].sum()
        return {"Y": y}

    def metrics(self, n: int, machine: ATGPUMachine) -> AlgorithmMetrics:
        b = machine.b
        nnz = self.nnz_per_row
        blocks = ceil_div(n, b)
        total_nnz = n * nnz
        round_metrics = RoundMetrics(
            time=float(2 + nnz),
            # Row pointers + per-nonzero value/colidx (coalesced) and the x
            # gather which in the worst case touches one block per lane.
            io_blocks=float(blocks * (2 + 2 * nnz + nnz * b / b) + blocks),
            inward_words=float(2 * total_nnz + (n + 1) + n),
            inward_transactions=4,
            outward_words=float(n),
            outward_transactions=1,
            global_words=float(2 * total_nnz + (n + 1) + 2 * n),
            shared_words_per_mp=float(b),
            thread_blocks=blocks,
            label="csr spmv",
        )
        return AlgorithmMetrics([round_metrics], name=self.name)

    def metrics_batch(self, ns, machine: ATGPUMachine) -> MetricsBatch:
        """Vectorized :meth:`metrics`: the CSR round over a size vector."""
        sizes = size_vector(ns)
        b = machine.b
        nnz = self.nnz_per_row
        blocks = ceil_div(sizes, b).astype(np.int64)
        total_nnz = sizes * nnz
        return MetricsBatch.from_rounds(sizes, [round_arrays(
            len(sizes),
            time=float(2 + nnz),
            # Row pointers + per-nonzero value/colidx (coalesced) and the x
            # gather which in the worst case touches one block per lane.
            io_blocks=blocks * (2 + 2 * nnz + nnz * b / b) + blocks,
            inward_words=(2 * total_nnz + (sizes + 1) + sizes).astype(float),
            inward_transactions=4,
            outward_words=sizes.astype(float),
            outward_transactions=1,
            global_words=(2 * total_nnz + (sizes + 1) + 2 * sizes).astype(float),
            shared_words_per_mp=float(b),
            thread_blocks=blocks,
            label="csr spmv",
        )], algorithm=self.name)

    def build_pseudocode(self, n: int, machine: ATGPUMachine) -> Program:
        b = machine.b
        nnz = self.nnz_per_row
        blocks = ceil_div(n, b)
        body = (
            GlobalToShared("_row", "rowptr", blocks_per_mp=1),
            Loop(count=nnz, var="step", body=(
                GlobalToShared("_val", "values", blocks_per_mp=1),
                GlobalToShared("_col", "colidx", blocks_per_mp=1),
                GlobalToShared("_x", "x", blocks_per_mp=b),
                SharedCompute("_acc", "_acc[j] + _val[j] * _x[j]"),
            )),
            SharedToGlobal("y", "_acc", blocks_per_mp=1),
        )
        return Program(
            name="csr-spmv",
            variables=(
                host_var("Values", n * nnz), host_var("ColIdx", n * nnz),
                host_var("RowPtr", n + 1), host_var("X", n), host_var("Y", n),
                global_var("values", n * nnz), global_var("colidx", n * nnz),
                global_var("rowptr", n + 1), global_var("x", n), global_var("y", n),
                shared_var("_row", b), shared_var("_val", b), shared_var("_col", b),
                shared_var("_x", b), shared_var("_acc", b),
            ),
            rounds=(
                Round(
                    transfers_in=(
                        TransferIn("values", "Values", words=n * nnz),
                        TransferIn("colidx", "ColIdx", words=n * nnz),
                        TransferIn("rowptr", "RowPtr", words=n + 1),
                        TransferIn("x", "X", words=n),
                    ),
                    launches=(KernelLaunch(blocks, body,
                                           (shared_var("_acc", b),), "csr spmv"),),
                    transfers_out=(TransferOut("Y", "y", words=n),),
                    label="csr spmv",
                ),
            ),
            params={"n": float(n), "b": float(b), "nnz": float(nnz)},
        )

    def run(self, device: GPUDevice, inputs: Dict[str, np.ndarray]) -> RunResult:
        rowptr = np.asarray(inputs["RowPtr"], dtype=np.int64)
        n = rowptr.size - 1
        device.reset_timers()
        device.memcpy_htod("values", np.asarray(inputs["Values"], dtype=np.float64))
        device.memcpy_htod("colidx", np.asarray(inputs["ColIdx"], dtype=np.int64))
        device.memcpy_htod("rowptr", rowptr)
        device.memcpy_htod("x", np.asarray(inputs["X"], dtype=np.float64))
        device.allocate("y", n, dtype=np.float64)
        max_row_nnz = int(np.diff(rowptr).max()) if n else 1
        kernel = CSRSpMVKernel(n, device.config.warp_width, max(1, max_row_nnz))
        force = False if kernel.grid_size() > self._functional_limit else None
        device.launch(kernel, force_functional=force)
        device.synchronise("spmv round")
        y = device.memcpy_dtoh("y")
        result = RunResult(
            outputs={"Y": y},
            total_time_s=device.total_time_s,
            kernel_time_s=device.kernel_time_s,
            transfer_time_s=device.transfer_time_s,
            sync_time_s=device.sync_time_s,
        )
        for name in ("values", "colidx", "rowptr", "x", "y"):
            device.free(name)
        return result
