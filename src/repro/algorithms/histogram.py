"""Histogram computation on the ATGPU model (extension problem).

Each block builds a private histogram of its ``b``-element segment in shared
memory and then merges it into a per-block slice of a global partial-
histogram array; a second round reduces the per-block partials into the
final histogram.  Shared-memory updates of a histogram are the textbook
source of bank conflicts, so this problem exercises the model component the
paper's three examples deliberately avoid ("we assume bank conflicts do not
occur, as these are difficult to analyse") — here the simulator measures
them and the analysis charges the worst-case serialisation.
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


class BlockHistogramKernel(KernelProgram):
    """Phase 1: per-block private histograms written to a partials array.

    Each block processes ``elements_per_thread`` consecutive warp-wide chunks
    (so ``b * elements_per_thread`` input elements), the standard technique
    for keeping the number of partial histograms — and hence the merge cost —
    small.
    """

    name = "block_histogram_kernel"

    def __init__(self, n: int, bins: int, warp_width: int,
                 src: str, partials: str, elements_per_thread: int = 64) -> None:
        self.n = ensure_positive_int(n, "n")
        self.bins = ensure_positive_int(bins, "bins")
        self.warp_width = ensure_positive_int(warp_width, "warp_width")
        self.elements_per_thread = ensure_positive_int(
            elements_per_thread, "elements_per_thread"
        )
        self.src, self.partials = src, partials

    @property
    def segment(self) -> int:
        """Input elements handled by one block."""
        return self.warp_width * self.elements_per_thread

    def grid_size(self) -> int:
        return ceil_div(self.n, self.segment)

    def array_names(self) -> Tuple[str, ...]:
        return (self.src, self.partials)

    def shared_words_per_block(self) -> int:
        return self.bins

    def run_block(self, ctx: BlockContext) -> None:
        b = self.warp_width
        hist = ctx.shared_alloc("_hist", self.bins)
        base = ctx.block_index * self.segment
        for chunk in range(self.elements_per_thread):
            start = base + chunk * b
            if start >= self.n:
                break
            count = min(b, self.n - start)
            lanes = np.arange(count)
            values = ctx.global_read(self.src, start + lanes).astype(np.int64)
            bins = values % self.bins
            ctx.compute(1.0, label="bin increments")
            np.add.at(hist, bins, 1)
            # Scatter the increments into the shared histogram: the access is
            # potentially bank-conflicting, which the trace records.
            ctx.shared_write("_hist", bins, hist[bins])
        # Merge into the per-block slice of the global partials array.
        bin_lanes = np.arange(self.bins)
        ctx.global_write(self.partials, ctx.block_index * self.bins + bin_lanes,
                         hist[bin_lanes])

    def vectorised_result(self, arrays: Dict[str, DeviceArray]) -> None:
        grid = self.grid_size()
        src = arrays[self.src].data[: self.n].astype(np.int64) % self.bins
        partials = np.zeros((grid, self.bins), dtype=np.int64)
        block_of = np.arange(self.n) // self.segment
        np.add.at(partials, (block_of, src), 1)
        arrays[self.partials].data[: grid * self.bins] = partials.reshape(-1)


class MergePartialsKernel(KernelProgram):
    """Phase 2: column-sum the per-block partial histograms."""

    name = "histogram_merge_kernel"

    def __init__(self, num_partials: int, bins: int, warp_width: int,
                 partials: str, out: str) -> None:
        self.num_partials = ensure_positive_int(num_partials, "num_partials")
        self.bins = ensure_positive_int(bins, "bins")
        self.warp_width = ensure_positive_int(warp_width, "warp_width")
        self.partials, self.out = partials, out

    def grid_size(self) -> int:
        return ceil_div(self.bins, self.warp_width)

    def array_names(self) -> Tuple[str, ...]:
        return (self.partials, self.out)

    def shared_words_per_block(self) -> int:
        return self.warp_width

    def run_block(self, ctx: BlockContext) -> None:
        b = self.warp_width
        start = ctx.block_index * b
        count = min(b, self.bins - start)
        lanes = np.arange(count)
        acc = ctx.shared_alloc("_acc", b)
        for block in range(self.num_partials):
            values = ctx.global_read(self.partials,
                                     block * self.bins + start + lanes)
            ctx.compute(1.0, label="accumulate partial")
            acc[:count] += values
        ctx.shared_write("_acc", lanes, acc[:count])
        ctx.global_write(self.out, start + lanes, acc[:count])

    def vectorised_result(self, arrays: Dict[str, DeviceArray]) -> None:
        partials = arrays[self.partials].data[: self.num_partials * self.bins]
        arrays[self.out].data[: self.bins] = (
            partials.reshape(self.num_partials, self.bins).sum(axis=0)
        )


class Histogram(GPUAlgorithm):
    """Binned histogram of an integer vector (extension problem)."""

    name = "histogram"
    description = "Histogram of an n-element integer vector into a fixed number of bins"

    _functional_limit = 512
    #: Consecutive warp-wide chunks handled by each block in phase 1.
    elements_per_thread = 64

    def __init__(self, bins: int = 64) -> None:
        self.bins = ensure_positive_int(bins, "bins")

    def default_sizes(self) -> List[int]:
        return [1 << e for e in range(16, 24)]

    def generate_input(self, n: int, seed: int = 0) -> Dict[str, np.ndarray]:
        rng = np.random.default_rng(seed)
        return {"A": rng.integers(0, self.bins, size=n, dtype=np.int64)}

    def reference(self, inputs: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
        counts = np.bincount(inputs["A"] % self.bins, minlength=self.bins)
        return {"H": counts.astype(np.int64)}

    def metrics(self, n: int, machine: ATGPUMachine) -> AlgorithmMetrics:
        b = machine.b
        ept = self.elements_per_thread
        blocks = ceil_div(n, (b * ept))
        bin_blocks = ceil_div(self.bins, b)
        build_round = RoundMetrics(
            # Per chunk: load and scatter (worst-case b-way serialisation is
            # charged as b operations), plus the partial write-back.
            time=float(ept) * (2.0 + float(b)),
            io_blocks=float(blocks * (ept + bin_blocks)),
            inward_words=float(n), inward_transactions=1,
            global_words=float(n + blocks * self.bins + self.bins),
            shared_words_per_mp=float(self.bins),
            thread_blocks=blocks,
            label="per-block histograms",
        )
        merge_round = RoundMetrics(
            time=float(blocks),
            io_blocks=float(bin_blocks * (blocks + 1)),
            outward_words=float(self.bins), outward_transactions=1,
            global_words=float(n + blocks * self.bins + self.bins),
            shared_words_per_mp=float(b),
            thread_blocks=max(1, bin_blocks),
            label="merge partials",
        )
        return AlgorithmMetrics([build_round, merge_round], name=self.name)

    def metrics_batch(self, ns, machine: ATGPUMachine) -> MetricsBatch:
        """Vectorized :meth:`metrics`: build + merge phases over a size vector."""
        sizes = size_vector(ns)
        b = machine.b
        ept = self.elements_per_thread
        blocks = ceil_div(sizes, (b * ept)).astype(np.int64)
        bin_blocks = ceil_div(self.bins, b)
        global_words = (sizes + blocks * self.bins + self.bins).astype(float)
        n_sizes = len(sizes)
        build_round = round_arrays(
            n_sizes,
            # Per chunk: load and scatter (worst-case b-way serialisation is
            # charged as b operations), plus the partial write-back.
            time=float(ept) * (2.0 + float(b)),
            io_blocks=(blocks * (ept + bin_blocks)).astype(float),
            inward_words=sizes.astype(float), inward_transactions=1,
            global_words=global_words,
            shared_words_per_mp=float(self.bins),
            thread_blocks=blocks,
            label="per-block histograms",
        )
        merge_round = round_arrays(
            n_sizes,
            time=blocks.astype(float),
            io_blocks=(bin_blocks * (blocks + 1)).astype(float),
            outward_words=float(self.bins), outward_transactions=1,
            global_words=global_words,
            shared_words_per_mp=float(b),
            thread_blocks=max(1, bin_blocks),
            label="merge partials",
        )
        return MetricsBatch.from_rounds(
            sizes, [build_round, merge_round], algorithm=self.name
        )

    def build_pseudocode(self, n: int, machine: ATGPUMachine) -> Program:
        b = machine.b
        ept = self.elements_per_thread
        blocks = ceil_div(n, (b * ept))
        bin_blocks = max(1, ceil_div(self.bins, b))
        build_body = (
            Loop(count=ept, var="chunk", body=(
                GlobalToShared("_seg", "a"),
                SharedCompute("_hist", "_hist[_seg[j] mod bins] + 1", operations=b),
            )),
            SharedToGlobal("partials", "_hist", blocks_per_mp=bin_blocks),
        )
        merge_body = (
            Loop(count=blocks, var="block", body=(
                GlobalToShared("_acc", "partials"),
                SharedCompute("_acc", "_acc[j] + partials[block][j]"),
            )),
            SharedToGlobal("h", "_acc"),
        )
        return Program(
            name="histogram",
            variables=(
                host_var("A", n), host_var("H", self.bins),
                global_var("a", n), global_var("partials", blocks * self.bins),
                global_var("h", self.bins),
                shared_var("_seg", b), shared_var("_hist", self.bins),
                shared_var("_acc", b),
            ),
            rounds=(
                Round(
                    transfers_in=(TransferIn("a", "A", words=n),),
                    launches=(KernelLaunch(blocks, build_body,
                                           (shared_var("_seg", b),
                                            shared_var("_hist", self.bins)),
                                           "per-block histograms"),),
                    label="per-block histograms",
                ),
                Round(
                    launches=(KernelLaunch(bin_blocks, merge_body,
                                           (shared_var("_acc", b),),
                                           "merge partials"),),
                    transfers_out=(TransferOut("H", "h", words=self.bins),),
                    label="merge partials",
                ),
            ),
            params={"n": float(n), "b": float(b), "bins": float(self.bins)},
        )

    def run(self, device: GPUDevice, inputs: Dict[str, np.ndarray]) -> RunResult:
        a = np.asarray(inputs["A"], dtype=np.int64)
        n = a.size
        b = device.config.warp_width
        blocks = ceil_div(n, (b * self.elements_per_thread))
        device.reset_timers()
        device.memcpy_htod("a", a)
        device.allocate("partials", blocks * self.bins, dtype=np.int64)
        device.allocate("h", self.bins, dtype=np.int64)
        build = BlockHistogramKernel(
            n, self.bins, b, src="a", partials="partials",
            elements_per_thread=self.elements_per_thread,
        )
        force = False if build.grid_size() > self._functional_limit else None
        device.launch(build, force_functional=force)
        device.synchronise("per-block histograms")
        merge = MergePartialsKernel(blocks, self.bins, b, partials="partials", out="h")
        force = False if merge.grid_size() > self._functional_limit else None
        device.launch(merge, force_functional=force)
        device.synchronise("merge partials")
        h = device.memcpy_dtoh("h")
        result = RunResult(
            outputs={"H": h},
            total_time_s=device.total_time_s,
            kernel_time_s=device.kernel_time_s,
            transfer_time_s=device.transfer_time_s,
            sync_time_s=device.sync_time_s,
        )
        for name in ("a", "partials", "h"):
            device.free(name)
        return result
