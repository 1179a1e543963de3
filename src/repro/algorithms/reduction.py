"""Tree reduction on the ATGPU model (Section IV-B of the paper).

The reduction of an ``n``-element vector under ``+`` is computed with the
classic multi-round tree method (Harris, "Optimizing parallel reduction in
CUDA"): every round, each thread block loads ``b`` elements into shared
memory, reduces them to a single value with a log-depth in-block tree, and
writes that value out; rounds repeat on the shrinking array of partial sums
until one value remains.  The paper's analysis:

* rounds ``R = O(log n)`` (``⌈log_b n⌉`` kernel launches);
* per-round parallel time ``O(log b)``;
* total I/O ``O((n/b)·(1 - (1/b)^{log n})/(1 - 1/b))`` -- the geometric sum of
  per-round block counts;
* global memory ``O(n)``, shared memory ``O(b)`` per block;
* transfer ``O(α + βn)``: the input moves to the device once, the single-word
  answer moves back at the end.

The in-block tree uses the *interleaved addressing* scheme of the simple
kernel the paper cites, which produces divergent branches; divergence is
charged per the model's "all paths are executed" rule.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.algorithms.base import (
    GPUAlgorithm,
    RunResult,
    chunk_bounds,
    shard_bounds,
    sharded_pool,
)
from repro.core.topology import Topology
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
    If,
    KernelLaunch,
    Loop,
    SharedCompute,
    SharedToGlobal,
    TransferIn,
    TransferOut,
)
from repro.pseudocode.program import Program, Round
from repro.pseudocode.variables import global_var, host_var, shared_var
from repro.simulator.batch import ShardPlan, StreamPlan
from repro.simulator.device import GPUDevice
from repro.simulator.kernel import BlockContext, KernelProgram
from repro.simulator.memory import DeviceArray
from repro.simulator.timing import KernelTiming
from repro.utils.numerics import ceil_div
from repro.utils.validation import ensure_positive_int


def reduction_rounds(n: int, b: int) -> List[int]:
    """Sizes of the successive round inputs: ``n, ⌈n/b⌉, ... , > 1``.

    The returned list has one entry per kernel launch; the final launch
    reduces at most ``b`` values to one.
    """
    ensure_positive_int(n, "n")
    ensure_positive_int(b, "b")
    sizes = []
    size = n
    while size > 1:
        sizes.append(size)
        size = ceil_div(size, b)
    if not sizes:
        sizes = [n]
    return sizes


class ReductionRoundKernel(KernelProgram):
    """One round of the tree reduction: ``out[i] = Σ src[i·b : (i+1)·b]``."""

    name = "reduction_round_kernel"

    def __init__(self, m: int, warp_width: int, src: str, dst: str) -> None:
        self.m = ensure_positive_int(m, "m")
        self.warp_width = ensure_positive_int(warp_width, "warp_width")
        self.src = src
        self.dst = dst

    def grid_size(self) -> int:
        return ceil_div(self.m, self.warp_width)

    def array_names(self) -> Tuple[str, ...]:
        return (self.src, self.dst)

    def shared_words_per_block(self) -> int:
        return self.warp_width

    def run_block(self, ctx: BlockContext) -> None:
        b = self.warp_width
        start = ctx.block_index * b
        count = min(b, self.m - start)
        lanes = np.arange(count)
        shared = ctx.shared_alloc("_s", b)
        values = ctx.global_read(self.src, start + lanes)
        ctx.shared_write("_s", lanes, values)
        shared[:count] = values
        shared[count:] = 0
        # Interleaved-addressing tree: for stride s = 1, 2, 4, ... the lanes
        # with lane % 2s == 0 accumulate their right neighbour.  The branch
        # diverges, so both paths are charged (all paths executed).
        stride = 1
        while stride < b:
            active = np.arange(0, b, 2 * stride)
            active = active[active + stride < b]
            ctx.shared_read("_s", active + stride)
            ctx.diverge([1.0, 1.0], label=f"stride {stride} add")
            shared[active] += shared[active + stride]
            ctx.shared_write("_s", active, shared[active])
            ctx.barrier()
            stride *= 2
        # Lane 0 writes the block's partial sum.
        ctx.global_write(self.dst, np.array([ctx.block_index]), shared[:1])

    def vectorised_result(self, arrays: Dict[str, DeviceArray]) -> None:
        b = self.warp_width
        grid = self.grid_size()
        src = arrays[self.src].data[: self.m]
        padded = np.zeros(grid * b, dtype=src.dtype)
        padded[: self.m] = src
        arrays[self.dst].data[:grid] = padded.reshape(grid, b).sum(axis=1)


class Reduction(GPUAlgorithm):
    """Sum reduction, the paper's multi-round example."""

    name = "reduction"
    description = "Tree reduction (sum) of an n-element 0/1 vector"

    #: Block traces depend only on indices, so the batched probe may skip
    #: input materialisation (parity-tested in tests/test_sim_batch.py).
    sim_trace_data_dependent = False

    #: Grids larger than this are simulated via representative-block tracing.
    _functional_limit = 4096

    # ------------------------------------------------------------------ #
    # Workload
    # ------------------------------------------------------------------ #
    def default_sizes(self) -> List[int]:
        """The paper sweeps n = 2^16, 2^17, ..., 2^26."""
        return [1 << e for e in range(16, 27)]

    def generate_input(self, n: int, seed: int = 0) -> Dict[str, np.ndarray]:
        ensure_positive_int(n, "n")
        rng = np.random.default_rng(seed)
        return {"A": rng.integers(0, 2, size=n, dtype=np.int64)}

    def sim_inputs(self, n: int, seed: int = 0) -> Dict[str, np.ndarray]:
        ensure_positive_int(n, "n")
        return {"A": np.zeros(n, dtype=np.int64)}

    def reference(self, inputs: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
        return {"Ans": np.array([inputs["A"].sum()], dtype=np.int64)}

    # ------------------------------------------------------------------ #
    # Model-side analysis (Section IV-B)
    # ------------------------------------------------------------------ #
    def metrics(self, n: int, machine: ATGPUMachine) -> AlgorithmMetrics:
        ensure_positive_int(n, "n")
        b = machine.b
        tree_depth = max(1.0, math.log2(b))
        sizes = reduction_rounds(n, b)
        rounds = []
        for index, size in enumerate(sizes):
            blocks = ceil_div(size, b)
            rounds.append(RoundMetrics(
                # Load, log2(b) tree steps (divergent, so doubled), store.
                time=2.0 + 2.0 * tree_depth,
                # One coalesced read per block plus the partial-sum write.
                io_blocks=2.0 * blocks,
                inward_words=float(n) if index == 0 else 0.0,
                inward_transactions=1 if index == 0 else 0,
                outward_words=1.0 if index == len(sizes) - 1 else 0.0,
                outward_transactions=1 if index == len(sizes) - 1 else 0,
                global_words=float(n + ceil_div(n, b)),
                shared_words_per_mp=float(b),
                thread_blocks=blocks,
                label=f"reduction level {index + 1} ({size} values)",
            ))
        return AlgorithmMetrics(rounds, name=self.name)

    def metrics_batch(self, ns, machine: ATGPUMachine) -> MetricsBatch:
        """Vectorized :meth:`metrics`: the log tree over a size vector.

        The per-size round count varies (``⌈log_b n⌉`` levels), so the
        recurrence iterates level by level over the whole vector — each
        level's ``ceil`` mirrors the scalar :func:`reduction_rounds` float
        division exactly — and deeper levels are simply marked absent for
        the sizes whose trees already bottomed out.
        """
        sizes = size_vector(ns)
        b = machine.b
        tree_depth = max(1.0, math.log2(b))
        time = 2.0 + 2.0 * tree_depth
        n_sizes = len(sizes)
        # Level sizes n, ⌈n/b⌉, ... while > 1; n = 1 keeps its single round.
        levels = []
        current = sizes.copy()
        present = np.ones(n_sizes, dtype=bool)
        while True:
            levels.append((current, present))
            nxt = ceil_div(current, b).astype(np.int64)
            present = present & (nxt > 1)
            if not present.any():
                break
            current = nxt
        depths = sum(
            (p.astype(np.int64) for _, p in levels),
            np.zeros(n_sizes, dtype=np.int64),
        )
        global_words = (sizes + ceil_div(sizes, b).astype(np.int64)).astype(float)
        rounds = []
        for index, (level_sizes, level_present) in enumerate(levels):
            blocks = ceil_div(level_sizes, b).astype(np.int64)
            last = depths == index + 1
            rounds.append(round_arrays(
                n_sizes,
                # Load, log2(b) tree steps (divergent, so doubled), store.
                time=time,
                # One coalesced read per block plus the partial-sum write.
                io_blocks=2.0 * blocks,
                inward_words=sizes.astype(float) if index == 0 else 0.0,
                inward_transactions=1 if index == 0 else 0,
                outward_words=np.where(last, 1.0, 0.0),
                outward_transactions=np.where(last, 1, 0),
                global_words=global_words,
                shared_words_per_mp=float(b),
                thread_blocks=np.where(level_present, blocks, 1),
                present=level_present,
                label=f"reduction level {index + 1}",
            ))
        return MetricsBatch.from_rounds(sizes, rounds, algorithm=self.name)

    def build_pseudocode(self, n: int, machine: ATGPUMachine) -> Program:
        ensure_positive_int(n, "n")
        b = machine.b
        sizes = reduction_rounds(n, b)
        tree_depth = max(1, int(math.ceil(math.log2(b))))
        rounds = []
        variables = [
            host_var("A", n),
            host_var("Ans", 1),
            global_var("a", n),
            global_var("partials", max(1, ceil_div(n, b))),
            shared_var("_s", b),
        ]
        for index, size in enumerate(sizes):
            src = "a" if index % 2 == 0 else "partials"
            dst = "partials" if index % 2 == 0 else "a"
            blocks = ceil_div(size, b)
            kernel = KernelLaunch(
                grid_blocks=blocks,
                shared_declarations=(shared_var("_s", b),),
                label=f"reduction kernel level {index + 1}",
                body=(
                    GlobalToShared("_s", src, blocks_per_mp=1),
                    Loop(
                        count=tree_depth,
                        var="level",
                        body=(
                            If(
                                condition_description="lane mod 2^(level+1) == 0",
                                body=(
                                    SharedCompute("_s", "_s[lane] + _s[lane + 2^level]",
                                                  operations=2),
                                ),
                            ),
                            Barrier(),
                        ),
                    ),
                    SharedToGlobal(dst, "_s", blocks_per_mp=1),
                ),
            )
            rounds.append(Round(
                transfers_in=(TransferIn(src, "A", words=n),) if index == 0 else (),
                launches=(kernel,),
                transfers_out=(
                    (TransferOut("Ans", dst, words=1),)
                    if index == len(sizes) - 1 else ()
                ),
                label=f"reduction level {index + 1}",
            ))
        return Program(
            name="reduction",
            variables=tuple(variables),
            rounds=tuple(rounds),
            params={"n": float(n), "b": float(b)},
        )

    # ------------------------------------------------------------------ #
    # Simulator-side execution
    # ------------------------------------------------------------------ #
    def run(self, device: GPUDevice, inputs: Dict[str, np.ndarray]) -> RunResult:
        a = np.asarray(inputs["A"])
        n = a.size
        b = device.config.warp_width
        device.reset_timers()
        device.memcpy_htod("a", a)
        device.allocate("partials", max(1, ceil_div(n, b)), dtype=a.dtype)
        src, dst = "a", "partials"
        for size in reduction_rounds(n, b):
            kernel = ReductionRoundKernel(size, b, src=src, dst=dst)
            device.launch(kernel, force_functional=self._force_functional(kernel))
            device.synchronise(f"reduction level ({size} values)")
            src, dst = dst, src
        answer = device.memcpy_dtoh_partial(src, 1)
        result = RunResult(
            outputs={"Ans": answer},
            total_time_s=device.total_time_s,
            kernel_time_s=device.kernel_time_s,
            transfer_time_s=device.transfer_time_s,
            sync_time_s=device.sync_time_s,
        )
        for name in ("a", "partials"):
            device.free(name)
        return result

    def schedule_outputs(
        self, device: GPUDevice, inputs: Dict[str, np.ndarray]
    ) -> Tuple[int, Dict[str, np.ndarray]]:
        """Size and answer of a streamed or sharded run: the host sum."""
        a = np.asarray(inputs["A"]).reshape(-1)
        return a.size, {"Ans": np.array([a.sum()], dtype=a.dtype)}

    # ------------------------------------------------------------------ #
    # Streamed and sharded schedules
    # ------------------------------------------------------------------ #
    def _force_functional(self, kernel: ReductionRoundKernel) -> Optional[bool]:
        """Launch override of :meth:`run`: sampled above the level limit."""
        if kernel.grid_size() > self._functional_limit:
            return False
        return None

    def _timed_kernel(
        self, device: GPUDevice, kernel: ReductionRoundKernel
    ) -> KernelTiming:
        """Timing of one reduction level as :meth:`run` would launch it."""
        return device.time_launch(kernel, self._force_functional(kernel))

    def _scratch_device(
        self, n: int, config, partials: int
    ) -> GPUDevice:
        """A device holding ``a`` then ``partials``, as :meth:`run` does.

        Coalesced-transaction counts depend on global-memory offsets, so
        the kernels of a schedule are traced against this layout.
        """
        device = GPUDevice(config)
        device.allocate("a", n, dtype=np.int64)
        device.allocate("partials", max(1, partials), dtype=np.int64)
        return device

    def sim_stream_plan(
        self, n, config, chunks: int = 2, pinned: bool = False
    ) -> StreamPlan:
        """Chunked reduction with the input copies overlapped by first-level
        kernels.

        Each chunk's stream carries its H2D copy followed by the first
        reduction level over that chunk, so the (transfer-dominant) input
        copy of chunk ``i+1`` streams in while chunk ``i`` reduces.  The
        surviving partial sums are then reduced by the usual tree on a final
        stream that waits on every chunk, and the single-word answer is
        copied out.
        """
        ensure_positive_int(n, "n")
        b = config.warp_width
        bounds = chunk_bounds(n, chunks)
        # Every chunk contributes ceil(m/b) partial sums; with many small
        # chunks that exceeds the ceil(n/b) of the unchunked run.
        total_partials = sum(ceil_div((hi - lo), b) for lo, hi in bounds)
        device = self._scratch_device(n, config, total_partials)
        plan = StreamPlan()
        chunk_kernel_ops = []
        partials = 0
        for index, (lo, hi) in enumerate(bounds):
            m = hi - lo
            stream = f"chunk{index}"
            plan.h2d(stream, m, pinned=pinned)
            kernel = ReductionRoundKernel(m, b, src="a", dst="partials")
            chunk_kernel_ops.append(
                plan.kernel(stream, self._timed_kernel(device, kernel))
            )
            partials += kernel.grid_size()
        plan.host("final", config.sync_overhead_s, wait=chunk_kernel_ops)
        src, dst = "partials", "a"
        if partials > 1:
            for size in reduction_rounds(partials, b):
                kernel = ReductionRoundKernel(size, b, src=src, dst=dst)
                plan.kernel("final", self._timed_kernel(device, kernel))
                plan.host("final", config.sync_overhead_s)
                src, dst = dst, src
        plan.d2h("final", 1, pinned=pinned)
        return plan

    def sim_shard_plan(
        self,
        n,
        config,
        devices: Optional[int] = None,
        contention: Optional[float] = None,
        pinned: bool = False,
        topology: Optional[Topology] = None,
    ) -> ShardPlan:
        """Reduction sharded across a multi-device pool.

        Each device receives a contiguous shard of the input, runs the full
        local reduction tree on it (one kernel + sync per level, exactly as
        :meth:`run` does for the whole array), and returns its single-word
        partial sum; the host adds the ``P`` partials.  The dominant H2D
        copy shards ``P`` ways, so scaling follows the link model: near
        linear on independent links, flat on a fully contended one.  With a
        ``topology``, shard widths follow the per-device throughput weights
        and each device's transfers stretch by its own socket's link
        contention.
        """
        ensure_positive_int(n, "n")
        b = config.warp_width
        device = self._scratch_device(n, config, ceil_div(n, b))
        pool = sharded_pool(config, devices, contention, topology)
        plan = ShardPlan(
            [pool.device_stretch(i) for i in range(pool.num_devices)]
        )
        # Equal-sized shards run identical kernel ladders; the timing is
        # deterministic in the level size, so memoise it across devices.
        timings: Dict[int, KernelTiming] = {}
        for index, (lo, hi) in enumerate(shard_bounds(pool, n)):
            m = hi - lo
            if m == 0:
                continue
            plan.h2d(index, m, pinned=pinned)
            src, dst = "a", "partials"
            for size in reduction_rounds(m, b):
                if size not in timings:
                    kernel = ReductionRoundKernel(size, b, src=src, dst=dst)
                    timings[size] = self._timed_kernel(device, kernel)
                plan.kernel(index, timings[size])
                plan.host(index, config.sync_overhead_s)
                src, dst = dst, src
            plan.d2h(index, 1, pinned=pinned)
        return plan
