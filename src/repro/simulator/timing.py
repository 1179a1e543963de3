"""The cycle-accounting timing engine of the simulator.

Where the ATGPU cost function charges every global-memory block access a
full latency ``λ`` serially, a real GPU overlaps memory latency with the
execution of other resident warps (latency hiding), is ultimately limited by
its memory bandwidth, and pays per-launch overheads.  The timing engine
models those mechanisms so the simulator's "observed" times are produced by
a genuinely different model than the analytical prediction — which is what
makes the paper's prediction-vs-observation comparison meaningful in this
reproduction.

For one kernel launch the engine computes, per wave of resident blocks on
one SM, three candidate bounds and takes their maximum:

* **issue bound** -- every warp-instruction of every resident block must be
  issued by the SM's schedulers: ``ℓ · (compute + shared access cycles)``,
* **latency bound** -- a single block's chain of global transactions, with
  ``memory_parallelism`` outstanding requests overlapping, plus the block's
  own instruction issue (which cannot hide behind its own memory stalls):
  ``transactions/block · λ / MLP + mean_issue``,
* **bandwidth bound** -- the wave's total global traffic cannot exceed the
  device bandwidth share of one SM:
  ``ℓ · words/block / (BW_words_per_cycle / num_SMs)``.

The kernel's total device time is ``waves · wave_time + λ`` (pipeline fill)
converted to seconds, plus the host-side launch overhead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from repro.core.occupancy import blocks_per_multiprocessor_grid, wave_count_grid
from repro.simulator.config import DeviceConfig
from repro.simulator.scheduler import BlockScheduler, SchedulePlan
from repro.simulator.trace import BlockTrace, KernelCounters


@dataclass(frozen=True)
class KernelTiming:
    """Timing result of one kernel launch."""

    kernel_name: str
    cycles: float
    device_time_s: float
    launch_overhead_s: float
    issue_bound_cycles: float
    latency_bound_cycles: float
    bandwidth_bound_cycles: float
    plan: SchedulePlan
    counters: KernelCounters

    @property
    def total_time_s(self) -> float:
        """Device time plus host-side launch overhead."""
        return self.device_time_s + self.launch_overhead_s

    @property
    def limiting_factor(self) -> str:
        """Which of the three bounds dominated the wave time."""
        bounds = {
            "issue": self.issue_bound_cycles,
            "latency": self.latency_bound_cycles,
            "bandwidth": self.bandwidth_bound_cycles,
        }
        return max(bounds, key=bounds.get)


class TimingEngine:
    """Computes kernel timings from block traces and the device configuration."""

    def __init__(self, config: DeviceConfig) -> None:
        self.config = config
        self.scheduler = BlockScheduler(config)

    # ------------------------------------------------------------------ #
    # Per-block cycle components
    # ------------------------------------------------------------------ #
    def block_issue_cycles(self, trace: BlockTrace) -> float:
        """Cycles of instruction issue for one block (compute + shared + barriers)."""
        config = self.config
        compute = trace.compute_operations * config.issue_cycles
        shared = trace.shared_conflict_cycles_factor * config.shared_latency_cycles
        barriers = trace.barriers * config.barrier_cycles
        return compute + shared + barriers

    def block_latency_cycles(self, trace: BlockTrace) -> float:
        """Exposed global-memory latency cycles of one block."""
        config = self.config
        if trace.global_transactions == 0:
            return 0.0
        overlapped = trace.global_transactions / config.memory_parallelism
        return overlapped * config.global_latency_cycles

    # ------------------------------------------------------------------ #
    # Launch-level timing
    # ------------------------------------------------------------------ #
    def launch_totals(
        self,
        kernel_name: str,
        traces_with_counts: Sequence[Tuple[BlockTrace, int]],
        functional: bool = False,
    ) -> Tuple[KernelCounters, float, float]:
        """Counters plus total issue and latency cycles of a launch.

        Each ``(trace, count)`` pair gives one row: the block's issue and
        latency cycles and its five float counters.  A ``functional``
        launch repeats the row once per block of the run; a sampled one
        multiplies it by the count.  ``np.add.accumulate`` then adds the
        rows left to right, rounding after every add, so a run of blocks
        sums exactly as a block-by-block execution does (neither the
        pairwise ``np.sum`` nor the builtin ``sum``, compensated on
        Python 3.12).  The batched probe aggregates its launches here too.
        """
        if not traces_with_counts:
            raise ValueError("a launch needs at least one block trace")
        rows = []
        counts = []
        num_blocks = bank_conflict_blocks = max_shared_words = 0
        for trace, count in traces_with_counts:
            rows.append((
                self.block_issue_cycles(trace),
                self.block_latency_cycles(trace),
                trace.compute_operations,
                trace.shared_accesses,
                trace.global_transactions,
                trace.global_words,
                trace.barriers,
            ))
            counts.append(count)
            num_blocks += count
            if trace.has_bank_conflicts:
                bank_conflict_blocks += count
            max_shared_words = max(max_shared_words, trace.shared_words_used)
        table = np.array(rows, dtype=float)
        if functional:
            table = np.repeat(table, counts, axis=0)
        else:
            table = table * np.array(counts, dtype=float)[:, None]
        (issue, latency, compute, shared, transactions, words,
         barriers) = np.add.accumulate(table, axis=0)[-1].tolist()
        counters = KernelCounters(
            kernel_name=kernel_name,
            num_blocks=num_blocks,
            compute_operations=compute,
            shared_accesses=shared,
            global_transactions=transactions,
            global_words=words,
            barriers=barriers,
            bank_conflict_blocks=bank_conflict_blocks,
            max_shared_words_per_block=max_shared_words,
        )
        return counters, issue, latency

    def kernel_timing(
        self,
        kernel_name: str,
        traces_with_counts: Sequence[Tuple[BlockTrace, int]],
        functional: bool = False,
    ) -> KernelTiming:
        """Time a launch described by ``(trace, multiplicity)`` pairs.

        The traces are assumed to cover the whole grid (their multiplicities
        sum to the grid size); ``functional`` is the launch decision that
        fixes their summation order (:meth:`launch_totals`).  When blocks
        differ structurally the engine uses the *weighted mean* per-block
        cycle components, which is exact for the aggregate issue and
        bandwidth bounds and a close approximation for the latency bound.
        """
        counters, total_issue, total_latency = self.launch_totals(
            kernel_name, traces_with_counts, functional
        )
        num_blocks = counters.num_blocks
        plan = self.scheduler.plan(
            num_blocks, counters.max_shared_words_per_block
        )

        mean_issue = total_issue / num_blocks
        mean_latency = total_latency / num_blocks
        mean_words = counters.global_words / num_blocks

        config = self.config
        resident = plan.blocks_per_sm
        # Per-SM share of the device memory bandwidth, in words per cycle.
        bandwidth_share = config.global_bandwidth_words_per_cycle / config.num_sms

        issue_bound = resident * mean_issue
        latency_bound = mean_latency + mean_issue
        bandwidth_bound = resident * mean_words / bandwidth_share

        wave_cycles = max(issue_bound, latency_bound, bandwidth_bound)
        total_cycles = plan.waves * wave_cycles + config.global_latency_cycles
        device_time = total_cycles / config.clock_hz
        return KernelTiming(
            kernel_name=kernel_name,
            cycles=total_cycles,
            device_time_s=device_time,
            launch_overhead_s=config.kernel_launch_overhead_s,
            issue_bound_cycles=issue_bound,
            latency_bound_cycles=latency_bound,
            bandwidth_bound_cycles=bandwidth_bound,
            plan=plan,
            counters=counters,
        )


@dataclass(frozen=True)
class KernelTimingGrid:
    """Timing results for a grid of kernel launches (launches × sizes).

    The batched analogue of :class:`KernelTiming`: every field is an array
    over the grid, mirroring how ``MetricsBatch`` holds rounds × sizes cost
    inputs.  Elements are bit-for-bit equal to what the scalar
    :meth:`TimingEngine.kernel_timing` produces for the corresponding launch.
    """

    num_blocks: np.ndarray
    blocks_per_sm: np.ndarray
    waves: np.ndarray
    issue_bound_cycles: np.ndarray
    latency_bound_cycles: np.ndarray
    bandwidth_bound_cycles: np.ndarray
    cycles: np.ndarray
    device_time_s: np.ndarray
    launch_overhead_s: float

    @property
    def total_time_s(self) -> np.ndarray:
        """Device time plus host-side launch overhead, per launch."""
        return self.device_time_s + self.launch_overhead_s


def kernel_timing_grid(
    config: DeviceConfig,
    num_blocks,
    total_issue_cycles,
    total_latency_cycles,
    global_words,
    shared_words_per_block,
) -> KernelTimingGrid:
    """Vectorized twin of :meth:`TimingEngine.kernel_timing`.

    Inputs are per-launch aggregates (any common shape, e.g. launches ×
    sizes): grid sizes, the trace-weighted total issue and latency cycles,
    total global words, and the per-block shared-memory footprint the
    scheduler plans with.  Aggregation over block traces stays with the
    caller — it is order-sensitive float accumulation — while everything
    downstream of the aggregates is elementwise and replicates the scalar
    operand order exactly.
    """
    blocks = np.asarray(num_blocks, dtype=np.int64)
    total_issue = np.asarray(total_issue_cycles, dtype=float)
    total_latency = np.asarray(total_latency_cycles, dtype=float)
    words = np.asarray(global_words, dtype=float)
    if np.any(blocks <= 0):
        raise ValueError("kernel_timing_grid requires positive grid sizes")
    resident = blocks_per_multiprocessor_grid(
        config.shared_memory_words,
        np.asarray(shared_words_per_block, dtype=float),
        config.max_blocks_per_sm,
    )
    waves = wave_count_grid(blocks, config.num_sms, resident)

    mean_issue = total_issue / blocks
    mean_latency = total_latency / blocks
    mean_words = words / blocks
    bandwidth_share = config.global_bandwidth_words_per_cycle / config.num_sms

    issue_bound = resident * mean_issue
    latency_bound = mean_latency + mean_issue
    bandwidth_bound = resident * mean_words / bandwidth_share

    wave_cycles = np.maximum(np.maximum(issue_bound, latency_bound), bandwidth_bound)
    total_cycles = waves * wave_cycles + config.global_latency_cycles
    device_time = total_cycles / config.clock_hz
    return KernelTimingGrid(
        num_blocks=blocks,
        blocks_per_sm=resident,
        waves=waves,
        issue_bound_cycles=issue_bound,
        latency_bound_cycles=latency_bound,
        bandwidth_bound_cycles=bandwidth_bound,
        cycles=total_cycles,
        device_time_s=device_time,
        launch_overhead_s=config.kernel_launch_overhead_s,
    )
