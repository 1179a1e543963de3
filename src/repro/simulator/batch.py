"""Batched (vectorized) simulation of whole sweeps — the ``SimBatch`` layer.

The scalar observation path runs the simulator once per input size: every
``observe`` call replays the host program against a fresh
:class:`~repro.simulator.device.GPUDevice`, paying per-size input
generation, host↔device data movement and per-event timeline accounting.
For a dense model-vs-observed sweep that cost dwarfs the (vectorized)
prediction side.

This module packs a sweep into *array programs*, the way
:class:`~repro.core.batch.MetricsBatch` did for the cost model:

1. **Probe** — :class:`ProbeDevice` runs the algorithm's *real* ``run``
   method once per size, but records symbolic operations (transfer word
   counts, per-launch trace aggregates, syncs) instead of timed events.
   Because the genuine host program executes — same allocations, same
   launch decisions, same representative-block traces — the recorded
   program is structurally identical to the scalar run's timeline.  For
   index-only algorithms the probe traces each block class once and sums
   a functional launch's classes as runs of blocks, in block order
   (:meth:`~repro.simulator.timing.TimingEngine.launch_totals`), so no
   launch runs block by block.
2. **Pack** — programs with the same operation structure are grouped and
   their per-operation quantities stacked into operations × sizes arrays.
3. **Evaluate** — transfer durations come from
   :func:`~repro.simulator.transfer_engine.duration_grid`, kernel launches
   from :func:`~repro.simulator.timing.kernel_timing_grid`, and the
   timeline totals from ordered array accumulation, so every column is
   **bit-for-bit** equal to the scalar ``observe`` at that size (same
   ``ceil_div`` discipline, same float operand order).

Streamed and sharded schedules follow the same pattern via
:class:`StreamPlan` / :class:`ShardPlan`: a per-size symbolic schedule
built by the algorithm's ``sim_stream_plan`` / ``sim_shard_plan`` hooks —
the only place an algorithm writes those schedules.  Sweeps replay the
plans here with ``np.maximum`` folds that mirror
:meth:`~repro.simulator.streams.StreamTimeline.submit` and the
:class:`~repro.simulator.device_pool.DevicePool` contention formula;
single runs (``run_streamed`` / ``run_sharded``) play one plan back onto a
real :class:`~repro.simulator.streams.StreamTimeline` or
:class:`~repro.simulator.device_pool.DevicePool` through
:func:`play_stream_plan` / :func:`play_shard_plan`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.metrics import validate_sizes
from repro.core.prediction import SweepObservation
from repro.core.topology import resolve_fleet
from repro.core.transfer import TransferDirection
from repro.simulator.config import DeviceConfig
from repro.simulator.device import GPUDevice
from repro.simulator.device_pool import DevicePool, contended_duration_grid
from repro.simulator.errors import LaunchError
from repro.simulator.kernel import KernelProgram
from repro.simulator.streams import ENGINE_FOR_KIND, StreamOpKind, StreamTimeline
from repro.simulator.timing import KernelTiming, kernel_timing_grid
from repro.simulator.transfer_engine import TransferEngine, duration_grid

#: Transfer direction of each copy kind of a plan operation.
_COPY_DIRECTION = {
    StreamOpKind.H2D: TransferDirection.HOST_TO_DEVICE,
    StreamOpKind.D2H: TransferDirection.DEVICE_TO_HOST,
}


# ---------------------------------------------------------------------- #
# Symbolic operations recorded by the probe
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class ProbeTransfer:
    """One host↔device copy, reduced to what its duration depends on."""

    direction: TransferDirection
    words: int
    pinned: bool


@dataclass(frozen=True)
class ProbeKernel:
    """One kernel launch, reduced to its trace-weighted aggregates.

    The per-block aggregation
    (:meth:`~repro.simulator.timing.TimingEngine.launch_totals`) is
    order-sensitive float accumulation, so it happens at record time, under
    the launch decision the scalar device makes: each block class's run
    added one block at a time for a functional launch, each class weighted
    by its size for a sampled one.  Everything downstream of these
    aggregates is elementwise and vectorizes without changing a bit.
    """

    name: str
    num_blocks: int
    total_issue_cycles: float
    total_latency_cycles: float
    global_words: float
    shared_words_per_block: int


@dataclass(frozen=True)
class ProbeSync:
    """One round synchronisation (constant ``σ`` duration)."""


def _op_tag(op) -> tuple:
    """Structural signature of one symbolic operation (grouping key)."""
    if isinstance(op, ProbeTransfer):
        return ("transfer", op.direction, op.pinned)
    if isinstance(op, ProbeKernel):
        return ("kernel",)
    return ("sync",)


class ProbeDevice(GPUDevice):
    """A :class:`GPUDevice` that records symbolic operations, not timings.

    The algorithm's real ``run`` executes against it — allocations land at
    the same global-memory offsets as on a scalar device (coalescing
    transaction counts depend on array base addresses), launch decisions
    follow the same functional-block-limit rule, and representative blocks
    are traced identically.

    With ``data_dependent=False`` (index-only algorithms, see
    ``GPUAlgorithm.sim_trace_data_dependent``) the probe skips host-buffer
    copies and vectorised data fallbacks, and it traces each block class
    once even where the scalar device executes every block:
    :meth:`~repro.simulator.timing.TimingEngine.launch_totals` adds a
    functional launch's classes one block at a time, in block order.  The
    timing then equals ``observe(n)`` bit for bit as long as every block's
    trace matches its class representative's, which the block-class
    faithfulness property checks (lint ``SIM001``).  Data-dependent
    algorithms run every block, as on the scalar device.
    """

    def __init__(
        self,
        config: Optional[DeviceConfig] = None,
        data_dependent: bool = True,
    ) -> None:
        super().__init__(config)
        self.data_dependent = data_dependent
        self.ops: List[object] = []

    def memcpy_htod(self, name, data, pinned: bool = False):
        data = np.asarray(data)
        if name in self.global_memory:
            array = self.global_memory.get(name)
            if array.length != data.size:
                raise LaunchError(
                    f"device array {name!r} has {array.length} words but the "
                    f"host buffer has {data.size}"
                )
        else:
            array = self.allocate(name, data.size, dtype=data.dtype)
        if self.data_dependent:
            array.data[:] = data.reshape(-1)
        self.ops.append(
            ProbeTransfer(
                TransferDirection.HOST_TO_DEVICE, int(data.size), bool(pinned)
            )
        )
        return None

    def memcpy_dtoh(self, name, pinned: bool = False):
        array = self.global_memory.get(name)
        self.ops.append(
            ProbeTransfer(
                TransferDirection.DEVICE_TO_HOST, array.length, bool(pinned)
            )
        )
        # Value-faithful outputs are only needed on the data-dependent
        # path; otherwise skip the (potentially huge) host copy.
        if self.data_dependent:
            return array.to_host()
        return array.data[: array.length]

    def memcpy_dtoh_partial(self, name, count: int, pinned: bool = False):
        array = self.global_memory.get(name)
        if not 0 < count <= array.length:
            raise LaunchError(
                f"cannot copy {count} words from device array {name!r} of "
                f"{array.length} words"
            )
        self.ops.append(
            ProbeTransfer(
                TransferDirection.DEVICE_TO_HOST, int(count), bool(pinned)
            )
        )
        if self.data_dependent:
            return array.data[:count].copy()
        return array.data[:count]

    def _execute(self, kernel: KernelProgram, functional: bool):
        if self.data_dependent:
            return super()._execute(kernel, functional)
        return self.functional_engine.execute_sampled(kernel)

    def launch(self, kernel: KernelProgram, force_functional: Optional[bool] = None):
        kernel.validate(self.global_memory)
        functional = self.launches_functionally(kernel, force_functional)
        counters, total_issue, total_latency = self.timing_engine.launch_totals(
            kernel.name, self._execute(kernel, functional), functional
        )
        self.ops.append(
            ProbeKernel(
                name=kernel.name,
                num_blocks=counters.num_blocks,
                total_issue_cycles=total_issue,
                total_latency_cycles=total_latency,
                global_words=counters.global_words,
                shared_words_per_block=counters.max_shared_words_per_block,
            )
        )
        return None

    def synchronise(self, label: str = "round sync") -> float:
        self.ops.append(ProbeSync())
        return self.config.sync_overhead_s


# ---------------------------------------------------------------------- #
# Batched observe_sweep
# ---------------------------------------------------------------------- #
def _evaluate_programs(
    programs: Sequence[Sequence[object]], config: DeviceConfig
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Evaluate recorded programs into (total, kernel, transfer) arrays.

    Programs with the same structure are evaluated together: one
    :func:`kernel_timing_grid` call over a launches × sizes grid, one
    :func:`duration_grid` call per transfer slot, and ordered sequential
    array adds replicating the scalar timeline's clock accumulation.
    """
    count = len(programs)
    totals = np.zeros(count)
    kernels = np.zeros(count)
    transfers = np.zeros(count)
    groups: Dict[tuple, List[int]] = {}
    for index, ops in enumerate(programs):
        signature = tuple(_op_tag(op) for op in ops)
        groups.setdefault(signature, []).append(index)

    for signature, columns in groups.items():
        width = len(columns)
        slot_durations: List[Optional[np.ndarray]] = [None] * len(signature)

        kernel_slots = [i for i, tag in enumerate(signature) if tag[0] == "kernel"]
        if kernel_slots:
            def stack(attr):
                return np.array(
                    [
                        [getattr(programs[c][s], attr) for c in columns]
                        for s in kernel_slots
                    ]
                )

            grid = kernel_timing_grid(
                config,
                stack("num_blocks"),
                stack("total_issue_cycles"),
                stack("total_latency_cycles"),
                stack("global_words"),
                stack("shared_words_per_block"),
            )
            launch_times = grid.total_time_s
            for row, slot in enumerate(kernel_slots):
                slot_durations[slot] = launch_times[row]

        for slot, tag in enumerate(signature):
            if tag[0] == "transfer":
                words = np.array(
                    [programs[c][slot].words for c in columns], dtype=np.int64
                )
                slot_durations[slot] = duration_grid(
                    config, words, tag[1], pinned=tag[2]
                )
            elif tag[0] == "sync":
                slot_durations[slot] = np.full(width, config.sync_overhead_s)

        total = np.zeros(width)
        kernel_time = np.zeros(width)
        h2d_time = np.zeros(width)
        d2h_time = np.zeros(width)
        for slot, tag in enumerate(signature):
            row = slot_durations[slot]
            total = total + row
            if tag[0] == "kernel":
                kernel_time = kernel_time + row
            elif tag[0] == "transfer":
                if tag[1] is TransferDirection.HOST_TO_DEVICE:
                    h2d_time = h2d_time + row
                else:
                    d2h_time = d2h_time + row
        totals[columns] = total
        kernels[columns] = kernel_time
        transfers[columns] = h2d_time + d2h_time
    return totals, kernels, transfers


def simulate_sweep(
    algorithm,
    sizes: Sequence[int],
    config: Optional[DeviceConfig] = None,
    seed: int = 0,
) -> SweepObservation:
    """Batched twin of ``GPUAlgorithm.observe_sweep`` (bit-for-bit parity).

    Probes the algorithm's real ``run`` once per size, then evaluates all
    recorded programs in a handful of NumPy passes.  Requires a parity test
    in ``tests/test_sim_batch.py`` (enforced by the ``SIM001`` lint rule).
    """
    sizes = list(validate_sizes(sizes))
    device_config = config or DeviceConfig.gtx650()
    data_dependent = getattr(algorithm, "sim_trace_data_dependent", True)
    programs: List[List[object]] = []
    for n in sizes:
        device = ProbeDevice(device_config, data_dependent=data_dependent)
        algorithm.run(device, algorithm.sim_inputs(n, seed=seed))
        programs.append(device.ops)
    totals, kernels, transfers = _evaluate_programs(programs, device_config)
    return SweepObservation(
        algorithm=algorithm.name,
        sizes=sizes,
        total_times=[float(t) for t in totals],
        kernel_times=[float(t) for t in kernels],
        transfer_times=[float(t) for t in transfers],
    )


# ---------------------------------------------------------------------- #
# Streamed sweeps
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class StreamPlanOp:
    """One operation of a symbolic stream schedule."""

    kind: StreamOpKind
    stream: str
    words: int = 0
    pinned: bool = False
    duration_s: float = 0.0
    wait: Tuple[int, ...] = ()
    #: The launch's timing (kernel ops only), kept for playback.
    timing: Optional[KernelTiming] = field(
        default=None, compare=False, repr=False
    )


class StreamPlan:
    """Symbolic :class:`~repro.simulator.streams.StreamTimeline` schedule.

    Built per size by an algorithm's ``sim_stream_plan`` hook: the stream /
    engine / wait structure is explicit, transfer durations stay symbolic
    (word counts, vectorized at replay), kernel and host durations are
    concrete floats.  Plans from different sizes that share a structure are
    replayed together as array programs.
    """

    def __init__(self, dual_copy_engines: bool = True) -> None:
        self.dual_copy_engines = dual_copy_engines
        self.ops: List[StreamPlanOp] = []

    def _add(self, op: StreamPlanOp) -> int:
        self.ops.append(op)
        return len(self.ops) - 1

    def h2d(self, stream: str, words: int, pinned: bool = False,
            wait: Sequence[int] = ()) -> int:
        """Queue an H2D copy of ``words`` words; returns its op index."""
        return self._add(StreamPlanOp(
            StreamOpKind.H2D, stream, words=int(words), pinned=bool(pinned),
            wait=tuple(wait),
        ))

    def d2h(self, stream: str, words: int, pinned: bool = False,
            wait: Sequence[int] = ()) -> int:
        """Queue a D2H copy of ``words`` words; returns its op index."""
        return self._add(StreamPlanOp(
            StreamOpKind.D2H, stream, words=int(words), pinned=bool(pinned),
            wait=tuple(wait),
        ))

    def kernel(self, stream: str, timing: KernelTiming,
               wait: Sequence[int] = ()) -> int:
        """Queue a kernel launch with a concrete timing; returns its index."""
        return self._add(StreamPlanOp(
            StreamOpKind.KERNEL, stream, duration_s=float(timing.total_time_s),
            wait=tuple(wait), timing=timing,
        ))

    def host(self, stream: str, duration_s: float,
             wait: Sequence[int] = ()) -> int:
        """Queue host-side work (e.g. a sync); returns its op index."""
        return self._add(StreamPlanOp(
            StreamOpKind.HOST, stream, duration_s=float(duration_s),
            wait=tuple(wait),
        ))

    def signature(self) -> tuple:
        """Structural grouping key (streams, engines, waits — not sizes)."""
        return (self.dual_copy_engines,) + tuple(
            (op.kind, op.stream, op.pinned, op.wait) for op in self.ops
        )

    def engine_for(self, kind: StreamOpKind) -> str:
        engine = ENGINE_FOR_KIND[kind]
        if not self.dual_copy_engines and engine in ("h2d", "d2h"):
            return "copy"
        return engine


def replay_stream_plans(
    plans: Sequence[StreamPlan], config: DeviceConfig
) -> Tuple[np.ndarray, np.ndarray]:
    """Replay symbolic stream plans; returns (makespans, serial_times).

    The start-time recurrence is the array form of
    :meth:`StreamTimeline.submit`: per-stream and per-engine last-end
    vectors folded with ``np.maximum`` plus awaited op ends, so each column
    equals the scalar timeline's makespan / serial sum bit for bit.
    """
    makespans = np.zeros(len(plans))
    serials = np.zeros(len(plans))
    groups: Dict[tuple, List[int]] = {}
    for index, plan in enumerate(plans):
        groups.setdefault(plan.signature(), []).append(index)

    for columns in groups.values():
        width = len(columns)
        template = plans[columns[0]]
        zero = np.zeros(width)
        stream_last: Dict[str, np.ndarray] = {}
        engine_last: Dict[str, np.ndarray] = {}
        ends: List[np.ndarray] = []
        serial = np.zeros(width)
        makespan = np.zeros(width)
        for slot, op in enumerate(template.ops):
            if op.kind in (StreamOpKind.H2D, StreamOpKind.D2H):
                words = np.array(
                    [plans[c].ops[slot].words for c in columns], dtype=np.int64
                )
                duration = duration_grid(
                    config, words, _COPY_DIRECTION[op.kind], pinned=op.pinned
                )
            else:
                duration = np.array(
                    [plans[c].ops[slot].duration_s for c in columns]
                )
            engine = template.engine_for(op.kind)
            start = np.maximum(
                stream_last.get(op.stream, zero),
                engine_last.get(engine, zero),
            )
            for waited in op.wait:
                start = np.maximum(start, ends[waited])
            end = start + duration
            ends.append(end)
            stream_last[op.stream] = end
            engine_last[engine] = end
            serial = serial + duration
            makespan = np.maximum(makespan, end)
        makespans[columns] = makespan
        serials[columns] = serial
    return makespans, serials


def play_stream_plan(plan: StreamPlan, config: DeviceConfig) -> StreamTimeline:
    """Play one stream plan back onto a real :class:`StreamTimeline`.

    The single-size counterpart of :func:`replay_stream_plans`: each op is
    submitted in plan order with its own stream and awaited ops, transfers
    priced by a :class:`TransferEngine` and kernels by their recorded
    timings, so the timeline's makespan and serial sum equal the replayed
    column for that size.
    """
    engine = TransferEngine(config)
    timeline = StreamTimeline(dual_copy_engines=plan.dual_copy_engines)
    submitted = []
    for op in plan.ops:
        wait = [submitted[index] for index in op.wait]
        if op.kind is StreamOpKind.KERNEL:
            scheduled = timeline.add_kernel(op.stream, op.timing, wait=wait)
        elif op.kind is StreamOpKind.HOST:
            scheduled = timeline.submit(
                op.stream, op.kind, op.duration_s, wait=wait
            )
        else:
            record = engine.transfer(
                op.words, _COPY_DIRECTION[op.kind], pinned=op.pinned
            )
            scheduled = timeline.add_transfer(op.stream, record, wait=wait)
        submitted.append(scheduled)
    return timeline


@dataclass(frozen=True)
class StreamedSweepObservation:
    """Overlapped makespan / serial sum of a streamed run, per sweep size."""

    algorithm: str
    sizes: List[int]
    makespans_s: List[float]
    serial_times_s: List[float]


def simulate_streamed_sweep(
    algorithm,
    sizes: Sequence[int],
    config: Optional[DeviceConfig] = None,
    chunks: int = 2,
    pinned: bool = False,
) -> StreamedSweepObservation:
    """Batched twin of per-size ``observe_streamed`` (bit-for-bit parity)."""
    sizes = list(validate_sizes(sizes))
    device_config = config or DeviceConfig.gtx650()
    plans = [
        algorithm.sim_stream_plan(n, device_config, chunks=chunks, pinned=pinned)
        for n in sizes
    ]
    makespans, serials = replay_stream_plans(plans, device_config)
    return StreamedSweepObservation(
        algorithm=algorithm.name,
        sizes=sizes,
        makespans_s=[float(t) for t in makespans],
        serial_times_s=[float(t) for t in serials],
    )


# ---------------------------------------------------------------------- #
# Sharded sweeps
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class ShardPlanOp:
    """One operation of a symbolic device-pool schedule."""

    device: int
    kind: StreamOpKind
    words: int = 0
    pinned: bool = False
    duration_s: float = 0.0
    #: The launch's timing (kernel ops only), kept for playback.
    timing: Optional[KernelTiming] = field(
        default=None, compare=False, repr=False
    )


class ShardPlan:
    """Symbolic :class:`~repro.simulator.device_pool.DevicePool` schedule.

    Each device's operations run back to back on its own timeline (the
    pool submits everything to one stream per device); transfers carry word
    counts and the per-device link stretch is applied at replay with
    :func:`contended_duration_grid`, while the serial baseline accumulates
    the *uncontended* durations exactly like ``DevicePool.add_transfer``.
    """

    def __init__(self, stretches: Sequence[float]) -> None:
        self.stretches = tuple(float(s) for s in stretches)
        self.ops: List[ShardPlanOp] = []

    def _add(self, op: ShardPlanOp) -> int:
        if not 0 <= op.device < len(self.stretches):
            raise IndexError(
                f"device index {op.device} outside pool of "
                f"{len(self.stretches)}"
            )
        self.ops.append(op)
        return len(self.ops) - 1

    def h2d(self, device: int, words: int, pinned: bool = False) -> int:
        """Queue an H2D copy on one device; returns its op index."""
        return self._add(ShardPlanOp(
            device, StreamOpKind.H2D, words=int(words), pinned=bool(pinned),
        ))

    def d2h(self, device: int, words: int, pinned: bool = False) -> int:
        """Queue a D2H copy on one device; returns its op index."""
        return self._add(ShardPlanOp(
            device, StreamOpKind.D2H, words=int(words), pinned=bool(pinned),
        ))

    def kernel(self, device: int, timing: KernelTiming) -> int:
        """Queue a kernel launch on one device; returns its op index."""
        return self._add(ShardPlanOp(
            device, StreamOpKind.KERNEL, duration_s=float(timing.total_time_s),
            timing=timing,
        ))

    def host(self, device: int, duration_s: float) -> int:
        """Queue host-side work (e.g. a sync) on one device."""
        return self._add(ShardPlanOp(
            device, StreamOpKind.HOST, duration_s=float(duration_s),
        ))

    def signature(self) -> tuple:
        """Structural grouping key (device layout, stretches — not sizes)."""
        return (self.stretches,) + tuple(
            (op.device, op.kind, op.pinned) for op in self.ops
        )


def replay_shard_plans(
    plans: Sequence[ShardPlan], config: DeviceConfig
) -> Tuple[np.ndarray, np.ndarray]:
    """Replay symbolic shard plans; returns (makespans, serial_times).

    Per-device completion is an ordered sequential sum (all of a device's
    operations share one stream, so nothing overlaps within a device); the
    straggler fold and the uncontended serial accumulation mirror
    ``DevicePool.makespan_s`` / ``serial_time_s`` bit for bit.
    """
    makespans = np.zeros(len(plans))
    serials = np.zeros(len(plans))
    groups: Dict[tuple, List[int]] = {}
    for index, plan in enumerate(plans):
        groups.setdefault(plan.signature(), []).append(index)

    for columns in groups.values():
        width = len(columns)
        template = plans[columns[0]]
        num_devices = len(template.stretches)
        device_end = [np.zeros(width) for _ in range(num_devices)]
        serial = np.zeros(width)
        for slot, op in enumerate(template.ops):
            if op.kind in (StreamOpKind.H2D, StreamOpKind.D2H):
                words = np.array(
                    [plans[c].ops[slot].words for c in columns], dtype=np.int64
                )
                base = duration_grid(
                    config, words, _COPY_DIRECTION[op.kind], pinned=op.pinned
                )
                duration = contended_duration_grid(
                    config, base, template.stretches[op.device]
                )
                serial = serial + base
            else:
                duration = np.array(
                    [plans[c].ops[slot].duration_s for c in columns]
                )
                serial = serial + duration
            device_end[op.device] = device_end[op.device] + duration
        makespan = np.zeros(width)
        for ends in device_end:
            makespan = np.maximum(makespan, ends)
        makespans[columns] = makespan
        serials[columns] = serial
    return makespans, serials


def play_shard_plan(plan: ShardPlan, pool: DevicePool) -> DevicePool:
    """Play one shard plan back onto ``pool`` and return it.

    The single-size counterpart of :func:`replay_shard_plans`.  ``pool``
    must be the pool the plan was built against (same devices, same link
    stretches): the pool applies the contention itself, and charges the
    uncontended durations to its serial baseline.
    """
    stretches = tuple(pool.device_stretch(i) for i in range(pool.num_devices))
    if plan.stretches != stretches:
        raise ValueError(
            f"the plan was built for link stretches {plan.stretches}, but "
            f"the pool has {stretches}"
        )
    for op in plan.ops:
        if op.kind is StreamOpKind.KERNEL:
            pool.add_kernel(op.device, op.timing)
        elif op.kind is StreamOpKind.HOST:
            pool.add_host(op.device, op.duration_s)
        else:
            pool.add_transfer(
                op.device, op.words, _COPY_DIRECTION[op.kind],
                pinned=op.pinned,
            )
    return pool


@dataclass(frozen=True)
class ShardedSweepObservation:
    """Straggler makespan / serial sum of a sharded run, per sweep size."""

    algorithm: str
    sizes: List[int]
    makespans_s: List[float]
    serial_times_s: List[float]
    device_count: int


def simulate_sharded_sweep(
    algorithm,
    sizes: Sequence[int],
    config: Optional[DeviceConfig] = None,
    devices: Optional[int] = None,
    contention: Optional[float] = None,
    pinned: bool = False,
    topology=None,
) -> ShardedSweepObservation:
    """Batched twin of per-size ``observe_sharded`` (bit-for-bit parity).

    The fleet is resolved once, by
    :func:`~repro.core.topology.resolve_fleet`, and every size's plan is
    built on it.
    """
    fleet = resolve_fleet(devices, contention, topology)
    sizes = list(validate_sizes(sizes))
    device_config = config or DeviceConfig.gtx650()
    plans = [
        algorithm.sim_shard_plan(
            n, device_config, pinned=pinned, topology=fleet
        )
        for n in sizes
    ]
    makespans, serials = replay_shard_plans(plans, device_config)
    return ShardedSweepObservation(
        algorithm=algorithm.name,
        sizes=sizes,
        makespans_s=[float(t) for t in makespans],
        serial_times_s=[float(t) for t in serials],
        device_count=len(plans[0].stretches),
    )
