"""Common protocol for the computational problems evaluated on ATGPU.

Each algorithm in this package exposes the full pipeline the paper applies
to its three example problems:

* hand-derived **model metrics** (Section IV's analyses) via :meth:`GPUAlgorithm.metrics`,
* the **pseudocode** listing via :meth:`GPUAlgorithm.build_pseudocode`,
* an executable **kernel implementation** on the simulator via :meth:`GPUAlgorithm.run`,
* a NumPy **reference** for correctness checking via :meth:`GPUAlgorithm.reference`,
* convenience wrappers that produce the per-size prediction
  (:meth:`GPUAlgorithm.analyse`) and the per-size simulated observation
  (:meth:`GPUAlgorithm.observe`), plus whole-sweep versions used by the
  experiment harness.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.analysis import AnalysisReport, analyse_metrics
from repro.core.batch import MetricsBatch
from repro.core.machine import ATGPUMachine
from repro.core.metrics import AlgorithmMetrics, CapacityError
from repro.core.prediction import (
    SweepObservation,
    SweepPrediction,
    predict_sweep,
)
from repro.core.presets import DEFAULT_PRESET, GPUPreset
from repro.core.topology import Topology, plan_bounds, resolve_fleet
from repro.pseudocode.program import Program
from repro.simulator.batch import (
    ShardedSweepObservation,
    ShardPlan,
    StreamedSweepObservation,
    StreamPlan,
    play_shard_plan,
    play_stream_plan,
    simulate_sharded_sweep,
    simulate_streamed_sweep,
    simulate_sweep,
)
from repro.simulator.config import DeviceConfig
from repro.simulator.device import GPUDevice
from repro.simulator.device_pool import DevicePool
from repro.simulator.streams import StreamTimeline
from repro.utils.validation import ensure_positive_int


def chunk_bounds(n: int, chunks: int) -> List[tuple]:
    """Near-equal ``[lo, hi)`` bounds splitting ``n`` elements into chunks.

    ``chunks`` is clamped to ``n`` so every chunk is non-empty; the first
    ``n % chunks`` chunks carry one extra element.
    """
    ensure_positive_int(n, "n")
    ensure_positive_int(chunks, "chunks")
    chunks = min(chunks, n)
    base, extra = divmod(n, chunks)
    bounds = []
    lo = 0
    for index in range(chunks):
        hi = lo + base + (1 if index < extra else 0)
        bounds.append((lo, hi))
        lo = hi
    return bounds


def sharded_pool(
    config: DeviceConfig,
    devices: Optional[int] = None,
    contention: Optional[float] = None,
    topology: Optional[Topology] = None,
) -> DevicePool:
    """The device pool every sharded run schedules against.

    Its fleet is :func:`~repro.core.topology.resolve_fleet`'s: a
    ``(devices, contention)`` pair is ``Topology.homogeneous(devices,
    contention)``, so every pool applies per-socket link stretch.
    """
    return DevicePool(
        config=config, topology=resolve_fleet(devices, contention, topology)
    )


def shard_bounds(pool: DevicePool, n: int) -> List[tuple]:
    """``[lo, hi)`` shard of each device of a :func:`sharded_pool`.

    The throughput-weighted :func:`~repro.core.topology.plan_bounds`
    split, one bound per device; zero-width bounds mark devices the
    planner left idle.  Equal weights split near-evenly, as
    :func:`chunk_bounds` does.
    """
    return plan_bounds(n, pool.topology.throughputs())


def outputs_match(actual, expected) -> bool:
    """``np.allclose(actual, expected)``, trying exact equality first.

    Equal arrays are always close, so the answer is ``np.allclose``'s.  The
    exact test needs one boolean temporary; ``np.allclose`` builds several
    float temporaries the size of the output, and runs only when the exact
    test fails (a tolerance difference, NaN or a broadcast shape).
    """
    return bool(np.array_equal(actual, expected)
                or np.allclose(actual, expected))


@dataclass
class StreamedRunResult:
    """Outcome of a chunked, double-buffered (streamed) algorithm run.

    All timing views derive from the attached stream timeline:
    :attr:`makespan_s` is the overlapped total time (its critical path) and
    :attr:`serial_time_s` is what the very same operations would cost back
    to back, so their ratio isolates the benefit of compute/copy overlap.
    """

    outputs: Dict[str, np.ndarray]
    chunk_count: int
    timeline: StreamTimeline

    @property
    def makespan_s(self) -> float:
        """Overlapped total time (the timeline's critical path)."""
        return self.timeline.makespan_s

    @property
    def serial_time_s(self) -> float:
        """The same operations executed back to back (no overlap)."""
        return self.timeline.serial_time_s

    @property
    def overlap_saving_s(self) -> float:
        """Seconds recovered by overlapping: serial sum minus makespan."""
        return self.timeline.overlap_saving_s

    @property
    def overlap_speedup(self) -> float:
        """Serial-over-overlapped time ratio (1.0 = no overlap benefit)."""
        if self.makespan_s == 0:
            return 1.0
        return self.serial_time_s / self.makespan_s


@dataclass
class ShardedRunResult:
    """Outcome of a multi-device (sharded) algorithm run.

    All timing views derive from the attached :class:`DevicePool`:
    :attr:`makespan_s` is the straggler device's completion time and
    :attr:`serial_time_s` is what the very same operations would cost back
    to back on one device, so their ratio isolates the benefit of sharding
    across the pool.
    """

    outputs: Dict[str, np.ndarray]
    device_count: int
    pool: DevicePool

    @property
    def makespan_s(self) -> float:
        """Pool total time (the straggler device's completion)."""
        return self.pool.makespan_s

    @property
    def serial_time_s(self) -> float:
        """The same operations executed back to back on one device."""
        return self.pool.serial_time_s

    @property
    def device_makespans(self) -> List[float]:
        """Per-device completion times."""
        return list(self.pool.device_makespans())

    @property
    def sharding_speedup(self) -> float:
        """Serial-over-sharded time ratio (1.0 = no benefit)."""
        return self.pool.sharding_speedup


@dataclass
class RunResult:
    """Outcome of running an algorithm end to end on the simulator."""

    outputs: Dict[str, np.ndarray]
    total_time_s: float
    kernel_time_s: float
    transfer_time_s: float
    sync_time_s: float

    @property
    def observed_transfer_proportion(self) -> float:
        """``ΔE`` -- share of the total time spent transferring."""
        if self.total_time_s == 0:
            return 0.0
        return self.transfer_time_s / self.total_time_s


@dataclass
class ObservationRecord:
    """One observed (simulated) data point of a sweep."""

    input_size: int
    total_time_s: float
    kernel_time_s: float
    transfer_time_s: float
    sync_time_s: float
    correct: Optional[bool] = None

    @property
    def observed_transfer_proportion(self) -> float:
        """``ΔE`` of this data point."""
        if self.total_time_s == 0:
            return 0.0
        return self.transfer_time_s / self.total_time_s


class GPUAlgorithm(abc.ABC):
    """A computational problem analysed and executed on the ATGPU model."""

    #: Registry / report name of the algorithm.
    name: str = "algorithm"
    #: Human-readable description.
    description: str = ""
    #: Whether this algorithm's kernel traces depend on input *values*
    #: rather than just indices.  ``False`` lets the batched-simulator probe
    #: skip host-buffer copies and vectorised data fallbacks (the timing
    #: traces cannot change) and trace each block class of a launch once;
    #: pair it with a structural :meth:`sim_inputs` override.  Opting out
    #: requires a scalar-parity test and a block-class faithfulness
    #: property test (lint ``SIM001``).
    sim_trace_data_dependent: bool = True

    # ------------------------------------------------------------------ #
    # Workload
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def default_sizes(self) -> List[int]:
        """The input sizes of the paper's sweep for this problem."""

    @abc.abstractmethod
    def generate_input(self, n: int, seed: int = 0) -> Dict[str, np.ndarray]:
        """Generate a random input instance of size ``n``."""

    def sim_inputs(self, n: int, seed: int = 0) -> Dict[str, np.ndarray]:
        """Inputs for the batched-simulator probe (default: real inputs).

        Algorithms with :attr:`sim_trace_data_dependent` ``= False``
        override this with cheap structural stand-ins (zero arrays of the
        right shapes and dtypes): their traces depend only on indices, so
        the probe skips the per-size random generation the scalar path pays.
        Data-dependent algorithms keep the default, which matches the
        scalar ``observe`` input exactly.
        """
        return self.generate_input(n, seed=seed)

    @abc.abstractmethod
    def reference(self, inputs: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
        """NumPy reference implementation used for correctness checks."""

    # ------------------------------------------------------------------ #
    # Model-side (prediction)
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def metrics(self, n: int, machine: ATGPUMachine) -> AlgorithmMetrics:
        """Hand-derived ATGPU metrics of the algorithm at size ``n``."""

    def metrics_batch(
        self, ns: Sequence[int], machine: ATGPUMachine
    ) -> MetricsBatch:
        """Array-native metrics of the algorithm over a whole size vector.

        The Section IV analyses are closed-form in ``n``, so an algorithm
        can describe an entire sweep as per-round NumPy columns
        (:func:`~repro.core.metrics.round_arrays` rows stacked by
        :meth:`~repro.core.batch.MetricsBatch.from_rounds`) instead of one
        :class:`~repro.core.metrics.AlgorithmMetrics` per size.  Every
        built-in algorithm overrides this with a true vectorized factory
        whose batch is **bit-for-bit** equal to packing :meth:`metrics` per
        size; the default here is that scalar-loop packing
        (:meth:`~repro.core.batch.MetricsBatch.from_metrics`).
        """
        return MetricsBatch.from_metrics(
            ns,
            [self.metrics(int(n), machine) for n in ns],
            algorithm=self.name,
        )

    @property
    def supports_metrics_batch(self) -> bool:
        """Whether this algorithm overrides :meth:`metrics_batch`."""
        return type(self).metrics_batch is not GPUAlgorithm.metrics_batch

    def _batch_factory(self, machine: ATGPUMachine):
        """:meth:`metrics_batch` on ``machine``, as the batch paths call it.

        A problem of size ``n`` keeps its input, at least ``n`` words, in
        global memory, so a size above ``G`` never fits.  Such a size raises
        :class:`~repro.core.metrics.CapacityError` here, as on the scalar
        path, before :meth:`metrics_batch` derives int64 columns from it
        that could wrap.
        """
        def factory(ns: Sequence[int]) -> MetricsBatch:
            if max(ns) > machine.G:
                n = next(n for n in ns if n > machine.G)
                raise CapacityError(
                    f"algorithm {self.name} needs at least {n} words of "
                    f"global memory at size {n} but the machine only has "
                    f"G={machine.G}"
                )
            return self.metrics_batch(ns, machine)
        return factory

    @abc.abstractmethod
    def build_pseudocode(self, n: int, machine: ATGPUMachine) -> Program:
        """The algorithm's ATGPU pseudocode listing at size ``n``."""

    def analyse(
        self,
        n: int,
        preset: GPUPreset = DEFAULT_PRESET,
        backends: Optional[Sequence[str]] = None,
    ) -> AnalysisReport:
        """Predict the algorithm's cost at size ``n`` on a GPU preset.

        ``backends`` selects the cost-model backends to evaluate (see
        :mod:`repro.core.backends`); the default is the built-in trio.
        """
        return analyse_metrics(
            self.metrics(n, preset.machine),
            preset.machine,
            preset.parameters,
            preset.occupancy,
            algorithm=self.name,
            input_size=n,
            backends=backends,
        )

    def predict_sweep(
        self,
        sizes: Optional[Sequence[int]] = None,
        preset: GPUPreset = DEFAULT_PRESET,
        backends: Optional[Sequence[str]] = None,
    ) -> SweepPrediction:
        """Per-backend cost predictions over a sweep of input sizes.

        The whole sweep is compiled once through :meth:`metrics_batch` and
        priced as one array program per backend family (see
        :func:`repro.core.prediction.predict_sweep`); per-size
        :class:`~repro.core.analysis.AnalysisReport` objects come from
        :meth:`analyse`.
        """
        sizes = list(sizes) if sizes is not None else self.default_sizes()
        return predict_sweep(
            algorithm=self.name,
            sizes=sizes,
            metrics_factory=None,
            machine=preset.machine,
            parameters=preset.parameters,
            occupancy=preset.occupancy,
            backends=backends,
            grid_factory=self._batch_factory(preset.machine),
        )

    def compile_batch(
        self,
        sizes: Optional[Sequence[int]] = None,
        preset: GPUPreset = DEFAULT_PRESET,
    ) -> MetricsBatch:
        """Pack this algorithm's per-round metrics for a sweep into a
        :class:`~repro.core.batch.MetricsBatch` (compiled once, evaluated by
        any backend family as an array program).  Compilation goes through
        :meth:`metrics_batch`, so algorithms with a vectorized factory
        describe the whole sweep without per-size metrics objects."""
        sizes = list(sizes) if sizes is not None else self.default_sizes()
        return MetricsBatch.compile(
            self.name, sizes,
            grid_factory=self._batch_factory(preset.machine),
        )

    # ------------------------------------------------------------------ #
    # Simulator-side (observation)
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def run(self, device: GPUDevice, inputs: Dict[str, np.ndarray]) -> RunResult:
        """Execute the algorithm end to end on a simulated device."""

    def run_streamed(
        self,
        device: GPUDevice,
        inputs: Dict[str, np.ndarray],
        chunks: int = 2,
        pinned: bool = False,
    ) -> StreamedRunResult:
        """Chunked, double-buffered execution on asynchronous streams.

        Splits the workload into ``chunks`` pieces, each on its own stream
        of a :class:`~repro.simulator.streams.StreamTimeline`, and reports
        the overlapped makespan alongside the serial sum.  The schedule is
        the algorithm's :meth:`sim_stream_plan`, played back onto the
        timeline (:func:`~repro.simulator.batch.play_stream_plan`); the
        outputs come from :meth:`schedule_outputs`.  ``device`` supplies
        the configuration.
        """
        n, outputs = self.schedule_outputs(device, inputs)
        plan = self.sim_stream_plan(
            n, device.config, chunks=chunks, pinned=pinned
        )
        return StreamedRunResult(
            outputs=outputs,
            chunk_count=min(chunks, n),
            timeline=play_stream_plan(plan, device.config),
        )

    @property
    def supports_streaming(self) -> bool:
        """Whether this algorithm has a stream plan (:meth:`sim_stream_plan`)."""
        return type(self).sim_stream_plan is not GPUAlgorithm.sim_stream_plan

    def run_sharded(
        self,
        device: GPUDevice,
        inputs: Dict[str, np.ndarray],
        devices: Optional[int] = None,
        contention: Optional[float] = None,
        pinned: bool = False,
        topology: Optional["Topology"] = None,
    ) -> ShardedRunResult:
        """Sharded execution across a multi-device pool.

        Splits the workload into one shard per device of a
        :class:`~repro.simulator.device_pool.DevicePool` and reports the
        straggler makespan alongside the serial single-device sum.  The
        fleet is ``topology``, or ``Topology.homogeneous(devices,
        contention)`` without one (two uncontended devices by default; see
        :func:`~repro.core.topology.resolve_fleet`): shards are sized by
        per-device throughput (:func:`shard_bounds`) and the pool applies
        per-socket link stretch.  The schedule is the algorithm's
        :meth:`sim_shard_plan`, played back onto the pool
        (:func:`~repro.simulator.batch.play_shard_plan`); the outputs come
        from :meth:`schedule_outputs`.  ``device`` supplies the per-device
        configuration.
        """
        fleet = resolve_fleet(devices, contention, topology)
        n, outputs = self.schedule_outputs(device, inputs)
        plan = self.sim_shard_plan(
            n, device.config, pinned=pinned, topology=fleet
        )
        pool = play_shard_plan(
            plan, sharded_pool(device.config, topology=fleet)
        )
        return ShardedRunResult(
            outputs=outputs, device_count=pool.num_devices, pool=pool
        )

    @property
    def supports_sharding(self) -> bool:
        """Whether this algorithm has a shard plan (:meth:`sim_shard_plan`)."""
        return type(self).sim_shard_plan is not GPUAlgorithm.sim_shard_plan

    # ------------------------------------------------------------------ #
    # Streamed and sharded schedules
    # ------------------------------------------------------------------ #
    def schedule_outputs(
        self, device: GPUDevice, inputs: Dict[str, np.ndarray]
    ) -> Tuple[int, Dict[str, np.ndarray]]:
        """Input size and whole-array outputs of a streamed or sharded run.

        Algorithms with a :meth:`sim_stream_plan` or :meth:`sim_shard_plan`
        override this; the plan supplies the timing and this supplies the
        data, which tests check against :meth:`reference`.
        """
        raise NotImplementedError(
            f"algorithm {self.name!r} has no streamed or sharded execution mode"
        )

    def sim_stream_plan(
        self,
        n: int,
        config: DeviceConfig,
        chunks: int = 2,
        pinned: bool = False,
    ) -> StreamPlan:
        """Symbolic stream schedule of a chunked run at size ``n``.

        Returns a :class:`~repro.simulator.batch.StreamPlan` whose operation
        structure (streams, engines, waits), word counts and kernel timings
        describe the chunked run — including the device-memory allocation
        layout its kernels are traced against, since coalescing transaction
        counts depend on array base offsets.  This is the only description
        of the schedule: :meth:`run_streamed` plays one plan back and
        :meth:`observe_streamed_sweep` replays a sweep of them as array
        programs.
        """
        raise NotImplementedError(
            f"algorithm {self.name!r} has no streamed execution mode"
        )

    def sim_shard_plan(
        self,
        n: int,
        config: DeviceConfig,
        devices: Optional[int] = None,
        contention: Optional[float] = None,
        pinned: bool = False,
        topology: Optional["Topology"] = None,
    ) -> ShardPlan:
        """Symbolic device-pool schedule of a sharded run at size ``n``.

        Returns a :class:`~repro.simulator.batch.ShardPlan` listing each
        device's operations (shard bounds from :func:`shard_bounds`, link
        stretches from :func:`sharded_pool`, whose fleet
        :func:`~repro.core.topology.resolve_fleet` resolves from
        ``devices``/``contention``/``topology``).  This is the only description
        of the schedule: :meth:`run_sharded` plays one plan back and
        :meth:`observe_sharded_sweep` replays a sweep of them as array
        programs.
        """
        raise NotImplementedError(
            f"algorithm {self.name!r} has no sharded execution mode"
        )

    def observe_streamed(
        self,
        n: int,
        config: Optional[DeviceConfig] = None,
        chunks: int = 2,
        seed: int = 0,
        pinned: bool = False,
    ) -> StreamedRunResult:
        """Run the streamed mode at size ``n`` on a fresh device."""
        device = GPUDevice(config or DeviceConfig.gtx650())
        inputs = self.generate_input(n, seed=seed)
        return self.run_streamed(device, inputs, chunks=chunks, pinned=pinned)

    def observe_sharded(
        self,
        n: int,
        config: Optional[DeviceConfig] = None,
        devices: Optional[int] = None,
        contention: Optional[float] = None,
        seed: int = 0,
        pinned: bool = False,
        topology: Optional["Topology"] = None,
    ) -> ShardedRunResult:
        """Run the sharded mode at size ``n`` on a fresh device pool."""
        fleet = resolve_fleet(devices, contention, topology)
        device = GPUDevice(config or DeviceConfig.gtx650())
        inputs = self.generate_input(n, seed=seed)
        return self.run_sharded(
            device, inputs, pinned=pinned, topology=fleet
        )

    def observe(
        self,
        n: int,
        config: Optional[DeviceConfig] = None,
        seed: int = 0,
        check: bool = False,
    ) -> ObservationRecord:
        """Run the algorithm at size ``n`` on a fresh device and time it."""
        device = GPUDevice(config or DeviceConfig.gtx650())
        inputs = self.generate_input(n, seed=seed)
        result = self.run(device, inputs)
        correct: Optional[bool] = None
        if check:
            expected = self.reference(inputs)
            correct = all(
                outputs_match(result.outputs[key], expected[key])
                for key in expected
            )
        return ObservationRecord(
            input_size=n,
            total_time_s=result.total_time_s,
            kernel_time_s=result.kernel_time_s,
            transfer_time_s=result.transfer_time_s,
            sync_time_s=result.sync_time_s,
            correct=correct,
        )

    def observe_sweep(
        self,
        sizes: Optional[Sequence[int]] = None,
        config: Optional[DeviceConfig] = None,
        seed: int = 0,
    ) -> SweepObservation:
        """Simulated total / kernel / transfer times over a sweep of sizes.

        Evaluates the whole sweep through the batched simulator
        (:func:`repro.simulator.batch.simulate_sweep`), bit-for-bit equal to
        calling :meth:`observe` per size.
        """
        sizes = self.default_sizes() if sizes is None else sizes
        return simulate_sweep(self, sizes, config=config, seed=seed)

    def observe_streamed_sweep(
        self,
        sizes: Optional[Sequence[int]] = None,
        config: Optional[DeviceConfig] = None,
        chunks: int = 2,
        pinned: bool = False,
    ) -> StreamedSweepObservation:
        """Streamed makespan / serial time over a sweep of sizes.

        Replays the algorithm's :meth:`sim_stream_plan` for every size as
        one array program, bit-for-bit equal to per-size
        :meth:`observe_streamed`.
        """
        sizes = self.default_sizes() if sizes is None else sizes
        return simulate_streamed_sweep(
            self, sizes, config=config, chunks=chunks, pinned=pinned
        )

    def observe_sharded_sweep(
        self,
        sizes: Optional[Sequence[int]] = None,
        config: Optional[DeviceConfig] = None,
        devices: Optional[int] = None,
        contention: Optional[float] = None,
        pinned: bool = False,
        topology: Optional["Topology"] = None,
    ) -> ShardedSweepObservation:
        """Sharded straggler makespan / serial time over a sweep of sizes.

        Replays the algorithm's :meth:`sim_shard_plan` for every size as
        one array program, bit-for-bit equal to per-size
        :meth:`observe_sharded`.
        """
        sizes = self.default_sizes() if sizes is None else sizes
        return simulate_sharded_sweep(
            self, sizes, config=config, devices=devices,
            contention=contention, pinned=pinned, topology=topology,
        )
