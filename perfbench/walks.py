"""Traced walks: the library's own call sequences, one span per layer call.

Each walk makes, from outside the package, the same public calls the
library path makes internally, wrapping every layer call in a span of the
:class:`~perfbench.spans.Tracer` and reading counts from return values and
``ProbeDevice.ops``.  Every walk returns what the library path returns, so
the traced run checks that it equals the untraced output.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.algorithms.base import GPUAlgorithm, ObservationRecord
from repro.core.analysis import AnalysisReport, analyse_metrics
from repro.core.backends import evaluate_backends_batch
from repro.core.batch import MetricsBatch
from repro.core.prediction import (
    SweepObservation,
    SweepPrediction,
    predict_sweep_batch,
)
from repro.core.presets import GPUPreset
from repro.simulator.batch import (
    ProbeDevice,
    ProbeKernel,
    ShardedSweepObservation,
    StreamedSweepObservation,
    _evaluate_programs,
    replay_shard_plans,
    replay_stream_plans,
)
from repro.simulator.config import DeviceConfig
from repro.simulator.device import GPUDevice

from perfbench.spans import Tracer

#: Backend-name prefixes of the overlapped and sharded families; every
#: other backend is priced by the base (breakdown) family.
FAMILY_PREFIXES = (("async", "atgpu-async"), ("multi", "atgpu-multi"))


def backend_families(backends: Sequence[str]) -> Dict[str, Tuple[str, ...]]:
    """Split backend names into ``base`` / ``async`` / ``multi`` families."""
    families: Dict[str, List[str]] = {"base": [], "async": [], "multi": []}
    for name in backends:
        family = next(
            (fam for fam, prefix in FAMILY_PREFIXES if name.startswith(prefix)),
            "base",
        )
        families[family].append(name)
    return {family: tuple(names) for family, names in families.items()}


def compile_batch(
    tracer: Tracer, algorithm: GPUAlgorithm, sizes: Sequence[int],
    preset: GPUPreset,
) -> MetricsBatch:
    """``algorithm.compile_batch``: the metrics factory inside the compile."""

    def grid_factory(ns):
        with tracer.span("algorithms.metrics_batch"):
            return algorithm.metrics_batch(ns, preset.machine)

    with tracer.span("core.compile"):
        return MetricsBatch.compile(
            algorithm.name, list(sizes), grid_factory=grid_factory
        )


def evaluate(
    tracer: Tracer, algorithm: GPUAlgorithm, batch: MetricsBatch,
    preset: GPUPreset, backends: Sequence[str],
) -> SweepPrediction:
    """``predict_sweep_batch`` with one span per backend family."""
    families = backend_families(backends)
    args = (batch, preset.machine, preset.parameters, preset.occupancy)
    with tracer.span("core.evaluate"):
        with tracer.span("core.evaluate.base"):
            prediction = predict_sweep_batch(
                algorithm.name, *args, backends=families["base"]
            )
        for family in ("async", "multi"):
            if families[family]:
                with tracer.span(f"core.evaluate.{family}"):
                    prediction.series.update(
                        evaluate_backends_batch(families[family], *args)
                    )
    tracer.count("core.points_evaluated", batch.num_sizes * len(backends))
    return prediction


def predict(
    tracer: Tracer, algorithm: GPUAlgorithm, sizes: Sequence[int],
    preset: GPUPreset, backends: Sequence[str],
) -> SweepPrediction:
    """``algorithm.predict_sweep(sizes, preset, backends)`` on the batch path."""
    batch = compile_batch(tracer, algorithm, sizes, preset)
    return evaluate(tracer, algorithm, batch, preset, backends)


def select(
    tracer: Tracer, prediction: SweepPrediction, sizes: Sequence[int]
) -> SweepPrediction:
    """``SweepPrediction.select`` of one request's columns of a union."""
    column = {n: j for j, n in enumerate(prediction.sizes)}
    with tracer.span("core.select"):
        return prediction.select([column[n] for n in sizes])


def analyse(
    tracer: Tracer, algorithm: GPUAlgorithm, n: int, preset: GPUPreset
) -> AnalysisReport:
    """``algorithm.analyse(n, preset)``: scalar metrics, then analysis."""
    with tracer.span("algorithms.metrics"):
        metrics = algorithm.metrics(n, preset.machine)
    with tracer.span("core.analyse"):
        return analyse_metrics(
            metrics, preset.machine, preset.parameters, preset.occupancy,
            algorithm=algorithm.name, input_size=n,
        )


def observe_sweep(
    tracer: Tracer, algorithm: GPUAlgorithm, sizes: Sequence[int],
    config: DeviceConfig, seed: int,
) -> SweepObservation:
    """``algorithm.observe_sweep``: probe each size, replay all programs.

    Launches whose grid fits ``functional_block_limit`` count their blocks
    into ``simulator.functional_blocks``; larger grids count as
    ``simulator.sampled_launches``.
    """
    data_dependent = algorithm.sim_trace_data_dependent
    programs = []
    for n in sizes:
        with tracer.span("simulator.probe"):
            device = ProbeDevice(config, data_dependent=data_dependent)
            algorithm.run(device, algorithm.sim_inputs(int(n), seed=seed))
        programs.append(device.ops)
        for op in device.ops:
            if isinstance(op, ProbeKernel):
                if op.num_blocks <= config.functional_block_limit:
                    tracer.count("simulator.functional_blocks", op.num_blocks)
                else:
                    tracer.count("simulator.sampled_launches")
    with tracer.span("simulator.replay"):
        totals, kernels, transfers = _evaluate_programs(programs, config)
    return SweepObservation(
        algorithm=algorithm.name,
        sizes=[int(n) for n in sizes],
        total_times=[float(t) for t in totals],
        kernel_times=[float(t) for t in kernels],
        transfer_times=[float(t) for t in transfers],
    )


def observe(
    tracer: Tracer, algorithm: GPUAlgorithm, n: int, config: DeviceConfig,
    seed: int,
) -> ObservationRecord:
    """``algorithm.observe(n, check=True)``: generate, run, compare."""
    with tracer.span("workloads.generate"):
        inputs = algorithm.generate_input(n, seed=seed)
    with tracer.span("simulator.run"):
        result = algorithm.run(GPUDevice(config), inputs)
    with tracer.span("algorithms.reference"):
        expected = algorithm.reference(inputs)
        correct = all(
            np.allclose(result.outputs[key], expected[key]) for key in expected
        )
    return ObservationRecord(
        input_size=n,
        total_time_s=result.total_time_s,
        kernel_time_s=result.kernel_time_s,
        transfer_time_s=result.transfer_time_s,
        sync_time_s=result.sync_time_s,
        correct=correct,
    )


def schedule(
    tracer: Tracer, algorithm: GPUAlgorithm, sizes: Sequence[int],
    config: DeviceConfig, chunks: int, devices: int,
) -> Tuple[StreamedSweepObservation, ShardedSweepObservation]:
    """``observe_streamed_sweep`` then ``observe_sharded_sweep``: each
    plans every size, then replays all plans."""
    stream_plans = []
    for n in sizes:
        with tracer.span("simulator.stream_plan"):
            stream_plans.append(
                algorithm.sim_stream_plan(int(n), config, chunks=chunks)
            )
    with tracer.span("simulator.stream_replay"):
        makespans, serials = replay_stream_plans(stream_plans, config)
    streamed = StreamedSweepObservation(
        algorithm=algorithm.name,
        sizes=[int(n) for n in sizes],
        makespans_s=[float(t) for t in makespans],
        serial_times_s=[float(t) for t in serials],
    )
    shard_plans = []
    for n in sizes:
        with tracer.span("simulator.shard_plan"):
            shard_plans.append(
                algorithm.sim_shard_plan(int(n), config, devices=devices)
            )
    with tracer.span("simulator.shard_replay"):
        makespans, serials = replay_shard_plans(shard_plans, config)
    sharded = ShardedSweepObservation(
        algorithm=algorithm.name,
        sizes=[int(n) for n in sizes],
        makespans_s=[float(t) for t in makespans],
        serial_times_s=[float(t) for t in serials],
        device_count=len(shard_plans[0].stretches),
    )
    return streamed, sharded
