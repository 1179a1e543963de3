"""Tests for the async-stream subsystem: timeline, overlapped cost model,
the ``atgpu-async`` backend, and the streamed algorithm execution modes."""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms import Reduction, VectorAddition, chunk_bounds
from repro.algorithms.base import StreamedRunResult
from repro.core.backends import (
    backend_names,
    get_backend,
    make_async_backend,
    overlapped_cost,
    register_backend,
    unregister_backend,
)
from repro.core.metrics import RoundMetrics
from repro.core.presets import GTX_650
from repro.core.transfer import (
    BoyerTransferModel,
    OverlappedTransferModel,
    TransferDirection,
)
from repro.experiments import (
    ExperimentSpec,
    Session,
    figure_chunk_sweep,
    figure_overlap,
    overlap_summary,
    render_overlap_summary,
)
from repro.simulator.config import DeviceConfig
from repro.simulator.streams import StreamOpKind, StreamTimeline


class TestStreamTimeline:
    def test_in_stream_operations_serialise(self):
        timeline = StreamTimeline()
        first = timeline.submit("s0", StreamOpKind.H2D, 2.0)
        second = timeline.submit("s0", StreamOpKind.KERNEL, 3.0)
        assert first.start_s == 0.0
        assert second.start_s == first.end_s == 2.0
        assert timeline.makespan_s == 5.0
        assert timeline.serial_time_s == 5.0

    def test_serial_time_adds_in_order(self):
        """One stream's serial time equals its clock: durations add left to
        right, not with the compensated ``sum`` of Python 3.12+."""
        timeline = StreamTimeline()
        for duration in (1e16, 1.0, 1.0):
            timeline.submit("s0", StreamOpKind.KERNEL, duration)
        assert timeline.serial_time_s == timeline.makespan_s == 1e16
        assert timeline.engine_busy_times()["compute"] == 1e16

    def test_different_engines_overlap_across_streams(self):
        timeline = StreamTimeline()
        copy = timeline.submit("s0", StreamOpKind.H2D, 4.0)
        kernel = timeline.submit("s1", StreamOpKind.KERNEL, 4.0)
        assert copy.start_s == kernel.start_s == 0.0
        assert timeline.makespan_s == 4.0
        assert timeline.serial_time_s == 8.0
        assert timeline.overlap_saving_s == 4.0

    def test_same_engine_is_fifo_across_streams(self):
        timeline = StreamTimeline()
        timeline.submit("s0", StreamOpKind.H2D, 2.0)
        second = timeline.submit("s1", StreamOpKind.H2D, 2.0)
        assert second.start_s == 2.0
        assert timeline.makespan_s == 4.0

    def test_explicit_event_wait_crosses_streams(self):
        timeline = StreamTimeline()
        kernel = timeline.submit("s0", StreamOpKind.KERNEL, 5.0)
        copy = timeline.submit("s1", StreamOpKind.D2H, 1.0, wait=[kernel])
        assert copy.start_s == 5.0
        assert copy.blocked_by == kernel.index

    def test_single_copy_engine_serialises_both_directions(self):
        dual = StreamTimeline()
        dual.submit("s0", StreamOpKind.H2D, 3.0)
        dual.submit("s1", StreamOpKind.D2H, 3.0)
        assert dual.makespan_s == 3.0

        single = StreamTimeline(dual_copy_engines=False)
        single.submit("s0", StreamOpKind.H2D, 3.0)
        single.submit("s1", StreamOpKind.D2H, 3.0)
        assert single.makespan_s == 6.0

    def test_critical_path_ends_at_makespan(self):
        timeline = StreamTimeline()
        a = timeline.submit("s0", StreamOpKind.H2D, 2.0)
        timeline.submit("s0", StreamOpKind.KERNEL, 1.0)
        c = timeline.submit("s1", StreamOpKind.H2D, 5.0)
        path = timeline.critical_path()
        assert path[-1].end_s == timeline.makespan_s == 7.0
        assert [op.index for op in path] == [a.index, c.index]

    def test_rejects_negative_duration_and_bad_kind(self):
        timeline = StreamTimeline()
        with pytest.raises(ValueError):
            timeline.submit("s0", StreamOpKind.H2D, -1.0)
        with pytest.raises(TypeError):
            timeline.submit("s0", "h2d", 1.0)
        with pytest.raises(ValueError):
            timeline.stream("")

    def test_rejects_foreign_wait_events_and_streams(self):
        other = StreamTimeline()
        foreign = other.submit("s0", StreamOpKind.KERNEL, 1.0)
        timeline = StreamTimeline()
        with pytest.raises(ValueError):
            timeline.submit("s0", StreamOpKind.D2H, 1.0, wait=[foreign])
        with pytest.raises(ValueError):
            timeline.submit(other.stream("s0"), StreamOpKind.D2H, 1.0)

    def test_engine_busy_times_and_render(self):
        timeline = StreamTimeline()
        timeline.submit("s0", StreamOpKind.H2D, 2.0, name="copy in")
        timeline.submit("s0", StreamOpKind.KERNEL, 3.0, name="work")
        busy = timeline.engine_busy_times()
        assert busy == {"h2d": 2.0, "compute": 3.0}
        rendered = timeline.render()
        assert "copy in" in rendered and "compute" in rendered

    def test_wiring_from_transfer_and_timing_engines(self, tiny_device):
        engine = tiny_device.transfer_engine
        record = engine.transfer(64, TransferDirection.HOST_TO_DEVICE)
        tiny_device.allocate("x", 64)
        from repro.algorithms.vector_addition import VectorAdditionKernel

        tiny_device.allocate("a", 64)
        tiny_device.allocate("b", 64)
        tiny_device.allocate("c", 64)
        kernel = VectorAdditionKernel(64, tiny_device.config.warp_width)
        pairs = tiny_device.functional_engine.execute_sampled(kernel)
        timing = tiny_device.timing_engine.kernel_timing(kernel.name, pairs)

        timeline = StreamTimeline()
        op_copy = timeline.add_transfer("s0", record)
        op_kernel = timeline.add_kernel("s0", timing, wait=[op_copy])
        assert op_copy.duration_s == record.duration_s
        assert op_kernel.duration_s == timing.total_time_s
        assert op_kernel.start_s == op_copy.end_s

    def test_chunked_pipeline_is_bottleneck_bound(self):
        chunk_stages = [(2.0, 1.0, 0.5)] * 4
        timeline = StreamTimeline()
        for index, stages in enumerate(chunk_stages):
            stream = f"chunk{index}"
            timeline.submit(stream, StreamOpKind.H2D, stages[0])
            timeline.submit(stream, StreamOpKind.KERNEL, stages[1])
            timeline.submit(stream, StreamOpKind.D2H, stages[2])
        # Bottleneck-bound: h2d dominates, makespan = 4·2.0 + 1.0 + 0.5.
        assert timeline.makespan_s == pytest.approx(9.5)


class TestChunkBounds:
    def test_even_split(self):
        assert chunk_bounds(8, 4) == [(0, 2), (2, 4), (4, 6), (6, 8)]

    def test_ragged_split_covers_everything(self):
        bounds = chunk_bounds(10, 3)
        assert bounds[0] == (0, 4)
        assert bounds[-1][1] == 10
        assert sum(hi - lo for lo, hi in bounds) == 10

    def test_chunks_clamped_to_n(self):
        assert chunk_bounds(2, 5) == [(0, 1), (1, 2)]

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            chunk_bounds(0, 2)
        with pytest.raises(ValueError):
            chunk_bounds(4, 0)


class TestOverlappedTransferModel:
    def _round(self, inward=1000.0, outward=500.0):
        return RoundMetrics(
            time=1.0, io_blocks=1.0,
            inward_words=inward, outward_words=outward,
            inward_transactions=1 if inward else 0,
            outward_transactions=1 if outward else 0,
        )

    def test_one_chunk_degenerates_to_serial(self):
        model = OverlappedTransferModel(alpha=1e-4, beta=1e-6, chunks=1)
        metrics = self._round()
        kernel = 3e-4
        assert model.round_cost(metrics, kernel) == pytest.approx(
            model.serial_round_cost(metrics, kernel)
        )

    def test_pipeline_bounds_hold(self):
        model = OverlappedTransferModel(alpha=1e-4, beta=1e-6, chunks=4)
        metrics = self._round()
        kernel = 3e-4
        stages = model.stage_costs(metrics, kernel)
        cost = model.round_cost(metrics, kernel)
        assert max(stages) <= cost <= sum(stages)

    def test_overlap_wins_on_balanced_stages(self):
        model = OverlappedTransferModel(alpha=1e-6, beta=1e-6, chunks=4)
        metrics = self._round()
        kernel = 1e-3  # comparable to the transfer stages: much to hide
        assert model.round_cost(metrics, kernel) < model.serial_round_cost(
            metrics, kernel
        )
        assert model.overlap_saving(metrics, kernel) > 0

    def test_chunking_overhead_can_lose_on_tiny_transfers(self):
        # A 1-word outward copy split into 8 chunks pays 8α for nothing.
        model = OverlappedTransferModel(alpha=1e-3, beta=1e-9, chunks=8)
        metrics = self._round(inward=0.0, outward=1.0)
        assert model.overlap_saving(metrics, kernel_cost=0.0) < 0

    def test_serial_model_matches_boyer(self):
        model = OverlappedTransferModel(alpha=2e-4, beta=3e-6, chunks=2)
        boyer = BoyerTransferModel(alpha=2e-4, beta=3e-6)
        metrics = self._round()
        assert model.serial_round_cost(metrics, 0.0) == pytest.approx(
            boyer.round_cost(metrics)
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            OverlappedTransferModel(alpha=-1.0, beta=0.0)
        with pytest.raises(ValueError):
            OverlappedTransferModel(alpha=0.0, beta=0.0, chunks=0)


class TestAsyncBackend:
    def test_registered_by_default(self):
        assert "atgpu-async" in backend_names()
        assert get_backend("atgpu-async").label == "ATGPU (async)"

    def test_never_above_serial_atgpu(self):
        preset = GTX_650
        for algorithm in (VectorAddition(), Reduction()):
            n = algorithm.default_sizes()[0]
            metrics = algorithm.metrics(n, preset.machine)
            serial = get_backend("atgpu").cost(
                metrics, preset.machine, preset.parameters, preset.occupancy
            )
            overlapped = get_backend("atgpu-async").cost(
                metrics, preset.machine, preset.parameters, preset.occupancy
            )
            assert overlapped <= serial + 1e-15

    def test_one_chunk_equals_serial_atgpu(self):
        preset = GTX_650
        metrics = VectorAddition().metrics(100_000, preset.machine)
        serial = get_backend("atgpu").cost(
            metrics, preset.machine, preset.parameters, preset.occupancy
        )
        assert overlapped_cost(
            metrics, preset.machine, preset.parameters, preset.occupancy,
            chunks=1,
        ) == pytest.approx(serial)

    @pytest.mark.parametrize("chunks,error", [
        (0, ValueError), (-1, ValueError), (2.5, TypeError), (True, TypeError),
    ])
    def test_make_async_backend_rejects_bad_chunks(self, chunks, error):
        before = backend_names()
        with pytest.raises(error, match="chunks"):
            register_backend(make_async_backend(chunks))
        assert backend_names() == before

    def test_make_async_backend_variants(self):
        backend = make_async_backend(8)
        assert backend.name == "atgpu-async8"
        register_backend(backend)
        try:
            preset = GTX_650
            metrics = VectorAddition().metrics(400_000, preset.machine)
            deep = get_backend("atgpu-async8").cost(
                metrics, preset.machine, preset.parameters, preset.occupancy
            )
            serial = get_backend("atgpu").cost(
                metrics, preset.machine, preset.parameters, preset.occupancy
            )
            assert deep < serial
        finally:
            unregister_backend("atgpu-async8")


class TestStreamedExecution:
    def test_vector_addition_streamed_is_correct_and_faster(self):
        algorithm = VectorAddition()
        inputs = algorithm.generate_input(1_000, seed=3)
        from repro.simulator.device import GPUDevice

        device = GPUDevice(DeviceConfig.tiny_test_device())
        result = algorithm.run_streamed(device, inputs, chunks=4)
        assert isinstance(result, StreamedRunResult)
        assert np.array_equal(result.outputs["C"], inputs["A"] + inputs["B"])
        assert result.chunk_count == 4
        assert result.makespan_s < result.serial_time_s
        assert result.overlap_speedup > 1.0

    def test_makespan_within_pipeline_bounds(self):
        algorithm = VectorAddition()
        result = algorithm.observe_streamed(
            200_000, config=DeviceConfig.gtx650(), chunks=4
        )
        busy = result.timeline.engine_busy_times()
        assert max(busy.values()) <= result.makespan_s <= result.serial_time_s

    def test_reduction_streamed_is_correct_and_faster(self):
        algorithm = Reduction()
        inputs = algorithm.generate_input(3_000, seed=1)
        from repro.simulator.device import GPUDevice

        device = GPUDevice(DeviceConfig.tiny_test_device())
        result = algorithm.run_streamed(device, inputs, chunks=4)
        assert result.outputs["Ans"][0] == inputs["A"].sum()
        assert result.makespan_s < result.serial_time_s

    def test_reduction_streamed_many_tiny_chunks(self):
        # More chunks than partial-sum slots of the unchunked run: the
        # partials buffer must grow with the chunked first level.
        algorithm = Reduction()
        result = algorithm.observe_streamed(
            100, config=DeviceConfig.tiny_test_device(), chunks=16
        )
        assert result.outputs["Ans"][0] == pytest.approx(
            algorithm.generate_input(100, seed=0)["A"].sum()
        )

    def test_base_class_raises_for_unstreamed_algorithms(self):
        from repro.algorithms import MatrixMultiplication

        algorithm = MatrixMultiplication()
        assert not algorithm.supports_streaming
        assert VectorAddition().supports_streaming
        with pytest.raises(NotImplementedError):
            algorithm.run_streamed(None, {})


class TestOverlapAcceptance:
    """The PR's acceptance scenario: a copy-bound streamed vector-addition
    sweep where model and simulator agree that overlap wins."""

    SIZES = (100_000, 200_000, 400_000)
    CHUNKS = 4

    def test_async_backend_usable_via_spec_and_strictly_faster(self):
        spec = ExperimentSpec(
            "vector_addition",
            sizes=self.SIZES,
            backends=("atgpu", "swgpu", "perfect", "atgpu-async"),
        )
        result = Session().run(spec)
        serial = result.comparison().prediction.series_for("atgpu")
        overlapped = result.comparison().prediction.series_for("atgpu-async")
        assert np.all(overlapped < serial)

        figure = figure_overlap(result)
        assert np.all(figure.series["Speedup Δ"] > 1.0)
        summary = overlap_summary({"vector_addition": result})
        assert summary["vector_addition"].mean_speedup > 1.0

    def test_model_cost_within_stage_bounds(self):
        preset = GTX_650
        model = OverlappedTransferModel(
            alpha=preset.parameters.alpha,
            beta=preset.parameters.beta,
            chunks=self.CHUNKS,
        )
        algorithm = VectorAddition()
        from repro.core.cost import ATGPUCostModel

        cost_model = ATGPUCostModel(
            preset.machine, preset.parameters, preset.occupancy
        )
        for n in self.SIZES:
            (round_metrics,) = algorithm.metrics(n, preset.machine).rounds
            breakdown = cost_model.round_breakdown(
                round_metrics, use_occupancy=True
            )
            kernel = breakdown.compute + breakdown.io
            stages = model.stage_costs(round_metrics, kernel)
            cost = model.round_cost(round_metrics, kernel)
            assert max(stages) <= cost <= sum(stages)
            assert cost < model.serial_round_cost(round_metrics, kernel)

    @pytest.mark.parametrize("n", [*SIZES, 2_000_000])
    def test_simulated_makespan_strictly_below_serial_and_bounded(self, n):
        result = VectorAddition().observe_streamed(
            n, config=DeviceConfig.gtx650(), chunks=self.CHUNKS
        )
        busy = result.timeline.engine_busy_times()
        assert result.makespan_s < result.serial_time_s
        assert max(busy.values()) <= result.makespan_s

    def test_prediction_and_simulation_agree_on_overlap_speedup(self):
        """Both sides must agree on the direction and rough magnitude."""
        preset = GTX_650
        algorithm = VectorAddition()
        for n in self.SIZES:
            metrics = algorithm.metrics(n, preset.machine)
            serial = overlapped_cost(
                metrics, preset.machine, preset.parameters, preset.occupancy,
                chunks=1,
            )
            overlapped = overlapped_cost(
                metrics, preset.machine, preset.parameters, preset.occupancy,
                chunks=self.CHUNKS,
            )
            predicted_speedup = serial / overlapped
            simulated = algorithm.observe_streamed(
                n, config=DeviceConfig.gtx650(), chunks=self.CHUNKS
            )
            # Same direction: both report a real win from overlap ...
            assert predicted_speedup > 1.05
            assert simulated.overlap_speedup > 1.05
            # ... and approximately the same magnitude.
            assert simulated.overlap_speedup == pytest.approx(
                predicted_speedup, rel=0.35
            )

    @pytest.mark.parametrize("n", [200_000, 10_000_000])
    def test_chunk_sweep_figure_has_serial_baseline(self, n):
        figure = figure_chunk_sweep("vector_addition", n)
        assert figure.sizes[0] == 1
        assert figure.series["Speedup Δ"][0] == pytest.approx(1.0)
        assert figure.series["Speedup Δ"].max() > 1.0

    def test_paper_sweeps_overlap_never_loses(self):
        """Over the paper's sweeps: overlap wins big when copy-bound."""
        specs = [
            ExperimentSpec(
                name, scale="paper",
                backends=("atgpu", "swgpu", "perfect", "atgpu-async"),
            )
            for name in ("vector_addition", "reduction")
        ]
        results = Session().run_many(specs)
        figure = figure_overlap(results.get("vector_addition"))
        assert np.all(figure.series["Speedup Δ"] > 1.0)
        summaries = overlap_summary(results)
        assert summaries["vector_addition"].mean_speedup > 1.05
        assert summaries["reduction"].mean_speedup >= 1.0
        text = render_overlap_summary(summaries)
        assert "vector_addition" in text and "reduction" in text
