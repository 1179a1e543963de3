"""Tests for the multi-GPU sharding subsystem: the homogeneous-fleet cost
(``Topology.homogeneous(devices, contention)``), the ``atgpu-multi``
backend, the simulator :class:`DevicePool`, the sharded algorithm execution
modes, and the scaling figures/tables."""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms import Reduction, VectorAddition
from repro.algorithms.base import ShardedRunResult
from repro.core.backends import (
    backend_names,
    get_backend,
    make_sharded_backend,
    register_backend,
    unregister_backend,
)
from repro.core.cost import ATGPUCostModel
from repro.core.presets import GTX_650
from repro.core.sharding import TopologyCostModel, topology_gpu_cost
from repro.core.topology import Topology
from repro.core.transfer import TransferDirection
from repro.experiments import (
    ExperimentSpec,
    Session,
    figure_scaling,
    figure_shard_sweep,
    render_scaling_summary,
    scaling_summary,
)
from repro.simulator.config import DeviceConfig
from repro.simulator.device import GPUDevice
from repro.simulator.device_pool import DevicePool
from repro.workloads.sweeps import SHARD_COUNT_SWEEP


def fleet_cost(metrics, devices, contention=0.0, preset=GTX_650) -> float:
    """GPU-cost of ``metrics`` on ``Topology.homogeneous(devices, contention)``."""
    return topology_gpu_cost(
        metrics, preset.machine, preset.parameters, preset.occupancy,
        Topology.homogeneous(devices, contention),
    )


class TestHomogeneousFleetCost:
    def test_cost_non_increasing_in_devices_on_independent_links(self):
        metrics = VectorAddition().metrics(2_000_000, GTX_650.machine)
        costs = [fleet_cost(metrics, p) for p in SHARD_COUNT_SWEEP.sizes]
        assert all(a >= b for a, b in zip(costs, costs[1:]))
        assert costs[-1] < costs[0]

    def test_speedup_bounded_by_device_count(self):
        preset = GTX_650
        metrics = VectorAddition().metrics(2_000_000, preset.machine)
        serial = ATGPUCostModel(
            preset.machine, preset.parameters, preset.occupancy
        ).gpu_cost(metrics)
        for devices in (2, 4, 8):
            speedup = serial / fleet_cost(metrics, devices)
            assert 1.0 <= speedup <= devices + 1e-9

    def test_contention_degrades_scaling(self):
        metrics = VectorAddition().metrics(2_000_000, GTX_650.machine)
        free = fleet_cost(metrics, 4, contention=0.0)
        contended = fleet_cost(metrics, 4, contention=1.0)
        assert contended > free

    def test_requires_occupancy(self):
        preset = GTX_650
        with pytest.raises(ValueError):
            TopologyCostModel(
                preset.machine, preset.parameters, None,
                Topology.homogeneous(2),
            )


class TestShardedBackend:
    def test_default_backend_registered(self):
        assert "atgpu-multi" in backend_names()
        backend = get_backend("atgpu-multi")
        assert backend.label == "ATGPU (multi)"

    def test_single_device_backend_matches_atgpu_bit_for_bit(self):
        preset = GTX_650
        metrics = VectorAddition().metrics(3_000_000, preset.machine)
        serial = get_backend("atgpu").cost(
            metrics, preset.machine, preset.parameters, preset.occupancy
        )
        single = make_sharded_backend(1).cost(
            metrics, preset.machine, preset.parameters, preset.occupancy
        )
        assert single == serial

    def test_variant_naming(self):
        assert make_sharded_backend().name == "atgpu-multi"
        assert make_sharded_backend(4).name == "atgpu-multi4"
        assert make_sharded_backend(4, contention=0.5).name == "atgpu-multi4-c0.5"

    def test_backend_selectable_through_session(self, tmp_path):
        session = Session(cache_dir=tmp_path)
        spec = ExperimentSpec(
            "vector_addition",
            sizes=(100_000, 200_000),
            backends=("atgpu", "swgpu", "perfect", "atgpu-multi"),
        )
        result = session.run(spec)
        serial = result.backend_series("atgpu")
        sharded = result.backend_series("atgpu-multi")
        assert np.all(sharded < serial)
        # The cached result round-trips the sharded series through JSON.
        fresh = Session(cache_dir=tmp_path)
        cached = fresh.run(spec)
        assert fresh.cache_hits == 1
        assert np.array_equal(cached.backend_series("atgpu-multi"), sharded)

    def test_registered_variant_usable_and_unregisterable(self):
        backend = register_backend(make_sharded_backend(4))
        try:
            preset = GTX_650
            metrics = Reduction().metrics(1 << 16, preset.machine)
            quad = get_backend("atgpu-multi4").cost(
                metrics, preset.machine, preset.parameters, preset.occupancy
            )
            serial = get_backend("atgpu").cost(
                metrics, preset.machine, preset.parameters, preset.occupancy
            )
            assert quad < serial
        finally:
            unregister_backend(backend.name)


class TestDevicePool:
    def test_single_device_pool_is_serial(self):
        pool = DevicePool(1)
        pool.add_transfer(0, 1000, TransferDirection.HOST_TO_DEVICE)
        pool.add_host(0, 1e-4, name="sync")
        pool.add_transfer(0, 1000, TransferDirection.DEVICE_TO_HOST)
        assert pool.makespan_s == pytest.approx(pool.serial_time_s)
        assert pool.sharding_speedup == pytest.approx(1.0)

    def test_devices_proceed_concurrently(self):
        pool = DevicePool(2)
        a = pool.add_transfer(0, 10_000, TransferDirection.HOST_TO_DEVICE)
        b = pool.add_transfer(1, 10_000, TransferDirection.HOST_TO_DEVICE)
        assert a.start_s == b.start_s == 0.0
        assert pool.makespan_s == pytest.approx(a.duration_s)
        assert pool.serial_time_s == pytest.approx(2 * a.duration_s)

    def test_contention_stretches_streaming_not_latency(self):
        config = DeviceConfig.gtx650()
        free = DevicePool(4, config=config, contention=0.0)
        contended = DevicePool(4, config=config, contention=1.0)
        words = 100_000
        base = free.transfer_duration(words, TransferDirection.HOST_TO_DEVICE)
        stretched = contended.transfer_duration(
            words, TransferDirection.HOST_TO_DEVICE
        )
        latency = config.transfer_latency_s
        assert contended.link_stretch == pytest.approx(4.0)
        assert stretched == pytest.approx(latency + (base - latency) * 4.0)

    def test_zero_word_transfer_stays_free(self):
        pool = DevicePool(4, contention=1.0)
        assert pool.transfer_duration(0, TransferDirection.HOST_TO_DEVICE) == 0.0

    def test_pool_rejects_bad_device_index(self):
        pool = DevicePool(2)
        with pytest.raises(IndexError):
            pool.timeline(2)

    def test_failed_submission_leaves_pool_statistics_untouched(self):
        pool = DevicePool(2)
        with pytest.raises(IndexError):
            pool.add_transfer(7, 1000, TransferDirection.HOST_TO_DEVICE)
        with pytest.raises(IndexError):
            pool.add_host(7, 1e-4)
        assert pool.serial_time_s == 0.0
        assert pool.transfer_engine.records == []
        assert pool.makespan_s == 0.0

    def test_straggler_and_render(self):
        pool = DevicePool(2)
        pool.add_transfer(0, 100, TransferDirection.HOST_TO_DEVICE)
        pool.add_transfer(1, 10_000, TransferDirection.HOST_TO_DEVICE, label="big")
        assert pool.straggler == 1
        text = pool.render()
        assert text.startswith("Pool: 2 devices over 1 socket(s)")
        assert "device 0" in text and "device 1" in text and "big" in text

    def test_engine_busy_times_aggregate_across_devices(self):
        pool = DevicePool(2)
        pool.add_transfer(0, 1000, TransferDirection.HOST_TO_DEVICE)
        pool.add_transfer(1, 1000, TransferDirection.HOST_TO_DEVICE)
        busy = pool.engine_busy_times()
        assert busy["h2d"] == pytest.approx(2 * pool.transfer_duration(
            1000, TransferDirection.HOST_TO_DEVICE
        ))


class TestShardedRuns:
    @pytest.mark.parametrize("devices", [1, 2, 3, 5])
    def test_vector_addition_sharded_outputs_correct(self, devices):
        algorithm = VectorAddition()
        inputs = algorithm.generate_input(10_000, seed=3)
        expected = algorithm.reference(inputs)
        device = GPUDevice(DeviceConfig.gtx650())
        result = algorithm.run_sharded(device, inputs, devices=devices)
        assert isinstance(result, ShardedRunResult)
        assert result.device_count == devices
        assert np.array_equal(result.outputs["C"], expected["C"])

    @pytest.mark.parametrize("devices", [1, 2, 4])
    def test_reduction_sharded_outputs_correct(self, devices):
        algorithm = Reduction()
        inputs = algorithm.generate_input(50_000, seed=4)
        expected = algorithm.reference(inputs)
        device = GPUDevice(DeviceConfig.gtx650())
        result = algorithm.run_sharded(device, inputs, devices=devices)
        assert result.outputs["Ans"][0] == expected["Ans"][0]

    def test_supports_sharding_flags(self):
        assert VectorAddition().supports_sharding
        assert Reduction().supports_sharding
        from repro.algorithms import MatrixMultiplication

        assert not MatrixMultiplication().supports_sharding
        with pytest.raises(NotImplementedError):
            MatrixMultiplication().run_sharded(
                GPUDevice(DeviceConfig.gtx650()), {}
            )

    @pytest.mark.parametrize("n", [200_000, 2_000_000])
    def test_sharding_speeds_up_the_simulated_run(self, n):
        algorithm = VectorAddition()
        serial = algorithm.observe_sharded(n, devices=1, seed=0)
        sharded = algorithm.observe_sharded(n, devices=4, seed=0)
        assert sharded.makespan_s < serial.makespan_s
        assert sharded.makespan_s < sharded.serial_time_s
        assert sharded.sharding_speedup > 2.0

    def test_more_devices_than_elements_leaves_devices_idle(self):
        algorithm = VectorAddition()
        result = algorithm.observe_sharded(3, devices=8, seed=0)
        spans = result.device_makespans
        assert len(spans) == 8
        assert sum(1 for s in spans if s > 0) == 3

    def test_model_and_simulator_agree_on_scaling_direction(self):
        """Model cost and pool makespan move the same way in P."""
        preset = GTX_650
        algorithm = VectorAddition()
        n = 400_000
        metrics = algorithm.metrics(n, preset.machine)
        counts = (1, 2, 4)
        model_costs = [fleet_cost(metrics, p, preset=preset) for p in counts]
        sim_spans = [
            algorithm.observe_sharded(n, devices=p, seed=0).makespan_s
            for p in counts
        ]
        model_direction = [np.sign(b - a) for a, b in zip(model_costs, model_costs[1:])]
        sim_direction = [np.sign(b - a) for a, b in zip(sim_spans, sim_spans[1:])]
        assert model_direction == sim_direction

    def test_kernel_timing_memoised_across_equal_shards(self, monkeypatch):
        """Equal-sized shards reuse one simulated timing instead of P."""
        from repro.simulator.functional import FunctionalEngine

        calls = []
        original = FunctionalEngine.execute_sampled

        def counting(self, kernel):
            calls.append(kernel.grid_size())
            return original(self, kernel)

        monkeypatch.setattr(FunctionalEngine, "execute_sampled", counting)
        algorithm = VectorAddition()
        device = GPUDevice(DeviceConfig.gtx650())
        inputs = algorithm.generate_input(64_000, seed=0)
        algorithm.run_sharded(device, inputs, devices=8)
        # A near-even split yields at most two distinct shard sizes.
        assert len(calls) <= 2

    def test_contention_slows_the_simulated_pool(self):
        algorithm = VectorAddition()
        free = algorithm.observe_sharded(200_000, devices=4, contention=0.0)
        contended = algorithm.observe_sharded(200_000, devices=4, contention=1.0)
        assert contended.makespan_s > free.makespan_s

    def test_serial_baseline_is_uncontended(self):
        """The serial comparison time must not inherit the link stretch,
        or sharding_speedup would cancel contention entirely."""
        algorithm = VectorAddition()
        free = algorithm.observe_sharded(200_000, devices=4, contention=0.0)
        contended = algorithm.observe_sharded(200_000, devices=4, contention=1.0)
        assert contended.serial_time_s == pytest.approx(free.serial_time_s)
        assert contended.sharding_speedup < free.sharding_speedup
        # Transfer-bound workload on a fully shared link: sharding buys
        # little, as the analytic model predicts.
        assert contended.sharding_speedup < 2.0


class TestScalingFiguresAndTables:
    @pytest.fixture(scope="class")
    def scaling_results(self):
        session = Session()
        specs = [
            ExperimentSpec(
                name,
                scale="small",
                backends=("atgpu", "swgpu", "perfect", "atgpu-multi"),
            )
            for name in ("vector_addition", "reduction")
        ]
        return session.run_many(specs)

    def test_figure_scaling_from_result_set(self, scaling_results):
        series = figure_scaling(scaling_results.get("vector_addition"))
        assert set(series.series) == {"Serial", "Sharded", "Speedup Δ"}
        assert np.all(series.series["Speedup Δ"] > 1.0)
        rows = series.as_rows()
        assert len(rows) == len(series.sizes)

    @pytest.mark.parametrize("n", [1_000_000, 10_000_000])
    def test_figure_shard_sweep_direct(self, n):
        series = figure_shard_sweep("vector_addition", n)
        assert series.sizes == list(SHARD_COUNT_SWEEP.sizes)
        speedups = series.series["Speedup Δ"]
        assert speedups[0] == pytest.approx(1.0)
        assert all(a <= b + 1e-12 for a, b in zip(speedups, speedups[1:]))
        assert speedups[-1] > speedups[0]

    @pytest.mark.parametrize("n", [1_000_000, 10_000_000])
    def test_figure_shard_sweep_with_contention_flattens(self, n):
        free = figure_shard_sweep("vector_addition", n, contention=0.0)
        jammed = figure_shard_sweep("vector_addition", n, contention=1.0)
        assert jammed.series["Sharded"][-1] > free.series["Sharded"][-1]

    def test_scaling_summary_renders_from_result_set(self, scaling_results):
        summaries = scaling_summary(scaling_results)
        assert set(summaries) == {"vector_addition", "reduction"}
        for summary in summaries.values():
            assert summary.mean_speedup > 1.0
            assert 0.0 < summary.saving_share < 1.0
        text = render_scaling_summary(summaries)
        assert "vector_addition" in text
        assert "saving share" in text

    def test_paper_sweeps_two_devices_never_lose(self):
        """Over the paper's sweeps: sharding wins big when copy-bound."""
        specs = [
            ExperimentSpec(
                name, scale="paper",
                backends=("atgpu", "swgpu", "perfect", "atgpu-multi"),
            )
            for name in ("vector_addition", "reduction")
        ]
        results = Session().run_many(specs)
        figure = figure_scaling(results.get("vector_addition"))
        assert np.all(figure.series["Speedup Δ"] > 1.0)
        summaries = scaling_summary(results)
        assert summaries["vector_addition"].mean_speedup > 1.5
        assert summaries["reduction"].mean_speedup >= 1.0
        text = render_scaling_summary(summaries)
        assert "vector_addition" in text and "reduction" in text
