"""Unit tests for the cost functions, occupancy, transfer model and comparison."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.algorithms import MatrixMultiplication, VectorAddition
from repro.core.analysis import analyse_metrics
from repro.core.comparison import (
    AGPUAnalysis,
    FEATURE_ROWS,
    SWGPUCostModel,
    feature_count,
    model_feature_table,
    model_supports,
    render_feature_table,
)
from repro.core.cost import ATGPUCostModel, CostParameters
from repro.core.machine import ATGPUMachine
from repro.core.metrics import AlgorithmMetrics, RoundMetrics
from repro.core.occupancy import (
    OccupancyModel,
    blocks_per_multiprocessor,
    blocks_per_multiprocessor_grid,
    wave_count,
    wave_count_grid,
)
from repro.core.presets import GTX_1080, GTX_650, GTX_980, TESLA_K40
from repro.core.transfer import BoyerTransferModel


def simple_metrics(time=10.0, io=4.0, inward=100.0, outward=50.0,
                   shared=32.0, blocks=8) -> AlgorithmMetrics:
    return AlgorithmMetrics([RoundMetrics(
        time=time, io_blocks=io, inward_words=inward, outward_words=outward,
        inward_transactions=1 if inward else 0,
        outward_transactions=1 if outward else 0,
        global_words=inward + outward, shared_words_per_mp=shared,
        thread_blocks=blocks,
    )], name="simple")


class TestBoyerTransferModel:
    def test_linear_cost(self):
        model = BoyerTransferModel(alpha=2.0, beta=0.5)
        assert model.cost(words=10, transactions=3) == 3 * 2.0 + 10 * 0.5

    def test_zero_words_costs_overhead_only(self):
        model = BoyerTransferModel(alpha=2.0, beta=0.5)
        assert model.cost(0, transactions=1) == 2.0

    def test_positive_words_require_a_transaction(self):
        model = BoyerTransferModel(alpha=2.0, beta=0.5)
        with pytest.raises(ValueError):
            model.cost(10, transactions=0)

    def test_round_costs_match_metrics(self):
        model = BoyerTransferModel(alpha=1.0, beta=0.1)
        metrics = simple_metrics()[0]
        assert model.inward_cost(metrics) == pytest.approx(1.0 + 0.1 * 100)
        assert model.outward_cost(metrics) == pytest.approx(1.0 + 0.1 * 50)
        assert model.round_cost(metrics) == pytest.approx(
            model.inward_cost(metrics) + model.outward_cost(metrics))

    def test_effective_bandwidth_increases_with_size(self):
        model = BoyerTransferModel(alpha=1.0, beta=0.001)
        assert model.effective_bandwidth(10_000) > model.effective_bandwidth(10)

    @given(st.floats(min_value=0, max_value=1e3), st.floats(min_value=0, max_value=1e3),
           st.integers(min_value=1, max_value=100), st.floats(min_value=0, max_value=1e6))
    def test_cost_monotone_in_words(self, alpha, beta, transactions, words):
        model = BoyerTransferModel(alpha=alpha, beta=beta)
        assert model.cost(words + 1, transactions) >= model.cost(words, transactions)


class TestOccupancy:
    def test_blocks_per_mp_memory_limited(self):
        assert blocks_per_multiprocessor(1024, 100, 16) == 10

    def test_blocks_per_mp_hardware_limited(self):
        assert blocks_per_multiprocessor(1 << 20, 1, 16) == 16

    def test_blocks_per_mp_zero_shared_means_hardware_limit(self):
        assert blocks_per_multiprocessor(1024, 0, 8) == 8

    def test_blocks_per_mp_unrunnable_kernel(self):
        with pytest.raises(ValueError):
            blocks_per_multiprocessor(64, 100, 8)

    def test_blocks_per_mp_fractional_shared_words_no_float_floor_loss(self):
        # 10 / 0.1 is 99.999... in binary; a bare floor loses a resident
        # block the MP really has room for.
        assert blocks_per_multiprocessor(10, 0.1, 1000) == 100
        assert blocks_per_multiprocessor(3, 0.3, 1000) == 10
        assert blocks_per_multiprocessor(7, 0.7, 1000) == 10

    def test_blocks_per_mp_fractional_shared_words_still_floors(self):
        # Genuinely fractional ratios must still floor, not round up.
        assert blocks_per_multiprocessor(10, 3, 1000) == 3
        assert blocks_per_multiprocessor(10, 0.15, 1000) == 66

    def test_blocks_per_mp_huge_exact_ratio_not_inflated(self):
        # The epsilon must not grant blocks the MP has no memory for when
        # the ratio is a large exact integer.
        assert blocks_per_multiprocessor(
            2_000_000_000, 1, 10**12
        ) == 2_000_000_000

    def test_blocks_per_multiprocessor_grid_matches_scalar_epsilon_logic(self):
        values = np.array([[0.0, 0.1, 7.0], [3.0, 10.0, 9.999999999]])
        grid = blocks_per_multiprocessor_grid(10, values, 16)
        for index in np.ndindex(values.shape):
            expected = blocks_per_multiprocessor(10, float(values[index]), 16)
            assert grid[index] == expected
        with pytest.raises(ValueError, match="cannot run"):
            blocks_per_multiprocessor_grid(10, np.array([11.0]), 16)

    def test_wave_count_grid_prices_idle_cells_to_zero_waves(self):
        # A topology gives an idle device zero blocks; the scalar function
        # rejects zero, the grid prices it to zero waves.
        waves = wave_count_grid(np.array([0.0, 1.0, 17.0]), 2, np.array([8] * 3))
        assert waves.tolist() == [0, 1, 2]
        with pytest.raises(ValueError, match="non-negative"):
            wave_count_grid(np.array([-1.0]), 2, np.array([8]))

    def test_wave_count_ceiling(self):
        assert wave_count(100, 2, 8) == math.ceil(100 / 16)
        assert wave_count(16, 2, 8) == 1

    def test_occupancy_model_waves(self, occupancy):
        assert occupancy.waves(64, 1024, 100) == math.ceil(64 / (2 * 10))

    def test_occupancy_fraction_full(self, occupancy):
        assert occupancy.occupancy_fraction(32, 1024, 64) == pytest.approx(1.0)

    def test_occupancy_fraction_partial(self, occupancy):
        assert occupancy.occupancy_fraction(1, 1024, 64) < 0.1

    @given(st.integers(min_value=1, max_value=10_000),
           st.integers(min_value=1, max_value=32),
           st.integers(min_value=1, max_value=32))
    def test_waves_cover_all_blocks(self, blocks, mps, per_mp):
        waves = wave_count(blocks, mps, per_mp)
        assert waves * mps * per_mp >= blocks
        assert (waves - 1) * mps * per_mp < blocks


class TestCostParameters:
    def test_without_transfer_zeroes_alpha_beta(self, parameters):
        stripped = parameters.without_transfer()
        assert stripped.alpha == 0.0 and stripped.beta == 0.0
        assert stripped.gamma == parameters.gamma

    def test_scaled_preserves_cost_values(self, parameters, machine, occupancy):
        metrics = simple_metrics()
        base = ATGPUCostModel(machine, parameters, occupancy).gpu_cost(metrics)
        scaled = ATGPUCostModel(machine, parameters.scaled(1000.0), occupancy).gpu_cost(metrics)
        assert scaled == pytest.approx(base * 1000.0)

    def test_invalid_gamma_rejected(self):
        with pytest.raises(ValueError):
            CostParameters(gamma=0.0, lam=1, sigma=1, alpha=1, beta=1)


class TestATGPUCostModel:
    def test_expression_one_closed_form(self, machine, parameters):
        metrics = simple_metrics(time=10, io=4, inward=100, outward=50)
        model = ATGPUCostModel(machine, parameters)
        expected = (
            (1 * parameters.alpha + 100 * parameters.beta)      # T_I
            + (10 + parameters.lam * 4) / parameters.gamma      # (t + λq)/γ
            + (1 * parameters.alpha + 50 * parameters.beta)     # T_O
            + parameters.sigma                                  # σ
        )
        assert model.perfect_cost(metrics) == pytest.approx(expected)

    def test_expression_two_scales_time_by_waves(self, machine, parameters, occupancy):
        metrics = simple_metrics(time=10, blocks=64, shared=100)
        model = ATGPUCostModel(machine, parameters, occupancy)
        waves = occupancy.waves(64, machine.M, 100)
        perfect = model.perfect_cost(metrics)
        gpu = model.gpu_cost(metrics)
        assert gpu - perfect == pytest.approx((waves - 1) * 10 / parameters.gamma)

    def test_gpu_cost_requires_occupancy(self, machine, parameters):
        model = ATGPUCostModel(machine, parameters)
        with pytest.raises(ValueError, match="Occupancy"):
            model.gpu_cost(simple_metrics())

    def test_breakdown_components_sum_to_total(self, machine, parameters, occupancy):
        model = ATGPUCostModel(machine, parameters, occupancy)
        breakdown = model.breakdown(simple_metrics(), use_occupancy=True)
        assert breakdown.total == pytest.approx(
            breakdown.transfer + breakdown.compute + breakdown.io
            + breakdown.synchronisation
        )
        assert 0.0 <= breakdown.transfer_proportion <= 1.0

    def test_transfer_cost_matches_boyer(self, machine, parameters, occupancy):
        model = ATGPUCostModel(machine, parameters, occupancy)
        metrics = simple_metrics(inward=300, outward=7)
        expected = (parameters.alpha + 300 * parameters.beta
                    + parameters.alpha + 7 * parameters.beta)
        assert model.transfer_cost(metrics) == pytest.approx(expected)

    def test_multi_round_cost_is_sum_of_rounds(self, machine, parameters, occupancy):
        rounds = [
            RoundMetrics(time=3, io_blocks=2, inward_words=10, inward_transactions=1),
            RoundMetrics(time=5, io_blocks=1, outward_words=1, outward_transactions=1),
        ]
        metrics = AlgorithmMetrics(rounds)
        model = ATGPUCostModel(machine, parameters, occupancy)
        total = model.gpu_cost(metrics)
        per_round = sum(model.round_cost(r, use_occupancy=True) for r in rounds)
        assert total == pytest.approx(per_round)

    def test_capacity_violation_raises(self, machine, parameters, occupancy):
        metrics = AlgorithmMetrics([RoundMetrics(
            time=1, io_blocks=1, global_words=machine.G + 1)])
        model = ATGPUCostModel(machine, parameters, occupancy)
        with pytest.raises(Exception):
            model.perfect_cost(metrics)

    @given(st.floats(min_value=0, max_value=1e4), st.floats(min_value=0, max_value=1e4))
    def test_cost_monotone_in_time_and_io(self, time, io, ):
        machine = ATGPUMachine(p=64, b=32, M=4096, G=1 << 20)
        params = CostParameters(gamma=1e6, lam=5, sigma=0.0, alpha=0.0, beta=0.0)
        model = ATGPUCostModel(machine, params)
        low = simple_metrics(time=time, io=io, inward=0, outward=0, shared=0)
        high = simple_metrics(time=time + 1, io=io + 1, inward=0, outward=0, shared=0)
        assert model.perfect_cost(high) >= model.perfect_cost(low)


class TestSWGPUAndAGPU:
    def test_swgpu_is_atgpu_minus_transfer(self, machine, parameters, occupancy):
        metrics = simple_metrics()
        atgpu = ATGPUCostModel(machine, parameters, occupancy)
        swgpu = SWGPUCostModel(machine, parameters, occupancy)
        assert swgpu.gpu_cost(metrics) == pytest.approx(
            atgpu.gpu_cost(metrics) - atgpu.transfer_cost(metrics))

    def test_swgpu_breakdown_has_no_transfer(self, machine, parameters, occupancy):
        swgpu = SWGPUCostModel(machine, parameters, occupancy)
        assert swgpu.breakdown(simple_metrics()).transfer == 0.0

    def test_agpu_analysis_projection(self, machine):
        metrics = simple_metrics()
        agpu = AGPUAnalysis.from_metrics(metrics)
        assert agpu.time == metrics.total_time
        assert agpu.io_blocks == metrics.total_io_blocks
        assert agpu.respects_shared_memory_limit(machine)

    def test_feature_table_matches_paper(self):
        table = model_feature_table()
        assert table["Host/Device Data Transfer"] == {
            "AGPU": False, "SWGPU": False, "ATGPU": True}
        assert table["Pseudocode"] == {"AGPU": True, "SWGPU": False, "ATGPU": True}
        assert table["Cost Function"] == {"AGPU": False, "SWGPU": True, "ATGPU": True}

    def test_atgpu_supports_every_feature(self):
        assert feature_count("ATGPU") == len(FEATURE_ROWS)
        assert feature_count("ATGPU") > feature_count("AGPU") > 0
        assert feature_count("ATGPU") > feature_count("SWGPU") > 0

    def test_model_supports_unknown_raises(self):
        with pytest.raises(KeyError):
            model_supports("ATGPU", "Teleportation")
        with pytest.raises(KeyError):
            model_supports("XYZ", "Pseudocode")

    def test_render_feature_table_contains_rows(self):
        text = render_feature_table(include_counts=True)
        for row in FEATURE_ROWS:
            assert row in text
        assert "Supported features" in text


class TestPresetAblations:
    """How the preset choices shape the paper's predictions.

    Expression 2 against Expression 1 as the physical MP count ``k'`` and
    the block limit ``H`` vary; λ as a raw global-memory latency against
    the bandwidth-amortised cost the presets use (see
    ``repro.core.presets``); and the transfer share on every GPU preset.
    """

    N = 10_000_000

    def _report(self, occupancy=GTX_650.occupancy, parameters=GTX_650.parameters):
        algorithm = VectorAddition()
        return analyse_metrics(
            algorithm.metrics(self.N, GTX_650.machine), GTX_650.machine,
            parameters, occupancy, algorithm=algorithm.name, input_size=self.N,
        )

    def test_gpu_cost_never_below_perfect_and_falls_with_mps(self):
        costs = {}
        for physical_mps in (1, 2, 4, 8, 16):
            for block_limit in (1, 4, 16):
                report = self._report(OccupancyModel(
                    physical_mps=physical_mps, hardware_block_limit=block_limit,
                ))
                assert report.gpu_cost >= report.perfect_cost * (1 - 1e-12)
                costs[physical_mps, block_limit] = report.gpu_cost
        assert costs[16, 16] <= costs[1, 16]

    def test_raw_latency_lambda_hides_the_transfer(self):
        amortised = self._report().predicted_transfer_proportion
        raw = self._report(
            parameters=replace(GTX_650.parameters, lam=800.0)
        ).predicted_transfer_proportion
        assert amortised > 0.7  # transfer dominates, as the paper plots
        assert raw < 0.1  # a 800-cycle λ makes the transfer invisible

    def test_transfer_share_ordering_holds_on_every_preset(self):
        vecadd_costs = {}
        for preset in (GTX_650, GTX_980, TESLA_K40, GTX_1080):
            vecadd = VectorAddition().analyse(self.N, preset)
            matmul = MatrixMultiplication().analyse(1024, preset)
            assert (vecadd.predicted_transfer_proportion
                    > matmul.predicted_transfer_proportion)
            vecadd_costs[preset.name] = vecadd.gpu_cost
        # The paper's GTX 650 (2 SMs, slow link) is the slowest preset.
        assert max(vecadd_costs, key=vecadd_costs.get) == GTX_650.name
