"""Tests for the algorithm implementations: correctness, metrics, paper formulas."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.algorithms import (
    Histogram,
    MatrixMultiplication,
    PrefixSum,
    Reduction,
    SpMV,
    Stencil1D,
    VectorAddition,
    all_algorithm_names,
    create,
    extension_algorithm_names,
    paper_algorithm_names,
    reduction_rounds,
)
from repro.algorithms.base import outputs_match
from repro.core.presets import GTX_650
from repro.simulator import DeviceConfig

TINY = DeviceConfig.tiny_test_device()
GTX = DeviceConfig.gtx650()


class TestRegistry:
    def test_paper_algorithms_registered(self):
        assert paper_algorithm_names() == [
            "vector_addition", "reduction", "matrix_multiplication"]

    def test_extensions_registered(self):
        assert set(extension_algorithm_names()) == {
            "prefix_sum", "stencil_1d", "histogram", "spmv"}

    def test_create_by_name(self):
        assert isinstance(create("vector_addition"), VectorAddition)
        with pytest.raises(KeyError):
            create("bogus")

    def test_all_names_unique(self):
        names = all_algorithm_names()
        assert len(names) == len(set(names)) == 7


class TestCorrectness:
    """Every algorithm's simulated run must match its NumPy reference."""

    @pytest.mark.parametrize("name,n", [
        ("vector_addition", 5_000),
        ("reduction", 40_000),
        ("matrix_multiplication", 96),
        ("prefix_sum", 7_777),
        ("stencil_1d", 3_000),
        ("histogram", 50_000),
        ("spmv", 1_024),
    ])
    def test_matches_reference_on_gtx650(self, name, n):
        record = create(name).observe(n, config=GTX, seed=3, check=True)
        assert record.correct is True
        assert record.kernel_time_s > 0
        assert record.transfer_time_s > 0
        assert record.total_time_s >= record.kernel_time_s + record.transfer_time_s

    @pytest.mark.parametrize("name,n", [
        ("vector_addition", 37),
        ("reduction", 100),
        ("prefix_sum", 61),
        ("stencil_1d", 50),
        ("histogram", 300),
        ("spmv", 40),
    ])
    def test_matches_reference_on_tiny_device(self, name, n):
        assert create(name).observe(n, config=TINY, seed=1, check=True).correct

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=1, max_value=400), st.integers(min_value=0, max_value=5))
    def test_reduction_correct_for_arbitrary_sizes(self, n, seed):
        assert Reduction().observe(n, config=TINY, seed=seed, check=True).correct

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=1, max_value=300), st.integers(min_value=0, max_value=5))
    def test_prefix_sum_correct_for_arbitrary_sizes(self, n, seed):
        assert PrefixSum().observe(n, config=TINY, seed=seed, check=True).correct

    @settings(max_examples=8, deadline=None)
    @given(st.integers(min_value=1, max_value=6))
    def test_matmul_correct_for_multiples_of_warp(self, tiles):
        n = 32 * tiles
        assert MatrixMultiplication().observe(n, config=GTX, check=True).correct

    @pytest.mark.parametrize("actual, expected", [
        (np.arange(10), np.arange(10)),
        (np.arange(10), np.arange(10) + 1),
        (np.linspace(1, 2, 7), np.linspace(1, 2, 7) * (1 + 1e-7)),
        (np.linspace(1, 2, 7), np.linspace(1, 2, 7) * (1 + 1e-3)),
        (np.array([1.0, np.nan]), np.array([1.0, np.nan])),
        (np.array([np.inf, -np.inf]), np.array([np.inf, -np.inf])),
        (np.array([np.inf]), np.array([-np.inf])),
        (np.array([[2, 3], [2, 3]]), np.array([2, 3])),
        (np.array([3.0]), np.full(4, 3.0 + 1e-9)),
        (np.array([[2, 3]]), np.array([[2], [4]])),
    ], ids=[
        "equal-ints", "unequal-ints", "floats-within-tolerance",
        "floats-outside-tolerance", "nan", "equal-infs", "opposite-infs",
        "broadcast-equal", "broadcast-close", "broadcast-unequal",
    ])
    def test_output_check_is_allclose(self, actual, expected):
        # observe(check=True) tries exact equality before np.allclose.
        assert outputs_match(actual, expected) is bool(
            np.allclose(actual, expected)
        )


class TestVectorAdditionAnalysis:
    """The hand metrics must equal the closed forms of Section IV-A."""

    def test_metrics_formulas(self):
        machine = GTX_650.machine
        n = 1_000_000
        metrics = VectorAddition().metrics(n, machine)
        k = math.ceil(n / machine.b)
        assert metrics.num_rounds == 1
        assert metrics[0].time == 3
        assert metrics[0].io_blocks == 3 * k
        assert metrics.total_transfer_words == 3 * n
        assert metrics.total_transfer_transactions == 3
        assert metrics.max_global_words == 3 * n
        assert metrics.max_shared_words_per_mp == 3 * machine.b

    def test_cost_closed_form(self):
        """GPU-cost equals  3α + 3βn + (⌈k/(k'ℓ)⌉·3 + 3λk)/γ + σ."""
        preset = GTX_650
        n = 1_000_000
        report = VectorAddition().analyse(n, preset)
        machine, params = preset.machine, preset.parameters
        k = math.ceil(n / machine.b)
        ell = preset.occupancy.blocks_per_mp(machine.M, 3 * machine.b)
        waves = math.ceil(k / (preset.occupancy.physical_mps * ell))
        expected = (3 * params.alpha + 3 * params.beta * n
                    + (waves * 3 + params.lam * 3 * k) / params.gamma
                    + params.sigma)
        assert report.gpu_cost == pytest.approx(expected)

    def test_transfer_dominates_predicted_cost_at_paper_sizes(self):
        report = VectorAddition().analyse(10_000_000, GTX_650)
        assert report.predicted_transfer_proportion > 0.7

    def test_default_sizes_match_paper(self):
        sizes = VectorAddition().default_sizes()
        assert sizes[0] == 1_000_000 and sizes[-1] == 10_000_000 and len(sizes) == 10


class TestReductionAnalysis:
    def test_round_structure(self):
        machine = GTX_650.machine
        n = 2 ** 20
        metrics = Reduction().metrics(n, machine)
        assert metrics.num_rounds == len(reduction_rounds(n, machine.b)) == 4
        assert metrics.total_inward_words == n
        assert metrics.total_outward_words == 1
        assert metrics[0].thread_blocks == n // machine.b

    def test_reduction_rounds_shrink_by_b(self):
        sizes = reduction_rounds(32 ** 3, 32)
        assert sizes == [32 ** 3, 32 ** 2, 32]

    def test_reduction_rounds_handles_one_element(self):
        assert reduction_rounds(1, 32) == [1]

    def test_io_is_geometric_sum(self):
        machine = GTX_650.machine
        n = 2 ** 18
        metrics = Reduction().metrics(n, machine)
        expected = sum(2 * math.ceil(size / machine.b)
                       for size in reduction_rounds(n, machine.b))
        assert metrics.total_io_blocks == expected

    def test_default_sizes_match_paper(self):
        sizes = Reduction().default_sizes()
        assert sizes[0] == 2 ** 16 and sizes[-1] == 2 ** 26


class TestMatrixMultiplicationAnalysis:
    def test_metrics_formulas(self):
        machine = GTX_650.machine
        n = 512
        metrics = MatrixMultiplication().metrics(n, machine)
        b = machine.b
        tiles = n // b
        assert metrics[0].time == n * b
        assert metrics[0].thread_blocks == tiles ** 2
        assert metrics[0].io_blocks == tiles ** 2 * (tiles * 2 * b + b)
        assert metrics.total_transfer_words == 3 * n * n
        assert metrics.max_shared_words_per_mp == 3 * b * b

    def test_transfer_is_minor_part_of_predicted_cost(self):
        report = MatrixMultiplication().analyse(1024, GTX_650)
        assert report.predicted_transfer_proportion < 0.5

    def test_non_multiple_of_warp_rejected_by_kernel(self):
        from repro.algorithms.matrix_multiplication import MatrixMultiplicationKernel
        with pytest.raises(ValueError):
            MatrixMultiplicationKernel(100, 32)


class TestExtensionAnalyses:
    @pytest.mark.parametrize("algorithm,n", [
        (PrefixSum(), 100_000),
        (Stencil1D(), 65_536),
        (Histogram(), 200_000),
        (SpMV(), 4_096),
    ])
    def test_metrics_fit_on_paper_machine(self, algorithm, n):
        metrics = algorithm.metrics(n, GTX_650.machine)
        metrics.validate_against(GTX_650.machine)
        assert metrics.total_transfer_words > 0
        report = algorithm.analyse(n, GTX_650)
        assert report.gpu_cost > report.swgpu_cost > 0

    def test_stencil_iterations_multiply_rounds(self):
        machine = GTX_650.machine
        assert Stencil1D(iterations=6).metrics(10_000, machine).num_rounds == 6

    def test_spmv_transfer_grows_with_density(self):
        machine = GTX_650.machine
        sparse = SpMV(nnz_per_row=4).metrics(10_000, machine)
        dense = SpMV(nnz_per_row=32).metrics(10_000, machine)
        assert dense.total_transfer_words > sparse.total_transfer_words


class TestObservedBehaviour:
    """Qualitative observed behaviour matching Section IV's findings."""

    def test_vector_addition_is_transfer_dominated(self):
        record = VectorAddition().observe(2_000_000, config=GTX)
        assert record.observed_transfer_proportion > 0.6

    def test_matmul_is_kernel_dominated_at_large_sizes(self):
        record = MatrixMultiplication().observe(512, config=GTX)
        assert record.observed_transfer_proportion < 0.4

    def test_reduction_sits_between(self):
        vec = VectorAddition().observe(2_000_000, config=GTX)
        red = Reduction().observe(2_097_152, config=GTX)
        mat = MatrixMultiplication().observe(512, config=GTX)
        assert (mat.observed_transfer_proportion
                < red.observed_transfer_proportion
                < vec.observed_transfer_proportion)

    def test_observation_sweep_structure(self):
        sweep = VectorAddition().observe_sweep([10_000, 20_000, 40_000], config=GTX)
        assert sweep.sizes == [10_000, 20_000, 40_000]
        assert np.all(np.diff(sweep.totals) > 0)
        assert np.all(sweep.kernels <= sweep.totals)
