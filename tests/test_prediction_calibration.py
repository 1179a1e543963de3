"""Tests for sweep prediction, comparison statistics and calibration."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.algorithms import VectorAddition
from repro.core.calibration import (
    _active_set_nnls,
    _r_squared,
    calibrate_cost_parameters,
    calibrate_transfer_model,
    feature_vector,
)
from repro.core.cost import ATGPUCostModel, CostParameters
from repro.core.machine import ATGPUMachine
from repro.core.metrics import AlgorithmMetrics, RoundMetrics
from repro.core.occupancy import OccupancyModel
from repro.core.prediction import (
    PredictionComparison,
    SweepObservation,
    SweepPrediction,
    predict_sweep,
)
from repro.core.presets import GTX_650, get_preset, preset_names
from repro.core.transfer import TransferDirection
from repro.simulator import DeviceConfig, TransferEngine


def linear_metrics_factory(machine: ATGPUMachine):
    """Vector-addition-like metrics: everything linear in n."""
    def factory(n: int) -> AlgorithmMetrics:
        k = machine.thread_blocks_for(n)
        return AlgorithmMetrics([RoundMetrics(
            time=3, io_blocks=3 * k, inward_words=2 * n, outward_words=n,
            inward_transactions=2, outward_transactions=1,
            global_words=3 * n, shared_words_per_mp=3 * machine.b,
            thread_blocks=k)])
    return factory


class TestSweepPrediction:
    def test_predict_sweep_shapes(self, machine, parameters, occupancy):
        sizes = [1000, 2000, 4000]
        sweep = predict_sweep("demo", sizes, linear_metrics_factory(machine),
                              machine, parameters, occupancy)
        assert sweep.sizes == sizes
        assert len(sweep.atgpu_costs) == 3
        assert np.all(np.diff(sweep.atgpu_costs) > 0)
        assert np.all(sweep.atgpu_costs > sweep.swgpu_costs)

    def test_predicted_transfer_proportions_in_unit_interval(self, machine, parameters, occupancy):
        sweep = predict_sweep("demo", [100, 1000], linear_metrics_factory(machine),
                              machine, parameters, occupancy)
        deltas = sweep.predicted_transfer_proportions
        assert np.all(deltas >= 0) and np.all(deltas <= 1)

    def test_normalised_curves_bounds(self, machine, parameters, occupancy):
        sweep = predict_sweep("demo", [100, 1000, 5000], linear_metrics_factory(machine),
                              machine, parameters, occupancy)
        for curve in sweep.normalised().values():
            assert curve.min() == 0.0 and curve.max() == 1.0

    def test_empty_sizes_rejected(self, machine, parameters, occupancy):
        with pytest.raises(ValueError):
            predict_sweep("demo", [], linear_metrics_factory(machine),
                          machine, parameters, occupancy)


class TestSweepObservation:
    def test_transfer_defaults_to_total_minus_kernel(self):
        obs = SweepObservation("demo", [1, 2], [10.0, 20.0], [4.0, 8.0])
        assert obs.transfer_times == [6.0, 12.0]
        assert np.allclose(obs.observed_transfer_proportions, 0.6)

    def test_kernel_cannot_exceed_total(self):
        with pytest.raises(ValueError):
            SweepObservation("demo", [1], [1.0], [2.0])

    def test_misaligned_lengths_rejected(self):
        with pytest.raises(ValueError):
            SweepObservation("demo", [1, 2], [1.0], [0.5])


class TestPredictionComparison:
    def _comparison(self, machine, parameters, occupancy):
        sizes = [1000, 2000, 4000, 8000]
        prediction = predict_sweep("demo", sizes, linear_metrics_factory(machine),
                                   machine, parameters, occupancy)
        # Observation: totals proportional to prediction (same shape), kernel 20 %.
        totals = list(prediction.atgpu_costs * 2.0)
        kernels = [t * 0.2 for t in totals]
        observation = SweepObservation("demo", sizes, totals, kernels)
        return PredictionComparison(prediction, observation)

    def test_sizes_must_match(self, machine, parameters, occupancy):
        prediction = predict_sweep("demo", [10, 20], linear_metrics_factory(machine),
                                   machine, parameters, occupancy)
        observation = SweepObservation("demo", [10, 30], [1.0, 2.0], [0.5, 0.5])
        with pytest.raises(ValueError):
            PredictionComparison(prediction, observation)

    def test_summary_statistics(self, machine, parameters, occupancy):
        comparison = self._comparison(machine, parameters, occupancy)
        summary = comparison.summary()
        assert summary["average_observed_transfer_share"] == pytest.approx(0.8)
        assert summary["swgpu_capture_fraction"] == pytest.approx(0.2)
        assert 0 <= summary["delta_accuracy"] <= 1
        assert 0 <= summary["atgpu_shape_score"] <= 1

    def test_atgpu_tracks_total_when_shapes_match(self, machine, parameters, occupancy):
        comparison = self._comparison(machine, parameters, occupancy)
        assert comparison.atgpu_shape_score() == pytest.approx(1.0, abs=1e-9)
        assert comparison.atgpu_tracks_total_better()

    def test_normalised_curves_keys(self, machine, parameters, occupancy):
        curves = self._comparison(machine, parameters, occupancy).normalised_curves()
        assert set(curves) == {"ATGPU", "SWGPU", "Total", "Kernel"}

    def test_delta_curves_keys(self, machine, parameters, occupancy):
        deltas = self._comparison(machine, parameters, occupancy).delta_curves()
        assert set(deltas) == {"observed", "predicted"}


class TestCalibration:
    def test_transfer_calibration_recovers_parameters(self):
        alpha, beta = 2e-5, 3e-9
        words = np.array([1e3, 1e4, 1e5, 1e6, 1e7])
        times = alpha + beta * words
        result = calibrate_transfer_model(words, np.ones_like(words, dtype=int), times)
        assert result.alpha == pytest.approx(alpha, rel=1e-3)
        assert result.beta == pytest.approx(beta, rel=1e-3)
        assert result.r_squared == pytest.approx(1.0, abs=1e-6)

    def test_transfer_calibration_recovers_the_simulated_link(self):
        engine = TransferEngine(DeviceConfig.gtx650())
        words = np.unique(
            np.geomspace(1 << 12, 1 << 24, 10).astype(np.int64)
        )
        times = [
            engine.duration(int(n), TransferDirection.HOST_TO_DEVICE)
            for n in words
        ]
        result = calibrate_transfer_model(words, np.ones_like(words), times)
        _, beta = engine.implied_boyer_parameters()
        assert result.r_squared > 0.999
        assert abs(result.beta - beta) / beta < 0.05

    def test_transfer_calibration_rejects_short_input(self):
        with pytest.raises(ValueError):
            calibrate_transfer_model([10.0], [1], [1.0])

    def test_feature_vector_contents(self, machine, occupancy):
        metrics = linear_metrics_factory(machine)(3200)
        features = feature_vector(metrics, machine, occupancy)
        assert features[0] == 3  # transactions
        assert features[1] == 3 * 3200  # words
        assert features[3] == 3 * 100  # io blocks (k = 100)
        assert features[4] == 1  # rounds

    def test_cost_calibration_recovers_synthetic_parameters(self, machine, occupancy):
        true = CostParameters(gamma=1e8, lam=8.0, sigma=5e-4, alpha=2e-5, beta=4e-9)
        model = ATGPUCostModel(machine, true, occupancy)
        factory = linear_metrics_factory(machine)
        metrics_list = [factory(n) for n in (10_000, 50_000, 100_000, 400_000,
                                             800_000, 1_200_000)]
        times = [model.gpu_cost(m) for m in metrics_list]
        result = calibrate_cost_parameters(metrics_list, times, machine, occupancy,
                                           nominal=true)
        assert result.r_squared > 0.999
        predicted = [result.predict(feature_vector(m, machine, occupancy))
                     for m in metrics_list]
        assert np.allclose(predicted, times, rtol=1e-3)

    def test_cost_calibration_fits_observed_vector_addition(self):
        preset = GTX_650
        algorithm = VectorAddition()
        sizes = [200_000, 500_000, 1_000_000, 2_000_000, 4_000_000, 8_000_000]
        observed = algorithm.observe_sweep(
            sizes, config=DeviceConfig.gtx650()
        ).total_times
        metrics_list = [algorithm.metrics(n, preset.machine) for n in sizes]
        result = calibrate_cost_parameters(
            metrics_list, observed, preset.machine, preset.occupancy,
            nominal=preset.parameters,
        )
        assert result.r_squared > 0.99
        predicted = [
            result.predict(feature_vector(m, preset.machine, preset.occupancy))
            for m in metrics_list
        ]
        errors = np.abs(np.array(predicted) - np.array(observed))
        assert errors.max() / max(observed) < 0.2

    def test_cost_calibration_needs_two_observations(self, machine, occupancy):
        factory = linear_metrics_factory(machine)
        with pytest.raises(ValueError):
            calibrate_cost_parameters([factory(100)], [1.0], machine, occupancy)

    def test_cost_calibration_rejects_nonpositive_times(self, machine, occupancy):
        factory = linear_metrics_factory(machine)
        with pytest.raises(ValueError):
            calibrate_cost_parameters([factory(100), factory(200)], [1.0, 0.0],
                                      machine, occupancy)


class TestNNLSFallback:
    def test_active_set_refits_instead_of_clamping(self):
        # Target built from column 0 only, but column 1 is anti-correlated
        # noise: unconstrained lstsq goes negative on column 1 and, without
        # a refit, column 0's coefficient stays biased away from 2.0.
        design = np.array([
            [1.0, 1.0],
            [2.0, 1.9],
            [3.0, 3.1],
            [4.0, 3.9],
        ])
        target = 2.0 * design[:, 0] - 0.5 * design[:, 1]
        unconstrained, *_ = np.linalg.lstsq(design, target, rcond=None)
        assert unconstrained[1] < 0  # the scenario the fallback must handle
        clamped = np.clip(unconstrained, 0.0, None)
        solution = _active_set_nnls(design, target)
        assert np.all(solution >= 0)
        # The refit solves lstsq on the surviving column exactly ...
        expected, *_ = np.linalg.lstsq(design[:, :1], target, rcond=None)
        assert solution[0] == pytest.approx(expected[0])
        assert solution[1] == 0.0
        # ... which beats the naive clamp on residual.
        refit_residual = np.linalg.norm(design @ solution - target)
        clamp_residual = np.linalg.norm(design @ clamped - target)
        assert refit_residual < clamp_residual

    def test_active_set_returns_exact_nonnegative_solution_unchanged(self):
        design = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        target = design @ np.array([2.0, 3.0])
        solution = _active_set_nnls(design, target)
        assert np.allclose(solution, [2.0, 3.0])

    def test_active_set_all_negative_gives_zero_vector(self):
        design = np.array([[1.0], [2.0], [3.0]])
        target = np.array([-1.0, -2.0, -3.0])
        solution = _active_set_nnls(design, target)
        assert np.array_equal(solution, np.zeros(1))


class TestRSquaredGuards:
    def test_zero_variance_target_reproduced_scores_one(self):
        target = np.array([2.0, 2.0, 2.0])
        assert _r_squared(target, target.copy()) == 1.0

    def test_zero_variance_target_missed_scores_zero(self):
        target = np.array([2.0, 2.0, 2.0])
        predicted = np.array([1.0, 2.0, 3.0])
        assert _r_squared(target, predicted) == 0.0

    def test_near_constant_target_does_not_blow_up(self):
        base = 1.0
        target = base + np.array([0.0, 1e-18, -1e-18])
        predicted = np.full(3, base)
        value = _r_squared(target, predicted)
        assert np.isfinite(value)
        assert value == 1.0

    def test_ordinary_fit_unchanged(self):
        target = np.array([1.0, 2.0, 3.0])
        predicted = np.array([1.1, 1.9, 3.0])
        expected = 1.0 - (0.01 + 0.01) / 2.0
        assert _r_squared(target, predicted) == pytest.approx(expected)

    def test_small_magnitude_targets_keep_a_relative_floor(self):
        # The floor must scale with the target: a genuinely varying
        # nanosecond-scale target is not zero-variance, and an
        # anti-correlated prediction must not score a perfect fit.
        target = np.array([1e-9, 2e-9, 3e-9])
        predicted = target[::-1].copy()
        assert _r_squared(target, predicted) == pytest.approx(-3.0)
        assert _r_squared(target, target.copy()) == pytest.approx(1.0)

    def test_large_mean_small_variance_target_not_misclassified(self):
        # Variance far below the mean but far above representation noise:
        # still a real fit problem, not a constant target.
        target = 1e9 + np.array([0.0, 1.0, -1.0])
        predicted = 1e9 + np.array([0.0, -1.0, 1.0])
        assert _r_squared(target, predicted) == pytest.approx(-3.0)
        assert _r_squared(target, target.copy()) == pytest.approx(1.0)


class TestPresets:
    def test_preset_lookup(self):
        assert get_preset("gtx650") is GTX_650
        assert get_preset("GTX650") is GTX_650

    def test_unknown_preset_raises(self):
        with pytest.raises(KeyError):
            get_preset("gtx9000")

    def test_preset_names_sorted(self):
        names = preset_names()
        assert list(names) == sorted(names)
        assert "gtx650" in names

    def test_paper_machine_shape(self):
        machine = GTX_650.machine
        assert machine.b == 32
        assert machine.k == 2
        assert GTX_650.occupancy.physical_mps == 2

    @settings(max_examples=20)
    @given(st.sampled_from(["gtx650", "gtx980", "k40", "gtx1080"]))
    def test_all_presets_well_formed(self, name):
        preset = get_preset(name)
        assert preset.machine.k == preset.occupancy.physical_mps
        assert preset.parameters.gamma > 0
