"""Unit tests for :mod:`repro.utils`."""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core.backends import make_sharded_backend
from repro.core.cost import CostParameters
from repro.core.metrics import RoundMetrics, round_arrays
from repro.core.topology import LinkSpec, Topology
from repro.simulator.device_pool import DevicePool
from repro.utils.stats import (
    POSITIVE_TOTALS_MESSAGE,
    average,
    capture_fraction,
    growth_rate_similarity,
    mean_absolute_difference,
    normalise_series,
    relative_error,
    require_positive_totals,
    speedup_series,
    transfer_proportion,
)
from repro.utils.validation import (
    ensure_in_range,
    ensure_non_negative,
    ensure_non_negative_int,
    ensure_positive,
    ensure_positive_int,
)


class TestValidation:
    def test_ensure_positive_accepts_positive(self):
        assert ensure_positive(3.5, "x") == 3.5

    def test_ensure_positive_rejects_zero(self):
        with pytest.raises(ValueError, match="x"):
            ensure_positive(0.0, "x")

    def test_ensure_positive_rejects_bool(self):
        with pytest.raises(TypeError):
            ensure_positive(True, "x")

    def test_ensure_non_negative_accepts_zero(self):
        assert ensure_non_negative(0, "x") == 0.0

    def test_ensure_non_negative_rejects_negative(self):
        with pytest.raises(ValueError):
            ensure_non_negative(-1e-9, "x")

    def test_ensure_positive_int_rejects_float(self):
        with pytest.raises(TypeError):
            ensure_positive_int(2.0, "x")

    def test_ensure_positive_int_rejects_zero(self):
        with pytest.raises(ValueError):
            ensure_positive_int(0, "x")

    def test_ensure_non_negative_int_accepts_zero(self):
        assert ensure_non_negative_int(0, "x") == 0

    def test_ensure_in_range_inclusive(self):
        assert ensure_in_range(1.0, "x", low=1.0, high=2.0) == 1.0

    def test_ensure_in_range_exclusive_rejects_bound(self):
        with pytest.raises(ValueError):
            ensure_in_range(1.0, "x", low=1.0, inclusive=False)

    def test_ensure_in_range_rejects_above(self):
        with pytest.raises(ValueError):
            ensure_in_range(3.0, "x", high=2.0)


NAN = float("nan")


def _cost_parameters(**nan_field):
    values = dict(gamma=1.0, lam=1.0, sigma=1.0, alpha=1.0, beta=1.0)
    return CostParameters(**{**values, **nan_field})


#: Constructors that must reject a NaN argument, with the field it names.
NAN_CONSTRUCTORS = {
    "CostParameters.alpha": (lambda: _cost_parameters(alpha=NAN), "alpha"),
    "CostParameters.lam": (lambda: _cost_parameters(lam=NAN), "lam"),
    "CostParameters.sigma": (lambda: _cost_parameters(sigma=NAN), "sigma"),
    "CostParameters.beta": (lambda: _cost_parameters(beta=NAN), "beta"),
    "RoundMetrics.time": (
        lambda: RoundMetrics(time=NAN, io_blocks=0.0), "time",
    ),
    "round_arrays.time": (
        lambda: round_arrays(2, time=[1.0, NAN], io_blocks=0.0), "time",
    ),
    "LinkSpec.contention": (lambda: LinkSpec(contention=NAN), "contention"),
    "Topology.homogeneous": (
        lambda: Topology.homogeneous(2, NAN), "contention",
    ),
    "Topology.from_dict": (
        lambda: Topology.from_dict(json.loads(
            json.dumps(Topology.homogeneous(2, 0.5).to_dict())
            .replace('"contention": 0.5', '"contention": NaN')
        )),
        "contention",
    ),
    "make_sharded_backend": (
        lambda: make_sharded_backend(2, NAN), "contention",
    ),
    "DevicePool.contention": (
        lambda: DevicePool(2, contention=NAN), "contention",
    ),
}


@pytest.mark.parametrize("case", sorted(NAN_CONSTRUCTORS))
def test_nan_rejected_at_construction(case):
    build, field = NAN_CONSTRUCTORS[case]
    with pytest.raises(ValueError, match=field):
        build()


class TestStats:
    def test_normalise_series_bounds(self):
        out = normalise_series([3.0, 5.0, 9.0])
        assert out.min() == 0.0 and out.max() == 1.0

    def test_normalise_constant_series_is_zero(self):
        assert np.allclose(normalise_series([2.0, 2.0, 2.0]), 0.0)

    def test_normalise_rejects_nan(self):
        with pytest.raises(ValueError):
            normalise_series([1.0, float("nan")])

    def test_normalise_rejects_2d(self):
        with pytest.raises(ValueError):
            normalise_series(np.ones((2, 2)))

    def test_transfer_proportion(self):
        assert transfer_proportion(25.0, 100.0) == 0.25

    def test_transfer_proportion_rejects_exceeding(self):
        with pytest.raises(ValueError):
            transfer_proportion(2.0, 1.0)

    def test_transfer_proportion_rejects_zero_total(self):
        with pytest.raises(ValueError):
            transfer_proportion(0.0, 0.0)

    def test_capture_fraction_clips_to_one(self):
        assert capture_fraction(5.0, 2.0) == 1.0

    def test_average(self):
        assert average([1.0, 2.0, 3.0]) == 2.0

    def test_average_empty_raises(self):
        with pytest.raises(ValueError):
            average([])

    def test_relative_error(self):
        assert relative_error(11.0, 10.0) == pytest.approx(0.1)

    def test_relative_error_zero_observed(self):
        with pytest.raises(ValueError):
            relative_error(1.0, 0.0)

    def test_mean_absolute_difference(self):
        assert mean_absolute_difference([1.0, 2.0], [2.0, 4.0]) == pytest.approx(1.5)

    def test_mean_absolute_difference_shape_mismatch(self):
        with pytest.raises(ValueError):
            mean_absolute_difference([1.0], [1.0, 2.0])

    def test_growth_rate_similarity_identical_shapes(self):
        a = [1.0, 2.0, 3.0]
        b = [10.0, 20.0, 30.0]
        assert growth_rate_similarity(a, b) == pytest.approx(1.0)

    def test_growth_rate_similarity_detects_shape_difference(self):
        linear = [1.0, 2.0, 3.0, 4.0]
        flat = [1.0, 1.0, 1.0, 4.0]
        assert growth_rate_similarity(linear, linear) > growth_rate_similarity(linear, flat)

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=2, max_size=50))
    def test_normalise_series_property(self, values):
        out = normalise_series(values)
        assert np.all(out >= 0.0) and np.all(out <= 1.0)

    @given(
        st.floats(min_value=0.0, max_value=1e6),
        st.floats(min_value=1e-6, max_value=1e6),
    )
    def test_transfer_proportion_in_unit_interval(self, transfer, extra):
        total = transfer + extra
        assert 0.0 <= transfer_proportion(transfer, total) <= 1.0


class TestZeroRangeAndTotalsGuards:
    def test_all_equal_series_normalises_to_zeros(self):
        assert np.array_equal(normalise_series([7.0, 7.0, 7.0]), np.zeros(3))

    def test_all_zero_series_normalises_to_zeros(self):
        assert np.array_equal(normalise_series([0.0, 0.0]), np.zeros(2))

    def test_growth_rate_similarity_defined_for_constant_series(self):
        # Both curves have zero range; the normalised shapes are identical
        # flat lines, not a division by zero.
        assert growth_rate_similarity([3.0, 3.0], [9.0, 9.0]) == 1.0

    def test_transfer_proportion_uses_shared_guard_message(self):
        with pytest.raises(ValueError) as err:
            transfer_proportion(0.0, 0.0)
        assert str(err.value) == POSITIVE_TOTALS_MESSAGE

    def test_capture_fraction_uses_shared_guard_message(self):
        with pytest.raises(ValueError) as err:
            capture_fraction(1.0, 0.0)
        assert str(err.value) == POSITIVE_TOTALS_MESSAGE

    def test_require_positive_totals_accepts_and_rejects(self):
        out = require_positive_totals([1.0, 2.0])
        assert np.array_equal(out, [1.0, 2.0])
        for bad in ([], [0.0], [1.0, -2.0]):
            with pytest.raises(ValueError) as err:
                require_positive_totals(bad)
            assert str(err.value) == POSITIVE_TOTALS_MESSAGE

    def test_shared_guard_importable_from_prediction_module(self):
        # Backwards-compatible home of the guard (the prediction module).
        from repro.core import prediction

        assert prediction.POSITIVE_TOTALS_MESSAGE is POSITIVE_TOTALS_MESSAGE
        assert prediction.require_positive_totals is require_positive_totals


class TestSpeedupSeries:
    def test_ordinary_ratio(self):
        out = speedup_series([4.0, 9.0], [2.0, 3.0])
        assert np.array_equal(out, [2.0, 3.0])

    def test_zero_improved_and_zero_baseline_is_one(self):
        assert speedup_series([0.0], [0.0])[0] == 1.0

    def test_zero_improved_with_positive_baseline_is_inf(self):
        assert np.isinf(speedup_series([5.0], [0.0])[0])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            speedup_series([1.0], [1.0, 2.0])
