"""Tests for the array-native metrics layer (``metrics_batch`` factories,
``round_arrays`` rows and ``MetricsBatch.from_rounds``).

The contract under test is *exact equality*: for every built-in algorithm
the vectorized ``metrics_batch`` factory must describe precisely the same
workload as calling the scalar ``metrics`` factory once per size — every
per-round field, every packed batch array, every capacity-validation error
(same message, same first offending size).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms import (
    ALL_ALGORITHMS,
    GPUAlgorithm,
    Histogram,
    MatrixMultiplication,
    PrefixSum,
    Reduction,
    SpMV,
    Stencil1D,
    VectorAddition,
)
from repro.algorithms.registry import all_algorithm_names, create
from repro.core.batch import MetricsBatch
from repro.core.metrics import CapacityError, round_arrays, size_vector
from repro.core.presets import GTX_650, GTX_980, TESLA_K40
from repro.experiments import ExperimentSpec, Session

ALGORITHMS = [
    VectorAddition, Reduction, MatrixMultiplication, PrefixSum, Histogram,
    SpMV, Stencil1D,
]

PRESETS = [GTX_650, GTX_980]

#: Batch arrays that must be identical between the two compilation paths.
BATCH_FIELDS = (
    "round_counts", "mask", "time", "io_blocks", "inward_words",
    "outward_words", "inward_transactions", "outward_transactions",
    "global_words", "shared_words_per_mp", "thread_blocks",
    "max_global_words", "max_shared_words",
)

#: Scalar per-round fields compared for exact equality.
ROUND_FIELDS = (
    "time", "io_blocks", "inward_words", "outward_words",
    "inward_transactions", "outward_transactions", "global_words",
    "shared_words_per_mp", "thread_blocks",
)


def scalar_batch(algorithm, sizes, preset) -> MetricsBatch:
    """The batch compiled through the per-size scalar factory."""
    return MetricsBatch.compile(
        algorithm.name, sizes,
        lambda n: algorithm.metrics(n, preset.machine),
    )


@pytest.mark.parametrize("preset", PRESETS, ids=lambda p: p.name)
@pytest.mark.parametrize("algorithm_cls", ALGORITHMS)
class TestVectorizedFactoryParity:
    def test_batch_matches_scalar_metrics_exactly(self, algorithm_cls, preset):
        """Every per-round field of the batch equals the scalar factory's."""
        algo = algorithm_cls()
        sizes = algo.default_sizes()
        batch = algo.metrics_batch(sizes, preset.machine)
        assert isinstance(batch, MetricsBatch)
        assert batch.sizes == tuple(sizes)
        for col, n in enumerate(sizes):
            scalar = algo.metrics(n, preset.machine)
            assert int(batch.round_counts[col]) == len(scalar)
            materialized = batch.metrics_at(col)
            assert len(materialized) == len(scalar)
            assert materialized.name == scalar.name
            for got, want in zip(materialized, scalar):
                for name in ROUND_FIELDS:
                    assert getattr(got, name) == getattr(want, name), (
                        algo.name, n, name
                    )

    def test_packed_batches_identical(self, algorithm_cls, preset):
        """Factory-built and scalar-packed batches agree on every array."""
        algo = algorithm_cls()
        assert algo.supports_metrics_batch
        sizes = algo.default_sizes()
        via_factory = algo.compile_batch(sizes, preset=preset)
        via_scalar = scalar_batch(algo, sizes, preset)
        for name in BATCH_FIELDS:
            assert np.array_equal(
                getattr(via_factory, name), getattr(via_scalar, name)
            ), (algo.name, name)

    def test_predict_sweep_paths_bitwise_equal(self, algorithm_cls, preset):
        """End to end: predict_sweep (vectorized factory) vs per-size
        analyse (scalar factory)."""
        algo = algorithm_cls()
        sizes = algo.default_sizes()
        backends = ("atgpu", "swgpu", "perfect", "agpu", "atgpu-async",
                    "atgpu-multi")
        batch = algo.predict_sweep(sizes, preset=preset, backends=backends)
        reports = [
            algo.analyse(n, preset=preset, backends=backends) for n in sizes
        ]
        for name in backends:
            assert np.array_equal(
                batch.series_for(name),
                [r.backend_cost(name) for r in reports],
            ), (algo.name, name)
        assert np.array_equal(
            batch.predicted_transfer_proportions,
            [r.predicted_transfer_proportion for r in reports],
        )


class TestCapacityValidationParity:
    """Satellite: batch and scalar validation raise identical errors."""

    @pytest.mark.parametrize("preset", PRESETS, ids=lambda p: p.name)
    @pytest.mark.parametrize("algorithm_cls", ALGORITHMS)
    def test_same_message_and_first_offending_size(self, algorithm_cls,
                                                   preset):
        algo = algorithm_cls()
        machine = preset.machine
        # A sweep whose tail exceeds G: two offending sizes, so the error
        # must name the *first*.
        ok = algo.default_sizes()[0]
        too_big = machine.G
        bigger = 2 * machine.G
        if algo.name == "matrix_multiplication":
            # Sides, not elements: 3n² words must exceed G.
            too_big = int(np.ceil(np.sqrt(machine.G)))
            bigger = 2 * too_big
        sizes = [ok, too_big, bigger]
        assert algo.metrics(ok, machine).runs_on(machine)
        with pytest.raises(CapacityError) as scalar_exc:
            algo.metrics(too_big, machine).validate_against(machine)

        via_factory = algo.metrics_batch(sizes, machine)
        with pytest.raises(CapacityError) as batch_exc:
            via_factory.validate_against(machine)
        via_scalar = scalar_batch(algo, sizes, preset)
        with pytest.raises(CapacityError) as scalar_batch_exc:
            via_scalar.validate_against(machine)

        # Factory-built and scalar-packed batches agree to the byte, and
        # they name the first offending size.
        assert str(batch_exc.value) == str(scalar_batch_exc.value)
        assert f"at size {too_big} " in str(batch_exc.value)
        assert f"at size {bigger} " not in str(batch_exc.value)
        # The words count and limit match the scalar per-size error.
        scalar_message = str(scalar_exc.value)
        batch_message = str(batch_exc.value)
        assert batch_message.replace(f" at size {too_big}", "") \
            == scalar_message

    def test_too_big_size_sweep_regression(self):
        """A sweep containing one oversized point fails on every path."""
        algo = VectorAddition()
        machine = GTX_650.machine
        sizes = [1_000, machine.G]
        with pytest.raises(CapacityError):
            algo.predict_sweep(sizes, preset=GTX_650)
        with pytest.raises(CapacityError):
            algo.analyse(machine.G, preset=GTX_650)
        with pytest.raises(CapacityError):
            algo.metrics_batch(sizes, machine).validate_against(machine)
        assert not algo.metrics_batch(sizes, machine).runs_on(machine)
        assert algo.metrics_batch([1_000], machine).runs_on(machine)

    def test_shared_memory_violation_first_size(self):
        rounds = [round_arrays(
            3,
            time=1.0, io_blocks=1.0,
            shared_words_per_mp=np.array([1.0, 1e9, 2e9]),
            thread_blocks=1,
        )]
        batch = MetricsBatch.from_rounds([10, 20, 30], rounds, algorithm="demo")
        with pytest.raises(CapacityError, match="shared memory") as exc:
            batch.validate_against(GTX_650.machine)
        assert "at size 20 " in str(exc.value)


#: Sizes past every preset's global memory, up to int64's maximum.
HUGE_SIZES = {
    "2**31": 2**31, "2**40": 2**40, "2**53+1": 2**53 + 1,
    "2**62": 2**62, "2**63-1": 2**63 - 1,
}


class TestHugeSizesRaiseCapacityError:
    """A size past the machine's memory raises the scalar path's
    ``CapacityError`` on the batch path too, not the ``ValueError`` of an
    int64 column that wrapped."""

    @pytest.mark.parametrize(
        "size", list(HUGE_SIZES.values()), ids=list(HUGE_SIZES)
    )
    @pytest.mark.parametrize("name", all_algorithm_names())
    def test_scalar_and_batch_paths_raise_capacity_error(self, name, size):
        with pytest.raises(CapacityError):
            create(name).analyse(size)
        with pytest.raises(CapacityError):
            Session().run(ExperimentSpec(name, sizes=(size,)))

    @pytest.mark.parametrize("preset,side", [
        (GTX_650, 2**24 + 1), (GTX_650, GTX_650.machine.G),
        (TESLA_K40, 3_100_000_000),
    ], ids=["gtx650-2**24+1", "gtx650-G", "k40-3.1e9"])
    def test_matrix_sides_up_to_g_are_priced_without_wrapping(
        self, preset, side
    ):
        """Sides up to ``G`` pass the size check, so the side's cube and
        square must not wrap before the capacity check names ``3n²``."""
        expected = f"uses {3.0 * side * side:.0f} words"
        with pytest.raises(CapacityError, match=expected):
            MatrixMultiplication().predict_sweep([side], preset=preset)


class TestFromRoundsStructure:
    def test_round_arrays_broadcasts_scalars(self):
        r = round_arrays(4, time=2.0, io_blocks=1, thread_blocks=3)
        assert r.time.shape == (4,)
        assert np.all(r.time == 2.0)
        assert np.all(r.thread_blocks == 3)
        assert np.all(r.present)
        assert r.num_sizes == 4

    def test_round_arrays_rejects_bad_shapes_and_values(self):
        with pytest.raises(ValueError, match="column"):
            round_arrays(3, time=[1.0, 2.0], io_blocks=0.0)
        with pytest.raises(ValueError, match="time"):
            round_arrays(2, time=-1.0, io_blocks=0.0)
        with pytest.raises(ValueError, match="thread_blocks"):
            round_arrays(2, time=1.0, io_blocks=0.0, thread_blocks=0)
        with pytest.raises(ValueError, match="inward"):
            round_arrays(2, time=1.0, io_blocks=0.0, inward_words=5.0)
        # Absent entries are exempt from validation.
        r = round_arrays(
            2, time=[1.0, -1.0], io_blocks=0.0,
            present=[True, False],
        )
        assert list(r.present) == [True, False]

    def test_from_rounds_requires_top_aligned_presence(self):
        first = round_arrays(2, time=1.0, io_blocks=0.0,
                             present=[True, False])
        second = round_arrays(2, time=1.0, io_blocks=0.0,
                              present=[False, True])
        with pytest.raises(ValueError, match="top-aligned"):
            MetricsBatch.from_rounds([1, 2], [first, second])

    def test_from_rounds_requires_at_least_one_round_per_size(self):
        empty_col = round_arrays(2, time=1.0, io_blocks=0.0,
                                 present=[True, False])
        with pytest.raises(ValueError, match="no rounds"):
            MetricsBatch.from_rounds([1, 2], [empty_col])
        with pytest.raises(ValueError, match="at least one input size"):
            MetricsBatch.from_rounds([], [])
        with pytest.raises(ValueError, match="at least one round"):
            MetricsBatch.from_rounds([1], [])

    def test_from_rounds_rejects_mismatched_round_width(self):
        narrow = round_arrays(2, time=1.0, io_blocks=0.0)
        with pytest.raises(ValueError, match="covers 2 sizes"):
            MetricsBatch.from_rounds([1, 2, 3], [narrow])

    def test_capacity_maxima_match_scalar(self):
        algo = Reduction()
        machine = GTX_650.machine
        sizes = [1 << 12, 1 << 16, 1 << 20]
        batch = algo.metrics_batch(sizes, machine)
        for col, n in enumerate(sizes):
            scalar = algo.metrics(n, machine)
            assert batch.max_global_words[col] == scalar.max_global_words
            assert batch.max_shared_words[col] \
                == scalar.max_shared_words_per_mp

    def test_select_keeps_per_size_metrics(self):
        algo = Reduction()
        machine = GTX_650.machine
        sizes = [1 << 12, 1 << 16, 1 << 20]
        sub = algo.metrics_batch(sizes, machine).select([1])
        assert sub.sizes == (1 << 16,)
        rebuilt = sub.metrics_at(0)
        scalar = algo.metrics(1 << 16, machine)
        assert len(rebuilt) == len(scalar)
        for got, want in zip(rebuilt, scalar):
            for name in ROUND_FIELDS:
                assert getattr(got, name) == getattr(want, name)

    def test_from_metrics_column_packing_roundtrip(self):
        algo = Reduction()
        machine = GTX_650.machine
        sizes = [1 << 10, 1 << 18]
        metrics_list = [algo.metrics(n, machine) for n in sizes]
        batch = MetricsBatch.from_metrics(sizes, metrics_list)
        assert batch.algorithm == algo.name
        for col in range(len(sizes)):
            rebuilt = batch.metrics_at(col)
            for got, want in zip(rebuilt, metrics_list[col]):
                for name in ROUND_FIELDS:
                    assert getattr(got, name) == getattr(want, name)
        with pytest.raises(ValueError, match="2 sizes but 1"):
            MetricsBatch.from_metrics(sizes, metrics_list[:1])

    def test_metrics_at_skips_absent_rounds(self):
        r = round_arrays(2, time=1.0, io_blocks=0.0, present=[True, True])
        ragged = round_arrays(2, time=1.0, io_blocks=0.0,
                              present=[True, False])
        batch = MetricsBatch.from_rounds([1, 2], [r, ragged])
        assert len(batch.metrics_at(0)) == 2
        assert len(batch.metrics_at(1)) == 1


class TestDefaultScalarLoopFallback:
    """Custom algorithms without ``metrics_batch`` still batch correctly."""

    class _Custom(VectorAddition):
        name = "vector_addition"
        # Hide the vectorized factory: fall back to the base-class loop.
        metrics_batch = GPUAlgorithm.metrics_batch

    def test_default_packs_scalar_metrics(self):
        custom = self._Custom()
        assert not custom.supports_metrics_batch
        sizes = [1_000, 250_000]
        batch = custom.metrics_batch(sizes, GTX_650.machine)
        assert isinstance(batch, MetricsBatch)
        reference = VectorAddition().metrics_batch(sizes, GTX_650.machine)
        for name in BATCH_FIELDS:
            assert np.array_equal(
                getattr(batch, name), getattr(reference, name)
            ), name

    def test_default_predict_sweep_still_batches(self):
        custom = self._Custom()
        sizes = [1_000, 250_000]
        batch = custom.predict_sweep(sizes, preset=GTX_650)
        scalar = [custom.analyse(n, preset=GTX_650) for n in sizes]
        assert np.array_equal(batch.series_for("atgpu"),
                              [r.backend_cost("atgpu") for r in scalar])


#: Every public sweep boundary, called with one sweep of sizes.
SWEEP_ENTRY_POINTS = {
    "predict_sweep": lambda sizes: VectorAddition().predict_sweep(sizes),
    "compile_batch": lambda sizes: VectorAddition().compile_batch(sizes),
    "observe_sweep": lambda sizes: VectorAddition().observe_sweep(sizes),
    "observe_streamed_sweep":
        lambda sizes: Reduction().observe_streamed_sweep(sizes),
    "observe_sharded_sweep":
        lambda sizes: Reduction().observe_sharded_sweep(sizes),
    "ExperimentSpec":
        lambda sizes: ExperimentSpec("vector_addition", sizes=sizes),
}


class TestSweepSizeValidation:
    """Every sweep boundary validates sizes like ``ensure_positive_int``."""

    @pytest.mark.parametrize("sizes,error", [
        ([2.5], TypeError),
        (["5"], TypeError),
        ([True], TypeError),
        ([float("nan")], TypeError),
        ([float("inf")], TypeError),
        ([0], ValueError),
        ([-3], ValueError),
        ([], ValueError),
    ], ids=["float", "str", "bool", "nan", "inf", "zero", "negative", "empty"])
    @pytest.mark.parametrize("entry", sorted(SWEEP_ENTRY_POINTS))
    def test_bad_sizes_rejected_at_the_boundary(self, entry, sizes, error):
        with pytest.raises(error):
            SWEEP_ENTRY_POINTS[entry]([64] + sizes if sizes else sizes)

    def test_numpy_integers_accepted(self):
        sizes = [np.int64(1_000), np.int32(2_000)]
        assert ExperimentSpec("vector_addition", sizes=sizes).sizes \
            == (1_000, 2_000)
        assert size_vector(sizes).tolist() == [1_000, 2_000]
        assert np.array_equal(
            VectorAddition().predict_sweep(sizes).atgpu_costs,
            VectorAddition().predict_sweep([1_000, 2_000]).atgpu_costs,
        )


class TestCompileEntryPoints:
    def test_compile_rejects_conflicting_factories(self):
        algo = VectorAddition()
        machine = GTX_650.machine
        with pytest.raises(ValueError, match="not both"):
            MetricsBatch.compile(
                algo.name, [10],
                metrics_factory=lambda n: algo.metrics(n, machine),
                grid_factory=lambda ns: algo.metrics_batch(ns, machine),
            )
        with pytest.raises(ValueError, match="needs a metrics_factory"):
            MetricsBatch.compile(algo.name, [10])

    def test_compile_checks_grid_sizes(self):
        algo = VectorAddition()
        machine = GTX_650.machine
        with pytest.raises(ValueError, match="sizes"):
            MetricsBatch.compile(
                algo.name, [10, 20],
                grid_factory=lambda ns: algo.metrics_batch([10], machine),
            )

    def test_all_registered_algorithms_ship_vectorized_factories(self):
        for name, factory in ALL_ALGORITHMS.items():
            algo = factory()
            assert algo.supports_metrics_batch, name
            assert isinstance(
                algo.metrics_batch([64], GTX_650.machine), MetricsBatch
            ), name

    def test_non_positive_sizes_rejected_like_scalar(self):
        machine = GTX_650.machine
        for name, factory in ALL_ALGORITHMS.items():
            algo = factory()
            with pytest.raises(ValueError, match="positive integer"):
                algo.metrics(0, machine)
            with pytest.raises(ValueError, match="positive integer"):
                algo.metrics_batch([1_024, 0], machine)
            with pytest.raises(ValueError, match="positive integer"):
                algo.metrics_batch([-5], machine)
