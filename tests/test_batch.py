"""Tests for the vectorized batch cost engine (``repro.core.batch``).

The contract under test is *bit-for-bit* parity: for every built-in backend
family ``predict_sweep`` must produce exactly the series per-size
``analyse`` produces (``rtol=0, atol=0``), across the paper's algorithms,
randomized synthetic sweeps, and the degeneracy cases (``chunks=1``,
``devices=1``).
"""

from __future__ import annotations

import contextlib

import numpy as np
import pytest

from repro.algorithms import MatrixMultiplication, Reduction, VectorAddition
from repro.algorithms.registry import all_algorithm_names, create
from repro.core.backends import (
    FunctionBackend,
    backend_supports_batch,
    get_backend,
    make_async_backend,
    make_backend,
    make_sharded_backend,
    register_backend,
    unregister_backend,
)
from repro.core.batch import (
    MetricsBatch,
    agpu_time_batch,
    batch_breakdown,
    gpu_cost_batch,
    overlapped_cost_batch,
    perfect_cost_batch,
    sharded_cost_batch,
    swgpu_cost_batch,
)
from repro.core.comparison import AGPUAnalysis, SWGPUCostModel
from repro.core.cost import ATGPUCostModel
from repro.core.backends import overlapped_cost
from repro.core.metrics import AlgorithmMetrics, CapacityError, RoundMetrics
from repro.core.prediction import predict_sweep, predict_sweep_batch
from repro.core.presets import GTX_650, GTX_980
from repro.core.sharding import topology_cost_batch, topology_gpu_cost
from repro.core.topology import DeviceSpec, LinkSpec, Topology
from repro.workloads.sweeps import (
    SHARD_COUNT_SWEEP,
    STREAM_CHUNK_SWEEP,
    dense_sweep,
    sweep_for,
)

ALGORITHMS = [VectorAddition, Reduction, MatrixMultiplication]
FAMILY_BACKENDS = (
    "atgpu", "swgpu", "perfect", "agpu", "atgpu-async", "atgpu-multi",
)

#: One async backend per STREAM_CHUNK_SWEEP chunk count and one sharded
#: backend per SHARD_COUNT_SWEEP device count.  Two of them are the
#: built-in atgpu-async and atgpu-multi, so with FAMILY_BACKENDS they name
#: 13 distinct backends.
SWEEP_VARIANTS = (
    [make_async_backend(int(chunks)) for chunks in STREAM_CHUNK_SWEEP.sizes]
    + [make_sharded_backend(int(devices)) for devices in SHARD_COUNT_SWEEP.sizes]
)

#: The dense 256-point vector-addition sweep.
DENSE_SIZES = dense_sweep(256).sizes

#: Small per-algorithm sweeps that still exercise multi-round metrics.
SWEEP_SIZES = {
    "vector_addition": [1_000, 100_000, 1_000_000, 2_500_000],
    "reduction": [1 << 10, 1 << 14, 1 << 18, 1 << 20],
    "matrix_multiplication": [32, 64, 96, 256],
}


def analysed(algo, sizes, preset=GTX_650, backends=None) -> dict:
    """Per-size ``analyse`` reports gathered into sweep series.

    The scalar reference of a sweep: one report per size, priced from the
    algorithm's scalar ``metrics(n)``.  Keys are backend names plus
    ``transfer``, ``kernel`` and ``proportion``.
    """
    reports = [algo.analyse(n, preset=preset, backends=backends) for n in sizes]
    names = backends if backends is not None else ("atgpu", "swgpu", "perfect")
    out = {
        name: np.array([r.backend_cost(name) for r in reports])
        for name in names
    }
    out["transfer"] = np.array([r.transfer_cost for r in reports])
    out["kernel"] = np.array([r.kernel_cost for r in reports])
    out["proportion"] = np.array(
        [r.predicted_transfer_proportion for r in reports]
    )
    return out


@contextlib.contextmanager
def registered(backends):
    """Register those of ``backends`` not yet registered.

    Yields FAMILY_BACKENDS followed by the backends' names, without
    repeats.  Variants may already be registered (by another test in the
    same run), so only the names this call adds are removed on the way out.
    """
    names, added = [], []
    for backend in backends:
        try:
            get_backend(backend.name)
        except KeyError:
            register_backend(backend)
            added.append(backend.name)
        names.append(backend.name)
    try:
        yield tuple(dict.fromkeys((*FAMILY_BACKENDS, *names)))
    finally:
        for name in added:
            unregister_backend(name)


def random_metrics(rng: np.random.Generator, machine, rounds: int
                   ) -> AlgorithmMetrics:
    """Synthetic multi-round metrics with awkward values (zeros, fractions)."""
    out = []
    for _ in range(rounds):
        inward = float(rng.choice([0.0, rng.integers(1, 10_000),
                                   float(rng.uniform(0.5, 999.5))]))
        outward = float(rng.choice([0.0, rng.integers(1, 5_000),
                                    float(rng.uniform(0.5, 99.5))]))
        out.append(RoundMetrics(
            time=float(rng.uniform(0.0, 50.0)),
            io_blocks=float(rng.integers(0, 10_000)),
            inward_words=inward,
            outward_words=outward,
            inward_transactions=int(rng.integers(1, 4)) if inward > 0 else 0,
            outward_transactions=int(rng.integers(1, 4)) if outward > 0 else 0,
            global_words=float(rng.integers(0, machine.G)),
            shared_words_per_mp=float(rng.choice(
                [0.0, float(rng.integers(1, machine.M)),
                 float(rng.uniform(0.1, machine.M / 2))]
            )),
            thread_blocks=int(rng.integers(1, 5_000)),
        ))
    return AlgorithmMetrics(out, name="random")


class TestMetricsBatchPacking:
    def test_shapes_and_padding(self):
        algo = Reduction()
        sizes = SWEEP_SIZES["reduction"]
        batch = algo.compile_batch(sizes, preset=GTX_650)
        assert batch.sizes == tuple(sizes)
        assert batch.num_sizes == len(sizes)
        depths = [len(algo.metrics(n, GTX_650.machine)) for n in sizes]
        assert batch.depth == max(depths)
        assert list(batch.round_counts) == depths
        # Padding: mask zero, neutral rounds beyond each column's depth.
        for col, depth in enumerate(depths):
            assert np.all(batch.mask[:depth, col] == 1.0)
            assert np.all(batch.mask[depth:, col] == 0.0)
            assert np.all(batch.time[depth:, col] == 0.0)
            assert np.all(batch.thread_blocks[depth:, col] == 1.0)

    def test_select_columns(self):
        algo = Reduction()
        sizes = SWEEP_SIZES["reduction"]
        batch = algo.compile_batch(sizes, preset=GTX_650)
        sub = batch.select([2, 0])
        assert sub.sizes == (sizes[2], sizes[0])
        direct = algo.compile_batch([sizes[2], sizes[0]], preset=GTX_650)
        assert np.array_equal(
            gpu_cost_batch(sub, GTX_650.machine, GTX_650.parameters,
                           GTX_650.occupancy),
            gpu_cost_batch(direct, GTX_650.machine, GTX_650.parameters,
                           GTX_650.occupancy),
        )
        # Selection keeps every row, padding included; the real rounds of
        # each column are those of the direct compile.
        assert sub.depth == batch.depth
        for col in range(2):
            assert list(sub.metrics_at(col)) == list(direct.metrics_at(col))

    def test_empty_inputs_rejected(self):
        with pytest.raises(ValueError):
            MetricsBatch.compile("demo", [], lambda n: None)
        batch = VectorAddition().compile_batch([100], preset=GTX_650)
        with pytest.raises(ValueError):
            batch.select([])
        with pytest.raises(ValueError):
            MetricsBatch.from_metrics([1, 2], [batch.metrics_at(0)])
        with pytest.raises(ValueError):
            MetricsBatch.from_metrics([], [])

    def test_validate_against_matches_scalar(self, machine):
        algo = VectorAddition()
        fits = algo.compile_batch([1000], preset=GTX_650)
        # The fixture machine has G = 2^22 words; 3n words at n = 4M won't fit.
        metrics = algo.metrics(4_000_000, GTX_650.machine)
        batch = MetricsBatch.from_metrics([4_000_000], [metrics])
        with pytest.raises(CapacityError):
            batch.validate_against(machine)
        assert not batch.runs_on(machine)
        assert fits.runs_on(GTX_650.machine)


class TestBackendParity:
    @pytest.mark.parametrize("algorithm_cls", ALGORITHMS)
    @pytest.mark.parametrize("preset", [GTX_650, GTX_980],
                             ids=lambda p: p.name)
    def test_every_family_bitwise_equal(self, algorithm_cls, preset):
        algo = algorithm_cls()
        sizes = SWEEP_SIZES[algo.name]
        scalar = analysed(algo, sizes, preset=preset,
                          backends=FAMILY_BACKENDS)
        batch = algo.predict_sweep(sizes, preset=preset,
                                   backends=FAMILY_BACKENDS)
        for name in FAMILY_BACKENDS:
            assert np.array_equal(
                scalar[name], batch.series_for(name)
            ), f"series mismatch for backend {name}"
        assert np.array_equal(scalar["proportion"],
                              batch.predicted_transfer_proportions)
        assert np.array_equal(scalar["transfer"], batch.transfer_costs)
        assert np.array_equal(scalar["kernel"], batch.kernel_costs)

    def test_section_iv_sweeps_identical_with_rtol_zero(self):
        """The acceptance criterion: paper sweeps, every backend family."""
        for algorithm_cls in ALGORITHMS:
            algo = algorithm_cls()
            sizes = sweep_for(algo.name).sizes
            scalar = analysed(algo, sizes, backends=FAMILY_BACKENDS)
            batch = algo.predict_sweep(sizes, backends=FAMILY_BACKENDS)
            for name in FAMILY_BACKENDS:
                assert np.allclose(scalar[name],
                                   batch.series_for(name), rtol=0, atol=0)
            assert np.array_equal(scalar["proportion"],
                                  batch.predicted_transfer_proportions)

    def test_randomized_metrics_parity(self, machine, parameters, occupancy):
        rng = np.random.default_rng(7)
        for trial in range(10):
            metrics_list = [
                random_metrics(rng, machine, rounds=int(rng.integers(1, 8)))
                for _ in range(int(rng.integers(1, 12)))
            ]
            sizes = list(range(1, len(metrics_list) + 1))
            batch = MetricsBatch.from_metrics(sizes, metrics_list)
            atgpu = ATGPUCostModel(machine, parameters, occupancy)
            swgpu = SWGPUCostModel(machine, parameters, occupancy)
            chunks = int(rng.integers(1, 6))
            devices = int(rng.integers(1, 6))
            contention = float(rng.choice([0.0, 0.25, 1.0]))
            fleet = Topology.homogeneous(devices, contention)
            fleet_costs = [
                topology_gpu_cost(m, machine, parameters, occupancy, fleet)
                for m in metrics_list
            ]
            # The same fleet with its α/β restated on the host link: not
            # uniform, so topology_cost_batch takes its general path.
            restated = Topology(
                devices=(DeviceSpec(),) * devices,
                links=(LinkSpec(contention=contention, alpha=parameters.alpha,
                                beta=parameters.beta),),
            )
            expectations = {
                "gpu": (
                    gpu_cost_batch(batch, machine, parameters, occupancy),
                    [atgpu.gpu_cost(m) for m in metrics_list],
                ),
                "perfect": (
                    perfect_cost_batch(batch, machine, parameters, occupancy),
                    [atgpu.perfect_cost(m) for m in metrics_list],
                ),
                "swgpu": (
                    swgpu_cost_batch(batch, machine, parameters, occupancy),
                    [swgpu.gpu_cost(m) for m in metrics_list],
                ),
                "agpu": (
                    agpu_time_batch(batch, machine, parameters, occupancy),
                    [AGPUAnalysis.from_metrics(m).time for m in metrics_list],
                ),
                "async": (
                    overlapped_cost_batch(batch, machine, parameters,
                                          occupancy, chunks=chunks),
                    [overlapped_cost(m, machine, parameters, occupancy,
                                     chunks=chunks) for m in metrics_list],
                ),
                "sharded": (
                    sharded_cost_batch(batch, machine, parameters, occupancy,
                                       devices=devices,
                                       contention=contention),
                    fleet_costs,
                ),
                "topology": (
                    topology_cost_batch(batch, machine, parameters,
                                        occupancy, restated),
                    fleet_costs,
                ),
            }
            for family, (got, expected) in expectations.items():
                assert np.array_equal(got, np.array(expected)), (
                    f"trial {trial}: {family} diverged from the scalar model"
                )

    def test_async_chunks_one_degenerates_to_serial(self, machine, parameters,
                                                    occupancy):
        rng = np.random.default_rng(11)
        metrics_list = [random_metrics(rng, machine, 3) for _ in range(5)]
        batch = MetricsBatch.from_metrics(range(1, 6), metrics_list)
        pipelined = overlapped_cost_batch(batch, machine, parameters,
                                          occupancy, chunks=1)
        # Bit-for-bit against the scalar async model (the batch contract) ...
        assert np.array_equal(
            pipelined,
            [overlapped_cost(m, machine, parameters, occupancy, chunks=1)
             for m in metrics_list],
        )
        # ... and numerically the serial GPU-cost (the degeneracy the scalar
        # model itself guarantees only up to addition order).
        assert np.allclose(
            pipelined, gpu_cost_batch(batch, machine, parameters, occupancy),
            rtol=1e-12,
        )

    def test_sharded_single_device_degenerates_to_serial(self, machine,
                                                         parameters,
                                                         occupancy):
        rng = np.random.default_rng(13)
        metrics_list = [random_metrics(rng, machine, 4) for _ in range(5)]
        batch = MetricsBatch.from_metrics(range(1, 6), metrics_list)
        serial = gpu_cost_batch(batch, machine, parameters, occupancy)
        for contention in (0.0, 0.5, 1.0):
            assert np.array_equal(
                sharded_cost_batch(batch, machine, parameters, occupancy,
                                   devices=1, contention=contention),
                serial,
            )

    def test_breakdown_components_match_scalar(self, machine, parameters,
                                               occupancy):
        algo = Reduction()
        sizes = SWEEP_SIZES["reduction"]
        batch = algo.compile_batch(sizes, preset=GTX_650)
        model = ATGPUCostModel(GTX_650.machine, GTX_650.parameters,
                               GTX_650.occupancy)
        vec = batch_breakdown(batch, GTX_650.machine, GTX_650.parameters,
                              GTX_650.occupancy, use_occupancy=True)
        for col, n in enumerate(sizes):
            scalar = model.breakdown(algo.metrics(n, GTX_650.machine),
                                     use_occupancy=True)
            assert vec.inward_transfer[col] == scalar.inward_transfer
            assert vec.outward_transfer[col] == scalar.outward_transfer
            assert vec.compute[col] == scalar.compute
            assert vec.io[col] == scalar.io
            assert vec.synchronisation[col] == scalar.synchronisation
            assert vec.total[col] == scalar.total
            assert vec.transfer_proportion[col] == scalar.transfer_proportion


class TestPredictSweepPaths:
    def test_prediction_carries_breakdown_and_builtin_trio(self):
        prediction = VectorAddition().predict_sweep([100, 200])
        assert prediction.transfers is not None
        assert prediction.kernels is not None
        # The built-in trio is always available, whatever was requested.
        for name in ("atgpu", "swgpu", "perfect"):
            assert name in prediction.backend_names()

    def test_custom_backend_without_batch_evaluator_priced_per_size(self):
        custom = make_backend(
            "test-batch-fallback2", "2x",
            lambda metrics, machine, params, occ:
                2.0 * get_backend("atgpu").cost(metrics, machine, params, occ),
        )
        register_backend(custom)
        try:
            assert not backend_supports_batch(custom)
            sizes = [1000, 2000]
            names = ("atgpu", "test-batch-fallback2")
            prediction = VectorAddition().predict_sweep(sizes, backends=names)
            assert np.allclose(
                prediction.series_for("test-batch-fallback2"),
                2.0 * prediction.series_for("atgpu"),
            )
            scalar = analysed(VectorAddition(), sizes, backends=names)
            assert np.array_equal(
                prediction.series_for("test-batch-fallback2"),
                scalar["test-batch-fallback2"],
            )
        finally:
            unregister_backend("test-batch-fallback2")

    def test_batch_prediction_supports_figure_accessors(self):
        algo = VectorAddition()
        sizes = [1000, 2000, 4000]
        scalar = analysed(algo, sizes)
        batch = algo.predict_sweep(sizes)
        assert set(batch.normalised()) == {"ATGPU", "SWGPU"}
        assert np.array_equal(batch.transfer_costs, scalar["transfer"])
        assert np.array_equal(batch.kernel_costs, scalar["kernel"])

    def test_custom_batch_backend_used(self):
        custom = make_backend(
            "test-batch-vec", "vec",
            lambda metrics, machine, params, occ: float(len(metrics)),
            evaluate_batch=lambda batch, machine, params, occ:
                np.asarray(batch.round_counts, dtype=float),
        )
        register_backend(custom)
        try:
            assert backend_supports_batch(custom)
            prediction = Reduction().predict_sweep(
                [1 << 10, 1 << 14], backends=("atgpu", "test-batch-vec"),
            )
            expected = [len(Reduction().metrics(n, GTX_650.machine))
                        for n in (1 << 10, 1 << 14)]
            assert list(prediction.series_for("test-batch-vec")) == expected
        finally:
            unregister_backend("test-batch-vec")


class TestEvaluateBackendsBatch:
    def test_shape_validated(self, machine, parameters, occupancy):
        bad = make_backend(
            "test-batch-bad-shape", "bad",
            lambda metrics, m, p, o: 0.0,
            evaluate_batch=lambda batch, m, p, o: np.zeros(99),
        )
        batch = VectorAddition().compile_batch([100, 200], preset=GTX_650)
        with pytest.raises(ValueError, match="shape"):
            bad.batch_cost(batch, machine, parameters, occupancy)

    def test_batch_cost_requires_evaluator(self, machine, parameters,
                                           occupancy):
        plain = make_backend("test-batch-plain", "plain",
                             lambda metrics, m, p, o: 1.0)
        batch = VectorAddition().compile_batch([100], preset=GTX_650)
        with pytest.raises(ValueError, match="no batch evaluation"):
            plain.batch_cost(batch, machine, parameters, occupancy)

    @pytest.mark.parametrize("algorithm_cls, sizes, variants", [
        (
            Reduction, SWEEP_SIZES["reduction"],
            [make_async_backend(chunks) for chunks in (1, 4, 16)]
            + [make_sharded_backend(devices, contention=0.5)
               for devices in (4, 8)],
        ),
        (Reduction, sweep_for("reduction").sizes, SWEEP_VARIANTS),
        (VectorAddition, sweep_for("vector_addition").sizes, SWEEP_VARIANTS),
        (VectorAddition, DENSE_SIZES, SWEEP_VARIANTS),
    ], ids=[
        "reduction", "section4-reduction", "section4-vector_addition",
        "dense256-vector_addition",
    ])
    def test_async_and_shard_variants_parity(self, algorithm_cls, sizes,
                                             variants):
        """Every family plus the chunk- and device-count variants."""
        algo = algorithm_cls()
        with registered(variants) as names:
            scalar = analysed(algo, sizes, backends=names)
            batch = algo.predict_sweep(sizes, backends=names)
        for name in names:
            assert np.array_equal(scalar[name], batch.series_for(name)), name
        assert np.array_equal(scalar["proportion"],
                              batch.predicted_transfer_proportions)


class TestSweepWorkCounts:
    """``predict_sweep`` does no per-size scalar work on built-in paths.

    The array-native metrics factories and the batch evaluators exist to
    skip one ``metrics(n)`` call and one scalar backend ``cost`` call per
    size.  Both counts must be exactly zero: a timing floor misses a
    fallback that costs a few times the fast path.
    """

    @pytest.mark.parametrize("name", all_algorithm_names())
    def test_predict_sweep_makes_no_scalar_calls(self, name, monkeypatch):
        algo = create(name)
        calls = {"metrics": 0, "cost": 0}

        def counted(kind, method):
            def wrapper(*args, **kwargs):
                calls[kind] += 1
                return method(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(
            type(algo), "metrics", counted("metrics", type(algo).metrics)
        )
        monkeypatch.setattr(
            FunctionBackend, "cost", counted("cost", FunctionBackend.cost)
        )
        if name == "vector_addition":
            with registered(SWEEP_VARIANTS) as names:
                assert len(names) == 13
                prediction = algo.predict_sweep(DENSE_SIZES, backends=names)
        else:
            names = FAMILY_BACKENDS
            prediction = algo.predict_sweep(backends=names)
        assert set(names) <= set(prediction.backend_names())
        assert calls == {"metrics": 0, "cost": 0}


class TestSweepPredictionSeriesFields:
    def test_transfers_must_align_with_sizes(self):
        from repro.core.prediction import SweepPrediction

        with pytest.raises(ValueError, match="transfers"):
            SweepPrediction(
                algorithm="demo", sizes=[1, 2],
                series={"atgpu": [1.0, 2.0]},
                transfers=[1.0],
            )

    def test_predict_sweep_batch_entry_point(self):
        algo = VectorAddition()
        sizes = [1000, 2000]
        batch = algo.compile_batch(sizes, preset=GTX_650)
        prediction = predict_sweep_batch(
            algo.name, batch, GTX_650.machine, GTX_650.parameters,
            GTX_650.occupancy,
        )
        direct = predict_sweep(
            algo.name, sizes, lambda n: algo.metrics(n, GTX_650.machine),
            GTX_650.machine, GTX_650.parameters, GTX_650.occupancy,
        )
        for name in ("atgpu", "swgpu", "perfect"):
            assert np.array_equal(prediction.series_for(name),
                                  direct.series_for(name))
