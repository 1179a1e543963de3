"""Tests for the declarative Session API: specs, backends, engines, caching."""

from __future__ import annotations

import functools
import json
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.algorithms.registry import ALL_ALGORITHMS, create
from repro.core.backends import (
    DEFAULT_BACKENDS,
    backend_label,
    backend_names,
    get_backend,
    make_backend,
    register_backend,
    unregister_backend,
)
from repro.core.metrics import CapacityError
from repro.core.prediction import (
    POSITIVE_TOTALS_MESSAGE,
    PredictionComparison,
    SweepObservation,
    SweepPrediction,
)
from repro.core.presets import GTX_650, get_preset
from repro.core.topology import Topology
from repro.experiments import (
    ExperimentSpec,
    ProcessPoolEngine,
    Result,
    ResultSet,
    Session,
    all_figures,
    observe_spec,
    paper_specs,
    predict_group,
)
from repro.simulator.config import DeviceConfig

#: Tiny explicit sweeps so every session test executes quickly.
TINY_SIZES = (1_000, 4_000)


def tiny_spec(algorithm="vector_addition", **kwargs) -> ExperimentSpec:
    kwargs.setdefault("sizes", TINY_SIZES)
    return ExperimentSpec(algorithm=algorithm, **kwargs)


def oracle(spec: ExperimentSpec) -> Result:
    """The spec's result from the public algorithm API alone: one
    ``predict_sweep`` and one ``observe_sweep``, no grouping, no memo."""
    algorithm = create(spec.algorithm)
    sizes = spec.resolved_sizes()
    prediction = algorithm.predict_sweep(
        sizes, preset=spec.resolved_preset(), backends=spec.backends
    )
    observation = algorithm.observe_sweep(
        sizes, config=spec.resolved_device_config(), seed=spec.seed
    )
    return Result.from_sweeps(spec, prediction, observation)


def assert_same_result(result: Result, expected: Result) -> None:
    """Every stored field equal, bit for bit."""
    assert result.spec == expected.spec
    assert result.sizes == expected.sizes
    assert result.predicted == expected.predicted
    assert result.predicted_transfer_proportions == \
        expected.predicted_transfer_proportions
    assert result.observed_totals == expected.observed_totals
    assert result.observed_kernels == expected.observed_kernels
    assert result.observed_transfers == expected.observed_transfers


class TestExperimentSpec:
    def test_roundtrip_through_dict_and_json(self):
        spec = ExperimentSpec(
            algorithm="reduction",
            sizes=(1024, 2048),
            scale="small",
            preset="gtx980",
            device_config=DeviceConfig.gtx980(),
            seed=7,
            backends=("atgpu", "perfect"),
        )
        assert ExperimentSpec.from_dict(spec.to_dict()) == spec
        assert ExperimentSpec.from_json(spec.to_json()) == spec

    def test_hash_stability_and_equality(self):
        a = ExperimentSpec("reduction", sizes=[100, 200], seed=3)
        b = ExperimentSpec("reduction", sizes=(100, 200), seed=3)
        assert a == b
        assert hash(a) == hash(b)
        assert a.spec_hash() == b.spec_hash()
        # The hash survives a serialisation round trip (cross-process key).
        assert ExperimentSpec.from_json(a.to_json()).spec_hash() == a.spec_hash()

    def test_hash_covers_every_field(self):
        base = tiny_spec()
        assert base.spec_hash() != base.with_overrides(seed=1).spec_hash()
        assert base.spec_hash() != base.with_overrides(preset="gtx980").spec_hash()
        assert base.spec_hash() != base.with_overrides(
            device_config=DeviceConfig.gtx650().with_overrides(num_sms=4)
        ).spec_hash()
        assert base.spec_hash() != base.with_overrides(
            backends=("atgpu",)
        ).spec_hash()

    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentSpec("")
        with pytest.raises(ValueError):
            ExperimentSpec("reduction", scale="huge")
        with pytest.raises(ValueError):
            ExperimentSpec("reduction", sizes=())
        with pytest.raises(ValueError):
            ExperimentSpec("reduction", sizes=(0,))
        with pytest.raises(ValueError):
            ExperimentSpec("reduction", backends=())
        with pytest.raises(ValueError):
            ExperimentSpec.from_dict({"algorithm": "reduction", "bogus": 1})

    def test_named_sweep_resolution(self):
        spec = ExperimentSpec("reduction", scale="small")
        from repro.workloads.sweeps import SMALL_SWEEPS

        assert spec.resolved_sizes() == list(SMALL_SWEEPS["reduction"].sizes)

    def test_paper_specs_cover_section_iv(self):
        specs = paper_specs(scale="small")
        assert [s.algorithm for s in specs] == [
            "vector_addition", "reduction", "matrix_multiplication"]
        assert all(s.backends == DEFAULT_BACKENDS for s in specs)


#: Values of no field's type, mixed into every field's strategy.
JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.floats(),
    st.text(max_size=4),
    st.lists(st.one_of(st.integers(-2, 5), st.text(max_size=3)), max_size=3),
)

#: Per field: valid values, near misses and junk.
SPEC_FIELDS = {
    "algorithm": st.one_of(
        st.sampled_from(["vector_addition", "reduction", "x", ""]), JUNK
    ),
    "sizes": st.one_of(
        st.lists(
            st.sampled_from(
                [1, 1_000, 2**62, 10**30, 0, -1, 2.5, float("nan"), True, "5"]
            ),
            max_size=3,
        ),
        JUNK,
    ),
    "scale": st.one_of(st.sampled_from(["paper", "small", "huge"]), JUNK),
    "preset": st.one_of(
        st.sampled_from(["gtx650", "gtx980", "not-a-preset", ""]), JUNK
    ),
    "device_config": st.one_of(
        st.sampled_from([
            DeviceConfig.gtx980().to_dict(), {"num_sms": "x"}, {"bogus": 1}
        ]),
        JUNK,
    ),
    "seed": st.one_of(st.integers(-2, 2**64), JUNK),
    "backends": st.one_of(
        st.lists(st.sampled_from(["atgpu", "perfect", "atgpu-topo", 1]),
                 max_size=3),
        JUNK,
    ),
    "topology": st.one_of(
        st.sampled_from([
            Topology.homogeneous(2, 0.5).to_dict(), {"devices": []},
            {"topolgy": 1},
        ]),
        JUNK,
    ),
}

#: Bad fields that, once accepted, fail late, deep inside, or silently
#: (``backends="atgpu"`` would mean five one-letter backends, ``seed=2.7``
#: seed 2), so the spec must reject them where it is built.
BOUNDARY_CASES = [
    {"preset": None},
    {"preset": 1},
    {"preset": []},
    {"algorithm": "x"},
    {"algorithm": 1},
    {"algorithm": [1, "a"]},
    {"backends": "atgpu"},
    {"backends": [1, "a"]},
    {"seed": 2.7},
    {"seed": -1},
    {"device_config": []},
    {"sizes": [10**30]},
]


def boundary_payload(case):
    return {"algorithm": "vector_addition", "sizes": [1_000], **case}


def with_examples(cases):
    """Pin every case as an explicit example of a ``payload`` test."""
    def decorate(test):
        for case in reversed(cases):
            test = example(payload=boundary_payload(case))(test)
        return test
    return decorate


class TestSpecBoundary:
    """Bad spec fields fail where the spec is built, with a typed error."""

    @pytest.mark.parametrize(
        "case", BOUNDARY_CASES, ids=lambda case: repr(case)
    )
    def test_each_boundary_case_raises_at_construction(self, case):
        with pytest.raises((TypeError, ValueError)):
            ExperimentSpec(**boundary_payload(case))

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(payload=st.fixed_dictionaries({}, optional=SPEC_FIELDS))
    @with_examples(BOUNDARY_CASES)
    def test_from_dict_and_json_raise_only_typed_errors(self, payload):
        try:
            spec = ExperimentSpec.from_dict(payload)
        except (TypeError, ValueError):
            pass
        else:
            # What constructs is whole: it keeps every value it was given,
            # resolves, hashes and round-trips.  Only preset and backend
            # names are looked up late, as registry KeyErrors.
            data = spec.to_dict()
            for key, value in payload.items():
                assert data[key] == json.loads(json.dumps(value))
            create(spec.algorithm)
            np.asarray(spec.resolved_sizes(), dtype=np.int64)
            try:
                spec.resolved_preset()
            except KeyError:
                pass
            assert ExperimentSpec.from_json(spec.to_json()) == spec
            assert len(spec.spec_hash()) == 16
        try:
            ExperimentSpec.from_json(json.dumps(payload))
        except (TypeError, ValueError):
            pass

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(
        algorithm=st.sampled_from(sorted(ALL_ALGORITHMS)),
        hostile=st.sampled_from(
            [float("nan"), float("inf"), -1, 0, True, "5", 2.5, 2**62,
             10**30]
        ),
        valid=st.lists(st.sampled_from([1_000, 4_000]), max_size=2),
        position=st.integers(0, 2),
    )
    @example(algorithm="vector_addition", hostile=float("nan"), valid=[],
             position=0)
    @example(algorithm="vector_addition", hostile=float("inf"), valid=[],
             position=0)
    @example(algorithm="vector_addition", hostile=-1, valid=[], position=0)
    @example(algorithm="vector_addition", hostile=0, valid=[], position=0)
    @example(algorithm="vector_addition", hostile=True, valid=[], position=0)
    @example(algorithm="vector_addition", hostile="5", valid=[], position=0)
    @example(algorithm="vector_addition", hostile=2.5, valid=[], position=0)
    @example(algorithm="vector_addition", hostile=2**62, valid=[], position=0)
    @example(algorithm="vector_addition", hostile=10**30, valid=[], position=0)
    def test_session_run_rejects_hostile_sizes_typed(
        self, algorithm, hostile, valid, position
    ):
        sizes = list(valid)
        sizes.insert(position, hostile)
        with pytest.raises((TypeError, ValueError, CapacityError)):
            Session().run(ExperimentSpec(algorithm, sizes=sizes))

    def test_only_huge_in_range_sizes_reach_the_capacity_check(self):
        ExperimentSpec("vector_addition", sizes=(2**62,))  # constructs
        with pytest.raises(CapacityError):
            Session().run(ExperimentSpec("vector_addition", sizes=(2**62,)))

    def test_numpy_integers_and_mappings_are_coerced(self):
        spec = ExperimentSpec(
            "reduction", sizes=(np.int64(1_024),), seed=np.int64(3),
            device_config=DeviceConfig.gtx980().to_dict(),
        )
        assert type(spec.seed) is int and spec.seed == 3
        assert type(spec.sizes[0]) is int
        assert spec.device_config == DeviceConfig.gtx980()


class TestBackendRegistry:
    def test_builtin_backends_registered(self):
        for name in ("atgpu", "swgpu", "perfect", "agpu"):
            assert name in backend_names()
        assert get_backend("atgpu").label == "ATGPU"
        assert backend_label("swgpu") == "SWGPU"
        assert backend_label("not-registered") == "not-registered"

    def test_unknown_backend_error_lists_known_names(self):
        with pytest.raises(KeyError, match="atgpu"):
            get_backend("definitely-not-a-backend")

    def test_register_lookup_and_overwrite_guard(self):
        double = make_backend(
            "test-double-atgpu", "2×ATGPU",
            lambda metrics, machine, params, occ:
                2.0 * get_backend("atgpu").cost(metrics, machine, params, occ),
        )
        try:
            register_backend(double)
            assert get_backend("test-double-atgpu") is double
            with pytest.raises(ValueError):
                register_backend(double)
            register_backend(double, overwrite=True)
        finally:
            unregister_backend("test-double-atgpu")
        with pytest.raises(KeyError):
            get_backend("test-double-atgpu")

    def test_custom_backend_flows_through_prediction(self):
        double = make_backend(
            "test-double-atgpu", "2×ATGPU",
            lambda metrics, machine, params, occ:
                2.0 * get_backend("atgpu").cost(metrics, machine, params, occ),
        )
        register_backend(double)
        try:
            from repro.algorithms import VectorAddition

            prediction = VectorAddition().predict_sweep(
                [1000, 2000], preset=GTX_650,
                backends=("atgpu", "test-double-atgpu"),
            )
            assert np.allclose(
                prediction.series_for("test-double-atgpu"),
                2.0 * prediction.series_for("atgpu"),
            )
            assert "test-double-atgpu" in prediction.backend_names()
        finally:
            unregister_backend("test-double-atgpu")

    def test_agpu_backend_reports_unitless_time(self):
        from repro.algorithms import Reduction

        prediction = Reduction().predict_sweep(
            [1 << 12, 1 << 14], preset=GTX_650, backends=("atgpu", "agpu"))
        agpu = prediction.series_for("agpu")
        assert np.all(agpu > 0)
        # AGPU's asymptotic time view is unit-less device steps, not seconds.
        assert not np.allclose(agpu, prediction.series_for("atgpu"))


class TestSweepPredictionGenerics:
    def test_series_only_prediction_supports_figures_but_not_reports(self):
        prediction = SweepPrediction(
            algorithm="demo", sizes=[1, 2],
            series={"atgpu": np.array([1.0, 2.0]),
                    "swgpu": np.array([0.5, 1.0])},
            proportions=[0.5, 0.5],
        )
        assert set(prediction.normalised()) == {"ATGPU", "SWGPU"}
        assert np.allclose(prediction.predicted_transfer_proportions, 0.5)
        with pytest.raises(ValueError, match="analysis reports"):
            _ = prediction.transfer_costs
        with pytest.raises(KeyError, match="perfect"):
            prediction.series_for("perfect")

    def test_prediction_requires_reports_or_series(self):
        with pytest.raises(ValueError):
            SweepPrediction(algorithm="demo", sizes=[1, 2])

    def test_zero_total_guard_is_shared(self):
        obs = SweepObservation("demo", [1, 2], [1.0, 0.0], [0.5, 0.0])
        with pytest.raises(ValueError, match="must be positive"):
            _ = obs.observed_transfer_proportions
        prediction = SweepPrediction(
            algorithm="demo", sizes=[1, 2],
            series={"atgpu": [1.0, 2.0], "swgpu": [1.0, 2.0]},
            proportions=[0.1, 0.2],
        )
        comparison = PredictionComparison(prediction, obs)
        with pytest.raises(ValueError) as err:
            comparison.swgpu_capture_fraction()
        assert str(err.value) == POSITIVE_TOTALS_MESSAGE


class TestSessionExecution:
    def test_run_produces_result_with_backend_series(self):
        session = Session()
        result = session.run(tiny_spec())
        assert isinstance(result, Result)
        assert set(result.predicted) == set(DEFAULT_BACKENDS)
        assert result.sizes == list(TINY_SIZES)
        assert np.all(result.backend_series("atgpu")
                      >= result.backend_series("swgpu"))
        stats = result.statistics()
        assert "perfect_shape_score" in stats
        assert 0 <= stats["swgpu_capture_fraction"] <= 1

    def test_result_json_roundtrip_preserves_statistics(self):
        result = oracle(tiny_spec(seed=3))
        restored = Result.from_json(result.to_json())
        assert restored.summary() == pytest.approx(result.summary())
        assert restored.spec == result.spec

    def test_process_pool_engine_matches_serial(self):
        specs = [tiny_spec(), tiny_spec("reduction", sizes=(1 << 12, 1 << 13))]
        serial = Session(engine="serial").run_many(specs)
        pooled = Session(engine=ProcessPoolEngine(max_workers=2)).run_many(specs)
        assert len(serial) == len(pooled) == 2
        for a, b in zip(serial, pooled):
            assert a.spec == b.spec
            assert a.predicted == b.predicted
            assert a.observed_totals == b.observed_totals
            assert a.summary() == pytest.approx(b.summary())

    def test_unknown_engine_rejected(self):
        with pytest.raises(KeyError, match="serial"):
            Session(engine="quantum")

    def test_cache_hit_and_miss_across_seeds(self):
        session = Session()
        first = session.run(tiny_spec(seed=0))
        assert (session.cache_hits, session.cache_misses) == (0, 1)
        again = session.run(tiny_spec(seed=0))
        assert again is first
        assert (session.cache_hits, session.cache_misses) == (1, 1)
        other_seed = session.run(tiny_spec(seed=1))
        assert other_seed is not first
        assert (session.cache_hits, session.cache_misses) == (1, 2)
        # Different seeds genuinely reach the generators.
        assert other_seed.spec.spec_hash() != first.spec.spec_hash()

    def test_run_many_serves_duplicates_from_one_execution(self):
        session = Session()
        results = session.run_many([tiny_spec(), tiny_spec()])
        assert len(results) == 2
        assert results[0] is results[1]
        # Misses equal actual executions; the duplicate counts as a hit.
        assert (session.cache_hits, session.cache_misses) == (1, 1)
        assert session.cache_size == 1

    def test_run_many_without_cache_re_executes_duplicates(self):
        """With use_cache=False duplicates must not be deduplicated and the
        hit/miss counters must stay untouched."""
        session = Session()
        executed = []

        class CountingEngine:
            name = "counting"

            def map(self, fn, specs):
                executed.extend(specs)
                return [fn(spec) for spec in specs]

        session.engine = CountingEngine()
        results = session.run_many(
            [tiny_spec(), tiny_spec()], use_cache=False
        )
        assert len(results) == 2
        assert len(executed) == 2
        assert results[0] is not results[1]
        assert (session.cache_hits, session.cache_misses) == (0, 0)
        # Nothing was stored either: a later cached run still misses.
        assert session.cache_size == 0
        # run() follows the same contract: uncached runs leave the counters
        # alone and store nothing.
        session.run(tiny_spec(), use_cache=False)
        assert (session.cache_hits, session.cache_misses) == (0, 0)
        assert session.cache_size == 0
        session.run(tiny_spec())
        assert (session.cache_hits, session.cache_misses) == (0, 1)

    def test_disk_cache_survives_sessions(self, tmp_path):
        spec = tiny_spec(seed=5)
        writer = Session(cache_dir=tmp_path)
        produced = writer.run(spec)
        assert list(tmp_path.glob("*.json"))
        reader = Session(cache_dir=tmp_path)
        served = reader.run(spec)
        assert reader.cache_hits == 1 and reader.cache_misses == 0
        assert served.summary() == pytest.approx(produced.summary())
        payload = json.loads((tmp_path / f"{spec.spec_hash()}.json").read_text())
        assert payload["spec"]["algorithm"] == "vector_addition"

    def test_disk_reloaded_result_supports_summary_for_any_backends(self, tmp_path):
        """Cached results must behave like fresh ones even when the spec's
        backend list omits the atgpu/swgpu pair the statistics need."""
        spec = tiny_spec(backends=("atgpu", "perfect"))
        fresh = Session(cache_dir=tmp_path).run(spec)
        reloaded = Session(cache_dir=tmp_path).run(spec)
        assert reloaded.summary() == pytest.approx(fresh.summary())
        assert set(reloaded.predicted) >= {"atgpu", "swgpu", "perfect"}

    def test_corrupted_disk_cache_entry_is_a_miss(self, tmp_path):
        spec = tiny_spec(seed=8)
        session = Session(cache_dir=tmp_path)
        session.run(spec)
        path = tmp_path / f"{spec.spec_hash()}.json"
        path.write_text("{ not json")
        fresh = Session(cache_dir=tmp_path)
        result = fresh.run(spec)  # must re-execute, not crash
        assert fresh.cache_misses == 1
        assert result.sizes == list(TINY_SIZES)
        # The broken entry was replaced by a valid one.
        assert json.loads(path.read_text())["spec"]["seed"] == 8

    def test_resultset_views_and_figures(self):
        session = Session()
        evaluation = session.run_many(paper_specs(
            scale="small", backends=("atgpu", "swgpu", "perfect")))
        assert isinstance(evaluation, ResultSet)
        assert set(evaluation.by_algorithm()) == {
            "vector_addition", "reduction", "matrix_multiplication"}
        figures = all_figures(evaluation)
        assert set(figures) == {"3a", "3b", "3c", "4a", "4b", "4c",
                                "5a", "5b", "6a", "6b", "6c"}
        restored = ResultSet.from_json(evaluation.to_json())
        for name, summary in evaluation.summaries().items():
            assert restored.summaries()[name] == pytest.approx(summary)
        with pytest.raises(KeyError, match="no result"):
            evaluation.get("histogram")


class TestPresetSimulatorConfig:
    """A spec is observed on the simulator configuration of its preset."""

    SIZES = (4_096, 1 << 20)

    @staticmethod
    def observed(config) -> list:
        observation = create("vector_addition").observe_sweep(
            list(TestPresetSimulatorConfig.SIZES), config=config
        )
        return [float(total) for total in observation.totals]

    @pytest.mark.parametrize("preset, config", [
        ("gtx650", DeviceConfig.gtx650),
        ("gtx980", DeviceConfig.gtx980),
        ("k40", DeviceConfig.tesla_k40),
    ])
    def test_preset_observes_its_configuration(self, preset, config):
        spec = ExperimentSpec("vector_addition", sizes=self.SIZES, preset=preset)
        assert spec.resolved_device_config() == config()
        assert Session().run(spec).observed_totals == self.observed(config())

    def test_preset_without_configuration_raises_at_observation(self):
        spec = ExperimentSpec(
            "vector_addition", sizes=self.SIZES, preset="gtx1080"
        )
        prediction = predict_group([spec])[0]
        expected = create("vector_addition").predict_sweep(
            list(self.SIZES), preset=get_preset("gtx1080"),
            backends=spec.backends,
        )
        for backend in spec.backends:
            assert np.array_equal(
                prediction.series_for(backend), expected.series_for(backend)
            )
        with pytest.raises(ValueError, match="'gtx1080'.*device_config"):
            Session().run(spec)
        given = spec.with_overrides(device_config=DeviceConfig.gtx980())
        assert Session().run(given).observed_totals == \
            self.observed(DeviceConfig.gtx980())

    @pytest.mark.parametrize("simulator", [None, DeviceConfig.gtx650])
    def test_store_entry_of_another_configuration_is_a_miss(
        self, tmp_path, simulator
    ):
        # Before specs were observed on their preset's configuration, the
        # store kept gtx650's observations under a k40 spec's key and named
        # no configuration.
        spec = ExperimentSpec("vector_addition", sizes=self.SIZES, preset="k40")
        payload = Session().run(spec).to_dict()
        assert payload["simulator"] == DeviceConfig.tesla_k40().to_dict()
        del payload["simulator"]
        if simulator is not None:
            payload["simulator"] = simulator().to_dict()
        payload["observed_totals"] = self.observed(DeviceConfig.gtx650())
        path = tmp_path / f"{spec.spec_hash()}.json"
        path.write_text(json.dumps(payload))
        session = Session(cache_dir=tmp_path)
        result = session.run(spec)
        assert (session.cache_hits, session.cache_misses) == (0, 1)
        assert result.observed_totals == self.observed(DeviceConfig.tesla_k40())
        stored = json.loads(path.read_text())
        assert stored["simulator"] == DeviceConfig.tesla_k40().to_dict()
        assert Result.from_dict(stored).observed_totals == result.observed_totals


class TestSectionIVParity:
    """Acceptance: the Section IV evaluation repeats from the cache."""

    def test_session_caches_repeated_paper_evaluation(self):
        session = Session()
        specs = paper_specs(scale="small",
                            backends=("atgpu", "swgpu", "perfect"))
        modern = session.run_many(specs)

        # A repeated batch is served entirely from the cache.
        hits_before = session.cache_hits
        repeat = session.run_many(specs)
        assert session.cache_hits == hits_before + len(specs)
        for first, second in zip(modern, repeat):
            assert first is second


class TestGroupedBatchExecution:
    """Session.run_many routes homogeneous groups through one MetricsBatch."""

    def test_grouped_serial_matches_per_spec_execution(self):
        specs = [
            tiny_spec(seed=0),
            tiny_spec(seed=1),
            tiny_spec(seed=0, sizes=(2_000, 8_000)),
            tiny_spec("reduction", sizes=(1 << 12, 1 << 13)),
        ]
        grouped = Session(engine="serial").run_many(specs, use_cache=False)
        for spec, result in zip(specs, grouped):
            assert result.spec == spec
            assert_same_result(result, oracle(spec))

    def test_grouped_execution_handles_unbatchable_backends(self):
        custom = make_backend(
            "test-session-scalar-only", "scalar-only",
            lambda metrics, machine, params, occ:
                get_backend("atgpu").cost(metrics, machine, params, occ),
        )
        register_backend(custom)
        try:
            specs = [
                tiny_spec(),
                tiny_spec(backends=("atgpu", "test-session-scalar-only")),
            ]
            results = Session(engine="serial").run_many(specs, use_cache=False)
            assert np.allclose(
                results[1].backend_series("test-session-scalar-only"),
                results[1].backend_series("atgpu"),
            )
            assert results[0].predicted == oracle(specs[0]).predicted
        finally:
            unregister_backend("test-session-scalar-only")

    def test_grouped_execution_preserves_order_and_length(self):
        specs = [
            tiny_spec("reduction", sizes=(1 << 12,)),
            tiny_spec(seed=2),
            tiny_spec("reduction", sizes=(1 << 13,)),
        ]
        results = Session(engine="serial").run_many(specs, use_cache=False)
        assert [r.spec for r in results] == specs


#: A 12-point grid between 1,000 and 16,384; batches take windows of it.
GRID = tuple(int(n) for n in np.geomspace(1_000, 16_384, 12).round())


@st.composite
def grid_specs(draw) -> ExperimentSpec:
    start = draw(st.integers(0, len(GRID) - 1))
    stop = draw(st.integers(start + 1, min(len(GRID), start + 4)))
    return ExperimentSpec(
        draw(st.sampled_from(["vector_addition", "reduction"])),
        sizes=GRID[start:stop],
        seed=draw(st.sampled_from([0, 1])),
        preset=draw(st.sampled_from(["gtx650", "gtx980"])),
        backends=draw(
            st.sampled_from([DEFAULT_BACKENDS, ("atgpu", "perfect")])
        ),
    )


cached_oracle = functools.lru_cache(maxsize=None)(oracle)


class TestOnePath:
    """Every batch, cached or not, equals the public-API oracle."""

    @settings(derandomize=True, max_examples=15, deadline=None)
    @given(batch=st.lists(grid_specs(), min_size=1, max_size=6))
    def test_generated_batches_equal_the_oracle(self, batch):
        session = Session()
        results = session.run_many(batch)
        uncached = Session().run_many(batch, use_cache=False)
        assert len(results) == len(uncached) == len(batch)
        for spec, result, fresh in zip(batch, results, uncached):
            assert_same_result(result, cached_oracle(spec))
            assert_same_result(fresh, cached_oracle(spec))
        for spec, result in zip(batch, results):
            assert session.run(spec) is result


class TestEngineAndSessionLifecycle:
    def test_process_pool_engine_reuses_one_pool(self):
        engine = ProcessPoolEngine(max_workers=2)
        assert engine.pool is None  # lazy: no workers before the first batch
        specs = [tiny_spec(seed=0), tiny_spec(seed=1)]
        engine.map(observe_spec, specs)
        first = engine.pool
        assert first is not None
        engine.map(observe_spec, specs)
        assert engine.pool is first  # no per-batch teardown/respawn
        engine.close()
        assert engine.pool is None
        engine.map(observe_spec, specs)  # usable again after close
        assert engine.pool is not None and engine.pool is not first
        engine.close()

    def test_single_spec_batches_never_spawn_workers(self):
        engine = ProcessPoolEngine(max_workers=2)
        engine.map(observe_spec, [tiny_spec()])
        assert engine.pool is None

    def test_broken_pool_retries_the_batch_once_on_a_fresh_pool(self):
        from concurrent.futures.process import BrokenProcessPool

        engine = ProcessPoolEngine(max_workers=2)

        class PoisonedPool:
            def map(self, fn, specs):
                raise BrokenProcessPool("worker died")

            def shutdown(self, *args, **kwargs):
                pass

        engine._pool = PoisonedPool()
        # One break is absorbed: the batch re-runs on a fresh pool.
        results = engine.map(
            observe_spec, [tiny_spec(seed=0), tiny_spec(seed=1)]
        )
        assert len(results) == 2
        assert engine.pool is not None and not isinstance(
            engine.pool, PoisonedPool
        )
        engine.close()

    def test_pool_broken_twice_raises_engine_error_naming_the_spec(self):
        from concurrent.futures import Future
        from concurrent.futures.process import BrokenProcessPool

        from repro.experiments import EngineError

        engine = ProcessPoolEngine(max_workers=2)
        specs = [tiny_spec(seed=0), tiny_spec(seed=1)]

        class BrokenFuture:
            def result(self):
                raise BrokenProcessPool("worker died again")

        class PoisonedPool:
            def map(self, fn, specs):
                raise BrokenProcessPool("worker died")

            def submit(self, fn, *args):
                return BrokenFuture()

            def shutdown(self, *args, **kwargs):
                pass

        # Poison both the first pool and the retry pool.
        engine._pool = PoisonedPool()
        original = engine._ensure_pool

        def poisoned_ensure():
            with engine._lock:
                if engine._pool is None:
                    engine._pool = PoisonedPool()
                return engine._pool

        engine._ensure_pool = poisoned_ensure
        with pytest.raises(EngineError) as excinfo:
            engine.map(observe_spec, specs)
        assert specs[0].spec_hash() in str(excinfo.value)
        assert excinfo.value.spec == specs[0]
        engine._ensure_pool = original
        assert engine.pool is None
        engine.close()

    def test_spawned_workers_need_no_runtime_registry(self):
        """Workers only simulate, so a backend registered at run time works
        on a ``spawn`` pool, whose workers import the package afresh and
        see only the built-in registries."""
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        custom = make_backend("test-session-spawned", "spawned",
                              lambda metrics, m, p, o: 1.0)
        register_backend(custom)
        try:
            specs = [
                tiny_spec(seed=seed, backends=("atgpu", custom.name))
                for seed in (0, 1)
            ]
            engine = ProcessPoolEngine(max_workers=2)
            engine._pool = ProcessPoolExecutor(
                max_workers=2,
                mp_context=multiprocessing.get_context("spawn"),
            )
            with Session(engine=engine) as session:
                results = session.run_many(specs)
            for spec, result in zip(specs, results):
                assert result.predicted[custom.name] == [1.0, 1.0]
                assert_same_result(result, Session().run(spec))
        finally:
            unregister_backend(custom.name)

    def test_session_context_manager_closes_engine(self):
        engine = ProcessPoolEngine(max_workers=2)
        with Session(engine=engine) as session:
            session.run_many(
                [tiny_spec(seed=0), tiny_spec(seed=1)], use_cache=False
            )
            assert engine.pool is not None
        assert engine.pool is None

    def test_session_close_is_safe_for_serial_engine(self):
        session = Session()
        session.close()  # SerialEngine has no close(); must be a no-op
        assert session.run(tiny_spec()) is not None


class TestSpecHashMemoization:
    def test_hash_computed_once_and_stable(self):
        spec = tiny_spec(seed=4)
        first = spec.spec_hash()
        assert spec.__dict__.get("_spec_hash") == first
        assert spec.spec_hash() is first  # served from the memo
        # A fresh, equal spec computes the same digest independently.
        assert tiny_spec(seed=4).spec_hash() == first

    def test_with_overrides_does_not_inherit_stale_hash(self):
        spec = tiny_spec(seed=4)
        original = spec.spec_hash()
        changed = spec.with_overrides(seed=5)
        assert "_spec_hash" not in changed.__dict__
        assert changed.spec_hash() != original

    def test_json_roundtrip_hash_matches(self):
        spec = tiny_spec(seed=6)
        spec.spec_hash()
        restored = ExperimentSpec.from_json(spec.to_json())
        assert restored.spec_hash() == spec.spec_hash()


class TestBatchEvaluationCache:
    """The per-backend batch memo (compiled grids + evaluated predictions)."""

    def test_repeated_run_many_hits_batch_cache(self):
        session = Session()
        specs = [tiny_spec(seed=0), tiny_spec(seed=1)]
        first = session.run_many(specs)
        # One group: one union prediction per distinct backends tuple (both
        # specs share it — the second is scattered from the same
        # evaluation) plus the one batch compile behind it.
        assert session.batch_cache_misses == 2
        assert session.batch_cache_hits == 0
        assert session.batch_cache.size == 2
        # New seeds miss the spec-hash cache but are served entirely from
        # the memoized union prediction — the batch is not even consulted.
        second = session.run_many([tiny_spec(seed=2), tiny_spec(seed=3)])
        assert session.batch_cache_misses == 2
        assert session.batch_cache_hits == 1
        assert first[0].predicted["atgpu"] == second[0].predicted["atgpu"]

    def test_spec_hash_cache_answers_before_batch_cache(self):
        session = Session()
        session.run_many([tiny_spec(seed=0)])
        misses = session.batch_cache_misses
        hits = session.batch_cache_hits
        # An exact repeat is a spec-hash hit; the batch memo is not touched.
        session.run_many([tiny_spec(seed=0)])
        assert session.batch_cache_misses == misses
        assert session.batch_cache_hits == hits
        assert session.cache_hits == 1

    def test_distinct_sizes_and_backends_are_distinct_entries(self):
        session = Session()
        session.run_many([
            tiny_spec(seed=0),
            tiny_spec(seed=0, sizes=(1_000, 16_000)),
            tiny_spec(seed=0, backends=("atgpu", "perfect")),
        ])
        # One union batch for the group; one union prediction per distinct
        # backends tuple (sizes are sliced out of the shared evaluation).
        assert session.batch_cache_misses == 3
        assert session.batch_cache.size == 3

    def test_run_reads_and_fills_the_batch_memo(self):
        session = Session()
        session.run(tiny_spec(seed=0))
        assert (session.batch_cache_hits, session.batch_cache_misses) == (0, 2)
        session.run(tiny_spec(seed=1))
        assert (session.batch_cache_hits, session.batch_cache_misses) == (1, 2)

    def test_use_cache_false_bypasses_batch_cache(self):
        session = Session()
        session.run_many([tiny_spec(seed=0)], use_cache=False)
        assert session.batch_cache_misses == 0
        assert session.batch_cache_hits == 0
        assert session.batch_cache.size == 0

    def test_clear_cache_drops_batch_memo(self):
        session = Session()
        session.run_many([tiny_spec(seed=0)])
        assert session.batch_cache.size > 0
        session.clear_cache()
        assert session.batch_cache.size == 0
        # Counters survive; a re-run recompiles.
        misses = session.batch_cache_misses
        session.run_many([tiny_spec(seed=4)])
        assert session.batch_cache_misses > misses

    def test_unbatchable_backends_share_the_memo(self):
        plain = make_backend("test-session-scalar-only", "scalar-only",
                             lambda metrics, m, p, o: 1.0)
        register_backend(plain)
        try:
            session = Session()
            spec = tiny_spec(
                seed=0, backends=("atgpu", "test-session-scalar-only")
            )
            result = session.run_many([spec])[0]
            # One compiled batch plus one evaluated prediction, priced per
            # size for the backend without a batch evaluator.
            assert session.batch_cache.size == 2
            assert result.predicted["test-session-scalar-only"] == [1.0, 1.0]
        finally:
            unregister_backend("test-session-scalar-only")


class TestSessionThreadSafety:
    """One session shared across threads (the serving layer's contract)."""

    def test_run_many_hammered_from_eight_threads(self):
        specs = [tiny_spec(seed=seed) for seed in range(3)] + [
            tiny_spec("reduction", seed=seed) for seed in range(3)
        ]
        want = [result.to_json() for result in Session().run_many(specs)]
        session = Session()
        barrier = threading.Barrier(8)
        mismatches = []
        errors = []

        def hammer():
            try:
                barrier.wait(timeout=30)
                for _ in range(3):
                    got = session.run_many(specs)
                    for result, expected in zip(got, want):
                        if result.to_json() != expected:
                            mismatches.append(result.algorithm)
            except Exception as exc:  # noqa: BLE001 - collected for assert
                errors.append(exc)

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not errors
        assert not mismatches
        assert session.cache_size == len(specs)
        # Every request is accounted exactly once.  Racing threads may both
        # execute the same uncached spec (by design — execution is pure),
        # so misses can exceed the unique-spec count but never the total.
        total = 8 * 3 * len(specs)
        assert session.cache_hits + session.cache_misses == total
        assert len(specs) <= session.cache_misses < total

    def test_concurrent_disk_stores_stay_readable(self, tmp_path):
        session = Session(cache_dir=tmp_path)
        specs = [tiny_spec(seed=seed) for seed in range(4)]
        threads = [
            threading.Thread(target=session.run_many, args=(specs,))
            for _ in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        # No torn writes: every store entry parses and reloads cleanly.
        fresh = Session(cache_dir=tmp_path)
        reloaded = fresh.run_many(specs)
        assert fresh.cache_misses == 0
        assert len(reloaded) == len(specs)
        assert not list(tmp_path.glob("*.tmp"))


class TestPoolBatchMemo:
    def test_process_pool_fills_the_batch_memo_as_serial_does(self):
        specs = [tiny_spec(seed=0), tiny_spec(seed=1)]
        serial = Session()
        want = serial.run_many(specs)
        with Session(engine="process") as session:
            first = session.run_many(specs)
            assert session.engine.pool is not None  # simulated in workers
            # Predictions are made in this process, grouped and memoised
            # exactly as on the serial engine: one union compile and one
            # union evaluation, two misses.
            counts = (
                session.batch_cache_hits,
                session.batch_cache_misses,
                session.batch_cache.size,
            )
            assert counts == (
                serial.batch_cache_hits,
                serial.batch_cache_misses,
                serial.batch_cache.size,
            ) == (0, 2, 2)
            # A later in-process pass over the same sweeps hits the memo.
            fresh = session.run(tiny_spec(seed=2))
            assert session.batch_cache_misses == 2
            assert session.batch_cache_hits == 1
            assert fresh.predicted == first[0].predicted
        for result, expected in zip(first, want):
            assert_same_result(result, expected)
