"""Tests for the topology subsystem: the fleet description
(:mod:`repro.core.topology`), the load-aware shard planner, the
topology-aware cost model and its batch evaluator, the auto-registered
``atgpu-topo`` backends, topology-carrying experiment specs, the
serving-layer coalescing key, the topology-driven :class:`DevicePool`
and the topology-aware sharded execution modes.

A ``(devices, contention)`` pair is ``Topology.homogeneous(devices,
contention)`` at every layer.  That fleet is checked against independent
oracles (:class:`TestHomogeneousOracles`): Expression (2) at ``P=1``, the
serial Boyer transfer at ``c=1``, a hand-computed closed form, and three
cost implementations agreeing bit for bit."""

from __future__ import annotations

import json
from concurrent.futures import Future

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.algorithms import Reduction, VectorAddition
from repro.algorithms.registry import all_algorithm_names, create
from repro.core.backends import (
    TOPOLOGY_BACKEND,
    backend_names,
    ensure_topology_backend,
    get_backend,
    make_sharded_backend,
    make_topology_backend,
    unregister_backend,
)
from repro.core.batch import MetricsBatch, sharded_cost_batch
from repro.core.cost import ATGPUCostModel, CostParameters
from repro.core.metrics import AlgorithmMetrics, RoundMetrics
from repro.core.presets import GTX_650, GTX_980, get_preset
from repro.core.sharding import (
    TopologyCostModel,
    topology_cost_batch,
    topology_gpu_cost,
)
from repro.core.topology import (
    DEFAULT_SHARD_DEVICES,
    DeviceSpec,
    LinkSpec,
    Topology,
    contended_streaming,
    contention_stretch,
    plan_bounds,
    plan_shards,
    resolve_fleet,
    straggler_finish,
)
from repro.core.transfer import BoyerTransferModel, TransferDirection
from repro.experiments import ExperimentSpec, Session
from repro.experiments.session import predict_group
from repro.serving.queue import PredictionRequest
from repro.simulator.batch import simulate_sharded_sweep
from repro.simulator.config import DeviceConfig
from repro.simulator.device import GPUDevice
from repro.simulator.device_pool import DevicePool
from repro.utils.validation import UnknownFieldError
from repro.workloads import sweep_for

#: A mixed-generation fleet: one default (gtx650) device, one faster
#: gtx980, one occupancy-capped default — three distinct throughputs on
#: a moderately contended host link.
HETERO = Topology(
    devices=(
        DeviceSpec(),
        DeviceSpec(preset="gtx980"),
        DeviceSpec(hardware_block_limit=8),
    ),
    links=(LinkSpec(kind="host", socket=0, contention=0.3),),
)

#: Two generations on a moderately contended host link: one default
#: (gtx650) device beside a gtx980.
HETERO_FLEET = Topology(
    devices=(DeviceSpec(), DeviceSpec(preset="gtx980")),
    links=(LinkSpec(kind="host", socket=0, contention=0.3),),
)

#: Matrix multiplication's Section IV sweep (compute-bound).
MATMUL_SWEEP = tuple(sweep_for("matrix_multiplication").sizes)

#: Two sockets with their own links plus a P2P fabric.
NUMA_P2P = Topology(
    devices=(
        DeviceSpec(socket=0),
        DeviceSpec(socket=0, preset="gtx980"),
        DeviceSpec(socket=1),
        DeviceSpec(socket=1),
    ),
    links=(
        LinkSpec(kind="host", socket=0, contention=0.5),
        LinkSpec(kind="host", socket=1, contention=0.2),
        LinkSpec(kind="p2p", alpha=5e-6, beta=4e-10),
    ),
)


class TestContentionHelpers:
    def test_contention_stretch_is_the_shared_formula(self):
        for devices in (1, 2, 4, 7):
            for c in (0.0, 0.25, 1.0):
                assert contention_stretch(devices, c) == 1.0 + c * (devices - 1)

    def test_contended_streaming_interpolates(self):
        assert contended_streaming(100.0, 25.0, 0.0) == 25.0
        assert contended_streaming(100.0, 25.0, 1.0) == 100.0
        mid = contended_streaming(100.0, 25.0, 0.5)
        assert 25.0 < mid < 100.0

    def test_equal_shards_reduce_streaming_to_stretch(self):
        # c·(P·s) + (1−c)·s == s·(1 + c·(P−1)) — the model/simulator bridge.
        P, s, c = 4, 250.0, 0.3
        assert contended_streaming(P * s, s, c) == pytest.approx(
            s * contention_stretch(P, c)
        )

    def test_contended_streaming_is_elementwise(self):
        total = np.array([100.0, 10.0])
        shard = np.array([25.0, 5.0])
        out = contended_streaming(total, shard, 0.5)
        assert out.shape == (2,)
        assert out[0] == contended_streaming(100.0, 25.0, 0.5)


class TestDeviceAndLinkSpecs:
    def test_device_defaults_and_is_default(self):
        device = DeviceSpec()
        assert device.is_default
        assert not DeviceSpec(preset="gtx980").is_default
        assert not DeviceSpec(hardware_block_limit=4).is_default

    def test_device_validation(self):
        with pytest.raises(ValueError):
            DeviceSpec(preset="")
        with pytest.raises(ValueError):
            DeviceSpec(hardware_block_limit=0)
        with pytest.raises(ValueError):
            DeviceSpec(socket=-1)

    def test_link_validation(self):
        with pytest.raises(ValueError):
            LinkSpec(kind="nvlink")
        with pytest.raises(ValueError):
            LinkSpec(contention=1.5)
        with pytest.raises(ValueError):
            LinkSpec(alpha=-1.0)

    def test_round_trips(self):
        device = DeviceSpec(preset="gtx980", socket=1, name="fast")
        assert DeviceSpec.from_dict(device.to_dict()) == device
        link = LinkSpec(kind="p2p", contention=0.25, beta=1e-10)
        assert LinkSpec.from_dict(link.to_dict()) == link

    def test_unknown_field_errors_are_typed_and_name_the_field(self):
        with pytest.raises(UnknownFieldError) as err:
            DeviceSpec.from_dict({"preset": None, "sockte": 1})
        assert err.value.kind == "DeviceSpec"
        assert err.value.fields == ("sockte",)
        assert "sockte" in str(err.value)
        with pytest.raises(UnknownFieldError) as err:
            LinkSpec.from_dict({"kind": "host", "bandwidth": 1e9})
        assert err.value.fields == ("bandwidth",)
        # It is still a ValueError, so broad handlers keep working.
        assert isinstance(err.value, ValueError)


class TestTopologyConstruction:
    def test_homogeneous_factory(self):
        fleet = Topology.homogeneous(4, contention=0.3)
        assert fleet.num_devices == 4
        assert fleet.is_uniform
        assert fleet.sockets == (0,)
        assert fleet.host_link(0).contention == 0.3
        assert not fleet.has_p2p

    def test_homogeneous_validates_devices_and_contention(self):
        with pytest.raises(ValueError):
            Topology.homogeneous(0)
        with pytest.raises(ValueError):
            Topology.homogeneous(2, contention=1.5)
        with pytest.raises(ValueError):
            Topology.homogeneous(2, contention=-0.1)

    def test_topology_is_hashable_and_usable_as_a_key(self):
        a = Topology.homogeneous(2)
        b = Topology.homogeneous(2)
        assert a == b
        assert {a: "x"}[b] == "x"

    def test_nested_mappings_are_coerced(self):
        fleet = Topology(
            devices=({"preset": "gtx980"}, {"preset": None}),
            links=({"kind": "host", "contention": 0.1},),
        )
        assert isinstance(fleet.devices[0], DeviceSpec)
        assert fleet.devices[0].preset == "gtx980"
        assert isinstance(fleet.links[0], LinkSpec)

    def test_validation_rules(self):
        with pytest.raises(ValueError):
            Topology(devices=())
        with pytest.raises(ValueError):
            Topology(links=(LinkSpec(socket=0), LinkSpec(socket=0)))
        with pytest.raises(ValueError):
            Topology(
                links=(
                    LinkSpec(socket=0),
                    LinkSpec(kind="p2p"),
                    LinkSpec(kind="p2p", alpha=1e-6),
                )
            )
        with pytest.raises(ValueError, match="socket"):
            Topology(devices=(DeviceSpec(socket=1),))

    def test_views_on_the_numa_fleet(self):
        assert NUMA_P2P.sockets == (0, 1)
        assert NUMA_P2P.devices_on_socket(0) == (0, 1)
        assert NUMA_P2P.devices_on_socket(1) == (2, 3)
        assert NUMA_P2P.has_p2p
        assert NUMA_P2P.p2p_link.beta == 4e-10
        with pytest.raises(KeyError):
            NUMA_P2P.host_link(7)

    def test_is_uniform_rejects_every_heterogeneity(self):
        assert not HETERO.is_uniform
        assert not NUMA_P2P.is_uniform
        assert not Topology(
            links=(LinkSpec(alpha=1e-5),)
        ).is_uniform

    def test_throughputs_homogeneous_are_identical(self):
        weights = Topology.homogeneous(3).throughputs(
            GTX_650.parameters, GTX_650.occupancy
        )
        assert len(set(weights)) == 1

    def test_throughputs_rank_the_presets(self):
        weights = HETERO.throughputs(GTX_650.parameters, GTX_650.occupancy)
        assert weights[1] > weights[0]  # gtx980 outruns the gtx650
        assert weights[2] < weights[0]  # the capped device is slowest


class TestTopologySerialisation:
    @pytest.mark.parametrize("fleet", [Topology(), HETERO, NUMA_P2P])
    def test_json_round_trip(self, fleet):
        assert Topology.from_json(fleet.to_json()) == fleet
        assert Topology.from_dict(json.loads(fleet.to_json())) == fleet

    def test_topology_hash_is_stable_and_discriminating(self):
        assert (
            Topology.homogeneous(2).topology_hash()
            == Topology.homogeneous(2).topology_hash()
        )
        assert (
            Topology.homogeneous(2).topology_hash()
            != Topology.homogeneous(3).topology_hash()
        )
        assert len(HETERO.topology_hash()) == 16

    def test_unknown_keys_rejected_at_every_level(self):
        good = HETERO.to_dict()
        with pytest.raises(UnknownFieldError) as err:
            Topology.from_dict({**good, "fabric": []})
        assert err.value.kind == "Topology"
        assert err.value.fields == ("fabric",)
        bad_device = {**good, "devices": [{"presett": "gtx980"}]}
        with pytest.raises(UnknownFieldError) as err:
            Topology.from_dict(bad_device)
        assert err.value.kind == "DeviceSpec"
        bad_link = {**good, "links": [{"kind": "host", "lanes": 16}]}
        with pytest.raises(UnknownFieldError) as err:
            Topology.from_dict(bad_link)
        assert err.value.fields == ("lanes",)


INF = float("inf")

#: Values of no field's type, mixed into every field's strategy.
JUNK = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 2), st.floats(),
    st.text(max_size=3), st.lists(st.integers(-1, 2), max_size=2),
)

#: Per field: valid values, near misses and junk.
SOCKETS = st.one_of(st.just(0), st.integers(-1, 2), JUNK)
DEVICE_FIELDS = {
    "preset": st.one_of(
        st.none(), st.sampled_from(["gtx650", "gtx980", ""]), JUNK
    ),
    "hardware_block_limit": st.one_of(
        st.none(), st.integers(-1, 2**64), JUNK
    ),
    "socket": SOCKETS,
    "name": st.one_of(st.text(max_size=3), JUNK),
}
LINK_FIELDS = {
    "kind": st.one_of(st.sampled_from(["host", "p2p", "nvlink"]), JUNK),
    "socket": SOCKETS,
    "contention": st.one_of(st.floats(0, 1), st.floats(), JUNK),
    "alpha": st.one_of(st.none(), st.floats(0, 1e-3), st.floats(), JUNK),
    "beta": st.one_of(st.none(), st.floats(0, 1e-3), st.floats(), JUNK),
}
TOPOLOGY_PAYLOADS = st.fixed_dictionaries({}, optional={
    "devices": st.one_of(
        st.lists(st.fixed_dictionaries({}, optional=DEVICE_FIELDS),
                 min_size=1, max_size=2),
        st.lists(st.just({}), max_size=1),
        JUNK,
    ),
    "links": st.one_of(
        st.lists(st.fixed_dictionaries({}, optional=LINK_FIELDS),
                 min_size=1, max_size=2),
        JUNK,
    ),
})

#: Fields that used to construct and hash, then fail late or silently: a
#: non-string preset broke ``atgpu-topo`` runs with an ``AttributeError``,
#: and an infinite link cost predicted ``inf`` for every size.
TOPOLOGY_BOUNDARY_CASES = {
    "preset=-1": {"devices": [{"preset": -1}]},
    "preset=nan": {"devices": [{"preset": float("nan")}]},
    "name=[]": {"devices": [{"name": []}]},
    "alpha=inf": {"links": [{"kind": "host", "alpha": INF}]},
    "beta=inf": {"links": [{"kind": "host", "beta": INF}]},
}


def with_topology_examples(test):
    """Pin every boundary case as an explicit example of a ``payload`` test."""
    for case in reversed(list(TOPOLOGY_BOUNDARY_CASES.values())):
        test = example(payload=case)(test)
    return test


class TestTopologyBoundary:
    """Bad device and link fields fail where they are built, typed."""

    @pytest.mark.parametrize(
        "case", list(TOPOLOGY_BOUNDARY_CASES.values()),
        ids=list(TOPOLOGY_BOUNDARY_CASES),
    )
    def test_each_boundary_case_raises_at_construction(self, case):
        with pytest.raises((TypeError, ValueError)):
            Topology.from_dict(case)
        for device in case.get("devices", ()):
            with pytest.raises((TypeError, ValueError)):
                DeviceSpec(**device)
        for link in case.get("links", ()):
            with pytest.raises((TypeError, ValueError)):
                LinkSpec(**link)
        with pytest.raises((TypeError, ValueError)):
            ExperimentSpec("vector_addition", topology=case)

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(payload=TOPOLOGY_PAYLOADS)
    @with_topology_examples
    def test_from_dict_raises_only_typed_errors(self, payload):
        try:
            fleet = Topology.from_dict(payload)
        except (TypeError, ValueError):
            return
        # What constructs round-trips and hashes.
        assert Topology.from_json(fleet.to_json()) == fleet
        assert {fleet: 1}[Topology.from_dict(fleet.to_dict())] == 1
        assert len(fleet.topology_hash()) == 16


class TestPlanShards:
    def test_equal_weights_split_near_evenly(self):
        assert plan_shards(10, (2.0,) * 3) == [4, 3, 3]
        assert plan_shards(2, (2.0,) * 4) == [1, 1, 0, 0]
        for total in (0, 1, 10, 1234):
            for count in (1, 3, 7):
                base, extra = divmod(total, count)
                assert plan_shards(total, (2.0,) * count) == [
                    base + (1 if index < extra else 0)
                    for index in range(count)
                ]

    def test_conservation_and_non_negativity(self):
        shards = plan_shards(1000, (1.0, 3.0, 2.5))
        assert sum(shards) == 1000
        assert all(s >= 0 for s in shards)

    def test_faster_devices_take_more(self):
        shards = plan_shards(100, (1.0, 3.0))
        assert shards[1] > shards[0]

    def test_greedy_matches_brute_force_optimum(self):
        weights = (1.0, 2.0, 3.5)
        total = 17
        best = min(
            (
                max((a / weights[0]), (b / weights[1]),
                    ((total - a - b) / weights[2]))
                for a in range(total + 1)
                for b in range(total + 1 - a)
            ),
        )
        shards = plan_shards(total, weights)
        assert straggler_finish(shards, weights) == pytest.approx(best)

    def test_strictly_lower_straggler_than_even_split(self):
        weights = HETERO.throughputs(GTX_650.parameters, GTX_650.occupancy)
        total = 31_250
        planned = plan_shards(total, weights)
        even = plan_shards(total, (1.0,) * len(weights))
        assert straggler_finish(planned, weights) < straggler_finish(
            even, weights
        )

    def test_plan_bounds_are_contiguous_and_aligned(self):
        weights = (1.0, 4.0, 2.0)
        bounds = plan_bounds(50, weights)
        assert bounds[0][0] == 0
        assert bounds[-1][1] == 50
        assert all(a[1] == b[0] for a, b in zip(bounds, bounds[1:]))
        assert [hi - lo for lo, hi in bounds] == plan_shards(50, weights)

    def test_zero_width_bounds_mark_idle_devices(self):
        bounds = plan_bounds(2, (1.0, 1.0, 1.0, 1.0))
        assert sum(1 for lo, hi in bounds if hi > lo) == 2

    def test_rejects_bad_weights(self):
        with pytest.raises(ValueError):
            plan_shards(10, ())
        with pytest.raises(ValueError):
            plan_shards(10, (1.0, 0.0))
        with pytest.raises(ValueError):
            plan_shards(-1, (1.0,))

    def test_straggler_finish_checks_lengths(self):
        with pytest.raises(ValueError):
            straggler_finish((1, 2), (1.0,))


#: Sizes the homogeneous-fleet oracles add to each default sweep.
ORACLE_EXTRA_SIZES = (1, 2, 3, 7, 31, 33, 1000, 4097)


def oracle_sizes(algorithm):
    """An algorithm's default sweep plus :data:`ORACLE_EXTRA_SIZES`."""
    return sorted(set(algorithm.default_sizes()) | set(ORACLE_EXTRA_SIZES))


def restated_fleet(devices, contention, parameters):
    """``Topology.homogeneous(devices, contention)`` with a host link that
    restates the fleet's ``α``/``β``: the prices are the same, but the
    fleet is not uniform, so the batch evaluator takes its general path."""
    return Topology(
        devices=(DeviceSpec(),) * devices,
        links=(LinkSpec(
            contention=contention,
            alpha=parameters.alpha,
            beta=parameters.beta,
        ),),
    )


class TestHomogeneousOracles:
    """``Topology.homogeneous(P, c)`` against independent oracles."""

    PRESETS = (GTX_650, GTX_980)
    DEVICES = (1, 2, 3, 4, 8, 16)
    CONTENTIONS = (0.0, 0.25, 0.4, 1.0)

    @pytest.mark.parametrize("name", all_algorithm_names())
    def test_single_device_is_expression_2(self, name):
        """(a) ``P=1`` is the ``atgpu`` cost for every contention."""
        algorithm = create(name)
        for preset in self.PRESETS:
            serial = ATGPUCostModel(
                preset.machine, preset.parameters, preset.occupancy
            )
            for n in oracle_sizes(algorithm):
                metrics = algorithm.metrics(n, preset.machine)
                expected = serial.gpu_cost(metrics)
                for contention in self.CONTENTIONS:
                    assert topology_gpu_cost(
                        metrics, preset.machine, preset.parameters,
                        preset.occupancy,
                        Topology.homogeneous(1, contention),
                    ) == expected, (preset.name, n, contention)

    @pytest.mark.parametrize("name", all_algorithm_names())
    def test_fast_path_general_path_and_scalar_agree(self, name):
        """(b) ``sharded_cost_batch``, ``topology_cost_batch``'s general
        path and per-size ``topology_gpu_cost`` agree bit for bit."""
        algorithm = create(name)
        sizes = oracle_sizes(algorithm)
        for preset in self.PRESETS:
            args = (preset.machine, preset.parameters, preset.occupancy)
            batch = algorithm.compile_batch(sizes, preset=preset)
            metrics = [algorithm.metrics(n, preset.machine) for n in sizes]
            for devices in self.DEVICES:
                for contention in self.CONTENTIONS:
                    fleet = Topology.homogeneous(devices, contention)
                    general = restated_fleet(
                        devices, contention, preset.parameters
                    )
                    assert fleet.is_uniform and not general.is_uniform
                    scalar = np.array([
                        topology_gpu_cost(m, *args, fleet) for m in metrics
                    ])
                    fast = sharded_cost_batch(
                        batch, *args, devices=devices, contention=contention
                    )
                    case = (preset.name, devices, contention)
                    assert np.array_equal(fast, scalar), case
                    assert np.array_equal(
                        topology_cost_batch(batch, *args, general), scalar
                    ), case
                    assert np.array_equal(
                        topology_cost_batch(batch, *args, fleet), fast
                    ), case

    def test_closed_form_round(self, machine, parameters, occupancy):
        """(c) One round at ``P=3``, ``c=0.25``, priced by hand."""
        round_metrics = RoundMetrics(
            time=5.0, io_blocks=40.0,
            inward_words=1000.0, outward_words=101.0,
            inward_transactions=2, outward_transactions=1,
            shared_words_per_mp=100.0, thread_blocks=100,
        )
        devices, c = 3, 0.25
        alpha, beta = parameters.alpha, parameters.beta
        # The straggler (device 0) holds ⌈1000/3⌉ = 334 inward words,
        # ⌈101/3⌉ = 34 outward words and ⌈100/3⌉ = 34 thread blocks.
        # Occupancy resolves 8 resident blocks on each of 2 MPs, so 34
        # blocks run in ⌈34/16⌉ = 3 waves.
        expected = {
            "inward_transfer": 2 * alpha + (c * 1000 + (1 - c) * 334) * beta,
            "outward_transfer": 1 * alpha + (c * 101 + (1 - c) * 34) * beta,
            "compute": 3 * 5.0 / parameters.gamma,
            "io": parameters.lam * 40.0 * (34 / 100) / parameters.gamma,
            "synchronisation": parameters.sigma,
        }
        model = TopologyCostModel(
            machine, parameters, occupancy, Topology.homogeneous(devices, c)
        )
        breakdown = model.round_breakdown(round_metrics)
        for field, value in expected.items():
            assert getattr(breakdown, field) == value, field
        metrics = AlgorithmMetrics([round_metrics])
        scalar = model.gpu_cost(metrics)
        assert scalar == pytest.approx(sum(expected.values()), rel=1e-15)
        batch = MetricsBatch.from_metrics([1], [metrics])
        args = (machine, parameters, occupancy)
        fast = sharded_cost_batch(batch, *args, devices=devices, contention=c)
        general = topology_cost_batch(
            batch, *args, restated_fleet(devices, c, parameters)
        )
        assert fast[0] == general[0] == scalar

    @pytest.mark.parametrize(
        "words, devices, shard",
        [
            (10.0, 3, 4.0), (10.0, 1, 10.0), (10.0, 10, 1.0),
            (10.0, 16, 1.0), (0.0, 4, 0.0), (10.5, 2, 5.25),
        ],
    )
    def test_straggler_word_shard(self, machine, occupancy, words, devices,
                                  shard):
        """(c) On independent links with ``α=0``, ``β=1`` a transfer costs
        the straggler's shard: ``⌈W/P⌉`` whole words, ``W/P`` for a
        fractional count."""
        parameters = CostParameters(
            gamma=1.0, lam=0.0, sigma=0.0, alpha=0.0, beta=1.0
        )
        round_metrics = RoundMetrics(
            time=1.0, io_blocks=0.0, inward_words=words,
            inward_transactions=1 if words else 0, thread_blocks=1,
        )
        model = TopologyCostModel(
            machine, parameters, occupancy, Topology.homogeneous(devices)
        )
        assert model.round_breakdown(round_metrics).inward_transfer == shard
        batch = MetricsBatch.from_metrics(
            [1], [AlgorithmMetrics([round_metrics])]
        )
        args = (machine, parameters, occupancy)
        fast = sharded_cost_batch(batch, *args, devices=devices)
        general = topology_cost_batch(
            batch, *args, restated_fleet(devices, 0.0, parameters)
        )
        scalar = model.gpu_cost(AlgorithmMetrics([round_metrics]))
        assert fast[0] == general[0] == scalar

    @pytest.mark.parametrize("name", all_algorithm_names())
    def test_full_contention_transfer_is_serial_boyer(self, name):
        """(d) At ``c=1`` every round's transfer terms are Boyer's."""
        algorithm = create(name)
        for preset in self.PRESETS:
            boyer = BoyerTransferModel(
                alpha=preset.parameters.alpha, beta=preset.parameters.beta
            )
            for devices in self.DEVICES:
                model = TopologyCostModel(
                    preset.machine, preset.parameters, preset.occupancy,
                    Topology.homogeneous(devices, 1.0),
                )
                for n in oracle_sizes(algorithm):
                    for r in algorithm.metrics(n, preset.machine):
                        breakdown = model.round_breakdown(r)
                        case = (preset.name, devices, n)
                        assert breakdown.inward_transfer == (
                            boyer.inward_cost(r)
                        ), case
                        assert breakdown.outward_transfer == (
                            boyer.outward_cost(r)
                        ), case

    def test_sharded_backend_is_a_topology_shim(self):
        preset = GTX_650
        metrics = VectorAddition().metrics(1_000_000, preset.machine)
        shim = make_sharded_backend(4, contention=0.25).cost(
            metrics, preset.machine, preset.parameters, preset.occupancy
        )
        direct = topology_gpu_cost(
            metrics, preset.machine, preset.parameters, preset.occupancy,
            Topology.homogeneous(4, 0.25),
        )
        assert shim == direct


def hetero_sweep_costs(planner: str) -> np.ndarray:
    """Matrix multiplication's Section IV sweep priced on HETERO_FLEET."""
    preset = GTX_650
    return topology_cost_batch(
        create("matrix_multiplication").compile_batch(MATMUL_SWEEP, preset),
        preset.machine, preset.parameters, preset.occupancy, HETERO_FLEET,
        planner=planner,
    )


class TestHeterogeneousModel:
    @pytest.mark.parametrize("fleet, name, sizes, planner", [
        (HETERO, "vector_addition", (4096, 100_000, 1_000_000), "load-aware"),
        (NUMA_P2P, "vector_addition", (4096, 100_000, 1_000_000), "load-aware"),
        (HETERO_FLEET, "matrix_multiplication", MATMUL_SWEEP, "load-aware"),
        (HETERO_FLEET, "matrix_multiplication", MATMUL_SWEEP, "even"),
    ], ids=["hetero", "numa-p2p", "hetero-fleet-matmul", "hetero-fleet-even"])
    def test_scalar_and_batch_agree_exactly(self, fleet, name, sizes, planner):
        preset = GTX_650
        algorithm = create(name)
        vector = topology_cost_batch(
            algorithm.compile_batch(sizes, preset),
            preset.machine, preset.parameters, preset.occupancy, fleet,
            planner=planner,
        )
        for index, n in enumerate(sizes):
            scalar = topology_gpu_cost(
                algorithm.metrics(n, preset.machine),
                preset.machine, preset.parameters, preset.occupancy, fleet,
                planner=planner,
            )
            assert vector[index] == scalar

    def test_load_aware_planner_beats_even_split_when_compute_bound(self):
        # The planner balances *kernel* finish times, so its win shows on
        # compute-bound workloads (matmul); transfer-bound sweeps like
        # vector addition are balanced by words, where even splitting is
        # already optimal on a shared link.
        preset = GTX_650
        metrics = create("matrix_multiplication").metrics(
            1024, preset.machine
        )
        load_aware = TopologyCostModel(
            preset.machine, preset.parameters, preset.occupancy, HETERO,
        ).gpu_cost(metrics)
        even = TopologyCostModel(
            preset.machine, preset.parameters, preset.occupancy, HETERO,
            planner="even",
        ).gpu_cost(metrics)
        assert load_aware < even

    def test_load_aware_sweep_total_is_37_percent_below_even(self):
        load_aware = hetero_sweep_costs("load-aware").sum()
        even = hetero_sweep_costs("even").sum()
        assert round(load_aware * 1e3, 2) == 16.28
        assert round(even * 1e3, 2) == 25.85
        assert round(1.0 - load_aware / even, 4) == 0.3704

    def test_planner_validated(self):
        preset = GTX_650
        with pytest.raises(ValueError):
            TopologyCostModel(
                preset.machine, preset.parameters, preset.occupancy,
                HETERO, planner="random",
            )

    def test_p2p_fabric_charges_a_shuffle_term(self):
        preset = GTX_650
        metrics = VectorAddition().metrics(500_000, preset.machine)
        no_fabric = Topology(
            devices=NUMA_P2P.devices,
            links=tuple(l for l in NUMA_P2P.links if l.kind == "host"),
        )
        with_fabric = topology_gpu_cost(
            metrics, preset.machine, preset.parameters, preset.occupancy,
            NUMA_P2P,
        )
        without = topology_gpu_cost(
            metrics, preset.machine, preset.parameters, preset.occupancy,
            no_fabric,
        )
        assert with_fabric > without

    def test_numa_sockets_contend_only_locally(self):
        preset = GTX_650
        metrics = VectorAddition().metrics(1_000_000, preset.machine)
        one_socket = Topology(
            devices=(DeviceSpec(),) * 4,
            links=(LinkSpec(kind="host", socket=0, contention=1.0),),
        )
        two_sockets = Topology(
            devices=(
                DeviceSpec(socket=0), DeviceSpec(socket=0),
                DeviceSpec(socket=1), DeviceSpec(socket=1),
            ),
            links=(
                LinkSpec(kind="host", socket=0, contention=1.0),
                LinkSpec(kind="host", socket=1, contention=1.0),
            ),
        )
        cost = lambda fleet: topology_gpu_cost(
            metrics, preset.machine, preset.parameters, preset.occupancy,
            fleet,
        )
        assert cost(two_sockets) < cost(one_socket)


class TestTopologyBackends:
    def test_backend_name_derives_from_the_hash(self):
        backend = make_topology_backend(HETERO)
        assert backend.name == (
            f"{TOPOLOGY_BACKEND}-{HETERO.topology_hash()[:8]}"
        )
        even = make_topology_backend(HETERO, planner="even")
        assert even.name.endswith("-even")

    def test_unknown_planner_rejected_before_naming(self):
        before = set(backend_names())
        with pytest.raises(ValueError, match="planner"):
            make_topology_backend(HETERO, planner="random")
        with pytest.raises(ValueError, match="planner"):
            ensure_topology_backend(HETERO, planner="random")
        assert set(backend_names()) == before

    def test_ensure_is_idempotent_and_registers(self):
        name = ensure_topology_backend(HETERO)
        try:
            assert name in backend_names()
            assert ensure_topology_backend(HETERO) == name
            preset = GTX_650
            metrics = Reduction().metrics(1 << 14, preset.machine)
            cost = get_backend(name).cost(
                metrics, preset.machine, preset.parameters, preset.occupancy
            )
            assert cost == topology_gpu_cost(
                metrics, preset.machine, preset.parameters, preset.occupancy,
                HETERO,
            )
        finally:
            unregister_backend(name)


class TestSpecTopology:
    def test_spec_round_trips_with_a_topology(self):
        spec = ExperimentSpec(
            "vector_addition", sizes=(1000, 2000), topology=HETERO
        )
        assert ExperimentSpec.from_json(spec.to_json()) == spec
        rebuilt = ExperimentSpec.from_dict(spec.to_dict())
        assert rebuilt.topology == HETERO

    def test_topology_mapping_coerced_at_construction(self):
        spec = ExperimentSpec(
            "vector_addition", sizes=(1000,), topology=HETERO.to_dict()
        )
        assert spec.topology == HETERO
        with pytest.raises(TypeError):
            ExperimentSpec("vector_addition", sizes=(1000,), topology=3)

    def test_unknown_spec_key_raises_typed_error(self):
        payload = ExperimentSpec("vector_addition", sizes=(1000,)).to_dict()
        payload["topolgy"] = None
        with pytest.raises(UnknownFieldError) as err:
            ExperimentSpec.from_dict(payload)
        assert err.value.kind == "ExperimentSpec"
        assert err.value.fields == ("topolgy",)
        assert "topolgy" in str(err.value)

    def test_topology_key_and_hash_inclusion(self):
        plain = ExperimentSpec("vector_addition", sizes=(1000,))
        fleet = plain.with_overrides(topology=HETERO)
        assert plain.topology_key() == ""
        assert fleet.topology_key() == HETERO.topology_hash()
        assert plain.spec_hash() != fleet.spec_hash()

    def test_placeholder_backend_requires_a_topology(self):
        with pytest.raises(ValueError, match="topology"):
            ExperimentSpec(
                "vector_addition", sizes=(1000,),
                backends=("atgpu", TOPOLOGY_BACKEND),
            )

    def test_resolved_backends_swaps_the_placeholder(self):
        spec = ExperimentSpec(
            "vector_addition", sizes=(1000,),
            backends=("atgpu", TOPOLOGY_BACKEND), topology=HETERO,
        )
        resolved = spec.resolved_backends()
        try:
            assert resolved[0] == "atgpu"
            assert resolved[1].startswith(f"{TOPOLOGY_BACKEND}-")
            assert resolved[1] in backend_names()
            plain = ExperimentSpec("vector_addition", sizes=(1000,))
            assert plain.resolved_backends() == plain.backends
        finally:
            unregister_backend(resolved[1])


class TestSessionTopology:
    def test_session_serves_the_placeholder_under_its_requested_name(
        self, tmp_path
    ):
        session = Session(cache_dir=tmp_path)
        spec = ExperimentSpec(
            "vector_addition",
            sizes=(100_000, 200_000),
            backends=("atgpu", TOPOLOGY_BACKEND),
            topology=HETERO,
        )
        result = session.run(spec)
        fleet = result.backend_series(TOPOLOGY_BACKEND)
        serial = result.backend_series("atgpu")
        # Three devices (one of them faster) beat the serial evaluation.
        assert np.all(fleet < serial)
        fresh = Session(cache_dir=tmp_path)
        cached = fresh.run(spec)
        assert fresh.cache_hits == 1
        assert np.array_equal(
            cached.backend_series(TOPOLOGY_BACKEND), fleet
        )

    def test_homogeneous_placeholder_matches_atgpu_multi_series(self):
        fleet_spec = ExperimentSpec(
            "vector_addition",
            sizes=(50_000, 150_000),
            backends=(TOPOLOGY_BACKEND,),
            topology=Topology.homogeneous(2),
        )
        multi_spec = fleet_spec.with_overrides(
            backends=("atgpu-multi",), topology=None
        )
        session = Session()
        fleet = session.run(fleet_spec).backend_series(TOPOLOGY_BACKEND)
        multi = session.run(multi_spec).backend_series("atgpu-multi")
        assert np.array_equal(fleet, multi)

    def test_predict_group_refuses_mixed_topologies(self):
        base = ExperimentSpec("vector_addition", sizes=(1000,))
        with pytest.raises(ValueError, match="topology"):
            predict_group([base, base.with_overrides(topology=HETERO)])


class TestServingTopologyKey:
    def _request(self, spec):
        return PredictionRequest(spec=spec, future=Future(), mode="predict")

    def test_key_carries_the_topology_discriminator_last(self):
        spec = ExperimentSpec(
            "vector_addition", sizes=(1000,), topology=HETERO
        )
        key = self._request(spec).key
        assert key == (
            "vector_addition", spec.preset, "predict",
            HETERO.topology_hash(),
        )

    def test_specs_differing_only_in_topology_do_not_coalesce(self):
        plain = ExperimentSpec("vector_addition", sizes=(1000,))
        fleet = plain.with_overrides(topology=HETERO)
        assert self._request(plain).key != self._request(fleet).key
        assert self._request(plain).key[:3] == self._request(fleet).key[:3]


class TestDevicePoolTopology:
    def test_homogeneous_topology_matches_the_plain_pool(self):
        config = DeviceConfig.gtx650()
        plain = DevicePool(4, config=config, contention=0.5)
        fleet = DevicePool(
            config=config, topology=Topology.homogeneous(4, 0.5)
        )
        assert plain.topology == fleet.topology
        words = 100_000
        assert fleet.link_stretch == plain.link_stretch
        for device in range(4):
            assert fleet.transfer_duration(
                words, TransferDirection.HOST_TO_DEVICE, device=device
            ) == plain.transfer_duration(
                words, TransferDirection.HOST_TO_DEVICE, device=device
            )

    def test_per_socket_stretches(self):
        pool = DevicePool(topology=NUMA_P2P)
        # Socket 0: two devices at contention 0.5 → stretch 1.5.
        assert pool.device_stretch(0) == pytest.approx(1.5)
        assert pool.device_stretch(1) == pytest.approx(1.5)
        # Socket 1: two devices at contention 0.2 → stretch 1.2.
        assert pool.device_stretch(2) == pytest.approx(1.2)
        assert pool.link_stretch == pytest.approx(1.5)

    def test_device_count_must_agree_with_the_topology(self):
        with pytest.raises(ValueError):
            DevicePool(3, topology=NUMA_P2P)
        assert DevicePool(4, topology=NUMA_P2P).num_devices == 4
        with pytest.raises(ValueError):
            DevicePool()
        with pytest.raises(TypeError):
            DevicePool(topology="fleet")

    def test_transfers_use_their_own_socket_stretch(self):
        pool = DevicePool(topology=NUMA_P2P)
        words = 50_000
        fast = pool.transfer_duration(
            words, TransferDirection.HOST_TO_DEVICE, device=2
        )
        slow = pool.transfer_duration(
            words, TransferDirection.HOST_TO_DEVICE, device=0
        )
        assert fast < slow
        pool.add_transfer(0, words, TransferDirection.HOST_TO_DEVICE)
        pool.add_transfer(2, words, TransferDirection.HOST_TO_DEVICE)
        spans = pool.device_makespans()
        assert spans[0] == pytest.approx(slow)
        assert spans[2] == pytest.approx(fast)

    def test_render_mentions_the_sockets(self):
        pool = DevicePool(topology=NUMA_P2P)
        assert "2 socket(s)" in pool.render()


def _run_sharded(algorithm, **fleet):
    device = GPUDevice(DeviceConfig.gtx650())
    return algorithm.run_sharded(
        device, algorithm.generate_input(1000), **fleet
    )


#: Every sharded entry point, called at n=1000 with the given fleet
#: arguments (``devices``/``contention``/``topology``).
SHARDED_ENTRY_POINTS = {
    "run_sharded": _run_sharded,
    "sim_shard_plan": lambda algorithm, **fleet: algorithm.sim_shard_plan(
        1000, DeviceConfig.gtx650(), **fleet
    ),
    "observe_sharded": lambda algorithm, **fleet: algorithm.observe_sharded(
        1000, **fleet
    ),
    "observe_sharded_sweep": (
        lambda algorithm, **fleet: algorithm.observe_sharded_sweep(
            [1000], **fleet
        )
    ),
    "simulate_sharded_sweep": (
        lambda algorithm, **fleet: simulate_sharded_sweep(
            algorithm, [1000], **fleet
        )
    ),
}


class TestFleetResolution:
    """``(devices, contention)`` and ``topology`` resolve in one place."""

    def test_pair_is_the_homogeneous_topology(self):
        assert resolve_fleet() == Topology.homogeneous(DEFAULT_SHARD_DEVICES)
        assert resolve_fleet(3) == Topology.homogeneous(3, 0.0)
        assert resolve_fleet(4, 0.5) == Topology.homogeneous(4, 0.5)
        assert resolve_fleet(topology=HETERO) is HETERO
        assert resolve_fleet(3, topology=HETERO) is HETERO
        pool = DevicePool(4, contention=0.5)
        assert pool.topology == Topology.homogeneous(4, 0.5)
        assert DevicePool(2).topology == Topology.homogeneous(2)
        run = VectorAddition().observe_sharded(1000)
        assert run.pool.topology == Topology.homogeneous(DEFAULT_SHARD_DEVICES)

    def test_devices_or_contention_beside_a_topology_raise(self):
        with pytest.raises(ValueError, match="devices=4"):
            VectorAddition().observe_sharded(10_000, devices=4, topology=HETERO)
        with pytest.raises(ValueError):
            VectorAddition().observe_sharded_sweep(
                [10_000], devices=8, contention=1.0,
                topology=Topology.homogeneous(2),
            )
        with pytest.raises(ValueError, match="contention"):
            DevicePool(topology=Topology.homogeneous(4, 0.0), contention=0.9)

    def test_any_contention_beside_a_topology_raises(self):
        with pytest.raises(ValueError, match="contention"):
            resolve_fleet(contention=0.0, topology=HETERO)
        with pytest.raises(ValueError, match="contention"):
            DevicePool(2, contention=0.0, topology=Topology.homogeneous(2))

    def test_pool_still_needs_devices_or_a_topology(self):
        with pytest.raises(ValueError, match="devices or a topology"):
            resolve_fleet(default_devices=None)
        with pytest.raises(TypeError):
            resolve_fleet(topology=HETERO.to_dict())

    @pytest.mark.parametrize("entry", sorted(SHARDED_ENTRY_POINTS))
    @pytest.mark.parametrize("algorithm_cls", [VectorAddition, Reduction])
    def test_entry_points_refuse_conflicting_fleet_arguments(
        self, entry, algorithm_cls
    ):
        call = SHARDED_ENTRY_POINTS[entry]
        algorithm = algorithm_cls()
        with pytest.raises(ValueError, match="devices=4"):
            call(algorithm, devices=4, topology=HETERO)
        with pytest.raises(ValueError, match="contention"):
            call(algorithm, contention=0.3, topology=HETERO)
        # A device count that repeats the topology's is accepted.
        call(algorithm, devices=HETERO.num_devices, topology=HETERO)


class TestShardedRunsWithTopology:
    def test_vector_addition_outputs_correct_on_the_hetero_fleet(self):
        algorithm = VectorAddition()
        inputs = algorithm.generate_input(10_000, seed=3)
        expected = algorithm.reference(inputs)
        device = GPUDevice(DeviceConfig.gtx650())
        result = algorithm.run_sharded(device, inputs, topology=HETERO)
        assert result.device_count == HETERO.num_devices
        assert np.array_equal(result.outputs["C"], expected["C"])

    def test_reduction_outputs_correct_on_the_hetero_fleet(self):
        algorithm = Reduction()
        inputs = algorithm.generate_input(50_000, seed=4)
        expected = algorithm.reference(inputs)
        result = algorithm.observe_sharded(50_000, seed=4, topology=HETERO)
        assert result.outputs["Ans"][0] == expected["Ans"][0]
        assert result.device_count == 3

    def test_faster_device_gets_the_wider_shard(self):
        algorithm = VectorAddition()
        result = algorithm.observe_sharded(120_000, topology=HETERO)
        pool = result.pool
        weights = HETERO.throughputs()
        bounds = plan_bounds(120_000, weights)
        widths = [hi - lo for lo, hi in bounds]
        assert widths[1] == max(widths)  # the gtx980 carries the most
        assert all(s > 0 for s in pool.device_makespans())

    def test_idle_devices_skipped_without_error(self):
        algorithm = VectorAddition()
        result = algorithm.observe_sharded(
            2, topology=Topology.homogeneous(5), seed=0
        )
        expected = algorithm.reference(algorithm.generate_input(2, seed=0))
        assert np.array_equal(result.outputs["C"], expected["C"])
        spans = result.device_makespans
        assert len(spans) == 5
        assert sum(1 for s in spans if s > 0) == 2

    def test_homogeneous_topology_run_matches_plain_run(self):
        algorithm = VectorAddition()
        plain = algorithm.observe_sharded(
            100_000, devices=4, contention=0.3, seed=1
        )
        fleet = algorithm.observe_sharded(
            100_000, topology=Topology.homogeneous(4, 0.3), seed=1
        )
        assert fleet.makespan_s == plain.makespan_s
        assert fleet.serial_time_s == plain.serial_time_s
