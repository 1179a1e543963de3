"""Bit-for-bit parity of the batched simulator and mergeable spec groups.

The batched observation paths (:mod:`repro.simulator.batch`) promise
**exact** float equality with the per-size ``observe`` /
``observe_streamed`` / ``observe_sharded`` calls — every test here
compares with ``==``, never with a tolerance.  ``observe(n)`` runs the
algorithm's real host program on a :class:`GPUDevice`, so it is an
independent scalar reference; the single-chunk and single-device schedules
are checked against it too.  The mergeable group planner
(:func:`repro.experiments.session.plan_groups`) promises the same for
scattered union-batch predictions.
"""

from concurrent.futures import Future
from dataclasses import replace

import numpy as np
import pytest

from repro.algorithms import create
from repro.core.presets import PRESETS, get_preset
from repro.core.topology import Topology
from repro.experiments import ExperimentSpec, mergeable, plan_groups, predict_group
from repro.serving.policies import FIFOPolicy
from repro.serving.queue import PredictionRequest, RequestQueue
from repro.simulator.batch import (
    ProbeDevice,
    simulate_sharded_sweep,
    simulate_streamed_sweep,
    simulate_sweep,
)
from repro.simulator.config import DeviceConfig
from repro.simulator.functional import FunctionalEngine
from repro.simulator import kernel
from repro.simulator.kernel import BlockContext
from repro.simulator.timing import TimingEngine
from repro.simulator.trace import BlockTrace
from repro.workloads import PAPER_SWEEPS

#: Every registered algorithm appears here by name so the SIM001 lint rule
#: (and a human reader) can see the parity net has no holes.
ALL_ALGORITHMS = [
    "vector_addition",
    "reduction",
    "prefix_sum",
    "stencil_1d",
    "matrix_multiplication",
    "histogram",
    "spmv",
]

#: Sweep sizes per device config; matmul sizes are matrix dims, so smaller.
SIZES = {"gtx650": [5, 33, 64], "tiny": [5, 33, 64]}
MATMUL_SIZES = {"gtx650": [32, 64], "tiny": [4, 8]}

CONFIGS = {
    "gtx650": DeviceConfig.gtx650,
    "tiny": DeviceConfig.tiny_test_device,
}


def sweep_sizes(name: str, config_name: str) -> list:
    table = MATMUL_SIZES if name == "matrix_multiplication" else SIZES
    return table[config_name]


def observed(algorithm, sizes, config=None) -> list:
    """The per-size ``observe`` loop: the scalar reference of a sweep."""
    return [algorithm.observe(n, config=config) for n in sizes]


class TestSweepParity:
    """observe_sweep == the per-size observe loop, bit for bit."""

    @pytest.mark.parametrize("config_name", sorted(CONFIGS))
    @pytest.mark.parametrize("name", ALL_ALGORITHMS)
    def test_batch_equals_scalar_bit_for_bit(self, name, config_name):
        algorithm = create(name)
        config = CONFIGS[config_name]()
        sizes = sweep_sizes(name, config_name)
        scalar = observed(algorithm, sizes, config=config)
        batch = algorithm.observe_sweep(sizes, config=config)
        assert batch.total_times == [r.total_time_s for r in scalar]
        assert batch.kernel_times == [r.kernel_time_s for r in scalar]
        assert batch.transfer_times == [r.transfer_time_s for r in scalar]

    @pytest.mark.parametrize("name,sizes", [
        ("vector_addition", [200000, 300001]),
        ("reduction", [300000]),
        ("matrix_multiplication", [64, 96]),
    ])
    def test_sampled_path_parity(self, name, sizes):
        # Large grids take the representative-block sampled path; the
        # probe must replicate the scalar launch decision exactly.
        algorithm = create(name)
        scalar = observed(algorithm, sizes)
        batch = algorithm.observe_sweep(sizes)
        assert batch.total_times == [r.total_time_s for r in scalar]

    def test_degenerate_single_size_sweep(self):
        algorithm = create("vector_addition")
        (scalar,) = observed(algorithm, [64])
        batch = algorithm.observe_sweep([64])
        assert batch.total_times == [scalar.total_time_s]
        assert batch.sizes == [scalar.input_size]

    def test_simulate_sweep_direct(self):
        algorithm = create("histogram")
        observation = simulate_sweep(algorithm, [5, 33])
        assert observation.sizes == [5, 33]
        assert all(t > 0.0 for t in observation.total_times)


class TestStreamedShardedParity:
    """Plan-replay parity for the overlapped and sharded observations."""

    @pytest.mark.parametrize("chunks", [2, 3])
    @pytest.mark.parametrize("name", ["vector_addition", "reduction"])
    def test_streamed_parity(self, name, chunks):
        algorithm = create(name)
        sizes = [5, 33, 64, 1000, 4097]
        scalar = [algorithm.observe_streamed(n, chunks=chunks) for n in sizes]
        batch = algorithm.observe_streamed_sweep(sizes, chunks=chunks)
        assert batch.makespans_s == [r.makespan_s for r in scalar]
        assert batch.serial_times_s == [r.serial_time_s for r in scalar]

    @pytest.mark.parametrize("name", ["vector_addition", "reduction"])
    def test_streamed_pinned_parity(self, name):
        algorithm = create(name)
        scalar = [
            algorithm.observe_streamed(n, pinned=True) for n in [33, 1000]
        ]
        batch = algorithm.observe_streamed_sweep([33, 1000], pinned=True)
        assert batch.makespans_s == [r.makespan_s for r in scalar]

    @pytest.mark.parametrize("kwargs", [
        {"devices": 2},
        {"devices": 3, "contention": 0.4},
        {"topology": Topology.homogeneous(3, contention=0.5)},
    ])
    @pytest.mark.parametrize("name", ["vector_addition", "reduction"])
    def test_sharded_parity(self, name, kwargs):
        algorithm = create(name)
        sizes = [5, 33, 64, 1000, 4097]
        scalar = [algorithm.observe_sharded(n, **kwargs) for n in sizes]
        batch = algorithm.observe_sharded_sweep(sizes, **kwargs)
        assert batch.makespans_s == [r.makespan_s for r in scalar]
        assert batch.serial_times_s == [r.serial_time_s for r in scalar]
        assert all(batch.device_count == r.device_count for r in scalar)

    def test_simulate_streamed_sweep_direct_parity(self):
        # The entry point itself (not just the observe_* façade) must be
        # bit-for-bit equal to the scalar per-size loop.
        algorithm = create("vector_addition")
        sizes = [33, 1000]
        batch = simulate_streamed_sweep(algorithm, sizes, chunks=3)
        per_size = [algorithm.observe_streamed(n, chunks=3) for n in sizes]
        assert batch.makespans_s == [r.makespan_s for r in per_size]
        assert batch.serial_times_s == [r.serial_time_s for r in per_size]

    def test_simulate_sharded_sweep_direct_parity(self):
        algorithm = create("reduction")
        sizes = [33, 1000]
        batch = simulate_sharded_sweep(
            algorithm, sizes, devices=3, contention=0.4
        )
        per_size = [
            algorithm.observe_sharded(n, devices=3, contention=0.4)
            for n in sizes
        ]
        assert batch.makespans_s == [r.makespan_s for r in per_size]
        assert batch.serial_times_s == [r.serial_time_s for r in per_size]


class TestDegenerateScheduleOracle:
    """One chunk and one device degenerate to the plain ``observe`` run.

    ``observe(n)`` executes the algorithm's host program on a
    :class:`GPUDevice`, independently of the stream and shard plans, so
    equality here checks each schedule against a separate implementation
    rather than against its own replay.  1,000 elements take the
    functional (every block executed) launch path; 200,000 the sampled one.
    The plans time each kernel under the launch decision ``run`` makes, so
    this holds on every device preset, including those whose per-block
    cycle counts are not integers.
    """

    @staticmethod
    def _assert_degenerate(algorithm, n, config=None):
        total = algorithm.observe(n, config=config).total_time_s
        assert algorithm.observe_streamed(
            n, config=config, chunks=1
        ).makespan_s == total
        assert algorithm.observe_sharded(
            n, config=config, devices=1
        ).makespan_s == total
        assert algorithm.observe_streamed_sweep(
            [n], config=config, chunks=1
        ).makespans_s == [total]
        assert algorithm.observe_sharded_sweep(
            [n], config=config, devices=1
        ).makespans_s == [total]

    @pytest.mark.parametrize("n", [1_000, 200_000])
    @pytest.mark.parametrize("name", ["vector_addition", "reduction"])
    def test_single_chunk_and_device_equal_observe_bit_for_bit(self, name, n):
        self._assert_degenerate(create(name), n)

    @pytest.mark.parametrize("preset, n", [
        ("gtx980", 1_000),
        ("gtx980", 200_000),
        ("tesla_k40", 1_000),
        # A tesla_k40 block's exposed latency is 5/6 * 500 cycles, so
        # summing it block by block and weighting it by the block count
        # differ in the last bit at these functional sizes.
        ("tesla_k40", 33_725),
        ("tesla_k40", 131_071),
        ("tesla_k40", 200_000),
        ("tiny_test_device", 1),
        ("tiny_test_device", 1_000),
    ])
    @pytest.mark.parametrize("name", ["vector_addition", "reduction"])
    def test_every_preset_equals_observe_bit_for_bit(self, name, preset, n):
        self._assert_degenerate(
            create(name), n, getattr(DeviceConfig, preset)()
        )


class TestProbeWorkCounts:
    """Each block class is traced once and timed once.

    Tracing each class once is what makes ``observe_sweep`` fast for the
    index-only algorithms (``sim_trace_data_dependent = False``), and
    summing a functional launch's classes as runs of blocks
    (``TimingEngine.launch_totals``) keeps the timing from walking every
    block again.  Over each Section IV sweep, and over reduction's streamed
    and sharded schedules of it, the blocks traced and the per-block timing
    evaluations (``block_issue_cycles`` calls) must both equal the class
    representatives exactly.  Executing every block of a functional launch
    again multiplies the first count (reduction: 91 -> 18,531); expanding
    each class into one pair per block multiplies the second (reduction
    streamed: 157 -> 43,145) while every simulated time stays the same.
    Within each traced matrix-multiplication block, a tile is staged in one
    call, each tile pattern is analysed once, and only barriers and compute
    append single records.
    """

    #: Blocks traced, and timing evaluations, per Section IV sweep.
    EXPECTED_BLOCKS = {
        "vector_addition": 20,
        "reduction": 91,
        "matrix_multiplication": 19,
        "prefix_sum": 133,
        "stencil_1d": 64,
    }

    #: The same for reduction's schedules of its sweep, as explore runs them.
    EXPECTED_SCHEDULE_BLOCKS = {"streamed": 157, "sharded": 81}

    @staticmethod
    def _counts(monkeypatch, name, run) -> dict:
        """Blocks traced, timing evaluations and class representatives of
        ``run(algorithm, sizes)`` over ``name``'s Section IV sweep."""
        algorithm = create(name)
        assert algorithm.sim_trace_data_dependent is False
        counts = {"executed": 0, "timed": 0, "representatives": 0}
        execute_block = FunctionalEngine.execute_block
        execute_sampled = FunctionalEngine.execute_sampled
        issue_cycles = TimingEngine.block_issue_cycles

        def counted_block(self, kernel, block_index):
            counts["executed"] += 1
            return execute_block(self, kernel, block_index)

        def counted_sampled(self, kernel):
            counts["representatives"] += len(kernel.representative_blocks())
            return execute_sampled(self, kernel)

        def counted_issue(self, trace):
            counts["timed"] += 1
            return issue_cycles(self, trace)

        monkeypatch.setattr(FunctionalEngine, "execute_block", counted_block)
        monkeypatch.setattr(
            FunctionalEngine, "execute_sampled", counted_sampled
        )
        monkeypatch.setattr(TimingEngine, "block_issue_cycles", counted_issue)
        sweep = PAPER_SWEEPS.get(name)
        run(algorithm, sweep.sizes if sweep else algorithm.default_sizes())
        assert counts["executed"] == counts["representatives"]
        assert counts["timed"] == counts["representatives"]
        return counts

    @pytest.mark.parametrize("name", sorted(EXPECTED_BLOCKS))
    def test_observe_sweep_executes_one_block_per_class(self, name,
                                                         monkeypatch):
        counts = self._counts(
            monkeypatch, name,
            lambda algorithm, sizes: algorithm.observe_sweep(sizes),
        )
        assert counts["executed"] == self.EXPECTED_BLOCKS[name]
        assert counts["timed"] == self.EXPECTED_BLOCKS[name]

    #: Matrix multiplication's calls and records over its Section IV
    #: sweep (19 traced blocks, 293 k-tiles): each k-tile stages its two
    #: tiles in one call each and each block writes its tile back in one,
    #: with a record per barrier and per compute.  Staging row by row made
    #: 38,720 per-warp access calls and 39,599 records.  Each block
    #: analyses its three tile patterns (A's, B's and C's) once: the other
    #: 548 staging calls repeat a pattern at a new base and reuse its
    #: analysis.  Analysing every call made 605 analyses.
    EXPECTED_MATMUL_CALLS = {
        "global_read": 0,
        "shared_write": 0,
        "shared_read": 0,
        "global_write": 0,
        "global_to_shared": 586,
        "shared_to_global": 19,
        "records": 879,
        "tile_analyses": 57,
    }

    def test_matrix_multiplication_stages_each_tile_in_one_call(
        self, monkeypatch
    ):
        calls = dict.fromkeys(self.EXPECTED_MATMUL_CALLS, 0)

        def counted(key, method):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return method(*args, **kwargs)
            return wrapper

        for name in ("global_read", "shared_write", "shared_read",
                     "global_write", "global_to_shared", "shared_to_global"):
            monkeypatch.setattr(
                BlockContext, name, counted(name, getattr(BlockContext, name))
            )
        monkeypatch.setattr(
            BlockTrace, "append", counted("records", BlockTrace.append)
        )
        monkeypatch.setattr(
            kernel, "_TileAnalysis",
            counted("tile_analyses", kernel._TileAnalysis),
        )
        counts = self._counts(
            monkeypatch, "matrix_multiplication",
            lambda algorithm, sizes: algorithm.observe_sweep(sizes),
        )
        assert counts["executed"] == self.EXPECTED_BLOCKS["matrix_multiplication"]
        assert calls == self.EXPECTED_MATMUL_CALLS

    @pytest.mark.parametrize("schedule, run", [
        ("streamed", lambda algorithm, sizes: algorithm.observe_streamed_sweep(
            sizes, chunks=4
        )),
        ("sharded", lambda algorithm, sizes: algorithm.observe_sharded_sweep(
            sizes, devices=4
        )),
    ], ids=["streamed", "sharded"])
    def test_schedules_trace_and_time_one_block_per_class(
        self, schedule, run, monkeypatch
    ):
        counts = self._counts(monkeypatch, "reduction", run)
        assert counts["executed"] == self.EXPECTED_SCHEDULE_BLOCKS[schedule]
        assert counts["timed"] == self.EXPECTED_SCHEDULE_BLOCKS[schedule]


class TestProbeDevice:
    def test_probe_replays_launch_decisions(self):
        algorithm = create("vector_addition")
        device = ProbeDevice(DeviceConfig.gtx650(), data_dependent=False)
        algorithm.run(device, algorithm.sim_inputs(64))
        kinds = [type(op).__name__ for op in device.ops]
        assert kinds.count("ProbeTransfer") == 3  # a, b in; c out
        assert kinds.count("ProbeKernel") == 1
        assert kinds.count("ProbeSync") == 1


@pytest.fixture
def twin_preset(monkeypatch):
    """Registers gtx650's machine under another name for one test."""

    def register(name):
        preset = replace(get_preset("gtx650"), name=name)
        monkeypatch.setitem(PRESETS, name, preset)
        return preset

    return register


class TestMergeableGroups:
    def test_same_machine_presets_merge(self, twin_preset):
        twin_preset("gtx650-parity-twin")
        a = ExperimentSpec("vector_addition", sizes=[64], preset="gtx650")
        b = ExperimentSpec(
            "vector_addition", sizes=[128], preset="gtx650-parity-twin"
        )
        assert mergeable(a, b)
        assert plan_groups([a, b]) == [[0, 1]]

    def test_rejects_other_algorithm_or_machine(self):
        a = ExperimentSpec("vector_addition", sizes=[64])
        b = ExperimentSpec("reduction", sizes=[64])
        c = ExperimentSpec("vector_addition", sizes=[64], preset="gtx1080")
        assert not mergeable(a, b)
        assert not mergeable(a, c)
        assert plan_groups([a, b, c]) == [[0], [1], [2]]

    def test_rejects_mixed_topologies(self):
        a = ExperimentSpec("vector_addition", sizes=[64])
        b = a.with_overrides(topology=Topology.homogeneous(2))
        assert not mergeable(a, b)

    def test_predict_group_refuses_unmergeable(self):
        a = ExperimentSpec("vector_addition", sizes=[64])
        b = ExperimentSpec("vector_addition", sizes=[64], preset="gtx1080")
        with pytest.raises(ValueError, match="mergeable"):
            predict_group([a, b])

    def test_union_batch_scatter_parity(self, twin_preset):
        # A merged group's scattered predictions equal isolated evaluation
        # bit for bit, preset names notwithstanding.
        twin_preset("gtx650-parity-twin")
        a = ExperimentSpec("vector_addition", sizes=[64, 128], preset="gtx650")
        b = ExperimentSpec(
            "vector_addition", sizes=[128, 256], preset="gtx650-parity-twin"
        )
        merged = predict_group([a, b])
        for index, spec in enumerate([a, b]):
            solo = predict_group([spec])[0]
            assert merged[index].series.keys() == solo.series.keys()
            for backend in solo.series:
                assert np.array_equal(
                    merged[index].series[backend], solo.series[backend]
                )


class TestRequestQueueMerging:
    def _put(self, queue, spec, mode="predict"):
        request = PredictionRequest(spec=spec, future=Future(), mode=mode)
        queue.put(request)
        return request

    @pytest.fixture
    def twin_spec(self, twin_preset):
        twin_preset("gtx650-queue-twin")
        return ExperimentSpec(
            "vector_addition", sizes=[128], preset="gtx650-queue-twin"
        )

    def test_take_merges_mergeable_keys(self, twin_spec):
        queue = RequestQueue()
        first = self._put(
            queue, ExperimentSpec("vector_addition", sizes=[64])
        )
        rider = self._put(queue, twin_spec)
        other = self._put(queue, ExperimentSpec("reduction", sizes=[64]))
        group = queue.take(FIFOPolicy())
        assert {r.request_id for r in group.requests} == {
            first.request_id, rider.request_id,
        }
        assert queue.depth == 1  # the reduction request stays pending
        leftover = queue.take(FIFOPolicy())
        assert leftover.requests == (other,)

    def test_take_keeps_modes_apart(self, twin_spec):
        queue = RequestQueue()
        self._put(queue, ExperimentSpec("vector_addition", sizes=[64]))
        self._put(queue, twin_spec, mode="result")
        group = queue.take(FIFOPolicy())
        assert len(group.requests) == 1
