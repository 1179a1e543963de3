"""Tests for the abstract-GPU simulator (memory, scheduler, timing, device)."""

from __future__ import annotations

import json
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.transfer import TransferDirection
from repro.experiments import ExperimentSpec
from repro.simulator import (
    BlockContext,
    BlockScheduler,
    DeviceConfig,
    GPUDevice,
    GlobalMemory,
    InstructionKind,
    InstructionRecord,
    InvalidAccessError,
    KernelProgram,
    OutOfGlobalMemoryError,
    OutOfSharedMemoryError,
    SharedMemory,
    TimingEngine,
    TransferEngine,
    bank_conflict_degree,
    coalesced_transactions,
)
from repro.simulator.trace import BlockTrace, EventKind, Timeline


class TestCoalescing:
    def test_same_block_is_one_transaction(self):
        assert coalesced_transactions(np.arange(32), 32) == 1

    def test_two_blocks_are_two_transactions(self):
        assert coalesced_transactions(np.array([0, 32]), 32) == 2

    def test_strided_access_touches_many_blocks(self):
        assert coalesced_transactions(np.arange(0, 32 * 32, 32), 32) == 32

    def test_empty_access(self):
        assert coalesced_transactions(np.array([]), 32) == 0

    def test_negative_address_rejected(self):
        with pytest.raises(Exception):
            coalesced_transactions(np.array([-1]), 32)

    @given(st.lists(st.integers(min_value=0, max_value=10_000), min_size=1, max_size=64))
    def test_transactions_bounded_by_unique_addresses(self, addresses):
        transactions = coalesced_transactions(np.array(addresses), 32)
        assert 1 <= transactions <= len(set(addresses))


class TestBankConflicts:
    def test_distinct_banks_conflict_free(self):
        assert bank_conflict_degree(np.arange(32), 32) == 1

    def test_same_bank_serialises(self):
        assert bank_conflict_degree(np.array([0, 32, 64]), 32) == 3

    def test_broadcast_of_same_word_is_free(self):
        assert bank_conflict_degree(np.zeros(32, dtype=int), 32) == 1

    def test_stride_two_conflicts(self):
        degree = bank_conflict_degree(np.arange(0, 64, 2), 32)
        assert degree == 2


def block_context(memory, *arrays) -> BlockContext:
    """A one-block execution context over ``arrays`` of ``memory``."""
    return BlockContext(
        block_index=0,
        num_blocks=1,
        config=DeviceConfig.tiny_test_device(),
        global_memory=memory,
        arrays={array.name: array for array in arrays},
    )


class TestGlobalMemory:
    def test_allocation_and_capacity(self):
        memory = GlobalMemory(capacity_words=128, words_per_block=32)
        memory.allocate("a", 64)
        assert memory.used_words == 64
        assert memory.free_words == 64
        with pytest.raises(OutOfGlobalMemoryError):
            memory.allocate("b", 65)

    def test_free_and_coalesce(self):
        memory = GlobalMemory(capacity_words=128, words_per_block=32)
        memory.allocate("a", 64)
        memory.allocate("b", 64)
        memory.free("a")
        memory.free("b")
        assert memory.free_words == 128
        memory.allocate("c", 128)  # would fail without free-list coalescing

    def test_double_allocation_rejected(self):
        memory = GlobalMemory(64, 32)
        memory.allocate("a", 32)
        with pytest.raises(Exception):
            memory.allocate("a", 16)

    def test_unknown_free_rejected(self):
        memory = GlobalMemory(64, 32)
        with pytest.raises(Exception):
            memory.free("ghost")

    def test_warp_write_then_read_and_bounds(self):
        memory = GlobalMemory(128, 32)
        array = memory.allocate("a", 16, dtype=np.int64)
        ctx = block_context(memory, array)
        ctx.global_write("a", np.arange(4), np.array([5, 6, 7, 8]))
        assert list(ctx.global_read("a", np.arange(4))) == [5, 6, 7, 8]
        for bad in ([16], [-1]):
            with pytest.raises(InvalidAccessError):
                ctx.global_read("a", np.array(bad))
            with pytest.raises(InvalidAccessError):
                ctx.global_write("a", np.array([0, *bad]), np.array([1, 2]))
        # A rejected access moves no data and leaves no trace record.
        assert list(array.data[:4]) == [5, 6, 7, 8]
        assert len(ctx.trace.records) == 2

    def test_warp_access_transactions_respect_offset(self):
        memory = GlobalMemory(256, 32)
        memory.allocate("pad", 16)
        array = memory.allocate("a", 64)
        ctx = block_context(memory, array)
        # Array starts at word 16, so elements 0..15 and 16..47 straddle blocks.
        ctx.global_read("a", np.arange(32))
        ctx.global_write("a", np.arange(32), np.zeros(32))
        assert [r.transactions for r in ctx.trace.records] == [2, 2]


class TestSharedMemory:
    def test_capacity_enforced(self):
        shared = SharedMemory(capacity_words=64, num_banks=32)
        shared.allocate("_a", 48)
        with pytest.raises(OutOfSharedMemoryError):
            shared.allocate("_b", 32)

    def test_conflict_degree_uses_offset(self):
        shared = SharedMemory(capacity_words=128, num_banks=32)
        shared.allocate("_a", 32)
        assert shared.conflict_degree("_a", np.arange(32)) == 1

    def test_unknown_array(self):
        shared = SharedMemory(64, 32)
        with pytest.raises(Exception):
            shared.get("_ghost")


#: Values of no field's type, mixed into every field's strategy.
JUNK = st.one_of(
    st.none(), st.booleans(), st.text(max_size=3),
    st.lists(st.integers(-1, 2), max_size=2),
)

#: Per field: mostly valid values, near misses, out-of-range values, junk.
CONFIG_FIELDS = {
    f.name: st.one_of(
        st.integers(1, 64), st.integers(-1, 2**70), st.just(10**30), JUNK,
    ) if f.type == "int" else st.one_of(
        st.floats(0.5, 1e12), st.floats(), st.just(10**400), JUNK,
    )
    for f in fields(DeviceConfig)
}

#: Fields that used to construct and then fail late or silently:
#: ``clock_hz=inf`` collapsed kernel time to the launch overhead,
#: ``warp_width=10**30`` failed deep in NumPy, and ``num_sms=10**30``
#: made a 4,096-element vector addition take 2.1e23 s.
CONFIG_BOUNDARY_CASES = {
    "clock_hz=inf": {"clock_hz": float("inf")},
    "warp_width=10**30": {"warp_width": 10**30},
    "num_sms=10**30": {"num_sms": 10**30},
    "h2d_bandwidth=10**400": {"h2d_bandwidth_bytes_per_s": 10**400},
}


def with_config_examples(test):
    """Pin every boundary case as an explicit example of a ``payload`` test."""
    for case in reversed(list(CONFIG_BOUNDARY_CASES.values())):
        test = example(payload=case)(test)
    return test


class TestDeviceConfigBoundary:
    """Bad config fields fail where the config is built, typed."""

    @pytest.mark.parametrize(
        "case", list(CONFIG_BOUNDARY_CASES.values()),
        ids=list(CONFIG_BOUNDARY_CASES),
    )
    def test_each_boundary_case_raises_at_construction(self, case):
        with pytest.raises((TypeError, ValueError)):
            DeviceConfig(**case)
        with pytest.raises((TypeError, ValueError)):
            ExperimentSpec("vector_addition", device_config=case)

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(payload=st.fixed_dictionaries({}, optional=CONFIG_FIELDS))
    @with_config_examples
    def test_from_dict_raises_only_typed_errors(self, payload):
        try:
            config = DeviceConfig.from_dict(payload)
        except (TypeError, ValueError):
            return
        # What constructs realises a machine, round-trips and hashes.
        config.abstract_machine()
        rebuilt = DeviceConfig.from_dict(
            json.loads(json.dumps(config.to_dict()))
        )
        assert rebuilt == config
        assert {config: 1}[rebuilt] == 1


class TestTransferEngine:
    def test_duration_is_affine_in_words(self, tiny_config):
        engine = TransferEngine(tiny_config)
        d1 = engine.duration(1000, TransferDirection.HOST_TO_DEVICE)
        d2 = engine.duration(2000, TransferDirection.HOST_TO_DEVICE)
        streaming = d2 - d1
        assert d1 == pytest.approx(tiny_config.transfer_latency_s + streaming)

    def test_pinned_transfers_are_faster(self, tiny_config):
        engine = TransferEngine(tiny_config)
        assert (engine.duration(10_000, TransferDirection.HOST_TO_DEVICE, pinned=True)
                < engine.duration(10_000, TransferDirection.HOST_TO_DEVICE))

    def test_statistics_accumulate(self, tiny_config):
        engine = TransferEngine(tiny_config)
        engine.transfer(100, TransferDirection.HOST_TO_DEVICE)
        engine.transfer(50, TransferDirection.DEVICE_TO_HOST)
        assert engine.total_words() == 150
        assert engine.total_words(TransferDirection.HOST_TO_DEVICE) == 100
        assert engine.transaction_count() == 2
        assert engine.total_time() > 0

    def test_implied_boyer_parameters(self, tiny_config):
        engine = TransferEngine(tiny_config)
        alpha, beta = engine.implied_boyer_parameters()
        assert alpha == tiny_config.transfer_latency_s
        assert beta == pytest.approx(4 / tiny_config.h2d_bandwidth_bytes_per_s)

    def test_fractional_word_counts_are_rejected(self, tiny_config):
        engine = TransferEngine(tiny_config)
        with pytest.raises(ValueError):
            engine.transfer(1000.5, TransferDirection.HOST_TO_DEVICE)
        with pytest.raises(ValueError):
            engine.duration(0.25, TransferDirection.DEVICE_TO_HOST)
        with pytest.raises(TypeError):
            engine.transfer("12", TransferDirection.HOST_TO_DEVICE)
        # Nothing is recorded by a rejected transfer.
        assert engine.records == []

    def test_integral_floats_and_numpy_ints_are_accepted(self, tiny_config):
        import numpy as np

        engine = TransferEngine(tiny_config)
        from_float = engine.transfer(100.0, TransferDirection.HOST_TO_DEVICE)
        from_numpy = engine.transfer(
            np.int64(100), TransferDirection.HOST_TO_DEVICE
        )
        assert from_float.words == from_numpy.words == 100
        assert isinstance(from_float.words, int)
        assert from_float.duration_s == from_numpy.duration_s

    def test_zero_word_transfer_is_a_free_marker(self, tiny_config):
        """Matches the cost model: zero-word events cost nothing, not α."""
        engine = TransferEngine(tiny_config)
        assert engine.duration(0, TransferDirection.HOST_TO_DEVICE) == 0.0
        record = engine.transfer(0, TransferDirection.DEVICE_TO_HOST)
        assert record.duration_s == 0.0
        assert record.words == 0

    def test_record_and_duration_agree(self, tiny_config):
        """The recorded word count must be the one the duration was computed
        from, so the record's effective bandwidth is consistent."""
        engine = TransferEngine(tiny_config)
        record = engine.transfer(2000, TransferDirection.HOST_TO_DEVICE)
        assert record.duration_s == engine.duration(
            record.words, TransferDirection.HOST_TO_DEVICE
        )
        assert record.effective_bandwidth_bytes_per_s == pytest.approx(
            record.bytes / record.duration_s
        )
        assert engine.total_words() == 2000


class TestTimeline:
    def test_totals_add_in_order_like_the_clock(self):
        """Durations add left to right, as the clock and the array replays
        do; the builtin ``sum`` (compensated from Python 3.12) would give
        1.0000000000000002e16 here."""
        timeline = Timeline()
        for duration in (1e16, 1.0, 1.0):
            timeline.record(EventKind.KERNEL, "k", duration)
        assert timeline.kernel_time() == timeline.now == 1e16


class TestScheduler:
    def test_plan_matches_expression_two(self, tiny_config):
        scheduler = BlockScheduler(tiny_config)
        plan = scheduler.plan(num_blocks=40, shared_words_per_block=64)
        # ℓ = min(256 // 64, 4) = 4, concurrent = 8, waves = ceil(40/8) = 5.
        assert plan.blocks_per_sm == 4
        assert plan.concurrent_blocks == 8
        assert plan.waves == 5
        assert plan.blocks_in_last_wave == 8
        assert plan.occupancy == pytest.approx(1.0)

    def test_partial_last_wave(self, tiny_config):
        plan = BlockScheduler(tiny_config).plan(num_blocks=9, shared_words_per_block=64)
        assert plan.waves == 2
        assert plan.blocks_in_last_wave == 1
        assert plan.occupancy < 1.0

    def test_max_resident_blocks(self, tiny_config):
        scheduler = BlockScheduler(tiny_config)
        assert scheduler.max_resident_blocks(0) == tiny_config.num_sms * tiny_config.max_blocks_per_sm

    def test_ragged_last_wave_invariants_across_grid_sizes(self, tiny_config):
        """Sweep grid sizes and footprints: the final (possibly ragged) wave
        always runs at least one block, never more than a full wave, and the
        average occupancy stays within (0, 1]."""
        scheduler = BlockScheduler(tiny_config)
        for shared_words in (0, 16, 64, 128, 256):
            for num_blocks in range(1, 70):
                plan = scheduler.plan(num_blocks, shared_words)
                assert 1 <= plan.blocks_in_last_wave <= plan.concurrent_blocks
                assert 0.0 < plan.occupancy <= 1.0
                # The waves account exactly for the grid.
                full_waves = (plan.waves - 1) * plan.concurrent_blocks
                assert full_waves + plan.blocks_in_last_wave == num_blocks


class TestTimingEngine:
    def _trace(self, compute=10.0, transactions=2, words=8, shared=2, barriers=1):
        trace = BlockTrace(block_index=0, shared_words_used=16)
        trace.append(InstructionRecord(InstructionKind.COMPUTE, operations=compute))
        trace.append(InstructionRecord(InstructionKind.GLOBAL_READ,
                                       transactions=transactions, words=words))
        for _ in range(shared):
            trace.append(InstructionRecord(InstructionKind.SHARED_READ, words=4))
        for _ in range(barriers):
            trace.append(InstructionRecord(InstructionKind.BARRIER))
        return trace

    def test_timing_positive_and_bounded(self, tiny_config):
        engine = TimingEngine(tiny_config)
        timing = engine.kernel_timing("demo", [(self._trace(), 10)])
        assert timing.device_time_s > 0
        assert timing.total_time_s >= timing.device_time_s
        assert timing.plan.num_blocks == 10
        assert timing.limiting_factor in ("issue", "latency", "bandwidth")

    def test_more_blocks_take_longer(self, tiny_config):
        engine = TimingEngine(tiny_config)
        small = engine.kernel_timing("demo", [(self._trace(), 8)])
        large = engine.kernel_timing("demo", [(self._trace(), 80)])
        assert large.device_time_s > small.device_time_s

    def test_memory_heavy_kernel_is_not_issue_bound(self, tiny_config):
        engine = TimingEngine(tiny_config)
        heavy = self._trace(compute=0.0, transactions=64, words=256, shared=0, barriers=0)
        timing = engine.kernel_timing("demo", [(heavy, 4)])
        assert timing.limiting_factor in ("latency", "bandwidth")

    def test_requires_traces(self, tiny_config):
        with pytest.raises(ValueError):
            TimingEngine(tiny_config).kernel_timing("demo", [])

    @settings(max_examples=25)
    @given(st.integers(min_value=1, max_value=500))
    def test_monotone_in_block_count(self, blocks):
        config = DeviceConfig.tiny_test_device()
        engine = TimingEngine(config)
        trace = BlockTrace(block_index=0)
        trace.append(InstructionRecord(InstructionKind.COMPUTE, operations=5))
        trace.append(InstructionRecord(InstructionKind.GLOBAL_READ, transactions=1, words=4))
        t1 = engine.kernel_timing("demo", [(trace, blocks)]).device_time_s
        t2 = engine.kernel_timing("demo", [(trace, blocks + 1)]).device_time_s
        assert t2 >= t1


class _CopyKernel(KernelProgram):
    """Copies array ``src`` to ``dst`` one block at a time (test helper)."""

    name = "copy_kernel"

    def __init__(self, n, warp_width):
        self.n = n
        self.warp_width = warp_width

    def grid_size(self):
        return -(-self.n // self.warp_width)

    def array_names(self):
        return ("src", "dst")

    def run_block(self, ctx):
        start = ctx.block_index * self.warp_width
        count = min(self.warp_width, self.n - start)
        idx = start + np.arange(count)
        values = ctx.global_read("src", idx)
        ctx.compute(1.0)
        ctx.global_write("dst", idx, values)

    def vectorised_result(self, arrays):
        arrays["dst"].data[: self.n] = arrays["src"].data[: self.n]


class TestGPUDevice:
    def test_memcpy_roundtrip(self, tiny_device):
        data = np.arange(37)
        tiny_device.memcpy_htod("x", data)
        assert np.array_equal(tiny_device.memcpy_dtoh("x"), data)
        assert tiny_device.transfer_time_s > 0
        assert tiny_device.total_time_s == pytest.approx(
            tiny_device.transfer_time_s)

    def test_partial_copy_back(self, tiny_device):
        tiny_device.memcpy_htod("x", np.arange(16))
        head = tiny_device.memcpy_dtoh_partial("x", 4)
        assert list(head) == [0, 1, 2, 3]
        with pytest.raises(Exception):
            tiny_device.memcpy_dtoh_partial("x", 100)

    def test_functional_launch_copies_data(self, tiny_device):
        data = np.arange(25)
        tiny_device.memcpy_htod("src", data)
        tiny_device.allocate("dst", 25)
        record = tiny_device.launch(_CopyKernel(25, tiny_device.config.warp_width))
        assert record.functional
        assert np.array_equal(tiny_device.memcpy_dtoh("dst"), data)
        assert tiny_device.kernel_time_s > 0

    def test_sampled_launch_uses_vectorised_fallback(self, tiny_device):
        data = np.arange(101)
        tiny_device.memcpy_htod("src", data)
        tiny_device.allocate("dst", 101)
        record = tiny_device.launch(
            _CopyKernel(101, tiny_device.config.warp_width), force_functional=False)
        assert not record.functional
        assert np.array_equal(tiny_device.memcpy_dtoh("dst"), data)

    def test_functional_and_sampled_timings_agree_for_uniform_kernels(self, tiny_config):
        n = 16 * tiny_config.warp_width
        functional_device = GPUDevice(tiny_config)
        sampled_device = GPUDevice(tiny_config)
        for device, force in ((functional_device, True), (sampled_device, False)):
            device.memcpy_htod("src", np.arange(n))
            device.allocate("dst", n)
            device.launch(_CopyKernel(n, tiny_config.warp_width), force_functional=force)
        assert functional_device.kernel_time_s == pytest.approx(
            sampled_device.kernel_time_s, rel=1e-9)

    def test_launch_with_missing_array_raises(self, tiny_device):
        with pytest.raises(Exception, match="dst|src"):
            tiny_device.launch(_CopyKernel(8, tiny_device.config.warp_width))

    def test_synchronise_accumulates(self, tiny_device):
        tiny_device.synchronise()
        tiny_device.synchronise()
        assert tiny_device.sync_time_s == pytest.approx(
            2 * tiny_device.config.sync_overhead_s)

    def test_reset_timers_keeps_memory(self, tiny_device):
        tiny_device.memcpy_htod("x", np.arange(8))
        tiny_device.reset_timers()
        assert tiny_device.total_time_s == 0.0
        assert np.array_equal(tiny_device.array("x").to_host(), np.arange(8))

    def test_profile_render(self, tiny_device):
        tiny_device.memcpy_htod("x", np.arange(8))
        tiny_device.synchronise()
        text = tiny_device.profile()
        assert "H2D x" in text and "sync" in text

    def test_abstract_machine_link(self, tiny_config):
        machine = tiny_config.abstract_machine()
        assert machine.b == tiny_config.warp_width
        assert machine.M == tiny_config.shared_memory_words
        assert machine.G == tiny_config.global_memory_words
