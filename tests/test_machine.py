"""Unit tests for the ATGPU abstract machine and its metrics containers."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.core.machine import ATGPUMachine
from repro.core.metrics import (
    AlgorithmMetrics,
    CapacityError,
    MetricsBuilder,
    RoundMetrics,
)


class TestATGPUMachine:
    def test_k_is_p_over_b(self, machine):
        assert machine.k == machine.p // machine.b == 2

    def test_b_must_divide_p(self):
        with pytest.raises(ValueError, match="divide"):
            ATGPUMachine(p=70, b=32, M=1024, G=4096)

    def test_positive_parameters_required(self):
        with pytest.raises(ValueError):
            ATGPUMachine(p=0, b=32, M=1024, G=4096)

    def test_shared_memory_at_least_one_bank_row(self):
        with pytest.raises(ValueError, match="M"):
            ATGPUMachine(p=32, b=32, M=16, G=4096)

    def test_global_memory_at_least_one_block(self):
        with pytest.raises(ValueError, match="G"):
            ATGPUMachine(p=32, b=32, M=1024, G=16)

    def test_derived_aliases(self, machine):
        assert machine.warp_width == machine.b
        assert machine.shared_memory_banks == machine.b
        assert machine.words_per_block == machine.b
        assert machine.num_multiprocessors == machine.k

    def test_global_memory_blocks(self, machine):
        assert machine.global_memory_blocks == machine.G // machine.b

    def test_capacity_checks(self, machine):
        assert machine.fits_in_global_memory(machine.G)
        assert not machine.fits_in_global_memory(machine.G + 1)
        assert machine.fits_in_shared_memory(machine.M)
        assert not machine.fits_in_shared_memory(machine.M + 1)

    def test_capacity_check_rejects_negative(self, machine):
        with pytest.raises(ValueError):
            machine.fits_in_global_memory(-1)

    def test_blocks_for_words(self, machine):
        assert machine.blocks_for_words(0) == 0
        assert machine.blocks_for_words(1) == 1
        assert machine.blocks_for_words(machine.b) == 1
        assert machine.blocks_for_words(machine.b + 1) == 2

    def test_block_of_address(self, machine):
        assert machine.block_of_address(0) == 0
        assert machine.block_of_address(machine.b) == 1

    def test_block_of_address_out_of_range(self, machine):
        with pytest.raises(ValueError):
            machine.block_of_address(machine.G)

    def test_bank_of_address_rotates(self, machine):
        assert machine.bank_of_address(0) == 0
        assert machine.bank_of_address(machine.b + 3) == 3

    def test_thread_blocks_for(self, machine):
        assert machine.thread_blocks_for(1) == 1
        assert machine.thread_blocks_for(machine.b * 5) == 5
        assert machine.thread_blocks_for(machine.b * 5 + 1) == 6

    def test_describe_mentions_parameters(self, machine):
        text = machine.describe()
        assert str(machine.p) in text and str(machine.G) in text

    @given(st.integers(min_value=1, max_value=64), st.integers(min_value=1, max_value=64))
    def test_k_times_b_is_p(self, k, b):
        machine = ATGPUMachine(p=k * b, b=b, M=max(b, 64), G=max(b, 1024))
        assert machine.k == k


class TestRoundMetrics:
    def test_transfer_aggregates(self):
        metrics = RoundMetrics(time=3, io_blocks=5, inward_words=100,
                               outward_words=50, inward_transactions=2,
                               outward_transactions=1)
        assert metrics.transfer_words == 150
        assert metrics.transfer_transactions == 3

    def test_words_without_transactions_rejected(self):
        with pytest.raises(ValueError):
            RoundMetrics(time=1, io_blocks=1, inward_words=10, inward_transactions=0)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            RoundMetrics(time=-1, io_blocks=0)

    def test_with_label(self):
        metrics = RoundMetrics(time=1, io_blocks=2)
        labelled = metrics.with_label("round 1")
        assert labelled.label == "round 1"
        assert labelled.time == metrics.time


class TestAlgorithmMetrics:
    def _rounds(self):
        return [
            RoundMetrics(time=3, io_blocks=4, inward_words=64, inward_transactions=1,
                         global_words=128, shared_words_per_mp=32, thread_blocks=2),
            RoundMetrics(time=5, io_blocks=2, outward_words=1, outward_transactions=1,
                         global_words=64, shared_words_per_mp=16, thread_blocks=1),
        ]

    def test_aggregates(self):
        metrics = AlgorithmMetrics(self._rounds(), name="demo")
        assert metrics.num_rounds == 2
        assert metrics.total_time == 8
        assert metrics.total_io_blocks == 6
        assert metrics.total_inward_words == 64
        assert metrics.total_outward_words == 1
        assert metrics.total_transfer_words == 65
        assert metrics.total_transfer_transactions == 2
        assert metrics.max_global_words == 128
        assert metrics.max_shared_words_per_mp == 32
        assert metrics.max_thread_blocks == 2

    def test_iteration_and_indexing(self):
        metrics = AlgorithmMetrics(self._rounds())
        assert len(metrics) == 2
        assert metrics[0].time == 3
        assert [r.time for r in metrics] == [3, 5]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            AlgorithmMetrics([])

    def test_validate_against_global_limit(self, machine):
        rounds = [RoundMetrics(time=1, io_blocks=1, global_words=machine.G + 1)]
        with pytest.raises(CapacityError, match="global"):
            AlgorithmMetrics(rounds).validate_against(machine)

    def test_validate_against_shared_limit(self, machine):
        rounds = [RoundMetrics(time=1, io_blocks=1,
                               shared_words_per_mp=machine.M + 1)]
        with pytest.raises(CapacityError, match="shared"):
            AlgorithmMetrics(rounds).validate_against(machine)

    def test_runs_on(self, machine):
        ok = AlgorithmMetrics([RoundMetrics(time=1, io_blocks=1)])
        too_big = AlgorithmMetrics(
            [RoundMetrics(time=1, io_blocks=1, global_words=machine.G + 1)]
        )
        assert ok.runs_on(machine)
        assert not too_big.runs_on(machine)


class TestMetricsBuilder:
    def test_accumulation(self):
        builder = MetricsBuilder(label="demo")
        builder.add_operations(3)
        builder.add_io(7)
        builder.add_inward(100, transactions=2)
        builder.add_outward(10)
        builder.use_global(500)
        builder.use_global(400)  # max is kept
        builder.use_shared(64)
        builder.set_thread_blocks(9)
        metrics = builder.build()
        assert metrics.time == 3
        assert metrics.io_blocks == 7
        assert metrics.inward_words == 100
        assert metrics.inward_transactions == 2
        assert metrics.outward_words == 10
        assert metrics.outward_transactions == 1
        assert metrics.global_words == 500
        assert metrics.shared_words_per_mp == 64
        assert metrics.thread_blocks == 9
        assert metrics.label == "demo"

    def test_negative_rejected(self):
        builder = MetricsBuilder()
        with pytest.raises(ValueError):
            builder.add_operations(-1)

    @given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=20))
    def test_operations_sum_property(self, ops):
        builder = MetricsBuilder()
        for op in ops:
            builder.add_operations(op)
        builder.add_io(1)
        assert builder.build().time == pytest.approx(sum(ops))
