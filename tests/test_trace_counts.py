"""Oracles for the simulator's per-access counts, per-block and launch totals.

``GPUDevice`` (the oracle of the batched probe) and ``ProbeDevice`` share
``coalesced_transactions``, ``bank_conflict_degree``, ``BlockTrace``'s
running totals and ``TimingEngine.launch_totals``, so no parity test
between the two paths can catch an error in them.  Each is checked here
against a brute-force definition on generated inputs: warps of 0-64 lanes
with duplicates, strides and large addresses, record sequences read part
way through, and launches of block classes whose per-block values are not
binary fractions, so the order of every float sum shows in its last bits.
The examples are derandomized, so tier-1 runs the same profile every time.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.simulator.config import DeviceConfig
from repro.simulator.errors import InvalidAccessError
from repro.simulator.memory import bank_conflict_degree, coalesced_transactions
from repro.simulator.timing import TimingEngine
from repro.simulator.trace import BlockTrace, InstructionKind, InstructionRecord

PROFILE = settings(derandomize=True, max_examples=100, deadline=None)

#: Largest generated address: large, yet every strided warp fits int64.
TOP_ADDRESS = (1 << 62) - 1


@st.composite
def strided_warps(draw):
    """``base + lane * stride`` plus a small jitter, lanes shuffled."""
    lanes = draw(st.integers(0, 64))
    base = draw(st.sampled_from([0, 1 << 32, 1 << 61, TOP_ADDRESS - 9_000]))
    base += draw(st.integers(0, 4_096))
    stride = draw(st.integers(0, 66))
    jitter = draw(st.lists(
        st.integers(0, 3), min_size=lanes, max_size=lanes,
    ))
    addresses = [base + lane * stride + j for lane, j in enumerate(jitter)]
    return draw(st.permutations(addresses))


#: Warp accesses as lists of non-negative addresses.
WARPS = st.one_of(
    strided_warps(),
    st.lists(st.integers(0, 200), max_size=64),
    st.lists(st.integers(0, TOP_ADDRESS), max_size=64),
)


def transactions_by_definition(addresses, words_per_block) -> int:
    """Blocks touched: each address not sharing a block with an earlier one."""
    return sum(
        1 for i, address in enumerate(addresses)
        if all(
            address // words_per_block != earlier // words_per_block
            for earlier in addresses[:i]
        )
    )


def conflict_degree_by_definition(addresses, num_banks) -> int:
    """Most distinct words in one bank; an empty access is conflict free."""
    words = set(addresses)
    return max(
        [sum(1 for word in words if word % num_banks == bank)
         for bank in range(num_banks)] + [1]
    )


class TestWarpAccessCounts:
    @PROFILE
    @given(WARPS, st.sampled_from([1, 2, 4, 32, 33, 100]))
    def test_coalesced_transactions_match_definition(
        self, addresses, words_per_block
    ):
        warp = np.array(addresses, dtype=np.int64)
        assert coalesced_transactions(warp, words_per_block) == \
            transactions_by_definition(addresses, words_per_block)

    @PROFILE
    @given(WARPS, st.sampled_from([1, 2, 4, 16, 32, 33]))
    def test_bank_conflict_degree_matches_definition(self, addresses, num_banks):
        warp = np.array(addresses, dtype=np.int64)
        assert bank_conflict_degree(warp, num_banks) == \
            conflict_degree_by_definition(addresses, num_banks)

    def test_empty_and_broadcast_rules(self):
        empty = np.array([], dtype=np.int64)
        assert coalesced_transactions(empty, 32) == 0
        assert bank_conflict_degree(empty, 32) == 1
        broadcast = np.full(32, 7, dtype=np.int64)
        assert coalesced_transactions(broadcast, 32) == 1
        assert bank_conflict_degree(broadcast, 32) == 1

    @pytest.mark.parametrize(
        "count", [coalesced_transactions, bank_conflict_degree]
    )
    def test_negative_address_and_bad_width_rejected(self, count):
        with pytest.raises(InvalidAccessError):
            count(np.array([0, 5, -1], dtype=np.int64), 32)
        with pytest.raises(ValueError):
            count(np.array([0, 5], dtype=np.int64), 0)


#: Record fields that vary by kind.  Compute operations are quarter
#: multiples, so every partial sum is exact and the definition's ``sum``
#: agrees with a running total on any Python version.
RECORDS = st.builds(
    InstructionRecord,
    kind=st.sampled_from(list(InstructionKind)),
    operations=st.integers(0, 256).map(lambda quarters: quarters / 4),
    transactions=st.integers(0, 40),
    words=st.integers(0, 64),
    conflict_degree=st.one_of(st.just(1), st.just(2), st.integers(1, 32)),
)

SHARED = (InstructionKind.SHARED_READ, InstructionKind.SHARED_WRITE)
GLOBAL = (InstructionKind.GLOBAL_READ, InstructionKind.GLOBAL_WRITE)


def totals_by_definition(records) -> tuple:
    """The seven aggregates, summed over the record list."""
    shared = [r for r in records if r.kind in SHARED]
    global_ = [r for r in records if r.kind in GLOBAL]
    return (
        sum(r.operations for r in records if r.kind is InstructionKind.COMPUTE),
        len(shared),
        float(sum(r.conflict_degree for r in shared)),
        sum(r.transactions for r in global_),
        sum(r.words for r in global_),
        sum(1 for r in records if r.kind is InstructionKind.BARRIER),
        any(r.conflict_degree > 1 for r in shared),
    )


def totals(trace: BlockTrace) -> tuple:
    return (
        trace.compute_operations,
        trace.shared_accesses,
        trace.shared_conflict_cycles_factor,
        trace.global_transactions,
        trace.global_words,
        trace.barriers,
        trace.has_bank_conflicts,
    )


class TestBlockTraceTotals:
    @PROFILE
    @given(st.lists(RECORDS, max_size=60), st.lists(RECORDS, max_size=20))
    def test_running_totals_match_record_definitions(self, first, more):
        trace = BlockTrace(block_index=0)
        for record in first:
            trace.append(record)
        assert totals(trace) == totals_by_definition(first)
        # Appends after a read keep the totals current.
        for record in more:
            trace.append(record)
        assert trace.records == first + more
        assert totals(trace) == totals_by_definition(first + more)

    @PROFILE
    @given(st.lists(RECORDS, max_size=60))
    def test_constructor_records_are_tallied(self, records):
        trace = BlockTrace(block_index=0, records=list(records))
        assert totals(trace) == totals_by_definition(records)


#: gtx650's per-block cycles are binary fractions for binary-fraction
#: counts; tesla_k40 exposes 500/6 cycles of latency per transaction.
DEVICES = {
    "gtx650": DeviceConfig.gtx650(),
    "tesla_k40": DeviceConfig.tesla_k40(),
}

#: Records whose compute operations are sevenths, so a block's issue
#: cycles and operation count are not binary fractions either.
SEVENTHS = st.builds(
    InstructionRecord,
    kind=st.sampled_from(list(InstructionKind)),
    operations=st.integers(0, 256).map(lambda sevenths: sevenths / 7),
    transactions=st.integers(0, 40),
    words=st.integers(0, 64),
    conflict_degree=st.integers(1, 32),
)

#: A launch: block classes in block order, each a representative block's
#: records, its shared-memory words and the length of its run of blocks.
LAUNCHES = st.lists(
    st.tuples(
        st.lists(SEVENTHS, max_size=12),
        st.integers(0, 96),
        st.integers(1, 200),
    ),
    min_size=1,
    max_size=6,
)


def launch_totals_by_loop(engine, pairs, functional: bool) -> tuple:
    """Counters and cycle totals of a launch, added one by one.

    A functional launch adds each block's values in block order; a sampled
    one adds each class's value times its count.
    """
    totals = [0.0] * 7
    num_blocks = bank_conflict_blocks = max_shared_words = 0
    for trace, count in pairs:
        values = (
            engine.block_issue_cycles(trace),
            engine.block_latency_cycles(trace),
            trace.compute_operations,
            trace.shared_accesses,
            trace.global_transactions,
            trace.global_words,
            trace.barriers,
        )
        for index, value in enumerate(values):
            if functional:
                for _ in range(count):
                    totals[index] += value
            else:
                totals[index] += value * count
        num_blocks += count
        if trace.has_bank_conflicts:
            bank_conflict_blocks += count
        max_shared_words = max(max_shared_words, trace.shared_words_used)
    issue, latency, *counters = totals
    return (
        counters, num_blocks, bank_conflict_blocks, max_shared_words,
        issue, latency,
    )


class TestLaunchTotals:
    @PROFILE
    @given(st.sampled_from(sorted(DEVICES)), LAUNCHES, st.booleans())
    def test_launch_totals_equal_a_plain_loop(self, device, classes,
                                              functional):
        engine = TimingEngine(DEVICES[device])
        pairs = [
            (BlockTrace(index, list(records), shared_words_used=shared), count)
            for index, (records, shared, count) in enumerate(classes)
        ]
        counters, issue, latency = engine.launch_totals(
            "kernel", pairs, functional
        )
        assert counters.kernel_name == "kernel"
        assert (
            [
                counters.compute_operations,
                counters.shared_accesses,
                counters.global_transactions,
                counters.global_words,
                counters.barriers,
            ],
            counters.num_blocks,
            counters.bank_conflict_blocks,
            counters.max_shared_words_per_block,
            issue,
            latency,
        ) == launch_totals_by_loop(engine, pairs, functional)

    def test_empty_launch_rejected(self):
        with pytest.raises(ValueError):
            TimingEngine(DEVICES["gtx650"]).launch_totals("kernel", [], True)
