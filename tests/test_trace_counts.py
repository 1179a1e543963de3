"""Oracles for the simulator's per-access counts, per-block and launch totals.

``GPUDevice`` (the oracle of the batched probe) and ``ProbeDevice`` share
``coalesced_transactions``, ``bank_conflict_degree``, the tile-staging
calls, ``BlockTrace``'s running totals and ``TimingEngine.launch_totals``,
so no parity test between the two paths can catch an error in them.  Each
is checked here against a brute-force definition on generated inputs:
warps of 0-64 lanes with duplicates, strides and large addresses; tiles
staged in one call, alone and in sequences of calls in one block that
repeat tile patterns, against the per-warp loop they stand for; record
sequences, interleaved with runs of staged rows, read part way through;
and launches of block classes whose per-block values are not binary
fractions, so the order of every float sum shows in its last bits.  The
examples are derandomized, so tier-1 runs the same profile every time.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.algorithms.matrix_multiplication import MatrixMultiplicationKernel
from repro.simulator.config import DeviceConfig
from repro.simulator.errors import (
    AllocationError,
    InvalidAccessError,
    LaunchError,
    SimulatorError,
)
from repro.simulator.kernel import BlockContext
from repro.simulator.memory import (
    GlobalMemory,
    bank_conflict_degree,
    coalesced_transactions,
)
from repro.simulator.timing import TimingEngine
from repro.simulator.trace import (
    BlockTrace,
    InstructionKind,
    InstructionRecord,
    RowRun,
)

PROFILE = settings(derandomize=True, max_examples=100, deadline=None)

#: Every GPU of ``SIMULATOR_CONFIGS``.  gtx650's per-block cycles are
#: binary fractions for binary-fraction counts; tesla_k40 exposes 500/6
#: cycles of latency per transaction.
DEVICES = {
    "gtx650": DeviceConfig.gtx650(),
    "gtx980": DeviceConfig.gtx980(),
    "tesla_k40": DeviceConfig.tesla_k40(),
}

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


def stage_by_warp_loop(ctx, to_shared, shared_name, global_name,
                       shared_rows, global_rows) -> None:
    """The per-warp loop a staging call stands for: a read, then a write,
    per row."""
    for shared_row, global_row in zip(shared_rows, global_rows):
        if to_shared:
            values = ctx.global_read(global_name, global_row)
            ctx.shared_write(shared_name, shared_row, values)
        else:
            values = ctx.shared_read(shared_name, shared_row)
            ctx.global_write(global_name, global_row, values)


def stage_in_one_call(ctx, to_shared, shared_name, global_name,
                      shared_rows, global_rows) -> None:
    if to_shared:
        ctx.global_to_shared(shared_name, global_name, shared_rows, global_rows)
    else:
        ctx.shared_to_global(global_name, shared_name, global_rows, shared_rows)


#: Lane strides: a broadcast, coalesced, straddling blocks, and
#: conflicting in banks (16 and 32 on a 32-bank warp, every even one on a
#: 4-bank warp).
LANE_STRIDES = (0, 1, 2, 16, 32, 33)

#: Ways a staging call can fail; ``None`` is a valid call.
FAULTS = (
    None, "global_high", "global_negative", "shared_high",
    "shared_negative", "unknown_global", "unknown_shared",
)


def with_fault(case: dict, fault, at=(0, 0), beyond: int = 0) -> dict:
    """``case`` with ``fault`` injected: an index ``beyond`` past either
    end of its array at row and lane ``at``, or an unknown array name."""
    if fault == "unknown_global":
        case["global_name"] = "missing"
    elif fault == "unknown_shared":
        case["shared_name"] = "_missing"
    elif fault is not None:
        side, kind = fault.split("_")
        case[f"{side}_rows"][at] = (
            case[f"{side}_length"] + beyond if kind == "high" else -1 - beyond
        )
    return case


@st.composite
def staging_cases(draw) -> dict:
    """A staging call and the memory it runs on.

    Index rows are strided (the row pitch may be 0, which repeats rows) or
    small random indices with repeats.  A pad allocation before each array
    shifts its base off block and bank boundaries.
    """
    rows = draw(st.integers(0, 33))
    lanes = draw(st.integers(0, 33))

    def index_rows() -> np.ndarray:
        if draw(st.booleans()):
            start = draw(st.integers(0, 64))
            pitch = draw(st.sampled_from([0, 1, lanes, 32, 33]))
            stride = draw(st.sampled_from(LANE_STRIDES))
            return (start + np.arange(rows)[:, None] * pitch
                    + np.arange(lanes) * stride).astype(np.int64)
        values = draw(st.lists(
            st.integers(0, 40), min_size=rows * lanes, max_size=rows * lanes,
        ))
        return np.array(values, dtype=np.int64).reshape(rows, lanes)

    global_rows, shared_rows = index_rows(), index_rows()
    case = {
        "warp_width": draw(st.sampled_from([4, 32])),
        "to_shared": draw(st.booleans()),
        "global_pad": draw(st.integers(0, 40)),
        "shared_pad": draw(st.integers(0, 40)),
        "global_length": int(global_rows.max(initial=0)) + 1
        + draw(st.integers(0, 8)),
        "shared_length": int(shared_rows.max(initial=0)) + 1
        + draw(st.integers(0, 8)),
        "global_name": "g",
        "shared_name": "_s",
        "global_rows": global_rows,
        "shared_rows": shared_rows,
    }
    fault = draw(st.sampled_from(FAULTS))
    if fault is None or fault.startswith("unknown"):
        return with_fault(case, fault)
    if not rows * lanes:
        return case
    at = (draw(st.integers(0, rows - 1)), draw(st.integers(0, lanes - 1)))
    return with_fault(case, fault, at, draw(st.integers(0, 5)))


def small_case(to_shared: bool, rows: int) -> dict:
    """A valid staging of the same ``rows × 4`` indices on each side, on a
    4-lane warp with both arrays shifted by a pad."""
    indices = np.arange(rows * 4, dtype=np.int64).reshape(rows, 4)
    return {
        "warp_width": 4, "to_shared": to_shared, "global_pad": 3,
        "shared_pad": 1, "global_length": indices.size,
        "shared_length": indices.size, "global_name": "g",
        "shared_name": "_s", "global_rows": indices.copy(),
        "shared_rows": indices.copy(),
    }


def run_staging(case: dict, stage):
    """Stage ``case`` through ``stage``: its error type, or its records,
    totals and both arrays' contents."""
    config = DeviceConfig.gtx650().with_overrides(
        warp_width=case["warp_width"]
    )
    memory = GlobalMemory(1 << 16, config.words_per_block)
    if case["global_pad"]:
        memory.allocate("pad", case["global_pad"])
    array = memory.allocate("g", case["global_length"], dtype=np.float64)
    array.data[:] = 3.0 * np.arange(array.length) + 1.0
    ctx = BlockContext(0, 1, config, memory, {"g": array})
    if case["shared_pad"]:
        ctx.shared_alloc("_pad", case["shared_pad"])
    shared = ctx.shared_alloc("_s", case["shared_length"])
    shared[:] = -1.0 - np.arange(shared.size)
    try:
        stage(
            ctx, case["to_shared"], case["shared_name"], case["global_name"],
            case["shared_rows"].copy(), case["global_rows"].copy(),
        )
    except SimulatorError as exc:
        return type(exc)
    return (ctx.trace.records, totals(ctx.trace), array.data.tolist(),
            shared.tolist())


class WarpLoopContext(BlockContext):
    """A block context that stages through the per-warp loop."""

    def global_to_shared(self, shared_name, global_name, shared_rows,
                         global_rows):
        stage_by_warp_loop(self, True, shared_name, global_name,
                           shared_rows, global_rows)

    def shared_to_global(self, global_name, shared_name, global_rows,
                         shared_rows):
        stage_by_warp_loop(self, False, shared_name, global_name,
                           shared_rows, global_rows)


def matrix_multiplication_blocks(context, config, n: int, pad: int,
                                 blocks=None):
    """Blocks of an ``n×n`` product through ``context`` (every block, or
    the indices ``blocks``): each block's records and totals, then the
    output matrix."""
    memory = GlobalMemory(1 << 20, config.words_per_block)
    if pad:
        memory.allocate("pad", pad)
    rng = np.random.default_rng(n)
    arrays = {}
    for name in ("ma", "mb", "mc"):
        arrays[name] = memory.allocate(name, n * n, dtype=np.float64)
    arrays["ma"].data[:] = rng.integers(0, 64, n * n)
    arrays["mb"].data[:] = rng.integers(0, 64, n * n)
    kernel = MatrixMultiplicationKernel(n, config.warp_width)
    grid = kernel.grid_size()
    traces = []
    for index in range(grid) if blocks is None else blocks:
        ctx = context(index, grid, config, memory, arrays)
        kernel.run_block(ctx)
        traces.append((ctx.trace.records, totals(ctx.trace)))
    return traces, arrays["mc"].data.tolist()


#: Arrays of a staging sequence: two of each kind, so calls can keep or
#: change their names.
SEQUENCE_GLOBALS = ("g", "h")
SEQUENCE_SHARED = ("_s", "_t")


def run_sequence(case: dict, stage) -> list:
    """Stage ``case["calls"]`` one after another in one block through
    ``stage``: after each call, its error type, or the block's records and
    totals and every array's contents.

    Index arrays are passed in ``case["layout"]`` order.  With
    ``case["in_place"]`` each side's indices live in one array, rewritten
    in place before each call of its shape.  A call that raises does not
    end the sequence, so only errors that the per-warp loop raises before
    it changes anything (an unknown name on the read side) may come
    before the last call.
    """
    config = DeviceConfig.gtx650().with_overrides(
        warp_width=case["warp_width"]
    )
    memory = GlobalMemory(1 << 16, config.words_per_block)
    if case["global_pad"]:
        memory.allocate("pad", case["global_pad"])
    arrays = {}
    for i, name in enumerate(SEQUENCE_GLOBALS):
        array = arrays[name] = memory.allocate(
            name, case["global_length"], dtype=np.float64
        )
        array.data[:] = 3.0 * np.arange(array.length) + 1.0 + 0.5 * i
    ctx = BlockContext(0, 1, config, memory, arrays)
    if case["shared_pad"]:
        ctx.shared_alloc("_pad", case["shared_pad"])
    shared = {}
    for i, name in enumerate(SEQUENCE_SHARED):
        shared[name] = ctx.shared_alloc(name, case["shared_length"])
        shared[name][:] = -1.0 - np.arange(shared[name].size) - 0.5 * i
    buffers = {}
    outcomes = []
    for call in case["calls"]:
        for side in ("shared_rows", "global_rows"):
            buffer = buffers.get(side)
            if (case["in_place"] and buffer is not None
                    and buffer.shape == call[side].shape):
                buffer[...] = call[side]
            else:
                buffers[side] = np.array(call[side], order=case["layout"])
        try:
            stage(ctx, call["to_shared"], call["shared_name"],
                  call["global_name"], buffers["shared_rows"],
                  buffers["global_rows"])
        except SimulatorError as exc:
            outcomes.append(type(exc))
            continue
        outcomes.append((
            ctx.trace.records, totals(ctx.trace),
            [arrays[name].data.tolist() for name in SEQUENCE_GLOBALS],
            [shared[name].tolist() for name in SEQUENCE_SHARED],
        ))
    return outcomes


def staging_call(to_shared: bool, tile, base: int, shared_name: str = "_s",
                 global_name: str = "g") -> dict:
    """Stage ``tile``, a ``(shared_rows, pattern)`` pair, at ``base``."""
    shared_rows, pattern = tile
    return {
        "to_shared": to_shared, "shared_name": shared_name,
        "global_name": global_name, "shared_rows": shared_rows,
        "global_rows": pattern + base,
    }


def sequence_case(calls, layout: str = "C", in_place: bool = False) -> dict:
    """``calls`` on a 4-lane warp, with 64-word arrays behind pads that
    put them off block and bank boundaries."""
    return {
        "warp_width": 4, "global_pad": 3, "shared_pad": 1,
        "global_length": 64, "shared_length": 64, "layout": layout,
        "in_place": in_place, "calls": calls,
    }


#: Tiles of two rows of four lanes on a 4-lane warp: coalesced rows of
#: distinct words, the same global rows staged to a conflicting shared
#: column, strided global rows, and rows whose indices repeat.
ROWS = np.arange(8, dtype=np.int64).reshape(2, 4)
COALESCED = (ROWS, ROWS)
CONFLICTING = (4 * ROWS, ROWS)
STRIDED = (ROWS, 4 * ROWS)
#: Indices 0 and 1 appear twice.  In row-major order index 1 is written
#: last by row 1; in the memory order of a column-major array, by row 0.
REPEATED = np.array([[0, 1, 2, 3], [1, 0, 5, 6]], dtype=np.int64)
#: Tiles whose written side repeats indices, staged in and written back;
#: the read side's distinct words give each write its own value.
REPEATING_IN = (REPEATED, ROWS)
REPEATING_BACK = (ROWS, REPEATED)
#: A different shape under the same names.
TALL = (np.arange(8, dtype=np.int64).reshape(4, 2),) * 2

#: Short sequences for each way a repeat can go wrong.  An out-of-range
#: repeat comes last, because the loop writes the rows before its fault.
SEQUENCES = {
    # The same pattern at bases of every residue and back: the
    # transaction count of a row changes with the residue.
    "residues": sequence_case([
        staging_call(True, COALESCED, base) for base in (0, 1, 4, 2, 3, 8)
    ]),
    "residues_written_back": sequence_case([
        staging_call(False, COALESCED, base) for base in (0, 1, 5, 3)
    ]),
    # Repeats that leave the global array past either end, on the read
    # side and on the written side.
    "read_side_past_the_end": sequence_case([
        staging_call(True, COALESCED, 0), staging_call(True, COALESCED, 57),
    ]),
    "read_side_below_zero": sequence_case([
        staging_call(True, COALESCED, 8), staging_call(True, COALESCED, -4),
    ]),
    "written_side_past_the_end": sequence_case([
        staging_call(False, COALESCED, 0), staging_call(False, COALESCED, 60),
    ]),
    "written_side_below_zero": sequence_case([
        staging_call(False, COALESCED, 8), staging_call(False, COALESCED, -1),
    ]),
    # New shared rows, then a new global pattern, then a new shape, all
    # under the same names.
    "changed_pattern_and_shape": sequence_case([
        staging_call(True, COALESCED, 0), staging_call(True, CONFLICTING, 4),
        staging_call(True, STRIDED, 4), staging_call(True, COALESCED, 8),
        staging_call(True, TALL, 8), staging_call(True, COALESCED, 12),
    ]),
    # Both directions between the same arrays, interleaved.
    "interleaved_directions": sequence_case([
        staging_call(True, COALESCED, 0), staging_call(False, COALESCED, 16),
        staging_call(True, COALESCED, 5), staging_call(False, CONFLICTING, 20),
        staging_call(False, COALESCED, 9), staging_call(True, COALESCED, 24),
    ]),
    # Repeated destinations on a repeat, in either direction, with the
    # index arrays column-major.
    "repeated_destinations": sequence_case([
        staging_call(True, REPEATING_IN, 0),
        staging_call(True, REPEATING_IN, 9),
        staging_call(False, REPEATING_BACK, 16),
        staging_call(False, REPEATING_BACK, 2),
    ], layout="F"),
    # One index array per side, rewritten in place: conflict free, then
    # all four lanes in one bank, then strided global rows.
    "rewritten_in_place": sequence_case([
        staging_call(True, COALESCED, 0), staging_call(True, CONFLICTING, 4),
        staging_call(True, STRIDED, 8),
    ], in_place=True),
    # An unknown read-side name changes nothing, so the repeat after it
    # still stages; then an unknown written-side name on a repeat.
    "unknown_names": sequence_case([
        staging_call(True, COALESCED, 0),
        staging_call(True, COALESCED, 4, global_name="missing"),
        staging_call(True, COALESCED, 8),
        staging_call(True, COALESCED, 12, shared_name="_missing"),
    ]),
    "unknown_names_written_back": sequence_case([
        staging_call(False, COALESCED, 0),
        staging_call(False, COALESCED, 4, shared_name="_missing"),
        staging_call(False, COALESCED, 8),
        staging_call(False, COALESCED, 12, global_name="missing"),
    ]),
    # Two faults in the pattern of an earlier call: the read side's row 0
    # out of range and the written side's name unknown; the row comes
    # first.  Written back, the shared side is the read side, so the
    # unknown global name comes before its rows out of range.
    "two_faults_after_a_call": sequence_case([
        staging_call(True, COALESCED, 8),
        staging_call(True, COALESCED, -4, shared_name="_missing"),
    ]),
    "two_faults_after_a_call_written_back": sequence_case([
        staging_call(False, COALESCED, 8),
        staging_call(False, COALESCED, 60, global_name="missing"),
    ]),
}


#: How the last call of a generated sequence may fail; ``None`` adds no
#: call.
SEQUENCE_FAULTS = (
    None, "past_the_end", "below_zero", "unknown_shared", "unknown_global",
)


@st.composite
def staging_sequences(draw) -> dict:
    """2-6 staging calls in one block, drawn over four tiles, and maybe
    a last one that fails.

    The first three tiles share a shape: the second has the first's
    shared rows and the third its pattern.  The fourth may have another
    shape.  Each call after the first repeats the previous call's tile at
    a new base (of the same or another residue), or changes its
    direction, its tile or its names.  A call may name an unknown
    read-side array.  The failing call repeats the one before it out of
    range, or with an unknown name.
    """
    warp_width = draw(st.sampled_from([4, 32]))

    def index_rows(rows, lanes) -> np.ndarray:
        if draw(st.booleans()):
            pitch = draw(st.sampled_from([0, 1, lanes, 32, 33]))
            stride = draw(st.sampled_from(LANE_STRIDES))
            return (np.arange(rows)[:, None] * pitch
                    + np.arange(lanes) * stride).astype(np.int64)
        values = draw(st.lists(
            st.integers(0, 40), min_size=rows * lanes, max_size=rows * lanes,
        ))
        return np.array(values, dtype=np.int64).reshape(rows, lanes)

    def tile(rows, lanes):
        pattern = index_rows(rows, lanes)
        return index_rows(rows, lanes), pattern - pattern.min(initial=0)

    def shape():
        return draw(st.integers(1, 5)), draw(st.integers(0, 9))

    rows_and_lanes = shape()
    first, other = tile(*rows_and_lanes), tile(*rows_and_lanes)
    tiles = [first, (first[0], other[1]), (other[0], first[1]),
             tile(*shape())]
    length = 1024
    span = max(int(pattern.max(initial=0)) for _, pattern in tiles)

    def new_base() -> int:
        base = (draw(st.integers(0, 8)) * warp_width
                + draw(st.sampled_from([0, 1, warp_width - 1])))
        return min(base, length - 1 - span)

    call = {"to_shared": draw(st.booleans()), "tile": 0, "shared_name": "_s",
            "global_name": "g"}
    calls = []
    for _ in range(draw(st.integers(2, 6))):
        change = draw(st.sampled_from(
            ["repeat", "repeat", "direction", "tile", "names", "unknown"]
        ))
        call = dict(call)
        if change == "direction":
            call["to_shared"] = not call["to_shared"]
        elif change == "tile":
            call["tile"] = draw(st.integers(0, len(tiles) - 1))
        elif change == "names":
            call["shared_name"] = draw(st.sampled_from(SEQUENCE_SHARED))
            call["global_name"] = draw(st.sampled_from(SEQUENCE_GLOBALS))
        staged = staging_call(
            call["to_shared"], tiles[call["tile"]], new_base(),
            call["shared_name"], call["global_name"],
        )
        if change == "unknown":
            name = "global_name" if call["to_shared"] else "shared_name"
            staged[name] = "_missing"
        calls.append(staged)
    fault = draw(st.sampled_from(SEQUENCE_FAULTS))
    if fault is not None:
        last = dict(calls[-1])
        rows = last["global_rows"] - last["global_rows"].min(initial=0)
        shift = draw(st.integers(0, 3))
        if fault == "past_the_end":
            last["global_rows"] = (rows + length - int(rows.max(initial=0))
                                   + shift)
        elif fault == "below_zero":
            last["global_rows"] = rows - 1 - shift
        else:
            last[fault.replace("unknown_", "") + "_name"] = "_missing"
        calls.append(last)
    return {
        "warp_width": warp_width, "global_pad": draw(st.integers(0, 40)),
        "shared_pad": draw(st.integers(0, 40)), "global_length": length,
        "shared_length": 1 + draw(st.integers(0, 8)) + max(
            int(shared_rows.max(initial=0)) for shared_rows, _ in tiles
        ),
        "layout": draw(st.sampled_from(["C", "F"])),
        "in_place": draw(st.booleans()), "calls": calls,
    }


class TestStagingEqualsWarpLoop:
    """``global_to_shared`` and ``shared_to_global`` against the loop."""

    @pytest.mark.parametrize("device", sorted(DEVICES))
    @pytest.mark.parametrize("n, pad", [
        (32, 0), (64, 5), (96, 17),
        # Eight k-tiles, so each operand's tile pattern repeats seven
        # times in a block.
        (256, 7),
    ])
    def test_matrix_multiplication_blocks_equal_the_loop(self, device, n,
                                                         pad):
        config = DEVICES[device]
        # Of the 64 blocks at side 256, every ninth, the last among them.
        blocks = range(0, 64, 9) if n == 256 else None
        assert matrix_multiplication_blocks(
            BlockContext, config, n, pad, blocks
        ) == matrix_multiplication_blocks(
            WarpLoopContext, config, n, pad, blocks
        )

    @pytest.mark.parametrize("name", sorted(SEQUENCES))
    def test_repeated_patterns_equal_the_loop(self, name):
        assert run_sequence(SEQUENCES[name], stage_in_one_call) == \
            run_sequence(SEQUENCES[name], stage_by_warp_loop)

    @PROFILE
    @given(staging_sequences())
    def test_generated_sequences_equal_the_loop(self, case):
        assert run_sequence(case, stage_in_one_call) == \
            run_sequence(case, stage_by_warp_loop)

    @PROFILE
    @given(staging_cases())
    def test_records_totals_and_data_equal_the_loop(self, case):
        assert run_staging(case, stage_in_one_call) == \
            run_staging(case, stage_by_warp_loop)

    @pytest.mark.parametrize("to_shared", [True, False])
    @pytest.mark.parametrize("fault, error", [
        ("global_high", InvalidAccessError),
        ("global_negative", InvalidAccessError),
        ("shared_high", InvalidAccessError),
        ("shared_negative", InvalidAccessError),
        ("unknown_global", LaunchError),
        ("unknown_shared", AllocationError),
    ])
    def test_faults_raise_the_loop_error(self, to_shared, fault, error):
        case = with_fault(small_case(to_shared, rows=4), fault, at=(2, 1))
        assert run_staging(case, stage_by_warp_loop) is error
        assert run_staging(case, stage_in_one_call) is error

    @pytest.mark.parametrize("to_shared", [True, False])
    @pytest.mark.parametrize("bad_row", [0, 1])
    def test_loop_error_order_with_two_faults(self, to_shared, bad_row):
        # The read side's row 0 is checked before the written side's name,
        # and the written side's name before any later row.
        read, written = (
            ("global", "shared") if to_shared else ("shared", "global")
        )
        case = with_fault(
            with_fault(small_case(to_shared, rows=2), f"{read}_negative",
                       at=(bad_row, 0)),
            f"unknown_{written}",
        )
        error = (InvalidAccessError if bad_row == 0
                 else AllocationError if to_shared else LaunchError)
        assert run_staging(case, stage_by_warp_loop) is error
        assert run_staging(case, stage_in_one_call) is error

    def test_mismatched_index_shapes_rejected(self):
        config = DeviceConfig.gtx650()
        memory = GlobalMemory(1 << 12, config.words_per_block)
        array = memory.allocate("g", 64, dtype=np.float64)
        ctx = BlockContext(0, 1, config, memory, {"g": array})
        ctx.shared_alloc("_s", 64)
        with pytest.raises(ValueError):
            ctx.global_to_shared(
                "_s", "g", np.zeros((2, 4), dtype=np.int64),
                np.zeros((2, 3), dtype=np.int64),
            )
        with pytest.raises(ValueError):
            ctx.shared_to_global("g", "_s", np.arange(4), np.arange(4))


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


#: A run of staged rows as ``(to_shared, words, [(transactions,
#: conflict degree), ...])``.
ROW_RUNS = st.tuples(
    st.booleans(),
    st.integers(0, 64),
    st.lists(
        st.tuples(st.integers(0, 40), st.integers(1, 32)), max_size=33
    ),
)


def run_records_by_definition(to_shared, words, rows) -> list:
    """Per row, the global and the shared record in access order."""
    records = []
    for transactions, degree in rows:
        global_access = InstructionRecord(
            InstructionKind.GLOBAL_READ if to_shared
            else InstructionKind.GLOBAL_WRITE,
            transactions=transactions, words=words, label="g",
        )
        shared_access = InstructionRecord(
            InstructionKind.SHARED_WRITE if to_shared
            else InstructionKind.SHARED_READ,
            words=words, conflict_degree=degree, label="_s",
        )
        records += ([global_access, shared_access] if to_shared
                    else [shared_access, global_access])
    return records


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

    @PROFILE
    @given(st.lists(st.one_of(RECORDS, ROW_RUNS), max_size=30))
    def test_runs_interleaved_with_records(self, entries):
        trace = BlockTrace(block_index=0)
        expanded = []
        for entry in entries:
            if isinstance(entry, InstructionRecord):
                trace.append(entry)
                expanded.append(entry)
            else:
                to_shared, words, rows = entry
                trace.append_rows(RowRun(
                    to_shared, "g", "_s", words,
                    np.array([t for t, _ in rows], dtype=np.int64),
                    np.array([d for _, d in rows], dtype=np.int64),
                ))
                expanded += run_records_by_definition(to_shared, words, rows)
        assert trace.records == expanded
        assert totals(trace) == totals_by_definition(expanded)


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
