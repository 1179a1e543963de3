"""Execution traces and counters produced by the simulator.

Every block execution yields a :class:`BlockTrace` -- the ordered
warp-level instructions of the block together with aggregate counters.  A
trace holds single :class:`InstructionRecord` entries and :class:`RowRun`
entries, each of which stands for the records of one tile-staging call,
kept as columns until ``records`` is read.  Kernel launches aggregate
block traces into a :class:`KernelCounters`, and the device keeps a
:class:`Timeline` of launch / transfer / synchronisation events so
examples can print a CUDA-profiler-like account of a run.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, List, NamedTuple, Optional, Tuple, Union

import numpy as np

from repro.utils.numerics import ordered_sum


class InstructionKind(enum.Enum):
    """Warp-level instruction categories recognised by the timing engine."""

    COMPUTE = "compute"
    GLOBAL_READ = "global_read"
    GLOBAL_WRITE = "global_write"
    SHARED_READ = "shared_read"
    SHARED_WRITE = "shared_write"
    BARRIER = "barrier"


@dataclass(frozen=True)
class InstructionRecord:
    """One warp-level instruction executed by a block.

    Parameters
    ----------
    kind:
        The instruction category.
    operations:
        Warp-instructions issued (compute instructions may bundle several).
    transactions:
        Global-memory block transactions generated (global accesses only).
    words:
        Words moved by the instruction.
    conflict_degree:
        Shared-memory bank-conflict serialisation degree (1 = conflict free).
    label:
        Optional human-readable tag (e.g. the source array name).
    """

    kind: InstructionKind
    operations: float = 0.0
    transactions: int = 0
    words: int = 0
    conflict_degree: int = 1
    label: str = ""


_COMPUTE = InstructionKind.COMPUTE
_GLOBAL_READ = InstructionKind.GLOBAL_READ
_GLOBAL_WRITE = InstructionKind.GLOBAL_WRITE
_SHARED_READ = InstructionKind.SHARED_READ
_SHARED_WRITE = InstructionKind.SHARED_WRITE
_BARRIER = InstructionKind.BARRIER


class RowRun(NamedTuple):
    """The rows of one tile-staging call, as columns.

    Row ``r`` stands for two records, in the order a per-warp loop appends
    them.  A ``to_shared`` run reads the row from global memory and writes
    it to shared memory (``GLOBAL_READ``, then ``SHARED_WRITE``); any other
    run reads shared memory and writes global memory (``SHARED_READ``, then
    ``GLOBAL_WRITE``).  Both records move ``words`` words; the global one
    issues ``transactions[r]`` block transactions and the shared one has
    bank-conflict degree ``conflict_degrees[r]``.  The runs of a block's
    calls that repeat one tile pattern share these columns, so nothing
    writes to them.
    """

    to_shared: bool
    global_label: str
    shared_label: str
    words: int
    transactions: np.ndarray
    conflict_degrees: np.ndarray

    def records(self) -> List[InstructionRecord]:
        """The run's records, row by row."""
        global_kind = _GLOBAL_READ if self.to_shared else _GLOBAL_WRITE
        shared_kind = _SHARED_WRITE if self.to_shared else _SHARED_READ
        records: List[InstructionRecord] = []
        for transactions, degree in zip(
            self.transactions.tolist(), self.conflict_degrees.tolist()
        ):
            global_access = InstructionRecord(
                kind=global_kind, transactions=transactions,
                words=self.words, label=self.global_label,
            )
            shared_access = InstructionRecord(
                kind=shared_kind, words=self.words,
                conflict_degree=degree, label=self.shared_label,
            )
            if self.to_shared:
                records += (global_access, shared_access)
            else:
                records += (shared_access, global_access)
        return records


class BlockTrace:
    """Ordered instruction trace and aggregate counters of one block.

    The aggregates the timing engine reads are running totals, updated as
    the trace grows, so reading one costs the same however long the trace
    is.  A trace grows only through :meth:`append` (one record) and
    :meth:`append_rows` (one run of staged rows, added to the totals in
    one step); records passed to the constructor are appended in order.
    ``records`` builds a new list each time it is read, expanding every
    run, so changing that list does not change the trace.
    """

    def __init__(
        self,
        block_index: int,
        records: Iterable[InstructionRecord] = (),
        shared_words_used: int = 0,
    ) -> None:
        self.block_index = block_index
        self.shared_words_used = shared_words_used
        self._entries: List[Union[InstructionRecord, RowRun]] = []
        self._compute_operations = 0.0
        self._shared_accesses = 0
        self._shared_conflict_cycles = 0.0
        self._global_transactions = 0
        self._global_words = 0
        self._barriers = 0
        self._has_bank_conflicts = False
        for record in records:
            self.append(record)

    @property
    def records(self) -> List[InstructionRecord]:
        """Every record in order, each run expanded row by row."""
        records: List[InstructionRecord] = []
        for entry in self._entries:
            if type(entry) is RowRun:
                records += entry.records()
            else:
                records.append(entry)
        return records

    def append(self, record: InstructionRecord) -> None:
        """Append one instruction record and update the totals."""
        self._entries.append(record)
        self._tally(record)

    def append_rows(self, run: RowRun) -> None:
        """Append a run of staged rows and add its totals in one step.

        Every addend is an integer, and the float conflict-cycle total
        stays far below 2**53, so the totals equal those of appending the
        run's records one by one.
        """
        self._entries.append(run)
        rows = len(run.transactions)
        self._shared_accesses += rows
        self._shared_conflict_cycles += int(run.conflict_degrees.sum())
        if rows and run.conflict_degrees.max() > 1:
            self._has_bank_conflicts = True
        self._global_transactions += int(run.transactions.sum())
        self._global_words += rows * run.words

    def _tally(self, record: InstructionRecord) -> None:
        # Identity tests: hashing an enum member runs Python code.
        kind = record.kind
        if kind is _COMPUTE:
            self._compute_operations += record.operations
        elif kind is _SHARED_READ or kind is _SHARED_WRITE:
            self._shared_accesses += 1
            self._shared_conflict_cycles += record.conflict_degree
            if record.conflict_degree > 1:
                self._has_bank_conflicts = True
        elif kind is _GLOBAL_READ or kind is _GLOBAL_WRITE:
            self._global_transactions += record.transactions
            self._global_words += record.words
        elif kind is _BARRIER:
            self._barriers += 1

    # ------------------------------------------------------------------ #
    # Aggregates consumed by the timing engine
    # ------------------------------------------------------------------ #
    @property
    def compute_operations(self) -> float:
        """Warp-instructions of arithmetic/control work."""
        return self._compute_operations

    @property
    def shared_accesses(self) -> int:
        """Number of shared-memory access instructions."""
        return self._shared_accesses

    @property
    def shared_conflict_cycles_factor(self) -> float:
        """Sum of conflict degrees over shared accesses (1 each if conflict free)."""
        return self._shared_conflict_cycles

    @property
    def global_transactions(self) -> int:
        """Global-memory block transactions issued by the block."""
        return self._global_transactions

    @property
    def global_words(self) -> int:
        """Words moved to/from global memory by the block."""
        return self._global_words

    @property
    def barriers(self) -> int:
        """Number of block-wide barriers executed."""
        return self._barriers

    @property
    def has_bank_conflicts(self) -> bool:
        """Whether any shared access serialised over banks."""
        return self._has_bank_conflicts


@dataclass
class KernelCounters:
    """Aggregate counters of one kernel launch (all blocks).

    Summed over a launch's block traces by
    :meth:`~repro.simulator.timing.TimingEngine.launch_totals`.
    """

    kernel_name: str
    num_blocks: int
    compute_operations: float = 0.0
    shared_accesses: float = 0.0
    global_transactions: float = 0.0
    global_words: float = 0.0
    barriers: float = 0.0
    bank_conflict_blocks: int = 0
    max_shared_words_per_block: int = 0


class EventKind(enum.Enum):
    """Timeline event categories."""

    TRANSFER_H2D = "transfer_h2d"
    TRANSFER_D2H = "transfer_d2h"
    KERNEL = "kernel"
    SYNC = "sync"


@dataclass(frozen=True)
class TimelineEvent:
    """One entry of the device timeline."""

    kind: EventKind
    name: str
    start_s: float
    duration_s: float
    details: str = ""

    @property
    def end_s(self) -> float:
        """End time of the event in seconds."""
        return self.start_s + self.duration_s


class Timeline:
    """Ordered record of everything the device did, with a running clock."""

    def __init__(self) -> None:
        self._events: List[TimelineEvent] = []
        self._clock_s = 0.0

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._clock_s

    def record(self, kind: EventKind, name: str, duration_s: float,
               details: str = "") -> TimelineEvent:
        """Append an event of ``duration_s`` seconds starting at the current clock."""
        if duration_s < 0:
            raise ValueError("duration_s must be >= 0")
        event = TimelineEvent(
            kind=kind, name=name, start_s=self._clock_s,
            duration_s=duration_s, details=details,
        )
        self._events.append(event)
        self._clock_s += duration_s
        return event

    @property
    def events(self) -> Tuple[TimelineEvent, ...]:
        """All events in chronological order."""
        return tuple(self._events)

    def total_time(self, kind: Optional[EventKind] = None) -> float:
        """Sum of event durations, optionally restricted to one kind."""
        return ordered_sum(e.duration_s for e in self._events
                           if kind is None or e.kind is kind)

    def kernel_time(self) -> float:
        """Total time spent in kernel execution."""
        return self.total_time(EventKind.KERNEL)

    def transfer_time(self) -> float:
        """Total time spent in host↔device transfers (both directions)."""
        return (self.total_time(EventKind.TRANSFER_H2D)
                + self.total_time(EventKind.TRANSFER_D2H))

    def sync_time(self) -> float:
        """Total time spent in synchronisation overhead."""
        return self.total_time(EventKind.SYNC)

    def render(self) -> str:
        """Human-readable profiler-like rendering of the timeline."""
        lines = ["    start(ms)    dur(ms)  kind           name"]
        for event in self._events:
            lines.append(
                f"{event.start_s * 1e3:12.4f} {event.duration_s * 1e3:10.4f}  "
                f"{event.kind.value:<14} {event.name}"
                + (f"  [{event.details}]" if event.details else "")
            )
        return "\n".join(lines)
