"""Execution traces and counters produced by the simulator.

Every block execution yields a :class:`BlockTrace` -- the ordered list of
warp-level instruction records together with aggregate counters.  Kernel
launches aggregate block traces into a :class:`KernelCounters`, and the
device keeps a :class:`Timeline` of launch / transfer / synchronisation
events so examples can print a CUDA-profiler-like account of a run.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

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


@dataclass
class BlockTrace:
    """Ordered instruction trace and aggregate counters of one block.

    The aggregates the timing engine reads are running totals, updated by
    :meth:`append` in record order, so reading one costs the same however
    long the trace is.  Records passed to the constructor are tallied
    once, in order; ``records`` must only grow through :meth:`append`.
    """

    block_index: int
    records: List[InstructionRecord] = field(default_factory=list)
    shared_words_used: int = 0

    def __post_init__(self) -> None:
        self._compute_operations = 0.0
        self._shared_accesses = 0
        self._shared_conflict_cycles = 0.0
        self._global_transactions = 0
        self._global_words = 0
        self._barriers = 0
        self._has_bank_conflicts = False
        for record in self.records:
            self._tally(record)

    def append(self, record: InstructionRecord) -> None:
        """Append one instruction record and update the totals."""
        self.records.append(record)
        self._tally(record)

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
