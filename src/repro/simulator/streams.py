"""Asynchronous streams with compute/copy overlap for the simulator.

The serial device timeline (:class:`repro.simulator.trace.Timeline`) charges
every operation back to back, exactly as the paper's cost function charges
every transfer serially.  Real pipelines hide transfer time behind kernel
execution instead: CUDA exposes *streams* — in-order queues of operations —
and a GPU with dedicated copy engines executes an H2D copy, a kernel and a
D2H copy from three different streams concurrently (the classic
double-buffering pattern of CrystalGPU and the CUDA "overlap data transfers"
examples).

:class:`StreamTimeline` models that machinery:

* operations (H2D copy, kernel launch, D2H copy, host work) are submitted to
  named :class:`Stream` objects and execute **in order within a stream**;
* each operation kind occupies one of the device's *engines* (an H2D copy
  engine, a compute engine, a D2H copy engine); an engine runs one operation
  at a time, in submission order — two H2D copies never overlap each other,
  but an H2D copy, a kernel and a D2H copy from different streams do;
* explicit *events* (the scheduled operations themselves) can be waited on
  across streams, mirroring ``cudaStreamWaitEvent``;
* the **makespan** is the end of the critical path through those
  constraints, as opposed to the serial sum of durations.

Durations come from the existing engines: :meth:`StreamTimeline.add_transfer`
accepts the :class:`~repro.simulator.transfer_engine.TransferRecord` produced
by a :class:`~repro.simulator.transfer_engine.TransferEngine`, and
:meth:`StreamTimeline.add_kernel` accepts the
:class:`~repro.simulator.timing.KernelTiming` produced by a
:class:`~repro.simulator.timing.TimingEngine` — so the overlapped account
uses exactly the same per-operation costs as the serial one, and
``serial_time - makespan`` is the time recovered by overlap alone.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.transfer import TransferDirection
from repro.simulator.timing import KernelTiming
from repro.simulator.transfer_engine import TransferRecord
from repro.utils.numerics import ordered_sum


class StreamOpKind(enum.Enum):
    """Categories of operations a stream can carry."""

    H2D = "h2d"
    KERNEL = "kernel"
    D2H = "d2h"
    HOST = "host"


#: Engine each operation kind executes on.  Copies in the two directions use
#: separate DMA engines (dual-copy-engine GPUs); host work has its own lane.
ENGINE_FOR_KIND: Dict[StreamOpKind, str] = {
    StreamOpKind.H2D: "h2d",
    StreamOpKind.KERNEL: "compute",
    StreamOpKind.D2H: "d2h",
    StreamOpKind.HOST: "host",
}


@dataclass(frozen=True)
class StreamOp:
    """One scheduled operation: the timeline's unit of work *and* its event.

    A ``StreamOp`` doubles as the CUDA-event analogue: passing it in another
    submission's ``wait`` sequence makes that operation start no earlier than
    this one's :attr:`end_s`.
    """

    index: int
    kind: StreamOpKind
    name: str
    stream: str
    engine: str
    start_s: float
    duration_s: float
    #: Index of the operation whose completion determined this start time
    #: (stream predecessor, engine predecessor or awaited event); ``None``
    #: for operations that start at time zero.
    blocked_by: Optional[int] = None
    details: str = ""

    @property
    def end_s(self) -> float:
        """Completion time of the operation in seconds."""
        return self.start_s + self.duration_s


@dataclass
class Stream:
    """A named in-order queue of operations (the CUDA-stream analogue)."""

    name: str
    _last: Optional[StreamOp] = field(default=None, repr=False)

    @property
    def last_op(self) -> Optional[StreamOp]:
        """The most recently submitted operation, or ``None`` when empty."""
        return self._last


class StreamTimeline:
    """Schedules stream operations onto engines and computes the makespan.

    Parameters
    ----------
    dual_copy_engines:
        ``True`` (default) gives the device separate H2D and D2H DMA engines,
        so copies in opposite directions overlap (post-Fermi GPUs).  ``False``
        serialises all copies through one engine (a single-copy-engine part),
        while still overlapping them with kernels.
    """

    def __init__(self, dual_copy_engines: bool = True) -> None:
        self.dual_copy_engines = dual_copy_engines
        self._ops: List[StreamOp] = []
        self._streams: Dict[str, Stream] = {}
        self._engine_last: Dict[str, StreamOp] = {}

    # ------------------------------------------------------------------ #
    # Streams
    # ------------------------------------------------------------------ #
    def stream(self, name: str) -> Stream:
        """Get or create the stream called ``name``."""
        if not name:
            raise ValueError("a stream needs a non-empty name")
        if name not in self._streams:
            self._streams[name] = Stream(name=name)
        return self._streams[name]

    @property
    def streams(self) -> Tuple[str, ...]:
        """Names of every stream that has been created, in creation order."""
        return tuple(self._streams)

    def _engine_for(self, kind: StreamOpKind) -> str:
        engine = ENGINE_FOR_KIND[kind]
        if not self.dual_copy_engines and engine in ("h2d", "d2h"):
            return "copy"
        return engine

    # ------------------------------------------------------------------ #
    # Submission
    # ------------------------------------------------------------------ #
    def submit(
        self,
        stream: "Stream | str",
        kind: StreamOpKind,
        duration_s: float,
        name: str = "",
        wait: Sequence[StreamOp] = (),
        details: str = "",
    ) -> StreamOp:
        """Schedule one operation and return it (usable as an event).

        The start time is the latest of: the completion of the previous
        operation on the same stream, the completion of the previous
        operation on the same engine (engines are FIFO, like hardware copy
        queues), and the completion of every operation in ``wait``.
        """
        if duration_s < 0:
            raise ValueError("duration_s must be >= 0")
        if not isinstance(kind, StreamOpKind):
            raise TypeError("kind must be a StreamOpKind")
        if isinstance(stream, str):
            stream = self.stream(stream)
        elif stream.name not in self._streams or self._streams[stream.name] is not stream:
            raise ValueError(
                f"stream {stream.name!r} does not belong to this timeline"
            )
        for event in wait:
            if (
                not isinstance(event, StreamOp)
                or event.index >= len(self._ops)
                or self._ops[event.index] is not event
            ):
                raise ValueError(
                    "wait events must be operations of this timeline"
                )
        engine = self._engine_for(kind)
        engine_last = self._engine_last.get(engine)

        start, blocker = 0.0, None
        candidates: List[Optional[StreamOp]] = [stream.last_op, engine_last]
        candidates.extend(wait)
        for prior in candidates:
            if prior is not None and prior.end_s > start:
                start, blocker = prior.end_s, prior.index
        op = StreamOp(
            index=len(self._ops),
            kind=kind,
            name=name or kind.value,
            stream=stream.name,
            engine=engine,
            start_s=start,
            duration_s=float(duration_s),
            blocked_by=blocker,
            details=details,
        )
        self._ops.append(op)
        stream._last = op
        self._engine_last[engine] = op
        return op

    # ------------------------------------------------------------------ #
    # Wiring from the transfer and timing engines
    # ------------------------------------------------------------------ #
    def add_transfer(
        self,
        stream: "Stream | str",
        record: TransferRecord,
        wait: Sequence[StreamOp] = (),
    ) -> StreamOp:
        """Schedule a copy from a :class:`TransferRecord`'s duration."""
        kind = (
            StreamOpKind.H2D
            if record.direction is TransferDirection.HOST_TO_DEVICE
            else StreamOpKind.D2H
        )
        return self.submit(
            stream,
            kind,
            record.duration_s,
            name=f"{kind.value} {record.label}".strip(),
            wait=wait,
            details=f"{record.words} words",
        )

    def add_kernel(
        self,
        stream: "Stream | str",
        timing: KernelTiming,
        wait: Sequence[StreamOp] = (),
    ) -> StreamOp:
        """Schedule a kernel launch from a :class:`KernelTiming`."""
        return self.submit(
            stream,
            StreamOpKind.KERNEL,
            timing.total_time_s,
            name=timing.kernel_name,
            wait=wait,
            details=f"{timing.plan.num_blocks} blocks",
        )

    # ------------------------------------------------------------------ #
    # Aggregates
    # ------------------------------------------------------------------ #
    @property
    def ops(self) -> Tuple[StreamOp, ...]:
        """Every scheduled operation, in submission order."""
        return tuple(self._ops)

    @property
    def makespan_s(self) -> float:
        """End of the latest operation — the overlapped total time."""
        return max((op.end_s for op in self._ops), default=0.0)

    @property
    def serial_time_s(self) -> float:
        """What the same operations would cost back to back (no overlap)."""
        return ordered_sum(op.duration_s for op in self._ops)

    @property
    def overlap_saving_s(self) -> float:
        """Time recovered by overlap: serial sum minus makespan."""
        return self.serial_time_s - self.makespan_s

    def engine_busy_times(self) -> Dict[str, float]:
        """Busy seconds per engine, for every engine that ran something."""
        out: Dict[str, float] = {}
        for op in self._ops:
            out[op.engine] = out.get(op.engine, 0.0) + op.duration_s
        return out

    def critical_path(self) -> List[StreamOp]:
        """Operations on the critical path, earliest first.

        Follows the :attr:`StreamOp.blocked_by` links back from the
        operation that finishes last; the makespan equals the end of the
        last element (and, when every link is tight, the sum of the path's
        durations plus any initial idle gap).
        """
        if not self._ops:
            return []
        op = max(self._ops, key=lambda o: o.end_s)
        path = [op]
        while op.blocked_by is not None:
            op = self._ops[op.blocked_by]
            path.append(op)
        path.reverse()
        return path

    def render(self) -> str:
        """Profiler-style rendering: one line per operation, engine-tagged."""
        lines = ["    start(ms)    dur(ms)  engine    stream      name"]
        for op in self._ops:
            lines.append(
                f"{op.start_s * 1e3:12.4f} {op.duration_s * 1e3:10.4f}  "
                f"{op.engine:<8}  {op.stream:<10}  {op.name}"
                + (f"  [{op.details}]" if op.details else "")
            )
        return "\n".join(lines)

