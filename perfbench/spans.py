"""An in-memory span recorder for the benchmark's traced runs.

Spans are recorded only by the benchmark, around its own calls into each
layer's public functions; the package under test carries no tracing.  Each
span has a name, a start and end (``perf_counter_ns``), a parent span and
an op id; counts read at the same boundaries are kept per op.  Everything
stays in memory until :meth:`Tracer.write` dumps it when the run ends.
"""

from __future__ import annotations

import itertools
import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional


@dataclass(frozen=True)
class Span:
    """One timed call: ``[start_ns, end_ns)`` inside op ``op``."""

    span_id: int
    name: str
    start_ns: int
    end_ns: int
    parent: Optional[int]
    op: int

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


class Tracer:
    """Records nested spans and per-op counts.

    Nesting follows the calling thread's stack of open spans, so spans
    opened by one thread nest; :meth:`add` records a finished top-level span
    from another thread (a request completing on a server worker).
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[int, Counter] = defaultdict(Counter)
        self._ids = itertools.count()
        self._stack: List[int] = []
        self._op: Optional[int] = None

    def new_op(self) -> int:
        """A fresh op id (ids are shared with spans, so they never collide)."""
        return next(self._ids)

    @contextmanager
    def op(self, op_id: Optional[int] = None) -> Iterator[int]:
        """Attribute every span and count opened inside to one op."""
        outer = self._op
        self._op = self.new_op() if op_id is None else op_id
        try:
            yield self._op
        finally:
            self._op = outer

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Time the enclosed block as a child of the innermost open span."""
        if self._op is None:
            raise RuntimeError(f"span {name!r} opened outside an op")
        span_id = next(self._ids)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans.append(Span(span_id, name, start, end, parent, self._op))

    def add(self, name: str, start_ns: int, end_ns: int, op: int) -> None:
        """Record an already finished top-level span (thread-safe append)."""
        self.spans.append(Span(next(self._ids), name, start_ns, end_ns, None, op))

    def count(self, name: str, value: float = 1) -> None:
        """Add ``value`` to counter ``name`` of the current op."""
        if self._op is None:
            raise RuntimeError(f"count {name!r} outside an op")
        self.counts[self._op][name] += value

    # ------------------------------------------------------------------ #
    # Aggregation
    # ------------------------------------------------------------------ #
    def per_op_ns(self, name: str) -> Dict[int, int]:
        """Total duration of the spans named ``name``, per op."""
        totals: Dict[int, int] = defaultdict(int)
        for span in self.spans:
            if span.name == name:
                totals[span.op] += span.duration_ns
        return dict(totals)

    def ops_with(self, name: str) -> List[int]:
        """Ids of the ops that recorded a span named ``name``."""
        return sorted({span.op for span in self.spans if span.name == name})

    def per_op_count(self, name: str) -> Dict[int, float]:
        """Counter ``name`` per op (ops that never counted it are absent)."""
        return {
            op: counts[name] for op, counts in self.counts.items()
            if name in counts
        }

    def self_ns(self) -> Dict[int, int]:
        """Self time per span: its duration minus its children's."""
        own = {span.span_id: span.duration_ns for span in self.spans}
        for span in self.spans:
            if span.parent is not None:
                own[span.parent] -= span.duration_ns
        return own

    def top_level_ns(self) -> Dict[int, int]:
        """Summed duration of the parentless spans, per op."""
        totals: Dict[int, int] = defaultdict(int)
        for span in self.spans:
            if span.parent is None:
                totals[span.op] += span.duration_ns
        return dict(totals)

    def share(self, layer: str, ops) -> float:
        """Self time of ``layer``'s spans over the top-level time of ``ops``."""
        ops = set(ops)
        own = self.self_ns()
        inside = sum(
            own[span.span_id] for span in self.spans
            if span.op in ops and span.name.startswith(layer + ".")
        )
        top = self.top_level_ns()
        total = sum(top.get(op, 0) for op in ops)
        return inside / total if total else 0.0

    def nesting_errors(self) -> List[str]:
        """Spans that escape their parent's interval or op (empty = nested)."""
        by_id = {span.span_id: span for span in self.spans}
        errors = []
        for span in self.spans:
            if span.parent is None:
                continue
            parent = by_id.get(span.parent)
            if parent is None:
                errors.append(f"{span.name}: parent {span.parent} missing")
            elif parent.op != span.op:
                errors.append(f"{span.name}: op {span.op} != parent op {parent.op}")
            elif not parent.start_ns <= span.start_ns <= span.end_ns <= parent.end_ns:
                errors.append(f"{span.name}: outside parent {parent.name}")
        return errors

    def write(self, path: Path) -> None:
        """Dump spans (with self time) and counts as JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        own = self.self_ns()
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                record = asdict(span)
                record["self_ns"] = own[span.span_id]
                handle.write(json.dumps(record) + "\n")
            for op, counts in sorted(self.counts.items()):
                handle.write(json.dumps({"op": op, "counts": dict(counts)}) + "\n")
