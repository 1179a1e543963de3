"""The server's request queue: coalescible groups under admission control.

A :class:`PredictionRequest` wraps one submitted
:class:`~repro.experiments.spec.ExperimentSpec` together with its future,
tenant, optional deadline and bookkeeping timestamps.  The
:class:`RequestQueue` holds pending requests keyed by their **coalescing
key** ``(algorithm, preset, mode)`` — requests sharing a key describe cost
evaluations over the very same metrics, so the server dispatches an entire
key's worth of requests as one :class:`CoalescedGroup` and serves them from
one union-compiled :class:`~repro.core.batch.MetricsBatch`.

Admission control lives here: :meth:`RequestQueue.put` bounds the pending
request count (``max_queue_depth``) and the total sweep points admitted but
not yet completed (``max_inflight_sizes``), raising
:class:`~repro.serving.errors.ServerOverloadedError` when a bound would be
exceeded — the server's backpressure signal.
"""

from __future__ import annotations

import itertools
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.experiments.spec import ExperimentSpec
from repro.serving.errors import ServerOverloadedError

#: Request modes: ``"result"`` executes the full prediction-vs-observation
#: experiment (a :class:`~repro.experiments.results.Result`); ``"predict"``
#: evaluates the model side only (a
#: :class:`~repro.core.prediction.SweepPrediction`) — the high-throughput
#: serving path, since observations cannot be shared between requests.
MODES: Tuple[str, ...] = ("result", "predict")

_REQUEST_IDS = itertools.count(1)


@dataclass
class PredictionRequest:
    """One submitted spec on its way through the server."""

    spec: ExperimentSpec
    future: "Future"
    tenant: str = "default"
    #: Absolute :func:`time.monotonic` deadline, or ``None``.
    deadline: Optional[float] = None
    mode: str = "result"
    #: Number of sweep points — the admission-control cost unit.
    cost: int = 0
    submitted_at: float = field(default_factory=time.monotonic)
    request_id: int = field(default_factory=lambda: next(_REQUEST_IDS))

    @property
    def key(self) -> Tuple[str, str, str, str]:
        """The coalescing key: requests sharing it dispatch together.

        The topology discriminator rides at the end so positional
        consumers of ``(algorithm, preset, mode)`` keep working; specs
        without a topology contribute ``""``.
        """
        return (
            self.spec.algorithm,
            self.spec.preset,
            self.mode,
            self.spec.topology_key(),
        )

    def expired(self, now: Optional[float] = None) -> bool:
        """Whether the deadline (if any) has passed."""
        if self.deadline is None:
            return False
        return (time.monotonic() if now is None else now) > self.deadline


@dataclass(frozen=True)
class CoalescedGroup:
    """A batch of pending requests sharing one coalescing key.

    This is the unit a :class:`~repro.serving.policies.SchedulingPolicy`
    chooses between and the unit the server dispatches: every request in the
    group is served from one union-of-sizes compile.  The derived views are
    what the built-in policies order by.
    """

    key: Tuple[str, str, str, str]
    requests: Tuple[PredictionRequest, ...]

    def __len__(self) -> int:
        return len(self.requests)

    @property
    def oldest_submitted(self) -> float:
        """Submission time of the group's oldest request (FIFO order key)."""
        return min(r.submitted_at for r in self.requests)

    @property
    def earliest_deadline(self) -> Optional[float]:
        """The most urgent deadline in the group, or ``None`` if none set."""
        deadlines = [r.deadline for r in self.requests if r.deadline is not None]
        return min(deadlines) if deadlines else None

    @property
    def tenants(self) -> Tuple[str, ...]:
        """Distinct tenants with requests in this group, first-seen order."""
        return tuple(dict.fromkeys(r.tenant for r in self.requests))

    @property
    def total_cost(self) -> int:
        """Total sweep points across the group (the fair-share charge)."""
        return sum(r.cost for r in self.requests)


class RequestQueue:
    """Thread-safe pending-request store with admission control.

    ``put`` enqueues under the bounds; ``take`` blocks until a group is
    available, asks the scheduling policy to choose one, and removes the
    whole group atomically (that removal *is* the coalescing decision —
    everything pending under the chosen key dispatches together).  The take
    additionally absorbs every other pending key of the same algorithm and
    mode whose specs are :func:`~repro.experiments.session.mergeable` with
    the chosen group — equal-machine presets then share the dispatched
    union compile instead of waiting for their own turn.  The admitted-size
    account is only credited back via :meth:`task_done`, so in-flight work
    keeps exerting backpressure until it completes.
    """

    def __init__(
        self,
        max_queue_depth: int = 256,
        max_inflight_sizes: int = 1_000_000,
    ) -> None:
        if max_queue_depth < 1:
            raise ValueError("max_queue_depth must be at least 1")
        if max_inflight_sizes < 1:
            raise ValueError("max_inflight_sizes must be at least 1")
        self.max_queue_depth = max_queue_depth
        self.max_inflight_sizes = max_inflight_sizes
        self._pending: Dict[
            Tuple[str, str, str, str], List[PredictionRequest]
        ] = {}
        self._depth = 0
        self._inflight_sizes = 0
        self._closed = False
        self._condition = threading.Condition()

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def depth(self) -> int:
        """Number of pending (not yet dispatched) requests."""
        with self._condition:
            return self._depth

    @property
    def inflight_sizes(self) -> int:
        """Sweep points admitted but not yet completed."""
        with self._condition:
            return self._inflight_sizes

    @property
    def closed(self) -> bool:
        """Whether the queue has been closed to new requests."""
        with self._condition:
            return self._closed

    # ------------------------------------------------------------------ #
    # Producer side
    # ------------------------------------------------------------------ #
    def put(self, request: PredictionRequest) -> None:
        """Admit a request, or raise :class:`ServerOverloadedError`.

        Both bounds are checked atomically with the enqueue, so concurrent
        submitters cannot jointly overshoot them.
        """
        with self._condition:
            if self._closed:
                raise ServerOverloadedError(
                    "the request queue is closed", self._depth,
                    self._inflight_sizes,
                )
            if self._depth >= self.max_queue_depth:
                raise ServerOverloadedError(
                    f"queue depth is at its bound ({self.max_queue_depth} "
                    "pending requests); back off and retry",
                    self._depth, self._inflight_sizes,
                )
            if self._inflight_sizes + request.cost > self.max_inflight_sizes:
                raise ServerOverloadedError(
                    f"admitting {request.cost} sweep points would exceed the "
                    f"in-flight bound ({self._inflight_sizes} of "
                    f"{self.max_inflight_sizes} in use); back off and retry",
                    self._depth, self._inflight_sizes,
                )
            self._pending.setdefault(request.key, []).append(request)
            self._depth += 1
            self._inflight_sizes += request.cost
            self._condition.notify()

    def close(self) -> None:
        """Refuse new requests and wake every waiting consumer."""
        with self._condition:
            self._closed = True
            self._condition.notify_all()

    # ------------------------------------------------------------------ #
    # Consumer side
    # ------------------------------------------------------------------ #
    def take(self, policy, timeout: Optional[float] = None
             ) -> Optional[CoalescedGroup]:
        """Pop the group the policy selects, blocking until one is pending.

        Returns ``None`` when the queue is closed and drained (the worker
        shutdown signal) or the timeout elapses with nothing pending.  The
        policy's ``select`` and ``record_dispatch`` run under the queue lock
        — policies are cheap orderings, and this keeps their internal
        accounting (e.g. fair-share service totals) atomic with the
        dispatch decision.  Other pending keys mergeable with the chosen one
        ride along in the returned group (still under the chosen key, whose
        mode every rider shares).
        """
        with self._condition:
            while not self._pending:
                if self._closed:
                    return None
                if not self._condition.wait(timeout=timeout):
                    return None
            groups = [
                CoalescedGroup(key=key, requests=tuple(requests))
                for key, requests in self._pending.items()
            ]
            now = time.monotonic()
            chosen = policy.select(groups, now) if len(groups) > 1 else groups[0]
            if chosen.key not in self._pending:
                raise KeyError(
                    f"scheduling policy {policy.name!r} selected a group "
                    f"{chosen.key!r} that is not pending"
                )
            requests = self._pending.pop(chosen.key)
            if self._pending:
                # Imported lazily: the session layer imports serving-free
                # modules only, but keeping queue.py import-light at module
                # load avoids any future cycle through repro.experiments.
                from repro.experiments.session import mergeable

                representative = requests[0].spec
                riders = [
                    key for key in self._pending
                    if key[0] == chosen.key[0]
                    and key[2] == chosen.key[2]
                    and mergeable(self._pending[key][0].spec, representative)
                ]
                for key in riders:
                    requests.extend(self._pending.pop(key))
            group = CoalescedGroup(key=chosen.key, requests=tuple(requests))
            self._depth -= len(requests)
            policy.record_dispatch(group, now)
            return group

    def task_done(self, requests: Sequence[PredictionRequest]) -> None:
        """Credit completed (or rejected) requests back to the size account."""
        with self._condition:
            self._inflight_sizes -= sum(r.cost for r in requests)
            self._condition.notify_all()
