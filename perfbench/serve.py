"""serve: predict-mode requests to a ``PredictionServer``.

Open loop.  One generator thread sends requests to
``PredictionServer(workers=2, policy="fifo")`` with Poisson arrivals at
200 req/s; each asks for a seeded window of 1-64 contiguous points of a
256-point dense grid over its algorithm's paper range (60 % vector
addition, 20 % reduction, 20 % matrix multiplication, default backends).
Latency is timed from each request's due time, so a stalled generator or
server shows in every later request.  Bursts of 200 requests, below the
default ``max_queue_depth`` of 256, are submitted at once between steady
segments: the steady schedule is cut into one segment per burst and its
clock pauses while a burst drains, so that both phases sample the whole
run (a shared host's speed drifts by tens of percent within seconds).

The steady phase bypasses coalescing (about one request per dispatch); the
burst phase depends on it.  The serving queue, ``predict_group`` and batch
prediction do all the work; the simulator does none.
"""

from __future__ import annotations

import math
import time
from functools import partial
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro import PredictionServer, ServerOverloadedError
from repro.algorithms.registry import create
from repro.core.presets import DEFAULT_PRESET
from repro.experiments import ExperimentSpec, predict_group
from repro.workloads.sweeps import dense_sweep, sweep_for

from perfbench import walks
from perfbench.common import (
    Calibration,
    Metric,
    Outcome,
    identical,
    layer_metrics,
    span_metric,
    timing,
)
from perfbench.spans import Tracer

RATE = 200.0
WORKERS = 2
POLICY = "fifo"
MIX = (("vector_addition", 0.6), ("reduction", 0.2), ("matrix_multiplication", 0.2))
GRID_POINTS = 256
MAX_WINDOW = 64
BURST = 200
#: Share of a run's seconds given to the steady phase; bursts take the rest.
STEADY_SHARE = 0.9
#: Bursts per second of run (60 in 30 s).  Each drains in ~15 ms, so one
#: scheduler or GC stall moves ``burst_rps`` less when it is one of many.
BURSTS_PER_S = 2.0
#: Longest wait for a phase's requests to complete.
DRAIN_TIMEOUT_S = 60.0

Phase = Tuple[List[float], List[float], List[float], list]


class Serve:
    """The serve workload (see the module docstring)."""

    name = "serve"

    def __init__(self, seed: int, seconds: float) -> None:
        rng = np.random.default_rng(seed)
        self.grids = {}
        for name, _ in MIX:
            sizes = sweep_for(name).sizes
            self.grids[name] = list(dense_sweep(GRID_POINTS, sizes[0], sizes[-1]).sizes)
        steady_s = seconds * STEADY_SHARE
        gaps = rng.exponential(1.0 / RATE, size=int(steady_s * RATE * 1.5) + 16)
        arrivals = np.cumsum(gaps)
        self.arrivals = [float(t) for t in arrivals[arrivals < steady_s]]
        self.steady = [self._request(rng) for _ in self.arrivals]
        bursts = max(1, int(seconds * BURSTS_PER_S))
        self.bursts = [[self._request(rng) for _ in range(BURST)] for _ in range(bursts)]
        # Steady segment k holds the arrivals of [k, k + 1) * segment_s,
        # each timed from the segment's own start.
        segment_s = steady_s / bursts
        self.segments: List[Tuple[list, List[float]]] = [([], []) for _ in range(bursts)]
        for spec, t in zip(self.steady, self.arrivals):
            k = min(int(t // segment_s), bursts - 1)
            self.segments[k][0].append(spec)
            self.segments[k][1].append(t - k * segment_s)

    def _request(self, rng: np.random.Generator) -> ExperimentSpec:
        names = [name for name, _ in MIX]
        name = names[rng.choice(len(MIX), p=[share for _, share in MIX])]
        length = int(rng.integers(1, MAX_WINDOW + 1))
        start = int(rng.integers(0, GRID_POINTS - length + 1))
        return ExperimentSpec(name, sizes=tuple(self.grids[name][start:start + length]))

    def warm_up(self) -> None:
        """A few steady requests and a small burst on a throwaway server,
        then the reference and the traced group walk."""
        specs = [spec for burst in self.bursts for spec in burst][:BURST // 4]
        with PredictionServer(policy=POLICY, workers=WORKERS) as server:
            for spec in specs[:6]:
                server.submit(spec, mode="predict").result(DRAIN_TIMEOUT_S)
            for future in server.submit_many(specs, mode="predict"):
                future.result(DRAIN_TIMEOUT_S)
        for spec in specs[:6]:
            predict_group([spec])
        self._walk_group(Tracer(), specs, None)

    # ------------------------------------------------------------------ #
    # Phases
    # ------------------------------------------------------------------ #
    def _steady_phase(
        self, server, specs: Sequence[ExperimentSpec], arrivals: Sequence[float],
    ) -> Phase:
        """Send each request at its due time: (due, sent, done, futures)."""
        count = len(specs)
        done = [math.inf] * count
        sent = [math.nan] * count
        futures = [None] * count
        origin = time.perf_counter() + 0.005
        due = [origin + t for t in arrivals]
        for i, spec in enumerate(specs):
            delay = due[i] - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            sent[i] = time.perf_counter()
            futures[i] = self._submit(server, spec, done, i)
        self._drain(futures)
        return due, sent, done, futures

    def _burst(self, server, burst: Sequence[ExperimentSpec], verify) -> float:
        """Submit one burst at once and wait for it to drain; returns the
        drain time.  ``verify(specs, futures)`` runs after it."""
        done = [math.inf] * len(burst)
        start = time.perf_counter()
        futures = [self._submit(server, spec, done, i) for i, spec in enumerate(burst)]
        self._drain(futures)
        drain = max(done) - start
        verify(burst, futures)
        return drain

    @staticmethod
    def _submit(server, spec, done: List[float], index: int):
        """Submit one request; its completion time lands in ``done[index]``."""
        try:
            future = server.submit(spec, mode="predict")
        except ServerOverloadedError:
            return None
        future.add_done_callback(partial(_mark_done, done, index))
        return future

    @staticmethod
    def _drain(futures) -> None:
        deadline = time.perf_counter() + DRAIN_TIMEOUT_S
        for future in futures:
            if future is not None:
                future.exception(max(deadline - time.perf_counter(), 0.0))

    # ------------------------------------------------------------------ #
    # Output check and the traced group walk
    # ------------------------------------------------------------------ #
    @staticmethod
    def _check(
        specs: Sequence[ExperimentSpec], futures, tracer: Tracer = None,
    ) -> Tuple[List[str], int, Dict[Tuple, object]]:
        """Compare every served prediction with ``predict_group([spec])[0]``.

        Returns the failed checks, the number of refused or failed requests
        and the references by ``(algorithm, sizes)``.  With a tracer, each
        distinct reference call is its own op with an
        ``experiments.predict_group`` span.
        """
        failures, refused = [], 0
        references: Dict[Tuple, object] = {}
        for spec, future in zip(specs, futures):
            key = (spec.algorithm, spec.sizes)
            if key not in references:
                if tracer is None:
                    references[key] = predict_group([spec])[0]
                else:
                    with tracer.op(), tracer.span("experiments.predict_group"):
                        references[key] = predict_group([spec])[0]
                delta = references[key].predicted_transfer_proportions
                if not np.all((delta >= 0) & (delta <= 1)):
                    failures.append(f"{spec.algorithm}: ΔT outside [0, 1]")
            if future is None or future.exception(0) is not None:
                refused += 1
            elif not identical(future.result(0), references[key]):
                failures.append(
                    f"{spec.algorithm} {len(spec.sizes)} points: served "
                    "prediction differs from predict_group([spec])"
                )
        return failures, refused, references

    @staticmethod
    def _walk_group(
        tracer: Tracer, burst: Sequence[ExperimentSpec], references,
    ) -> List[str]:
        """``predict_group`` of one burst's per-algorithm groups, traced.

        One union compile and evaluation, then one select per request, as a
        dispatch that coalesced the whole group computes it; each selected
        prediction must equal the request's own ``predict_group``.
        """
        failures = []
        for name, _ in MIX:
            specs = [spec for spec in burst if spec.algorithm == name]
            if not specs:
                continue
            algorithm = create(name)
            union = sorted({n for spec in specs for n in spec.sizes})
            with tracer.op():
                batch = walks.compile_batch(tracer, algorithm, union, DEFAULT_PRESET)
                prediction = walks.evaluate(
                    tracer, algorithm, batch, DEFAULT_PRESET, specs[0].backends
                )
                selected = [walks.select(tracer, prediction, spec.sizes) for spec in specs]
            if references is not None and not all(
                identical(mine, references[(name, spec.sizes)])
                for spec, mine in zip(specs, selected)
            ):
                failures.append(f"{name}: coalesced walk differs")
        return failures

    # ------------------------------------------------------------------ #
    # Runs
    # ------------------------------------------------------------------ #
    def measure(self, seconds: float, calibration: Calibration) -> Outcome:
        """Steady segments, each followed by a burst; each verified as it
        ends."""
        failures: List[str] = []
        refused = 0

        def verify(specs, futures) -> None:
            nonlocal refused
            errors, failed, _ = self._check(specs, futures)
            failures.extend(errors)
            refused += failed

        latencies: List[float] = []
        drains: List[float] = []
        with PredictionServer(policy=POLICY, workers=WORKERS) as server:
            for (specs, arrivals), burst in zip(self.segments, self.bursts):
                calibration.sample()
                due, _, done, futures = self._steady_phase(server, specs, arrivals)
                verify(specs, futures)
                latencies += [d - t for d, t in zip(done, due)]
                drains.append(self._burst(server, burst, verify))
        requests = BURST * len(self.bursts)
        burst_p50 = float(np.median([BURST / d for d in drains]))
        metrics = [
            timing("op_p50_ms", "ms", latencies, 1e3),
            Metric("ops_per_s", requests / sum(drains), "1/s",
                   samples=len(drains), p50=burst_p50),
        ]
        # serve_p50_ms and burst_rps are op_p50_ms and ops_per_s under
        # their workload's own names.  serve_p99_ms is printed, not gated:
        # it moved 2-4x between runs as the shared host's load changed
        # (see perfbench/baseline.json).
        report = [
            timing("serve_p50_ms", "ms", latencies, 1e3),
            timing("serve_p99_ms", "ms", latencies, 1e3, q=99.0),
            Metric("burst_rps", requests / sum(drains), "req/s",
                   samples=len(drains), p50=burst_p50),
        ]
        return Outcome(metrics, len(self.steady) + requests, refused, failures,
                       report)

    def trace(
        self, seconds: float, calibration: Calibration, tracer: Tracer
    ) -> Outcome:
        """Half the steady requests untraced, half traced, then the bursts;
        every burst is verified with traced references and walked."""
        failures: List[str] = []
        refused = 0

        def verify(specs, futures, walk: bool = False) -> None:
            nonlocal refused
            errors, failed, references = self._check(specs, futures, tracer)
            failures.extend(errors)
            refused += failed
            if walk:
                failures.extend(self._walk_group(tracer, specs, references))

        half = len(self.steady) // 2
        with PredictionServer(policy=POLICY, workers=WORKERS) as server:
            calibration.sample()
            base = server.stats()
            due_u, sent_u, done_u, fut_u = self._steady_phase(
                server, self.steady[:half], self.arrivals[:half]
            )
            calibration.sample()
            offset = self.arrivals[half] if half < len(self.arrivals) else 0.0
            due_t, sent_t, done_t, fut_t = self._steady_phase(
                server, self.steady[half:], [t - offset for t in self.arrivals[half:]]
            )
            steady_stats = server.stats()
            for sent, done in zip(sent_t, done_t):
                if math.isfinite(done):
                    tracer.add("serving.request", int(sent * 1e9), int(done * 1e9),
                               tracer.new_op())
            verify(self.steady, fut_u + fut_t)
            for burst in self.bursts:
                calibration.sample()
                self._burst(server, burst, partial(verify, walk=True))
            final = server.stats()
        reference_ops = tracer.ops_with("experiments.predict_group")
        group_ops = tracer.ops_with("core.compile")
        cache = server.session.batch_cache
        untraced = timing("untraced", "ms", [d - t for d, t in zip(done_u, due_u)], 1e3)
        traced = timing("traced", "ms", [d - t for d, t in zip(done_t, due_t)], 1e3)
        reference = span_metric(tracer, "experiments.predict_group_ms", reference_ops)
        late = [s - d for s, d in zip(sent_u + sent_t, due_u + due_t)]

        def ratio(after, before) -> float:
            groups = after.dispatched_groups - before.dispatched_groups
            return (after.coalesced_requests - before.coalesced_requests) / max(groups, 1)

        overhead_ms = untraced.value - reference.value
        # A request's op is its serving.request span: sent to done.
        coverage = float(np.median(list(
            tracer.per_op_ns("serving.request").values()
        ))) * 1e-6 / untraced.value
        metrics = layer_metrics(
            tracer, group_ops, traced.value / untraced.value, coverage, {
                "experiments.batch_cache_hit_ratio":
                    cache.hits / max(1, cache.hits + cache.misses),
                "serving.share": overhead_ms / untraced.value,
                "serving.coalescing_ratio.burst": ratio(final, steady_stats),
                "serving.dispatches": final.dispatched_groups,
            },
        )
        report = [
            Metric("serving.overhead_ms", overhead_ms, "ms"),
            Metric("serving.server_p50_ms", steady_stats.latency_p50_s * 1e3, "ms"),
            Metric("serving.server_p99_ms", steady_stats.latency_p99_s * 1e3, "ms"),
            Metric("serving.coalescing_ratio.steady", ratio(steady_stats, base), "ratio"),
            timing("serving.generator_late_ms", "ms", late, 1e3, q=99.0),
            Metric("serving.rejected", final.rejected, "count"),
            reference,
            span_metric(tracer, "core.evaluate.base_ms", group_ops),
            span_metric(tracer, "core.select_ms", group_ops),
        ]
        attempted = len(self.steady) + BURST * len(self.bursts)
        return Outcome(metrics, attempted, refused, failures, report)


def _mark_done(done: List[float], index: int, future) -> None:
    """Done-callback: stamp the completion time of a request that succeeded."""
    if not future.cancelled() and future.exception() is None:
        done[index] = time.perf_counter()
