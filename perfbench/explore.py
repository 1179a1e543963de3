"""explore: one user at a notebook calling the public algorithm API.

Closed loop, one client, no ``Session``.  Five op types run interleaved,
each round a seeded shuffle; every op of one type makes the same calls and
only its seeded sizes change:

* ``analyse`` -- ``analyse(n)`` once per Section IV algorithm, n drawn from
  its paper sweep;
* ``predict_sweep`` -- one 256-point dense ``predict_sweep`` per algorithm
  over its paper range, on the 13-backend grid (built-ins plus the
  ``STREAM_CHUNK_SWEEP`` async and ``SHARD_COUNT_SWEEP`` multi variants);
* ``observe`` -- vector addition ``observe(n, check=True)``, n in [1e6, 2e6];
* ``observe_sweep`` -- vector addition ``observe_sweep`` over a 128-point
  dense sweep from 1e6;
* ``schedule_sweep`` -- ``observe_streamed_sweep(chunks=4)`` and
  ``observe_sharded_sweep(devices=4)`` of vector addition and reduction
  over their paper sweeps.

Every observed grid is above ``functional_block_limit``, so the simulator
probes sampled blocks and block-by-block execution does no work here.

The end-to-end op is one round (8 ``analyse``, 2 ``predict_sweep`` and one
op of each other type); each op type's own p50 is reported beside it.
"""

from __future__ import annotations

import math
import time
from typing import Dict, Iterator, List, Tuple

import numpy as np

from repro.algorithms.registry import create, paper_algorithm_names
from repro.core.backends import (
    get_backend,
    make_async_backend,
    make_sharded_backend,
    register_backend,
)
from repro.core.presets import DEFAULT_PRESET
from repro.simulator.config import DeviceConfig
from repro.workloads.sweeps import (
    SHARD_COUNT_SWEEP,
    STREAM_CHUNK_SWEEP,
    dense_sweep,
    sweep_for,
)

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

OP_TYPES = ("analyse", "predict_sweep", "observe", "observe_sweep", "schedule_sweep")
#: Ops of each type per round: the cheap types repeat so that each type
#: collects enough samples for a steady p50 in one run.
PER_ROUND = {
    "analyse": 8, "predict_sweep": 2, "observe": 1, "observe_sweep": 1,
    "schedule_sweep": 1,
}
ROUND_OPS = sum(PER_ROUND.values())
DENSE_POINTS = 256
OBSERVE_RANGE = (1_000_000, 2_000_000)
#: observe sizes are stratified: each run of this many observe ops draws
#: one size from every equal slice of ``OBSERVE_RANGE``, so the p50 does
#: not depend on where the seed happens to put the sizes.
OBSERVE_STRATA = 8
OBSERVE_SWEEP_POINTS = 128
OBSERVE_SWEEP_LO = 1_000_000
SCHEDULE_ALGORITHMS = ("vector_addition", "reduction")
CHUNKS = 4
DEVICES = 4

Op = Tuple[str, object]


def backend_grid() -> Tuple[str, ...]:
    """The 13-backend grid, registering the sweep variants if absent."""
    names = ["atgpu", "swgpu", "perfect", "agpu", "atgpu-async", "atgpu-multi"]
    variants = [make_async_backend(int(c)) for c in STREAM_CHUNK_SWEEP.sizes]
    variants += [make_sharded_backend(int(d)) for d in SHARD_COUNT_SWEEP.sizes]
    for backend in variants:
        try:
            get_backend(backend.name)
        except KeyError:
            register_backend(backend)
        names.append(backend.name)
    return tuple(dict.fromkeys(names))


class Explore:
    """The explore workload (see the module docstring)."""

    name = "explore"

    def __init__(self, seed: int, seconds: float) -> None:
        self.seed = seed
        self.grid = backend_grid()
        self.algorithms = {name: create(name) for name in paper_algorithm_names()}
        self.vector_addition = self.algorithms["vector_addition"]
        self.preset = DEFAULT_PRESET
        self.config = DeviceConfig.gtx650()
        self.paper_sizes = {
            name: list(sweep_for(name).sizes) for name in self.algorithms
        }

    def rounds(self) -> Iterator[List[Op]]:
        """The seeded op sequence, one shuffled round at a time."""
        rng = np.random.default_rng(self.seed)
        strata: List[int] = []
        while True:
            kinds = [kind for kind in OP_TYPES for _ in range(PER_ROUND[kind])]
            rng.shuffle(kinds)
            ops = []
            for kind in kinds:
                if kind == "observe" and not strata:
                    strata = list(rng.permutation(OBSERVE_STRATA))
                ops.append((kind, self._inputs(kind, rng, strata)))
            yield ops

    def _inputs(self, kind: str, rng: np.random.Generator, strata: List[int]):
        if kind == "analyse":
            return {
                name: int(rng.choice(sizes))
                for name, sizes in self.paper_sizes.items()
            }
        if kind == "predict_sweep":
            inputs = {}
            for name, sizes in self.paper_sizes.items():
                step = (sizes[-1] - sizes[0]) // (DENSE_POINTS - 1)
                shift = int(rng.integers(0, max(step, 1)))
                inputs[name] = list(dense_sweep(
                    DENSE_POINTS, sizes[0] + shift, sizes[-1] + shift
                ).sizes)
            return inputs
        if kind == "observe":
            lo, hi = OBSERVE_RANGE
            slice_ = (strata.pop() + rng.random()) / OBSERVE_STRATA
            return lo + int(slice_ * (hi - lo))
        if kind == "observe_sweep":
            lo = OBSERVE_SWEEP_LO + int(rng.integers(0, 10_000))
            return list(dense_sweep(OBSERVE_SWEEP_POINTS, lo=lo).sizes)
        return {name: self.paper_sizes[name] for name in SCHEDULE_ALGORITHMS}

    def warm_up(self) -> None:
        """One op of each type through the library and through the walks,
        the simulated sweeps cut to their first two sizes."""
        tracer = Tracer()
        first = dict(next(self.rounds()))
        first["observe_sweep"] = first["observe_sweep"][:2]
        first["schedule_sweep"] = {
            name: sizes[:2] for name, sizes in first["schedule_sweep"].items()
        }
        for kind, inputs in first.items():
            self._call(kind, inputs)
            with tracer.op():
                self._walk(tracer, kind, inputs)

    # ------------------------------------------------------------------ #
    # One op: the library call, the traced walk, the output checks
    # ------------------------------------------------------------------ #
    def _call(self, kind: str, inputs):
        algorithms = self.algorithms
        if kind == "analyse":
            return [algorithms[name].analyse(n) for name, n in inputs.items()]
        if kind == "predict_sweep":
            return [
                algorithms[name].predict_sweep(sizes, backends=self.grid)
                for name, sizes in inputs.items()
            ]
        if kind == "observe":
            return self.vector_addition.observe(inputs, seed=self.seed, check=True)
        if kind == "observe_sweep":
            return self.vector_addition.observe_sweep(inputs, seed=self.seed)
        return [
            (
                algorithms[name].observe_streamed_sweep(sizes, chunks=CHUNKS),
                algorithms[name].observe_sharded_sweep(sizes, devices=DEVICES),
            )
            for name, sizes in inputs.items()
        ]

    def _walk(self, tracer: Tracer, kind: str, inputs):
        algorithms = self.algorithms
        if kind == "analyse":
            return [
                walks.analyse(tracer, algorithms[name], n, self.preset)
                for name, n in inputs.items()
            ]
        if kind == "predict_sweep":
            return [
                walks.predict(tracer, algorithms[name], sizes, self.preset, self.grid)
                for name, sizes in inputs.items()
            ]
        if kind == "observe":
            return walks.observe(
                tracer, self.vector_addition, inputs, self.config, self.seed
            )
        if kind == "observe_sweep":
            return walks.observe_sweep(
                tracer, self.vector_addition, inputs, self.config, self.seed
            )
        return [
            walks.schedule(
                tracer, algorithms[name], sizes, self.config, CHUNKS, DEVICES
            )
            for name, sizes in inputs.items()
        ]

    @staticmethod
    def _check(kind: str, output) -> List[str]:
        if kind == "analyse":
            bad = [r for r in output if not 0 <= r.predicted_transfer_proportion <= 1]
        elif kind == "predict_sweep":
            bad = [
                p for p in output
                if not np.all((p.predicted_transfer_proportions >= 0)
                              & (p.predicted_transfer_proportions <= 1))
            ]
        elif kind == "observe":
            bad = [] if output.correct else [output]
        elif kind == "observe_sweep":
            bad = [] if np.all(output.totals > 0) else [output]
        else:
            times = [t for pair in output for obs in pair for t in obs.makespans_s]
            bad = [] if all(math.isfinite(t) and t > 0 for t in times) else [output]
        return [f"{kind}: output check failed"] if bad else []

    @staticmethod
    def _same(kind: str, a, b) -> bool:
        """Whether a walk's output equals the library's, bit for bit."""
        if kind == "analyse":
            return all(
                x.backend_costs == y.backend_costs
                and x.predicted_transfer_proportion == y.predicted_transfer_proportion
                for x, y in zip(a, b)
            )
        if kind == "predict_sweep":
            return all(identical(x, y) for x, y in zip(a, b))
        return a == b

    # ------------------------------------------------------------------ #
    # Runs
    # ------------------------------------------------------------------ #
    def _run_rounds(self, seconds: float, calibration: Calibration):
        """Whole rounds until ``seconds`` pass: (kind, inputs, time, output)."""
        record = []
        rounds = self.rounds()
        start = time.perf_counter()
        while not record or time.perf_counter() - start < seconds:
            calibration.sample()
            for kind, inputs in next(rounds):
                began = time.perf_counter()
                output = self._call(kind, inputs)
                record.append((kind, inputs, time.perf_counter() - began, output))
        return record

    def measure(self, seconds: float, calibration: Calibration) -> Outcome:
        """The end-to-end op is a round; each op type's p50 is reported."""
        record = self._run_rounds(seconds, calibration)
        failures = [
            error for kind, _, _, output in record
            for error in self._check(kind, output)
        ]
        times = [entry[2] for entry in record]
        rounds = [
            sum(times[i:i + ROUND_OPS]) for i in range(0, len(record), ROUND_OPS)
        ]
        metrics = [
            timing("op_p50_ms", "ms", rounds, 1e3),
            Metric("ops_per_s", len(rounds) / sum(rounds), "1/s"),
        ]
        report = [
            timing(f"{kind}_ms", "ms",
                   [elapsed for k, _, elapsed, _ in record if k == kind], 1e3)
            for kind in OP_TYPES
        ]
        return Outcome(metrics, len(record), 0, failures, report)

    def trace(
        self, seconds: float, calibration: Calibration, tracer: Tracer
    ) -> Outcome:
        """Untraced rounds for half the time, then the same rounds traced."""
        record = self._run_rounds(seconds / 2, calibration)
        failures = [
            error for kind, _, _, output in record
            for error in self._check(kind, output)
        ]
        ops: Dict[str, List[int]] = {kind: [] for kind in OP_TYPES}
        traced_s = 0.0
        untraced_s = sum(elapsed for _, _, elapsed, _ in record)
        for index, (kind, inputs, _, expected) in enumerate(record):
            if index % ROUND_OPS == 0:
                calibration.sample()
            with tracer.op() as op:
                began = time.perf_counter()
                output = self._walk(tracer, kind, inputs)
                traced_s += time.perf_counter() - began
            ops[kind].append(op)
            if not self._same(kind, output, expected):
                failures.append(f"{kind}: traced walk differs from the library")

        traced = [op for kind in OP_TYPES for op in ops[kind]]
        top = tracer.top_level_ns()
        coverage = sum(top.get(op, 0) for op in traced) * 1e-9 / untraced_s
        metrics = layer_metrics(tracer, traced, traced_s / untraced_s, coverage)
        layers = {
            "analyse": ("algorithms.metrics_us", "core.analyse_us"),
            "predict_sweep": (
                "core.evaluate.base_ms", "core.evaluate.async_ms",
                "core.evaluate.multi_ms",
            ),
            "observe": (
                "workloads.generate_ms", "simulator.run_ms",
                "algorithms.reference_ms",
            ),
            "observe_sweep": ("simulator.probe_ms", "simulator.replay_ms"),
            "schedule_sweep": (
                "simulator.stream_plan_ms", "simulator.stream_replay_ms",
                "simulator.shard_plan_ms", "simulator.shard_replay_ms",
            ),
        }
        report = [
            span_metric(tracer, name, ops[kind])
            for kind, names in layers.items() for name in names
        ]
        return Outcome(metrics, 2 * len(record), 0, failures, report)
