"""paper-eval: the paper's Section IV evaluation at paper scale.

Closed loop, one client.  One op runs the three Section IV experiments in a
fresh ``Session`` (``run_paper_evaluation(scale="paper")``), then
``summary_statistics`` and ``all_figures``, as
``examples/paper_evaluation.py --paper`` does.  Nearly all of it is the
simulator's probe executing blocks one by one.

The predicted and simulated series and the Section IV-D statistics are
checked against ``reference/paper_eval.json``: a change that only makes the
code faster must leave every one of them unchanged.  Regenerate the
reference (only for a change meant to move the model or the simulator)
with ``PYTHONPATH=src python3 -m perfbench.paper_eval`` from the
repository root.
"""

from __future__ import annotations

import json
import math
import time
from pathlib import Path
from typing import Dict, List, Sequence

import numpy as np

from repro import Session, all_figures, paper_specs, summary_statistics
from repro.algorithms.registry import create
from repro.experiments import Result, ResultSet, plan_groups

from perfbench import walks
from perfbench.common import (
    Calibration,
    Metric,
    Outcome,
    count_metric,
    layer_metrics,
    span_metric,
    timing,
)
from perfbench.spans import Tracer

REFERENCE = Path(__file__).with_name("reference") / "paper_eval.json"
#: Relative tolerance of the reference check (the run is deterministic).
REFERENCE_RTOL = 1e-9
#: Sweeps of the warm-up: every code path of an op, at toy sizes.
WARM_UP_SIZES = {
    "vector_addition": (1_000, 2_000, 4_000),
    "reduction": (1_024, 2_048, 4_096),
    "matrix_multiplication": (32, 64, 96),
}
SUMMARY_FIELDS = (
    "measured_transfer_share",
    "measured_predicted_transfer_share",
    "measured_delta_accuracy",
    "measured_swgpu_capture",
    "atgpu_shape_score",
    "swgpu_shape_score",
)


def snapshot(results: ResultSet, stats) -> Dict[str, dict]:
    """Every predicted and simulated series plus the IV-D statistics."""
    out = {}
    for result in results:
        out[result.algorithm] = {
            "sizes": list(result.sizes),
            "predicted": {
                name: result.predicted[name]
                for name in ("atgpu", "swgpu", "perfect")
            },
            "delta_t": list(result.predicted_transfer_proportions),
            "observed_totals": list(result.observed_totals),
            "observed_kernels": list(result.observed_kernels),
            "observed_transfers": list(result.observed_transfers),
            "summary": {
                field: getattr(stats[result.algorithm], field)
                for field in SUMMARY_FIELDS
            },
        }
    return out


def compare(actual, expected, path: str = "") -> List[str]:
    """Differences between two snapshots beyond ``REFERENCE_RTOL``."""
    if isinstance(expected, dict):
        if not isinstance(actual, dict) or set(actual) != set(expected):
            return [f"{path or 'snapshot'}: keys differ"]
        return [
            error for key in expected
            for error in compare(actual[key], expected[key], f"{path}/{key}")
        ]
    if isinstance(expected, list):
        a = np.asarray(actual, dtype=float)
        e = np.asarray(expected, dtype=float)
        if a.shape != e.shape or not np.allclose(a, e, rtol=REFERENCE_RTOL, atol=0):
            return [f"{path}: differs from the reference"]
        return []
    if not math.isclose(actual, expected, rel_tol=REFERENCE_RTOL, abs_tol=0):
        return [f"{path}: {actual!r} != reference {expected!r}"]
    return []


def quality(stats) -> List[Metric]:
    """``delta_gap`` and ``share_err``: the model's and the simulator's error."""
    gaps = [s.measured_delta_accuracy for s in stats.values()]
    errors = [
        abs(s.measured_transfer_share - s.paper_transfer_share)
        for s in stats.values()
    ]
    return [
        Metric("delta_gap", float(np.mean(gaps)), "ratio"),
        Metric("share_err", float(np.mean(errors)), "ratio"),
    ]


class PaperEval:
    """The paper-eval workload (see the module docstring)."""

    name = "paper-eval"

    def __init__(self, seed: int, seconds: float) -> None:
        self.seed = seed
        self.specs = paper_specs(scale="paper", seed=seed)
        self.reference = json.loads(REFERENCE.read_text(encoding="utf-8"))

    def warm_up(self) -> None:
        """One op and one traced walk at toy sizes."""
        toy = [
            spec.with_overrides(sizes=WARM_UP_SIZES[spec.algorithm])
            for spec in self.specs
        ]
        self._evaluate(toy)
        tracer = Tracer()
        with tracer.op():
            self._walk(tracer, toy)

    # ------------------------------------------------------------------ #
    # The op, untraced and traced
    # ------------------------------------------------------------------ #
    def _evaluate(self, specs: Sequence = ()) -> tuple:
        """The op: the paper evaluation (or ``specs``, for the warm-up)."""
        with Session() as session:
            if specs:
                results = session.run_many(specs)
            else:
                results = session.run_paper_evaluation(
                    scale="paper", seed=self.seed
                )
            stats = summary_statistics(results)
            all_figures(results)
        return results, stats, session

    def _walk(self, tracer: Tracer, specs: Sequence) -> tuple:
        """The op through the layers' public calls, in execute_group order.

        The three Section IV specs name different algorithms, so every
        group of ``plan_groups`` holds one spec.
        """
        results = []
        for indices in plan_groups(specs):
            for spec in (specs[i] for i in indices):
                with tracer.span(f"experiments.execute.{spec.algorithm}"):
                    algorithm = create(spec.algorithm)
                    sizes = spec.resolved_sizes(algorithm)
                    prediction = walks.predict(
                        tracer, algorithm, sizes, spec.resolved_preset(),
                        spec.resolved_backends(),
                    )
                    observation = walks.observe_sweep(
                        tracer, algorithm, sizes,
                        spec.resolved_device_config(), spec.seed,
                    )
                    with tracer.span("experiments.package"):
                        results.append(
                            Result.from_sweeps(spec, prediction, observation)
                        )
        with tracer.span("experiments.package"):
            result_set = ResultSet(results)
            stats = summary_statistics(result_set)
            all_figures(result_set)
        return result_set, stats

    def _check(self, results, stats) -> List[str]:
        failures = compare(snapshot(results, stats), self.reference)
        for result in results:
            delta = np.asarray(result.predicted_transfer_proportions)
            if not np.all((delta >= 0) & (delta <= 1)):
                failures.append(f"{result.algorithm}: ΔT outside [0, 1]")
        return failures

    # ------------------------------------------------------------------ #
    # Runs
    # ------------------------------------------------------------------ #
    def measure(self, seconds: float, calibration: Calibration) -> Outcome:
        """Evaluations back to back until whole ones bring the run nearest
        to ``seconds``: another starts while half of the last one's time
        still fits."""
        times: List[float] = []
        failures: List[str] = []
        start = time.perf_counter()
        while not times or time.perf_counter() - start + times[-1] / 2 < seconds:
            calibration.sample()
            began = time.perf_counter()
            results, stats, _ = self._evaluate()
            times.append(time.perf_counter() - began)
            failures += self._check(results, stats)
        metrics = [
            timing("op_p50_ms", "ms", times, 1e3),
            Metric("ops_per_s", len(times) / sum(times), "1/s"),
        ]
        report = [timing("eval_s", "s", times), *quality(stats)]
        return Outcome(metrics, len(times), 0, failures, report)

    def trace(
        self, seconds: float, calibration: Calibration, tracer: Tracer
    ) -> Outcome:
        """Traced walks, as many as bring the run nearest to ``seconds``
        (the rule of :meth:`measure`), bracketed by two untraced evaluations.

        Coverage and overhead divide by the mean of the two: the sandbox's
        speed drifts by tens of percent within a minute, and one untraced
        op on one side of the traced ones moved both ratios by that much.
        """
        failures: List[str] = []
        untraced: List[float] = []

        def evaluate():
            calibration.sample()
            began = time.perf_counter()
            results, stats, session = self._evaluate()
            untraced.append(time.perf_counter() - began)
            failures.extend(self._check(results, stats))
            return session.batch_cache

        start = time.perf_counter()
        cache = evaluate()
        hit_ratio = cache.hits / max(1, cache.hits + cache.misses)
        ops: List[int] = []
        times: List[float] = []
        while not ops or time.perf_counter() - start + times[-1] / 2 < seconds:
            calibration.sample()
            with tracer.op() as op:
                began = time.perf_counter()
                results, stats = self._walk(tracer, self.specs)
                times.append(time.perf_counter() - began)
            ops.append(op)
            failures += self._check(results, stats)
        evaluate()
        eval_s = float(np.mean(untraced))

        top = tracer.top_level_ns()
        coverage = float(np.median([top[op] for op in ops])) * 1e-9 / eval_s
        metrics = layer_metrics(
            tracer, ops, float(np.median(times)) / eval_s, coverage,
            {"experiments.batch_cache_hit_ratio": hit_ratio},
        )
        probe = span_metric(tracer, "simulator.probe_ms", ops)
        blocks = count_metric(tracer, "simulator.functional_blocks", ops)
        report = [
            probe,
            Metric("simulator.probe_us_per_block",
                   probe.value * 1e3 / max(blocks.value, 1), "us"),
            span_metric(tracer, "simulator.replay_ms", ops),
            span_metric(tracer, "core.evaluate.base_ms", ops),
            *(
                span_metric(tracer, f"experiments.execute.{spec.algorithm}_s", ops)
                for spec in self.specs
            ),
            span_metric(tracer, "experiments.package_ms", ops),
        ]
        return Outcome(metrics, len(untraced) + len(ops), 0, failures, report)


def write_reference() -> None:
    """Record the current evaluation as the reference of the output check."""
    with Session() as session:
        results = session.run_many(paper_specs(scale="paper"))
    REFERENCE.parent.mkdir(exist_ok=True)
    REFERENCE.write_text(
        json.dumps(snapshot(results, summary_statistics(results)), indent=1)
        + "\n",
        encoding="utf-8",
    )


if __name__ == "__main__":
    write_reference()
