"""Measurement helpers shared by the workloads.

A :class:`Metric` is one named number with its unit; timings built by
:func:`timing` also keep their sample count, p50 and the highest percentile
that has at least ten samples beyond it, which :func:`render` prints.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

#: Candidate tail percentiles, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)
#: Samples a tail percentile needs beyond it before it is reported.
MIN_TAIL_SAMPLES = 10


@dataclass(frozen=True)
class Metric:
    """A reported number; ``samples``/``p50``/``tail`` describe timings."""

    name: str
    value: float
    unit: str
    samples: int = 1
    p50: Optional[float] = None
    tail: Optional[Tuple[float, float]] = None


def tail_percentile(count: int) -> Optional[float]:
    """Highest percentile with ``MIN_TAIL_SAMPLES`` samples beyond it."""
    for q in TAIL_PERCENTILES:
        if count * (100.0 - q) / 100.0 >= MIN_TAIL_SAMPLES:
            return q
    return None


def timing(
    name: str, unit: str, samples: Sequence[float], scale: float = 1.0,
    q: float = 50.0,
) -> Metric:
    """A timing metric whose value is percentile ``q`` of ``samples``.

    ``scale`` converts seconds into ``unit``.  Non-finite samples (failed
    requests) sort last, so they count as misses of every percentile.
    """
    values = np.sort(np.asarray(samples, dtype=float) * scale)
    if values.size == 0:
        return Metric(name, math.nan, unit, samples=0)
    tail_q = tail_percentile(values.size)
    tail = None if tail_q is None else (tail_q, _percentile(values, tail_q))
    return Metric(
        name, _percentile(values, q), unit, samples=int(values.size),
        p50=_percentile(values, 50.0), tail=tail,
    )


def _percentile(sorted_values: np.ndarray, q: float) -> float:
    if not np.all(np.isfinite(sorted_values)):
        # np.percentile interpolates inf into nan; rank on the sorted array.
        rank = min(int(math.ceil(q / 100.0 * sorted_values.size)) - 1,
                   sorted_values.size - 1)
        return float(sorted_values[max(rank, 0)])
    return float(np.percentile(sorted_values, q))


def median_of(values: Sequence[float]) -> float:
    """Median of a non-empty sequence (``nan`` when empty)."""
    return float(np.median(values)) if len(values) else math.nan


class Calibration:
    """A fixed CPU loop timed between ops: the sandbox's drift over a run.

    Its work never changes, so a slower median means a slower machine, not
    a slower program.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []
        self._data = np.arange(50_000, dtype=float)

    def sample(self) -> None:
        start = time.perf_counter()
        total = 0
        for i in range(20_000):
            total += i * i % 7
        float(np.sqrt(self._data).sum() + total)
        self.samples.append(time.perf_counter() - start)

    def metric(self) -> Metric:
        return timing("sandbox.calibration_ms", "ms", self.samples, 1e3)


def render(metrics: Sequence[Metric]) -> List[str]:
    """Aligned report lines: name, value, unit, p50, tail, samples."""
    lines = []
    width = max((len(m.name) for m in metrics), default=10)
    for m in metrics:
        line = f"{m.name:<{width}}  {m.value:>14.6g} {m.unit:<6}"
        if m.p50 is not None:
            line += f"  p50 {m.p50:.6g}"
            if m.tail is not None:
                line += f"  p{m.tail[0]:g} {m.tail[1]:.6g}"
            line += f"  n={m.samples}"
        lines.append(line)
    return lines


def as_json_metrics(metrics: Sequence[Metric]) -> Dict[str, Dict[str, object]]:
    """The ``metrics`` object of the result line (non-finite -> ``null``)."""
    return {
        m.name: {
            "value": m.value if math.isfinite(m.value) else None,
            "unit": m.unit,
        }
        for m in metrics
    }


def finite_positive(metrics: Sequence[Metric], units: Sequence[str]) -> List[str]:
    """Failures of the 'every time is finite and positive' check."""
    return [
        f"{m.name} = {m.value!r} {m.unit} is not a finite positive time"
        for m in metrics
        if m.unit in units and not (math.isfinite(m.value) and m.value > 0)
    ]


@dataclass
class Outcome:
    """What one workload run reports: metrics, op counts, failed checks.

    ``report`` metrics are printed with the others but left out of the
    result line: numbers too unsteady on a shared host to gate a change.
    """

    metrics: List[Metric]
    attempted: int
    failed: int
    failures: List[str]
    report: List[Metric] = field(default_factory=list)


#: Nanoseconds-to-unit factors for span-derived timings.
NS_TO = {"s": 1e-9, "ms": 1e-6, "us": 1e-3}


def span_metric(tracer, name: str, ops) -> Metric:
    """p50 over ``ops`` of each op's summed span time.

    ``name`` is the span name plus a unit suffix: ``core.compile_ms`` is the
    time of the ``core.compile`` spans in milliseconds.
    """
    span, unit = name.rsplit("_", 1)
    per_op = tracer.per_op_ns(span)
    return timing(name, unit, [per_op.get(op, 0) for op in ops], NS_TO[unit])


def identical(a, b) -> bool:
    """Whether two sweep predictions are equal bit for bit."""
    arrays = ("predicted_transfer_proportions", "transfers", "kernels")
    return (
        list(a.sizes) == list(b.sizes)
        and set(a.series) == set(b.series)
        and all(np.array_equal(a.series[k], b.series[k]) for k in a.series)
        and all(
            np.array_equal(np.asarray(getattr(a, name)), np.asarray(getattr(b, name)))
            for name in arrays
        )
    )


def count_metric(tracer, name: str, ops) -> Metric:
    """Median over ``ops`` of each op's counter ``name`` (0 without ops)."""
    per_op = tracer.per_op_count(name)
    value = median_of([per_op.get(op, 0) for op in ops]) if ops else 0.0
    return Metric(name, value, "count", samples=len(ops))


#: Per-layer metrics a workload supplies itself, as spans cannot show them,
#: with their units.  The ``serving`` and cache ones read 0 on a workload
#: that has no server or no ``Session``.
GIVEN_UNITS = {
    "experiments.batch_cache_hit_ratio": "ratio",
    "serving.share": "ratio",
    "serving.coalescing_ratio.burst": "ratio",
    "serving.dispatches": "count",
}


def layer_metrics(
    tracer, ops, overhead: float, coverage: float,
    given: Optional[Dict[str, float]] = None,
) -> List[Metric]:
    """The per-layer metrics every traced run prints.

    Every workload prints the same names so that each one can be compared
    with itself across commits.  The times are p50s over the traced ops
    that compile a batch, which every workload does; counts are medians
    over the ops that make the call; ``simulator.share`` is the simulator's
    share of the traced time of ``ops``.  A layer the workload never
    reaches reads 0, which only shares, counts and ratios can do.
    ``overhead`` and ``coverage`` are ``trace.overhead`` and
    ``trace.coverage``; ``given`` holds the ``GIVEN_UNITS`` metrics.
    """
    compile_ops = tracer.ops_with("core.compile")
    probe_ops = tracer.ops_with("simulator.probe")
    return [
        Metric("simulator.share", tracer.share("simulator", ops), "ratio"),
        count_metric(tracer, "simulator.functional_blocks", probe_ops),
        count_metric(tracer, "simulator.sampled_launches", probe_ops),
        span_metric(tracer, "algorithms.metrics_batch_ms", compile_ops),
        span_metric(tracer, "core.compile_ms", compile_ops),
        span_metric(tracer, "core.evaluate_ms", compile_ops),
        count_metric(tracer, "core.points_evaluated", compile_ops),
        *(Metric(name, float((given or {}).get(name, 0.0)), unit)
          for name, unit in GIVEN_UNITS.items()),
        Metric("trace.overhead", overhead, "ratio"),
        Metric("trace.coverage", coverage, "ratio"),
    ]
