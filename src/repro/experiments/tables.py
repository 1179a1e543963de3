"""Tables and summary statistics of the paper's evaluation.

* :func:`table1` reproduces Table I (the model feature comparison).
* :func:`summary_statistics` reproduces the prose statistics of Section IV-D:
  the average share of time spent on data transfer per algorithm, the mean
  absolute gap between the predicted and observed transfer proportions, and
  the share of the actual running time captured by the kernel-only (SWGPU)
  view.  The paper's reported values are attached so that rendered output
  (``examples/paper_evaluation.py``) shows paper-vs-measured side by side.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.core.comparison import model_feature_table, render_feature_table
from repro.core.prediction import PredictionComparison
from repro.experiments.results import as_comparison, as_comparisons
from repro.utils.stats import speedup_series

#: The values the paper reports in Section IV-D, for side-by-side comparison.
PAPER_REPORTED = {
    "vector_addition": {
        "observed_transfer_share": 0.84,
        "delta_accuracy": 0.015,
        "swgpu_capture_fraction": 0.16,
    },
    "reduction": {
        "observed_transfer_share": 0.35,
        "delta_accuracy": 0.0549,
        "swgpu_capture_fraction": 0.58,
    },
    "matrix_multiplication": {
        # The paper reports "little difference between kernel and total time"
        # and an 89 % capture; the average Δ of Fig. 6c is roughly 10 %.
        "observed_transfer_share": 0.11,
        "delta_accuracy": 0.0076,
        "swgpu_capture_fraction": 0.89,
    },
}


def table1(rendered: bool = False):
    """Table I of the paper.

    Returns the feature matrix (``{feature: {model: bool}}``), or its aligned
    text rendering when ``rendered=True``.
    """
    if rendered:
        return render_feature_table(include_counts=True)
    return model_feature_table()


@dataclass
class AlgorithmSummary:
    """Section IV-D statistics for one algorithm, measured vs paper."""

    algorithm: str
    measured_transfer_share: float
    measured_predicted_transfer_share: float
    measured_delta_accuracy: float
    measured_swgpu_capture: float
    atgpu_shape_score: float
    swgpu_shape_score: float
    paper_transfer_share: Optional[float] = None
    paper_delta_accuracy: Optional[float] = None
    paper_swgpu_capture: Optional[float] = None

    @property
    def atgpu_tracks_total_better(self) -> bool:
        """The headline claim: the ATGPU growth shape is at least as close."""
        return self.atgpu_shape_score >= self.swgpu_shape_score


def summarise(name: str, comparison) -> AlgorithmSummary:
    """Build the Section IV-D summary of one algorithm's experiment.

    ``comparison`` may be a :class:`PredictionComparison` or a
    :class:`~repro.experiments.results.Result`.
    """
    comparison = as_comparison(comparison)
    paper = PAPER_REPORTED.get(name, {})
    return AlgorithmSummary(
        algorithm=name,
        measured_transfer_share=comparison.average_observed_transfer_share(),
        measured_predicted_transfer_share=comparison.average_predicted_transfer_share(),
        measured_delta_accuracy=comparison.delta_accuracy(),
        measured_swgpu_capture=comparison.swgpu_capture_fraction(),
        atgpu_shape_score=comparison.atgpu_shape_score(),
        swgpu_shape_score=comparison.swgpu_shape_score(),
        paper_transfer_share=paper.get("observed_transfer_share"),
        paper_delta_accuracy=paper.get("delta_accuracy"),
        paper_swgpu_capture=paper.get("swgpu_capture_fraction"),
    )


def summary_statistics(comparisons) -> Dict[str, AlgorithmSummary]:
    """Section IV-D statistics for every algorithm in ``comparisons``.

    Accepts a ``{name: comparison-or-result}`` mapping or a
    :class:`~repro.experiments.results.ResultSet`.
    """
    return {name: summarise(name, comparison)
            for name, comparison in as_comparisons(comparisons).items()}


@dataclass
class OverlapSummary:
    """Predicted benefit of compute/copy overlap for one algorithm's sweep."""

    algorithm: str
    serial_cost: float
    overlapped_cost: float
    mean_speedup: float
    max_speedup: float

    @property
    def saving_share(self) -> float:
        """Fraction of the serial cost recovered by overlap, aggregated."""
        if self.serial_cost == 0:
            return 0.0
        return 1.0 - self.overlapped_cost / self.serial_cost


def overlap_summary(
    comparisons,
    serial_backend: str = "atgpu",
    async_backend: str = "atgpu-async",
) -> Dict[str, OverlapSummary]:
    """Overlap speedup Δ relative to the serial model, per algorithm.

    Every comparison must carry prediction series for both backends (run its
    specs with ``backends`` including ``atgpu-async``).  ``serial_cost`` and
    ``overlapped_cost`` are sums over the sweep; the speedups are per-size
    serial/overlapped ratios.
    """
    out: Dict[str, OverlapSummary] = {}
    for name, comparison in as_comparisons(comparisons).items():
        serial = comparison.prediction.series_for(serial_backend)
        overlapped = comparison.prediction.series_for(async_backend)
        speedups = speedup_series(serial, overlapped)
        out[name] = OverlapSummary(
            algorithm=name,
            serial_cost=float(serial.sum()),
            overlapped_cost=float(overlapped.sum()),
            mean_speedup=float(speedups.mean()),
            max_speedup=float(speedups.max()),
        )
    return out


@dataclass
class ScalingSummary:
    """Predicted benefit of multi-GPU sharding for one algorithm's sweep."""

    algorithm: str
    serial_cost: float
    sharded_cost: float
    mean_speedup: float
    max_speedup: float

    @property
    def saving_share(self) -> float:
        """Fraction of the serial cost removed by sharding, aggregated."""
        if self.serial_cost == 0:
            return 0.0
        return 1.0 - self.sharded_cost / self.serial_cost


def scaling_summary(
    comparisons,
    serial_backend: str = "atgpu",
    sharded_backend: str = "atgpu-multi",
) -> Dict[str, ScalingSummary]:
    """Sharding speedup Δ relative to the serial model, per algorithm.

    Every comparison must carry prediction series for both backends (run its
    specs with ``backends`` including ``atgpu-multi`` or a
    :func:`~repro.core.backends.make_sharded_backend` variant).
    ``serial_cost`` and ``sharded_cost`` are sums over the sweep; the
    speedups are per-size serial/straggler ratios.
    """
    out: Dict[str, ScalingSummary] = {}
    for name, comparison in as_comparisons(comparisons).items():
        serial = comparison.prediction.series_for(serial_backend)
        sharded = comparison.prediction.series_for(sharded_backend)
        speedups = speedup_series(serial, sharded)
        out[name] = ScalingSummary(
            algorithm=name,
            serial_cost=float(serial.sum()),
            sharded_cost=float(sharded.sum()),
            mean_speedup=float(speedups.mean()),
            max_speedup=float(speedups.max()),
        )
    return out


def _render_table(rows) -> str:
    """Align a header+rows list of string cells into a text table."""
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    return "\n".join(
        "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip()
        for row in rows
    )


def render_overlap_summary(summaries: Dict[str, OverlapSummary]) -> str:
    """Aligned text table of the overlap-speedup summary."""
    rows = [[
        "algorithm", "serial cost", "async cost", "mean Δ", "max Δ",
        "saving share",
    ]]
    for name, s in summaries.items():
        rows.append([
            name,
            f"{s.serial_cost:.4g}",
            f"{s.overlapped_cost:.4g}",
            f"{s.mean_speedup:.3f}",
            f"{s.max_speedup:.3f}",
            f"{s.saving_share:.1%}",
        ])
    return _render_table(rows)


def render_scaling_summary(summaries: Dict[str, ScalingSummary]) -> str:
    """Aligned text table of the sharding-speedup summary."""
    rows = [[
        "algorithm", "serial cost", "sharded cost", "mean Δ", "max Δ",
        "saving share",
    ]]
    for name, s in summaries.items():
        rows.append([
            name,
            f"{s.serial_cost:.4g}",
            f"{s.sharded_cost:.4g}",
            f"{s.mean_speedup:.3f}",
            f"{s.max_speedup:.3f}",
            f"{s.saving_share:.1%}",
        ])
    return _render_table(rows)


def render_summary(summaries: Dict[str, AlgorithmSummary]) -> str:
    """Aligned text table of measured-vs-paper summary statistics."""
    header = [
        "algorithm", "ΔE avg (meas)", "ΔE avg (paper)", "ΔT avg (meas)",
        "|ΔT-ΔE| (meas)", "|ΔT-ΔE| (paper)", "kernel share (meas)",
        "kernel share (paper)", "ATGPU tracks better",
    ]
    rows = [header]
    for name, s in summaries.items():
        rows.append([
            name,
            f"{s.measured_transfer_share:.3f}",
            "-" if s.paper_transfer_share is None else f"{s.paper_transfer_share:.3f}",
            f"{s.measured_predicted_transfer_share:.3f}",
            f"{s.measured_delta_accuracy:.3f}",
            "-" if s.paper_delta_accuracy is None else f"{s.paper_delta_accuracy:.4f}",
            f"{s.measured_swgpu_capture:.3f}",
            "-" if s.paper_swgpu_capture is None else f"{s.paper_swgpu_capture:.2f}",
            "yes" if s.atgpu_tracks_total_better else "no",
        ])
    return _render_table(rows)
