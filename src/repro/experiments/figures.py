"""Series builders for every figure of the paper's evaluation section.

Each ``figure*`` function returns one or more :class:`FigureSeries` objects:
a named set of curves over the sweep's input sizes, which is exactly the
data plotted in the corresponding subfigure of the paper.
``examples/paper_evaluation.py`` prints these series; plotting them (with
any tool) reproduces the figures.

===========  ==========================================================
Figure 3     vector addition: (a) predicted ATGPU/SWGPU cost,
             (b) observed total/kernel time, (c) all four normalised
Figure 4     reduction, same three subfigures
Figure 5     matrix multiplication: (a) predicted, (b) observed
Figure 6     transfer proportions Δ (observed ΔE vs predicted ΔT) for
             (a) vector addition, (b) reduction, (c) matrix multiplication
===========  ==========================================================

Every ``figure*`` builder accepts either the classic
:class:`~repro.core.prediction.PredictionComparison` objects or the
:class:`~repro.experiments.results.Result` /
:class:`~repro.experiments.results.ResultSet` objects produced by a
:class:`~repro.experiments.session.Session`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from repro.core.prediction import PredictionComparison
from repro.experiments.results import as_comparison, as_comparisons
from repro.utils.stats import speedup_series


@dataclass
class FigureSeries:
    """The data behind one subfigure: named curves over the input sizes."""

    figure: str
    title: str
    x_label: str
    y_label: str
    sizes: List[int]
    series: Dict[str, np.ndarray]

    def __post_init__(self) -> None:
        for name, values in self.series.items():
            if len(values) != len(self.sizes):
                raise ValueError(
                    f"series {name!r} of {self.figure} has {len(values)} points "
                    f"but the sweep has {len(self.sizes)}"
                )

    def as_rows(self) -> List[List[float]]:
        """Rows of ``[size, curve1, curve2, ...]`` in series order."""
        names = list(self.series)
        rows = []
        for index, size in enumerate(self.sizes):
            rows.append([float(size)] + [float(self.series[n][index]) for n in names])
        return rows

    def column_names(self) -> List[str]:
        """Column headers matching :meth:`as_rows`."""
        return [self.x_label] + list(self.series)


def _predicted(comparison: PredictionComparison, figure: str, title: str,
               x_label: str) -> FigureSeries:
    return FigureSeries(
        figure=figure,
        title=title,
        x_label=x_label,
        y_label="cost",
        sizes=comparison.sizes,
        series={
            "ATGPU": comparison.prediction.atgpu_costs,
            "SWGPU": comparison.prediction.swgpu_costs,
        },
    )


def _observed(comparison: PredictionComparison, figure: str, title: str,
              x_label: str) -> FigureSeries:
    return FigureSeries(
        figure=figure,
        title=title,
        x_label=x_label,
        y_label="time (s)",
        sizes=comparison.sizes,
        series={
            "Total": comparison.observation.totals,
            "Kernel": comparison.observation.kernels,
        },
    )


def _normalised(comparison: PredictionComparison, figure: str, title: str,
                x_label: str) -> FigureSeries:
    return FigureSeries(
        figure=figure,
        title=title,
        x_label=x_label,
        y_label="cost / time (normalised)",
        sizes=comparison.sizes,
        series=comparison.normalised_curves(),
    )


def _delta(comparison: PredictionComparison, figure: str, title: str,
           x_label: str) -> FigureSeries:
    deltas = comparison.delta_curves()
    return FigureSeries(
        figure=figure,
        title=title,
        x_label=x_label,
        y_label="Δ (transfer proportion)",
        sizes=comparison.sizes,
        series={
            "ΔE (Observed)": deltas["observed"],
            "ΔT (Predicted)": deltas["predicted"],
        },
    )


# --------------------------------------------------------------------- #
# Figures 3-6
# --------------------------------------------------------------------- #
def figure3(comparison) -> Dict[str, FigureSeries]:
    """Figure 3 (vector addition): predicted, observed and normalised series."""
    comparison = as_comparison(comparison)
    x = "n"
    return {
        "3a": _predicted(comparison, "Figure 3a", "Vector addition: predicted results", x),
        "3b": _observed(comparison, "Figure 3b", "Vector addition: observed results", x),
        "3c": _normalised(comparison, "Figure 3c", "Vector addition: normalised results", x),
    }


def figure4(comparison) -> Dict[str, FigureSeries]:
    """Figure 4 (reduction): predicted, observed and normalised series."""
    comparison = as_comparison(comparison)
    x = "n"
    return {
        "4a": _predicted(comparison, "Figure 4a", "Reduction: predicted results", x),
        "4b": _observed(comparison, "Figure 4b", "Reduction: observed results", x),
        "4c": _normalised(comparison, "Figure 4c", "Reduction: normalised results", x),
    }


def figure5(comparison) -> Dict[str, FigureSeries]:
    """Figure 5 (matrix multiplication): predicted and observed series."""
    comparison = as_comparison(comparison)
    x = "n"
    return {
        "5a": _predicted(comparison, "Figure 5a",
                         "Matrix multiplication: predicted results", x),
        "5b": _observed(comparison, "Figure 5b",
                        "Matrix multiplication: observed results", x),
    }


def figure6(comparisons) -> Dict[str, FigureSeries]:
    """Figure 6: transfer proportions Δ for the three paper algorithms.

    ``comparisons`` maps the registry names (``vector_addition``,
    ``reduction``, ``matrix_multiplication``) to their comparison (or
    result) objects, or is a :class:`ResultSet` covering them.
    """
    comparisons = as_comparisons(comparisons)
    labels = {
        "vector_addition": ("6a", "Vector addition"),
        "reduction": ("6b", "Reduction"),
        "matrix_multiplication": ("6c", "Matrix multiplication"),
    }
    out: Dict[str, FigureSeries] = {}
    for name, (key, title) in labels.items():
        if name not in comparisons:
            raise KeyError(f"figure6 needs a comparison for {name!r}")
        out[key] = _delta(comparisons[name], f"Figure {key}",
                          f"{title}: proportion of time/cost for data transfer", "n")
    return out


# --------------------------------------------------------------------- #
# Overlap (async-stream) figures — beyond the paper's evaluation
# --------------------------------------------------------------------- #
def figure_overlap(
    comparison,
    serial_backend: str = "atgpu",
    async_backend: str = "atgpu-async",
    title: str = "Compute/copy overlap: serial vs async predicted cost",
) -> FigureSeries:
    """Serial vs overlapped predicted cost and the speedup Δ over a sweep.

    ``comparison`` must carry prediction series for both backends, i.e. its
    spec ran with e.g. ``backends=("atgpu", "swgpu", "perfect",
    "atgpu-async")``.  The ``Speedup Δ`` curve is the per-size ratio of the
    serial to the overlapped cost (≥ 1; how much the async pipeline wins).
    """
    comparison = as_comparison(comparison)
    serial = comparison.prediction.series_for(serial_backend)
    overlapped = comparison.prediction.series_for(async_backend)
    return FigureSeries(
        figure="Overlap",
        title=title,
        x_label="n",
        y_label="cost / speedup",
        sizes=comparison.sizes,
        series={
            "Serial": serial,
            "Async": overlapped,
            "Speedup Δ": speedup_series(serial, overlapped),
        },
    )


def figure_chunk_sweep(
    algorithm,
    n: int,
    preset=None,
    chunk_counts: Sequence[int] = (),
) -> FigureSeries:
    """Overlapped cost and speedup at one input size across chunk counts.

    Evaluates the overlapped cost model directly (no registered backend per
    chunk count needed); the x-axis is the chunk count, with 1 the serial
    baseline.  ``chunk_counts`` defaults to
    :data:`repro.workloads.sweeps.STREAM_CHUNK_SWEEP`.
    """
    from repro.core.backends import overlapped_cost
    from repro.core.presets import DEFAULT_PRESET
    from repro.workloads.sweeps import STREAM_CHUNK_SWEEP

    if isinstance(algorithm, str):
        from repro.algorithms.registry import create

        algorithm = create(algorithm)
    preset = preset or DEFAULT_PRESET
    counts = list(chunk_counts) or list(STREAM_CHUNK_SWEEP.sizes)
    metrics = algorithm.metrics(int(n), preset.machine)
    costs = np.array([
        overlapped_cost(
            metrics, preset.machine, preset.parameters, preset.occupancy,
            chunks=int(c),
        )
        for c in counts
    ])
    serial = overlapped_cost(
        metrics, preset.machine, preset.parameters, preset.occupancy, chunks=1
    )
    return FigureSeries(
        figure="Overlap-chunks",
        title=(
            f"{algorithm.name}: overlapped cost vs chunk count at n={int(n)}"
        ),
        x_label="chunks",
        y_label="cost / speedup",
        sizes=[int(c) for c in counts],
        series={"Async": costs, "Speedup Δ": serial / costs},
    )


# --------------------------------------------------------------------- #
# Multi-GPU sharding (scaling) figures — beyond the paper's evaluation
# --------------------------------------------------------------------- #
def figure_scaling(
    comparison,
    serial_backend: str = "atgpu",
    sharded_backend: str = "atgpu-multi",
    title: str = "Multi-GPU sharding: serial vs sharded predicted cost",
) -> FigureSeries:
    """Serial vs sharded predicted cost and the scaling speedup over a sweep.

    ``comparison`` may be a :class:`~repro.experiments.results.Result` (or a
    :class:`PredictionComparison`) carrying prediction series for both
    backends, i.e. its spec ran with e.g. ``backends=("atgpu", "swgpu",
    "perfect", "atgpu-multi")``.  The ``Speedup Δ`` curve is the per-size
    ratio of the serial to the sharded (straggler) cost.
    """
    comparison = as_comparison(comparison)
    serial = comparison.prediction.series_for(serial_backend)
    sharded = comparison.prediction.series_for(sharded_backend)
    return FigureSeries(
        figure="Scaling",
        title=title,
        x_label="n",
        y_label="cost / speedup",
        sizes=comparison.sizes,
        series={
            "Serial": serial,
            "Sharded": sharded,
            "Speedup Δ": speedup_series(serial, sharded),
        },
    )


def figure_shard_sweep(
    algorithm,
    n: int,
    preset=None,
    device_counts: Sequence[int] = (),
    contention: float = 0.0,
) -> FigureSeries:
    """Sharded cost and speedup at one input size across device counts.

    Prices ``Topology.homogeneous(p, contention)`` for each device count
    ``p`` directly (no registered backend per device count needed); the
    x-axis is the pool size, with 1 the serial baseline.
    ``device_counts`` defaults to
    :data:`repro.workloads.sweeps.SHARD_COUNT_SWEEP`.
    """
    from repro.core.presets import DEFAULT_PRESET
    from repro.core.sharding import topology_gpu_cost
    from repro.core.topology import Topology
    from repro.workloads.sweeps import SHARD_COUNT_SWEEP

    if isinstance(algorithm, str):
        from repro.algorithms.registry import create

        algorithm = create(algorithm)
    preset = preset or DEFAULT_PRESET
    counts = list(device_counts) or list(SHARD_COUNT_SWEEP.sizes)
    metrics = algorithm.metrics(int(n), preset.machine)

    def cost(fleet: Topology) -> float:
        return topology_gpu_cost(
            metrics, preset.machine, preset.parameters, preset.occupancy,
            fleet,
        )

    costs = np.array([
        cost(Topology.homogeneous(int(p), contention)) for p in counts
    ])
    serial = cost(Topology.homogeneous(1))
    return FigureSeries(
        figure="Scaling-devices",
        title=(
            f"{algorithm.name}: sharded cost vs device count at n={int(n)} "
            f"(contention {contention:g})"
        ),
        x_label="devices",
        y_label="cost / speedup",
        sizes=[int(p) for p in counts],
        series={
            "Sharded": costs,
            "Speedup Δ": speedup_series(np.full(len(costs), serial), costs),
        },
    )


def all_figures(comparisons) -> Dict[str, FigureSeries]:
    """Every subfigure of the evaluation, keyed ``3a`` ... ``6c``.

    Accepts a ``{name: comparison}`` mapping or a :class:`ResultSet`.
    """
    comparisons = as_comparisons(comparisons)
    out: Dict[str, FigureSeries] = {}
    out.update(figure3(comparisons["vector_addition"]))
    out.update(figure4(comparisons["reduction"]))
    out.update(figure5(comparisons["matrix_multiplication"]))
    out.update(figure6(comparisons))
    return out
