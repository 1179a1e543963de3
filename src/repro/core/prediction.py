"""Sweep-level prediction and prediction-vs-observation comparison.

The paper's evaluation (Section IV) always works over a *sweep* of input
sizes: for each size it computes the cost of every model backend under
comparison (prediction side) and measures the total and kernel-only running
times (observation side), then compares growth shapes on a normalised scale
and compares the transfer proportions ``ΔT`` (predicted) and ``ΔE``
(observed).

:class:`SweepPrediction` holds the prediction side as one cost series per
registered backend (see :mod:`repro.core.backends`); :class:`SweepObservation`
holds the observation side; :class:`PredictionComparison` computes every
derived statistic the paper reports (normalised curves, Figure 6 series,
average transfer shares, Δ accuracy, per-backend growth-shape scores, and
the SWGPU "capture" fraction of Section IV-D).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.backends import (
    DEFAULT_BACKENDS,
    backend_label,
    evaluate_backends_batch,
)
from repro.core.batch import MetricsBatch, SweepMetricsFactory, batch_breakdown
from repro.core.cost import CostParameters
from repro.core.machine import ATGPUMachine
from repro.core.metrics import AlgorithmMetrics
from repro.core.occupancy import OccupancyModel
from repro.utils.stats import (
    POSITIVE_TOTALS_MESSAGE,
    average,
    growth_rate_similarity,
    mean_absolute_difference,
    normalise_series,
    require_positive_totals,
)

MetricsFactory = Callable[[int], AlgorithmMetrics]


@dataclass
class SweepPrediction:
    """Model predictions across a sweep of input sizes.

    A prediction carries one cost series per backend name plus the predicted
    transfer proportions ``ΔT``.  It is normally built by
    :func:`predict_sweep`, which fills every series (including
    :attr:`transfers` / :attr:`kernels`) from one batch evaluation.  It can
    equally be reconstructed from stored series alone — e.g. when a cached
    :class:`~repro.experiments.results.Result` is loaded from disk — in
    which case the accessors of series it lacks raise a clear error.
    Per-size :class:`~repro.core.analysis.AnalysisReport` objects come from
    ``GPUAlgorithm.analyse(n)``.
    """

    algorithm: str
    sizes: List[int]
    series: Dict[str, np.ndarray] = field(default_factory=dict)
    proportions: Optional[Sequence[float]] = None
    #: Predicted transfer / kernel cost per size.
    transfers: Optional[Sequence[float]] = None
    kernels: Optional[Sequence[float]] = None

    def __post_init__(self) -> None:
        if not self.sizes:
            raise ValueError("a sweep needs at least one input size")
        if not self.series:
            raise ValueError("a prediction needs precomputed series")
        for name, values in self.series.items():
            if len(values) != len(self.sizes):
                raise ValueError(
                    f"series for backend {name!r} has {len(values)} points "
                    f"but the sweep has {len(self.sizes)}"
                )
        for label, values in (
            ("proportions", self.proportions),
            ("transfers", self.transfers),
            ("kernels", self.kernels),
        ):
            if values is not None and len(values) != len(self.sizes):
                raise ValueError(f"{label} must align with the sweep sizes")

    # ------------------------------------------------------------------ #
    # Generic per-backend access
    # ------------------------------------------------------------------ #
    def backend_names(self) -> Tuple[str, ...]:
        """Backends this prediction carries a cost series for."""
        return tuple(self.series)

    def series_for(self, backend: str) -> np.ndarray:
        """Cost per size under a named backend."""
        if backend in self.series:
            return np.asarray(self.series[backend], dtype=float)
        known = ", ".join(self.backend_names())
        raise KeyError(
            f"no cost series for backend {backend!r}; available: {known}"
        )

    @staticmethod
    def _required(values: Optional[Sequence[float]], what: str) -> np.ndarray:
        if values is None:
            raise ValueError(
                f"{what} is not stored in this prediction, which only "
                "carries backend series; per-size analysis reports come "
                "from analyse(n)"
            )
        return np.asarray(values, dtype=float)

    # ------------------------------------------------------------------ #
    # Series accessors (the curves of Figures 3a/4a/5a and 6)
    # ------------------------------------------------------------------ #
    @property
    def atgpu_costs(self) -> np.ndarray:
        """ATGPU GPU-cost per size (the "ATGPU" curve)."""
        return self.series_for("atgpu")

    @property
    def swgpu_costs(self) -> np.ndarray:
        """SWGPU cost per size (the "SWGPU" curve)."""
        return self.series_for("swgpu")

    @property
    def transfer_costs(self) -> np.ndarray:
        """Predicted transfer cost per size."""
        return self._required(self.transfers, "transfer_costs")

    @property
    def kernel_costs(self) -> np.ndarray:
        """Predicted kernel-side cost per size."""
        return self._required(self.kernels, "kernel_costs")

    @property
    def predicted_transfer_proportions(self) -> np.ndarray:
        """``ΔT`` per size (the "Predicted" curve of Figure 6)."""
        return self._required(
            self.proportions, "predicted_transfer_proportions"
        )

    def normalised(self, backends: Optional[Sequence[str]] = None
                   ) -> Dict[str, np.ndarray]:
        """Normalised cost curves keyed by backend label (Figures 3c / 4c).

        Defaults to the paper's pair (``atgpu`` and ``swgpu``, labelled
        "ATGPU" / "SWGPU"); pass explicit backend names for other curves.
        """
        names = tuple(backends) if backends is not None else ("atgpu", "swgpu")
        return {
            backend_label(name): normalise_series(self.series_for(name))
            for name in names
        }

    def select(self, indices: Sequence[int]) -> "SweepPrediction":
        """A sub-prediction restricted to the given size columns, in order.

        Every cost of a sweep point depends only on its own column, so a
        prediction evaluated once over the union of several requested sweeps
        serves each individual sweep by slicing — bit-for-bit equal to
        evaluating that sweep alone.  This is the scatter half of the
        request-coalescing machinery (see :mod:`repro.serving`); the gather
        half is :meth:`repro.core.batch.MetricsBatch.select`.
        """
        idx = list(indices)
        if not idx:
            raise ValueError("a sweep needs at least one input size")
        cols = np.asarray(idx, dtype=int)

        def sliced(values: Optional[Sequence[float]]) -> Optional[np.ndarray]:
            if values is None:
                return None
            return np.asarray(values, dtype=float)[cols]

        return SweepPrediction(
            algorithm=self.algorithm,
            sizes=[self.sizes[i] for i in idx],
            series={
                name: np.asarray(values, dtype=float)[cols]
                for name, values in self.series.items()
            },
            proportions=sliced(self.proportions),
            transfers=sliced(self.transfers),
            kernels=sliced(self.kernels),
        )


@dataclass
class SweepObservation:
    """Observed (measured or simulated) running times across a sweep.

    ``total_times`` include the host↔device transfers; ``kernel_times`` are
    the device-only portions.  Units are seconds throughout the reproduction
    (the paper reports milliseconds; only shapes and ratios are compared).
    """

    algorithm: str
    sizes: List[int]
    total_times: List[float]
    kernel_times: List[float]
    transfer_times: List[float] = field(default_factory=list)

    def __post_init__(self) -> None:
        n = len(self.sizes)
        if len(self.total_times) != n or len(self.kernel_times) != n:
            raise ValueError("sizes, total_times and kernel_times must align")
        if not self.transfer_times:
            self.transfer_times = [
                max(t - k, 0.0)
                for t, k in zip(self.total_times, self.kernel_times)
            ]
        elif len(self.transfer_times) != n:
            raise ValueError("transfer_times must align with sizes")
        for total, kernel in zip(self.total_times, self.kernel_times):
            if kernel > total * (1 + 1e-9):
                raise ValueError(
                    "kernel time cannot exceed total time "
                    f"({kernel!r} > {total!r})"
                )

    @property
    def totals(self) -> np.ndarray:
        """Observed total times as an array."""
        return np.asarray(self.total_times, dtype=float)

    @property
    def kernels(self) -> np.ndarray:
        """Observed kernel-only times as an array."""
        return np.asarray(self.kernel_times, dtype=float)

    @property
    def transfers(self) -> np.ndarray:
        """Observed transfer times as an array."""
        return np.asarray(self.transfer_times, dtype=float)

    @property
    def observed_transfer_proportions(self) -> np.ndarray:
        """``ΔE`` per size (the "Observed" curve of Figure 6)."""
        totals = require_positive_totals(self.totals)
        return self.transfers / totals

    def normalised(self) -> Dict[str, np.ndarray]:
        """Normalised total and kernel curves (Figures 3c / 4c)."""
        return {
            "Total": normalise_series(self.totals),
            "Kernel": normalise_series(self.kernels),
        }


def predict_sweep_batch(
    algorithm: str,
    batch: MetricsBatch,
    machine: ATGPUMachine,
    parameters: CostParameters,
    occupancy: OccupancyModel,
    backends: Optional[Sequence[str]] = None,
) -> SweepPrediction:
    """Evaluate cost-model backends over a pre-compiled metrics batch.

    This is the vectorized core behind :func:`predict_sweep`: every backend
    family prices the whole sweep as one array program (custom backends
    without a batch evaluator fall back to one scalar call per size), and
    the transfer / kernel / ``ΔT`` series come from one vectorized ATGPU
    breakdown, bit-for-bit equal to per-size ``analyse``.
    """
    names = tuple(backends) if backends is not None else DEFAULT_BACKENDS
    batch.validate_against(machine)
    gpu = batch_breakdown(
        batch, machine, parameters, occupancy,
        use_occupancy=True, validate=False,
    )
    perfect = batch_breakdown(
        batch, machine, parameters, occupancy,
        use_occupancy=False, validate=False,
    )
    swgpu = batch_breakdown(
        batch, machine, parameters.without_transfer(), occupancy,
        use_occupancy=True, validate=False,
    )
    # Like analyse_metrics, always provide the built-in trio (from the
    # breakdowns just computed): results and figure builders rely on those
    # series being available.
    series = {
        "atgpu": gpu.total,
        "swgpu": swgpu.total,
        "perfect": perfect.total,
    }
    extra = tuple(name for name in names if name not in series)
    series.update(
        evaluate_backends_batch(extra, batch, machine, parameters, occupancy)
    )
    return SweepPrediction(
        algorithm=algorithm,
        sizes=list(batch.sizes),
        series=series,
        proportions=gpu.transfer_proportion,
        transfers=gpu.transfer,
        kernels=gpu.kernel,
    )


def predict_sweep(
    algorithm: str,
    sizes: Sequence[int],
    metrics_factory: Optional[MetricsFactory],
    machine: ATGPUMachine,
    parameters: CostParameters,
    occupancy: OccupancyModel,
    backends: Optional[Sequence[str]] = None,
    grid_factory: Optional[SweepMetricsFactory] = None,
) -> SweepPrediction:
    """Evaluate the requested cost-model backends over a sweep of sizes.

    ``backends`` defaults to :data:`repro.core.backends.DEFAULT_BACKENDS`.
    The sweep's metrics are compiled into one
    :class:`~repro.core.batch.MetricsBatch` — through ``grid_factory`` (the
    array-native factory: whole size list in, the batch out) or
    ``metrics_factory`` (one :class:`~repro.core.metrics.AlgorithmMetrics`
    per size); exactly one must be given — and priced by
    :func:`predict_sweep_batch`.
    """
    batch = MetricsBatch.compile(
        algorithm, sizes, metrics_factory, grid_factory=grid_factory
    )
    names = tuple(backends) if backends is not None else DEFAULT_BACKENDS
    return predict_sweep_batch(
        algorithm, batch, machine, parameters, occupancy, backends=names
    )


@dataclass
class PredictionComparison:
    """Pairs a :class:`SweepPrediction` with a :class:`SweepObservation`.

    Provides every statistic of Section IV: the normalised four-curve plot,
    the Figure 6 Δ curves, the average observed/predicted transfer shares,
    the mean |ΔT - ΔE| accuracy, per-backend growth-shape tracking scores,
    and the "capture fraction" (share of the observed total running time
    that the kernel-only view accounts for).
    """

    prediction: SweepPrediction
    observation: SweepObservation

    def __post_init__(self) -> None:
        if self.prediction.sizes != self.observation.sizes:
            raise ValueError(
                "prediction and observation must cover the same input sizes"
            )

    @property
    def sizes(self) -> List[int]:
        """The common sweep sizes."""
        return self.prediction.sizes

    def normalised_curves(self) -> Dict[str, np.ndarray]:
        """The four normalised curves of Figures 3c / 4c."""
        curves = {}
        curves.update(self.prediction.normalised())
        curves.update(self.observation.normalised())
        return curves

    def delta_curves(self) -> Dict[str, np.ndarray]:
        """The Figure 6 curves: observed ``ΔE`` and predicted ``ΔT``."""
        return {
            "observed": self.observation.observed_transfer_proportions,
            "predicted": self.prediction.predicted_transfer_proportions,
        }

    # ------------------------------------------------------------------ #
    # Summary statistics (Section IV-D)
    # ------------------------------------------------------------------ #
    def average_observed_transfer_share(self) -> float:
        """Mean ``ΔE`` -- e.g. 84 % for vector addition in the paper."""
        return average(self.observation.observed_transfer_proportions)

    def average_predicted_transfer_share(self) -> float:
        """Mean ``ΔT``."""
        return average(self.prediction.predicted_transfer_proportions)

    def delta_accuracy(self) -> float:
        """Mean ``|ΔT - ΔE|`` -- the paper quotes 1.5 %, 5.49 %, 0.76 %."""
        return mean_absolute_difference(
            self.prediction.predicted_transfer_proportions,
            self.observation.observed_transfer_proportions,
        )

    def swgpu_capture_fraction(self) -> float:
        """Average share of the observed total captured by the kernel-only view.

        The paper states "the SWGPU captures on average only 16 % of the
        actual running time for the vector addition example" -- i.e. the
        component SWGPU models (the kernel) is on average that fraction of
        the observed total running time.
        """
        totals = require_positive_totals(self.observation.totals)
        return float(np.mean(self.observation.kernels / totals))

    def shape_score(self, backend: str) -> float:
        """Growth-shape similarity between one backend's cost and the total."""
        return growth_rate_similarity(
            self.prediction.series_for(backend), self.observation.totals
        )

    def shape_scores(self, backends: Optional[Sequence[str]] = None
                     ) -> Dict[str, float]:
        """Shape scores for several backends, keyed by backend name."""
        names = tuple(backends) if backends is not None \
            else self.prediction.backend_names()
        return {name: self.shape_score(name) for name in names}

    def atgpu_shape_score(self) -> float:
        """Growth-shape similarity between the ATGPU cost and the total time."""
        return self.shape_score("atgpu")

    def swgpu_shape_score(self) -> float:
        """Growth-shape similarity between the SWGPU cost and the total time."""
        return self.shape_score("swgpu")

    def atgpu_tracks_total_better(self) -> bool:
        """The paper's headline claim, per algorithm.

        ``True`` when the ATGPU cost's normalised growth is at least as close
        to the observed total time as the SWGPU cost's.
        """
        return self.atgpu_shape_score() >= self.swgpu_shape_score()

    def summary(self) -> Dict[str, float]:
        """All Section IV-D statistics in one dictionary."""
        return {
            "average_observed_transfer_share": self.average_observed_transfer_share(),
            "average_predicted_transfer_share": self.average_predicted_transfer_share(),
            "delta_accuracy": self.delta_accuracy(),
            "swgpu_capture_fraction": self.swgpu_capture_fraction(),
            "atgpu_shape_score": self.atgpu_shape_score(),
            "swgpu_shape_score": self.swgpu_shape_score(),
        }
