"""High-level analysis reports combining metrics and both cost functions.

:class:`AnalysisReport` is the object a user gets back when they ask "analyse
this algorithm at this input size on this GPU": it bundles the per-round
metrics (Section III), the ATGPU perfect cost and GPU-cost (Expressions 1
and 2), the SWGPU comparison cost, and the predicted transfer proportion
``ΔT`` used in Figure 6.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

from repro.core.backends import DEFAULT_BACKENDS, get_backend
from repro.core.comparison import SWGPUCostModel
from repro.core.cost import ATGPUCostModel, CostBreakdown, CostParameters
from repro.core.machine import ATGPUMachine
from repro.core.metrics import AlgorithmMetrics
from repro.core.occupancy import OccupancyModel


@dataclass(frozen=True)
class AnalysisReport:
    """Everything the model says about one algorithm run at one input size."""

    algorithm: str
    input_size: int
    machine: ATGPUMachine
    metrics: AlgorithmMetrics
    perfect_breakdown: CostBreakdown
    gpu_breakdown: CostBreakdown
    swgpu_cost: float
    #: Scalar cost per evaluated cost-model backend (at least the built-in
    #: ``atgpu`` / ``swgpu`` / ``perfect`` trio when built by
    #: :func:`analyse_metrics`).
    backend_costs: Dict[str, float] = field(default_factory=dict)

    # ------------------------------------------------------------------ #
    # Convenience accessors
    # ------------------------------------------------------------------ #
    @property
    def num_rounds(self) -> int:
        """``R`` -- number of rounds."""
        return self.metrics.num_rounds

    @property
    def perfect_cost(self) -> float:
        """Expression (1)."""
        return self.perfect_breakdown.total

    @property
    def gpu_cost(self) -> float:
        """Expression (2) -- the paper's "ATGPU cost" in every figure."""
        return self.gpu_breakdown.total

    @property
    def transfer_cost(self) -> float:
        """Predicted total transfer cost ``Σ (T_I + T_O)``."""
        return self.gpu_breakdown.transfer

    @property
    def kernel_cost(self) -> float:
        """Predicted kernel-side cost (what SWGPU captures)."""
        return self.gpu_breakdown.kernel

    @property
    def predicted_transfer_proportion(self) -> float:
        """``ΔT`` of Figure 6."""
        return self.gpu_breakdown.transfer_proportion

    def backend_cost(self, name: str) -> float:
        """Scalar cost of this run under a named cost-model backend.

        Costs recorded at analysis time are returned directly; the built-in
        ``atgpu`` / ``swgpu`` / ``perfect`` backends always resolve from the
        stored breakdowns even when not explicitly requested.
        """
        if name in self.backend_costs:
            return self.backend_costs[name]
        builtin = {
            "atgpu": self.gpu_cost,
            "swgpu": self.swgpu_cost,
            "perfect": self.perfect_cost,
        }
        if name in builtin:
            return builtin[name]
        known = ", ".join(sorted({*self.backend_costs, *builtin}))
        raise KeyError(
            f"report for {self.algorithm!r} has no cost for backend {name!r}; "
            f"available backends: {known}"
        )


def analyse_metrics(
    metrics: AlgorithmMetrics,
    machine: ATGPUMachine,
    parameters: CostParameters,
    occupancy: OccupancyModel,
    algorithm: str = "",
    input_size: int = 0,
    backends: Optional[Sequence[str]] = None,
) -> AnalysisReport:
    """Build an :class:`AnalysisReport` for pre-computed metrics.

    This is the workhorse behind :meth:`repro.algorithms.base.GPUAlgorithm.analyse`
    and the experiment session.  It validates the metrics against the machine
    (raising :class:`repro.core.metrics.CapacityError` if the algorithm does
    not fit) and evaluates every requested cost-model backend.  ``backends``
    defaults to the built-in trio (:data:`repro.core.backends.DEFAULT_BACKENDS`);
    the breakdown-based ``atgpu`` / ``swgpu`` / ``perfect`` costs are always
    computed, so extra names only add work for genuinely new backends.
    """
    atgpu = ATGPUCostModel(machine, parameters, occupancy)
    swgpu = SWGPUCostModel(machine, parameters, occupancy)
    perfect = atgpu.breakdown(metrics, use_occupancy=False)
    gpu = atgpu.breakdown(metrics, use_occupancy=True)
    swgpu_cost = swgpu.gpu_cost(metrics)
    backend_costs = {
        "atgpu": gpu.total,
        "swgpu": swgpu_cost,
        "perfect": perfect.total,
    }
    for name in backends if backends is not None else DEFAULT_BACKENDS:
        if name not in backend_costs:
            backend_costs[name] = get_backend(name).cost(
                metrics, machine, parameters, occupancy
            )
    return AnalysisReport(
        algorithm=algorithm or metrics.name,
        input_size=input_size,
        machine=machine,
        metrics=metrics,
        perfect_breakdown=perfect,
        gpu_breakdown=gpu,
        swgpu_cost=swgpu_cost,
        backend_costs=backend_costs,
    )


def format_report(report: AnalysisReport, precision: int = 4) -> str:
    """Render an :class:`AnalysisReport` as a small human-readable block."""
    lines = [
        f"Algorithm      : {report.algorithm}",
        f"Input size     : {report.input_size}",
        f"Machine        : {report.machine.describe()}",
        f"Rounds (R)     : {report.num_rounds}",
        f"Time  Σt_i     : {report.metrics.total_time:.{precision}g}",
        f"I/O   Σq_i     : {report.metrics.total_io_blocks:.{precision}g}",
        f"Transfer words : {report.metrics.total_transfer_words:.{precision}g}",
        f"Perfect cost   : {report.perfect_cost:.{precision}g}",
        f"GPU cost       : {report.gpu_cost:.{precision}g}",
        f"SWGPU cost     : {report.swgpu_cost:.{precision}g}",
        f"Predicted ΔT   : {report.predicted_transfer_proportion:.{precision}g}",
    ]
    return "\n".join(lines)
