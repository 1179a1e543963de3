"""Baseline abstract models and the model feature comparison (Table I).

The paper compares ATGPU against the two prior abstract GPU models:

* **SWGPU** (Sitchinava & Weichert, 2013) -- models execution in host-
  synchronised rounds and analyses algorithms with a cost function over
  operations, memory requests and synchronisations, but does not model
  host↔device data transfer, space usage or a global-memory limit.
* **AGPU** (Koike & Sadakane, 2014) -- provides pseudocode and asymptotic
  analysis of time, I/O and space (with a shared-memory limit), but has no
  cost function, no synchronisation and no data transfer.

For the evaluation the paper uses *"the GPU cost function of our model as
the ATGPU cost, and the GPU cost function of our model minus the data
transfer as the SWGPU cost"*.  :class:`SWGPUCostModel` implements exactly
that subtraction, and :class:`AGPUAnalysis` reports the asymptotic-style
metrics the AGPU model exposes.  :func:`model_feature_table` reproduces
Table I.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.cost import ATGPUCostModel, CostBreakdown, CostParameters
from repro.core.machine import ATGPUMachine
from repro.core.metrics import AlgorithmMetrics
from repro.core.occupancy import OccupancyModel

#: The capability rows of Table I, in the paper's order.
FEATURE_ROWS: Tuple[str, ...] = (
    "Pseudocode",
    "Time Complexity",
    "I/O Complexity",
    "Space Complexity",
    "Shared Memory Limit",
    "Synchronisation",
    "Cost Function",
    "Global Memory Limit",
    "Host/Device Data Transfer",
)

#: The model columns of Table I, in the paper's order.
MODEL_COLUMNS: Tuple[str, ...] = ("AGPU", "SWGPU", "ATGPU")

#: Table I of the paper: which model supports which capability.
_FEATURE_MATRIX: Dict[str, Dict[str, bool]] = {
    "Pseudocode": {"AGPU": True, "SWGPU": False, "ATGPU": True},
    "Time Complexity": {"AGPU": True, "SWGPU": True, "ATGPU": True},
    "I/O Complexity": {"AGPU": True, "SWGPU": True, "ATGPU": True},
    "Space Complexity": {"AGPU": True, "SWGPU": False, "ATGPU": True},
    "Shared Memory Limit": {"AGPU": True, "SWGPU": False, "ATGPU": True},
    "Synchronisation": {"AGPU": False, "SWGPU": True, "ATGPU": True},
    "Cost Function": {"AGPU": False, "SWGPU": True, "ATGPU": True},
    "Global Memory Limit": {"AGPU": False, "SWGPU": False, "ATGPU": True},
    "Host/Device Data Transfer": {"AGPU": False, "SWGPU": False, "ATGPU": True},
}


def model_feature_table() -> Dict[str, Dict[str, bool]]:
    """Return Table I as ``{feature: {model: supported}}`` (a fresh copy)."""
    return {row: dict(cols) for row, cols in _FEATURE_MATRIX.items()}


def model_supports(model: str, feature: str) -> bool:
    """Whether ``model`` supports ``feature`` according to Table I."""
    try:
        row = _FEATURE_MATRIX[feature]
    except KeyError as exc:
        known = ", ".join(FEATURE_ROWS)
        raise KeyError(f"unknown feature {feature!r}; known features: {known}") from exc
    try:
        return row[model]
    except KeyError as exc:
        known = ", ".join(MODEL_COLUMNS)
        raise KeyError(f"unknown model {model!r}; known models: {known}") from exc


def feature_count(model: str) -> int:
    """Number of Table I capabilities supported by ``model``."""
    return sum(1 for feature in FEATURE_ROWS if model_supports(model, feature))


class SWGPUCostModel:
    """The SWGPU cost used in the paper's evaluation.

    It is the ATGPU GPU-cost with the data-transfer terms removed: the same
    ``(waves·t_i + λ·q_i)/γ + σ`` kernel-side summands, but ``α = β = 0``.
    """

    def __init__(
        self,
        machine: ATGPUMachine,
        parameters: CostParameters,
        occupancy: Optional[OccupancyModel] = None,
    ) -> None:
        self.machine = machine
        self.parameters = parameters.without_transfer()
        self._inner = ATGPUCostModel(machine, self.parameters, occupancy)

    def breakdown(
        self, metrics: AlgorithmMetrics, use_occupancy: bool = True
    ) -> CostBreakdown:
        """Itemised SWGPU cost (its transfer components are always zero)."""
        return self._inner.breakdown(metrics, use_occupancy=use_occupancy)

    def cost(self, metrics: AlgorithmMetrics, use_occupancy: bool = True) -> float:
        """Scalar SWGPU cost of an algorithm."""
        return self.breakdown(metrics, use_occupancy=use_occupancy).total

    def perfect_cost(self, metrics: AlgorithmMetrics) -> float:
        """SWGPU analogue of Expression (1)."""
        return self.cost(metrics, use_occupancy=False)

    def gpu_cost(self, metrics: AlgorithmMetrics) -> float:
        """SWGPU analogue of Expression (2) -- the paper's comparison curve."""
        return self.cost(metrics, use_occupancy=True)


@dataclass(frozen=True)
class AGPUAnalysis:
    """The quantities the AGPU model reports for an algorithm.

    AGPU analyses algorithms asymptotically by time, number of memory
    requests, and space used in global and shared memory; it has no cost
    function and no notion of data transfer or synchronisation.  The values
    here are the concrete counts from which those asymptotics are read off.
    """

    time: float
    io_blocks: float
    global_words: float
    shared_words_per_mp: float

    @staticmethod
    def from_metrics(metrics: AlgorithmMetrics) -> "AGPUAnalysis":
        """Project :class:`AlgorithmMetrics` onto the AGPU view."""
        return AGPUAnalysis(
            time=metrics.total_time,
            io_blocks=metrics.total_io_blocks,
            global_words=metrics.max_global_words,
            shared_words_per_mp=metrics.max_shared_words_per_mp,
        )

    def respects_shared_memory_limit(self, machine: ATGPUMachine) -> bool:
        """AGPU disallows algorithms whose shared-memory usage exceeds ``M``."""
        return machine.fits_in_shared_memory(int(self.shared_words_per_mp))


def render_feature_table(include_counts: bool = False) -> str:
    """Render Table I as an aligned text table.

    With ``include_counts=True`` a final row totals the supported features
    per model, which makes the "ATGPU is the most comprehensive" claim
    immediately visible in the rendered table.
    """
    check, blank = "x", "-"
    header = ["Item"] + list(MODEL_COLUMNS)
    rows: List[List[str]] = [header]
    for feature in FEATURE_ROWS:
        rows.append(
            [feature]
            + [check if model_supports(model, feature) else blank
               for model in MODEL_COLUMNS]
        )
    if include_counts:
        rows.append(
            ["Supported features"]
            + [str(feature_count(model)) for model in MODEL_COLUMNS]
        )
    widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
    lines = []
    for row in rows:
        lines.append(
            "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip()
        )
    return "\n".join(lines)
