"""The experiment layer: declarative specs, sessions, figures and tables.

The entry point is the :class:`Session` façade executing
:class:`ExperimentSpec` objects into :class:`Result` / :class:`ResultSet`
objects.
"""

from repro.experiments.figures import (
    FigureSeries,
    all_figures,
    figure3,
    figure4,
    figure5,
    figure6,
    figure_chunk_sweep,
    figure_overlap,
    figure_scaling,
    figure_shard_sweep,
)
from repro.experiments.report import render_figure, render_figures
from repro.experiments.results import (
    Result,
    ResultSet,
    as_comparison,
    as_comparisons,
)
from repro.experiments.session import (
    ENGINES,
    BatchCache,
    EngineError,
    ExecutionEngine,
    ProcessPoolEngine,
    SerialEngine,
    Session,
    execute_specs,
    mergeable,
    observe_spec,
    plan_groups,
    predict_group,
    resolve_engine,
)
from repro.experiments.spec import ExperimentSpec, paper_specs
from repro.experiments.tables import (
    AlgorithmSummary,
    OverlapSummary,
    PAPER_REPORTED,
    ScalingSummary,
    overlap_summary,
    render_overlap_summary,
    render_scaling_summary,
    render_summary,
    scaling_summary,
    summarise,
    summary_statistics,
    table1,
)

__all__ = [
    "FigureSeries",
    "all_figures",
    "figure3",
    "figure4",
    "figure5",
    "figure6",
    "figure_chunk_sweep",
    "figure_overlap",
    "figure_scaling",
    "figure_shard_sweep",
    "render_figure",
    "render_figures",
    "Result",
    "ResultSet",
    "as_comparison",
    "as_comparisons",
    "ENGINES",
    "BatchCache",
    "EngineError",
    "ExecutionEngine",
    "ProcessPoolEngine",
    "SerialEngine",
    "Session",
    "execute_specs",
    "mergeable",
    "observe_spec",
    "plan_groups",
    "predict_group",
    "resolve_engine",
    "ExperimentSpec",
    "paper_specs",
    "AlgorithmSummary",
    "OverlapSummary",
    "PAPER_REPORTED",
    "ScalingSummary",
    "overlap_summary",
    "render_overlap_summary",
    "render_scaling_summary",
    "render_summary",
    "scaling_summary",
    "summarise",
    "summary_statistics",
    "table1",
]
