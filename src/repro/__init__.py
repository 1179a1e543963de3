"""ATGPU: an abstract GPU model with host/device data transfer.

Reproduction of Carroll & Wong, *An Improved Abstract GPU Model with Data
Transfer* (ICPP Workshops 2017).

The package is organised as:

* :mod:`repro.core` -- the ATGPU model itself: machine, metrics, transfer
  model, cost functions, SWGPU/AGPU baselines, prediction and calibration.
* :mod:`repro.simulator` -- an executable abstract-GPU simulator used as the
  "observed" side of every experiment (the GTX 650 substitute).
* :mod:`repro.pseudocode` -- the ATGPU pseudocode notation as an embedded
  DSL with validation, static analysis, interpretation and rendering.
* :mod:`repro.algorithms` -- the evaluated computational problems (vector
  addition, reduction, matrix multiplication) plus extension problems.
* :mod:`repro.workloads` -- the paper's sweeps.
* :mod:`repro.experiments` -- the declarative experiment layer: specs,
  sessions, results, and the harness that regenerates every figure and
  table of the evaluation section.
* :mod:`repro.serving` -- prediction-as-a-service: a request server that
  coalesces concurrent sweep requests sharing ``(algorithm, preset)`` into
  one union-of-sizes batch, with pluggable scheduling policies and
  admission control.

Quick start -- describe an experiment declaratively and run it through a
session (results are cached by spec hash; one spec and a batch take the
same path, and the process engine runs each spec's simulation in a worker
while predictions are grouped and memoised in the session)::

    from repro import ExperimentSpec, Session

    session = Session()
    result = session.run(ExperimentSpec("vector_addition", scale="small"))
    print(result.summary())

The full Section IV evaluation as one batch::

    from repro import Session, paper_specs, summary_statistics

    evaluation = Session(engine="process").run_many(paper_specs(scale="small"))
    print(summary_statistics(evaluation))

Cost-model backends (``atgpu``, ``swgpu``, ``perfect``, ``agpu``, plus any
registered via :func:`repro.core.backends.register_backend`) are selected
per spec: ``ExperimentSpec("reduction", backends=("atgpu", "perfect"))``.
"""

from repro.algorithms import (
    GPUAlgorithm,
    Histogram,
    MatrixMultiplication,
    PrefixSum,
    Reduction,
    SpMV,
    Stencil1D,
    VectorAddition,
    create,
)
from repro.core import (
    ATGPUCostModel,
    ATGPUMachine,
    AnalysisReport,
    CostParameters,
    GTX_650,
    MetricsBatch,
    OccupancyModel,
    OverlappedTransferModel,
    SWGPUCostModel,
    analyse_metrics,
    backend_names,
    get_backend,
    get_preset,
    make_async_backend,
    register_backend,
)
from repro.experiments import (
    ExperimentSpec,
    Result,
    ResultSet,
    Session,
    all_figures,
    paper_specs,
    summary_statistics,
    table1,
)
from repro.serving import (
    DeadlineExpiredError,
    PredictionServer,
    SchedulingPolicy,
    ServerOverloadedError,
    ServerStats,
)
from repro.simulator import DeviceConfig, GPUDevice, StreamTimeline

__version__ = "1.0.0"

__all__ = [
    "GPUAlgorithm",
    "Histogram",
    "MatrixMultiplication",
    "PrefixSum",
    "Reduction",
    "SpMV",
    "Stencil1D",
    "VectorAddition",
    "create",
    "ATGPUCostModel",
    "ATGPUMachine",
    "AnalysisReport",
    "CostParameters",
    "GTX_650",
    "MetricsBatch",
    "OccupancyModel",
    "OverlappedTransferModel",
    "SWGPUCostModel",
    "analyse_metrics",
    "backend_names",
    "get_backend",
    "get_preset",
    "make_async_backend",
    "register_backend",
    "ExperimentSpec",
    "Result",
    "ResultSet",
    "Session",
    "paper_specs",
    "all_figures",
    "summary_statistics",
    "table1",
    "DeadlineExpiredError",
    "PredictionServer",
    "SchedulingPolicy",
    "ServerOverloadedError",
    "ServerStats",
    "DeviceConfig",
    "GPUDevice",
    "StreamTimeline",
    "__version__",
]
