"""Pluggable cost-model backends and the backend registry.

The paper's evaluation compares exactly two curves — the ATGPU GPU-cost
(Expression 2) and the kernel-only SWGPU cost — but the machinery that
produces them is generic: every model variant maps the per-round metrics of
an algorithm to a scalar cost on a machine.  This module names that mapping
(the :class:`CostModel` protocol) and keeps a registry of implementations so
that analysis, sweep prediction and experiment sessions can compute
*per-backend* cost series without special-casing any particular pair of
curves.

Built-in backends (registered on import):

==============  ========================================================
``atgpu``         the GPU-cost of Expression (2) — the paper's headline
                  curve
``swgpu``         the same expression with the transfer terms removed
                  (``α = β = 0``), i.e. the kernel-only comparison cost
``perfect``       the perfect-GPU cost of Expression (1) (no occupancy
                  term)
``agpu``          the AGPU asymptotic time view: AGPU has no cost
                  function, so this backend reports the raw device-step
                  count from which AGPU's time complexity is read
                  (unit-less)
``atgpu-async``   Expression (2) with each round's transfers double
                  buffered and overlapped with its kernel (the
                  :class:`~repro.core.transfer.OverlappedTransferModel`
                  pipeline makespan); :func:`make_async_backend` builds
                  variants with other chunk counts
``atgpu-multi``   Expression (2) sharded across several devices: each
                  round's words and thread blocks partition over ``P``
                  GPUs and the round is charged the straggler device
                  time (:class:`~repro.core.sharding.TopologyCostModel`
                  on ``Topology.homogeneous(devices, contention)``);
                  :func:`make_sharded_backend` builds variants with other
                  device counts and interconnect-contention factors
``atgpu-topo``    placeholder resolved per spec: Expression (2) over an
                  arbitrary :class:`~repro.core.topology.Topology`
                  (heterogeneous presets, per-socket links, P2P shuffle)
                  via :func:`make_topology_backend` /
                  :func:`ensure_topology_backend`
==============  ========================================================

New backends register through :func:`register_backend`; a convenient way to
build one is :func:`make_backend` with any callable of signature
``(metrics, machine, parameters, occupancy) -> float``.

Every built-in backend also carries a **vectorized whole-sweep evaluator**
(see :mod:`repro.core.batch`): given a :class:`~repro.core.batch.MetricsBatch`
it prices an entire sweep of input sizes as one NumPy array program.
:func:`evaluate_backends_batch` is the sweep-level analogue of
:func:`evaluate_backends`; custom backends without a batch evaluator fall
back to their scalar ``cost`` per size automatically.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Protocol, Sequence, Tuple, runtime_checkable

import numpy as np

from repro.core.batch import (
    MetricsBatch,
    agpu_time_batch,
    gpu_cost_batch,
    overlapped_cost_batch,
    perfect_cost_batch,
    swgpu_cost_batch,
)
from repro.core.comparison import AGPUAnalysis, SWGPUCostModel
from repro.core.cost import ATGPUCostModel, CostParameters
from repro.core.machine import ATGPUMachine
from repro.core.metrics import AlgorithmMetrics
from repro.core.occupancy import OccupancyModel
from repro.core.sharding import (
    ensure_planner,
    topology_cost_batch,
    topology_gpu_cost,
)
from repro.core.topology import DEFAULT_SHARD_DEVICES, Topology
from repro.core.transfer import OverlappedTransferModel
from repro.utils.validation import ensure_positive_int

#: Signature of a backend's evaluation function.
CostFunction = Callable[
    [AlgorithmMetrics, ATGPUMachine, CostParameters, Optional[OccupancyModel]],
    float,
]

#: Signature of a backend's vectorized (whole-sweep) evaluation function.
BatchCostFunction = Callable[
    [MetricsBatch, ATGPUMachine, CostParameters, Optional[OccupancyModel]],
    np.ndarray,
]


@runtime_checkable
class CostModel(Protocol):
    """What analysis and sessions require of a cost-model backend.

    A backend has a registry ``name``, a display ``label`` (used as the
    curve key in normalised figures) and a :meth:`cost` that evaluates one
    algorithm's metrics on one machine.
    """

    name: str
    label: str

    def cost(
        self,
        metrics: AlgorithmMetrics,
        machine: ATGPUMachine,
        parameters: CostParameters,
        occupancy: Optional[OccupancyModel] = None,
    ) -> float:
        """Scalar cost of ``metrics`` under this model."""
        ...


@dataclass(frozen=True)
class FunctionBackend:
    """A :class:`CostModel` wrapping a plain evaluation function.

    A backend may additionally carry a vectorized whole-sweep evaluator
    (``evaluate_batch``); backends without one are transparently served by
    the scalar path when a batch evaluation is requested (see
    :func:`evaluate_backends_batch`).
    """

    name: str
    label: str
    evaluate: CostFunction = field(repr=False)
    description: str = ""
    evaluate_batch: Optional[BatchCostFunction] = field(
        default=None, repr=False, compare=False
    )

    def cost(
        self,
        metrics: AlgorithmMetrics,
        machine: ATGPUMachine,
        parameters: CostParameters,
        occupancy: Optional[OccupancyModel] = None,
    ) -> float:
        return float(self.evaluate(metrics, machine, parameters, occupancy))

    @property
    def supports_batch(self) -> bool:
        """Whether this backend has a vectorized whole-sweep evaluator."""
        return self.evaluate_batch is not None

    def batch_cost(
        self,
        batch: MetricsBatch,
        machine: ATGPUMachine,
        parameters: CostParameters,
        occupancy: Optional[OccupancyModel] = None,
    ) -> np.ndarray:
        """Cost per sweep point, evaluated as one array program."""
        if self.evaluate_batch is None:
            raise ValueError(
                f"backend {self.name!r} has no batch evaluation; use "
                "evaluate_backends_batch for the automatic scalar fallback"
            )
        values = np.asarray(
            self.evaluate_batch(batch, machine, parameters, occupancy),
            dtype=float,
        )
        if values.shape != (batch.num_sizes,):
            raise ValueError(
                f"batch evaluation of backend {self.name!r} returned shape "
                f"{values.shape}, expected ({batch.num_sizes},)"
            )
        return values


def make_backend(
    name: str,
    label: str,
    evaluate: CostFunction,
    description: str = "",
    evaluate_batch: Optional[BatchCostFunction] = None,
) -> FunctionBackend:
    """Build a backend from an evaluation function (does not register it).

    ``evaluate_batch`` optionally supplies the vectorized whole-sweep
    evaluator; leave it ``None`` for custom backends and the sweep machinery
    falls back to calling ``evaluate`` once per size.
    """
    if not name:
        raise ValueError("a cost-model backend needs a non-empty name")
    return FunctionBackend(
        name=name, label=label or name, evaluate=evaluate,
        description=description, evaluate_batch=evaluate_batch,
    )


def backend_supports_batch(backend: CostModel) -> bool:
    """Whether a backend object offers vectorized whole-sweep evaluation."""
    return bool(getattr(backend, "supports_batch", False)) and callable(
        getattr(backend, "batch_cost", None)
    )


# --------------------------------------------------------------------- #
# Registry
# --------------------------------------------------------------------- #
_REGISTRY: Dict[str, CostModel] = {}
#: Serialises registry mutation: serving-layer worker threads resolve
#: backends while benchmark harnesses register/unregister sweep variants,
#: and a torn check-then-set would corrupt the shared table.
_REGISTRY_LOCK = threading.Lock()


def register_backend(backend: CostModel, overwrite: bool = False) -> CostModel:
    """Register a backend under its :attr:`~CostModel.name`.

    Registering a second backend under an existing name raises
    :class:`ValueError` unless ``overwrite=True``.  Registration is
    thread-safe; concurrent registrations of the same name resolve to
    exactly one winner (the others raise).
    """
    with _REGISTRY_LOCK:
        if backend.name in _REGISTRY and not overwrite:
            raise ValueError(
                f"a cost-model backend named {backend.name!r} is already "
                "registered; pass overwrite=True to replace it"
            )
        _REGISTRY[backend.name] = backend
    return backend


def unregister_backend(name: str) -> None:
    """Remove a backend from the registry (no-op if absent)."""
    with _REGISTRY_LOCK:
        _REGISTRY.pop(name, None)


def get_backend(name: str) -> CostModel:
    """Look up a registered backend by name.

    Raises :class:`KeyError` listing the registered names when unknown.
    """
    with _REGISTRY_LOCK:
        try:
            return _REGISTRY[name]
        except KeyError as exc:
            known = ", ".join(sorted(_REGISTRY))
            raise KeyError(
                f"unknown cost-model backend {name!r}; "
                f"registered backends: {known}"
            ) from exc


def backend_names() -> Tuple[str, ...]:
    """Names of every registered backend, sorted."""
    with _REGISTRY_LOCK:
        return tuple(sorted(_REGISTRY))


def backend_label(name: str) -> str:
    """Display label for a backend name (the name itself when unregistered)."""
    with _REGISTRY_LOCK:
        backend = _REGISTRY.get(name)
    return backend.label if backend is not None else name


def evaluate_backends(
    names: Sequence[str],
    metrics: AlgorithmMetrics,
    machine: ATGPUMachine,
    parameters: CostParameters,
    occupancy: Optional[OccupancyModel] = None,
) -> Dict[str, float]:
    """Evaluate several backends on the same metrics, keyed by name."""
    return {
        name: get_backend(name).cost(metrics, machine, parameters, occupancy)
        for name in names
    }


def evaluate_backends_batch(
    names: Sequence[str],
    batch: MetricsBatch,
    machine: ATGPUMachine,
    parameters: CostParameters,
    occupancy: Optional[OccupancyModel] = None,
) -> Dict[str, np.ndarray]:
    """Evaluate several backends over a whole sweep, keyed by name.

    Backends with a vectorized evaluator run as one array program; backends
    without one (custom registrations) fall back to their scalar ``cost``
    once per size, on metrics rebuilt from the batch columns
    (:meth:`~repro.core.batch.MetricsBatch.metrics_at`).  Either way the
    result is one ``(len(batch.sizes),)`` array per backend.
    """
    out: Dict[str, np.ndarray] = {}
    fallback_metrics = None
    for name in names:
        backend = get_backend(name)
        if backend_supports_batch(backend):
            out[name] = backend.batch_cost(batch, machine, parameters, occupancy)
            continue
        if fallback_metrics is None:
            fallback_metrics = [
                batch.metrics_at(index) for index in range(batch.num_sizes)
            ]
        out[name] = np.array(
            [
                backend.cost(metrics, machine, parameters, occupancy)
                for metrics in fallback_metrics
            ],
            dtype=float,
        )
    return out


# --------------------------------------------------------------------- #
# Built-in backends
# --------------------------------------------------------------------- #
def _atgpu_cost(metrics, machine, parameters, occupancy) -> float:
    return ATGPUCostModel(machine, parameters, occupancy).gpu_cost(metrics)


def _swgpu_cost(metrics, machine, parameters, occupancy) -> float:
    return SWGPUCostModel(machine, parameters, occupancy).gpu_cost(metrics)


def _perfect_cost(metrics, machine, parameters, occupancy) -> float:
    return ATGPUCostModel(machine, parameters, occupancy).perfect_cost(metrics)


def _agpu_time(metrics, machine, parameters, occupancy) -> float:
    return AGPUAnalysis.from_metrics(metrics).time


#: Chunk count of the default asynchronous backend (classic double buffer).
DEFAULT_ASYNC_CHUNKS = 2


def overlapped_cost(
    metrics: AlgorithmMetrics,
    machine: ATGPUMachine,
    parameters: CostParameters,
    occupancy: Optional[OccupancyModel],
    chunks: int = DEFAULT_ASYNC_CHUNKS,
) -> float:
    """Expression (2) with per-round compute/copy overlap.

    Every round keeps its kernel-side cost (occupancy-scaled compute + I/O)
    and synchronisation ``σ`` from the serial model, but its transfers may
    be split into ``chunks`` pieces and pipelined against the kernel through
    an :class:`~repro.core.transfer.OverlappedTransferModel`.  Chunking pays
    the per-transaction ``α`` once per chunk, so rounds with little to hide
    (e.g. a reduction's single-word result copy) can lose more to that
    overhead than overlap recovers; like a real scheduler, the backend
    streams a round only when it wins, charging each round the cheaper of
    its serial and pipelined costs.  The cost is therefore never above the
    serial ``atgpu`` cost, and with ``chunks=1`` it is exactly equal.
    """
    model = ATGPUCostModel(machine, parameters, occupancy)
    overlap = OverlappedTransferModel(
        alpha=parameters.alpha, beta=parameters.beta, chunks=chunks
    )
    metrics.validate_against(machine)
    total = 0.0
    for round_metrics in metrics:
        breakdown = model.round_breakdown(round_metrics, use_occupancy=True)
        kernel = breakdown.compute + breakdown.io
        pipelined = overlap.round_cost(round_metrics, kernel)
        serial = breakdown.transfer + kernel
        total += min(pipelined, serial) + breakdown.synchronisation
    return total


def make_async_backend(
    chunks: int = DEFAULT_ASYNC_CHUNKS, name: str = "", label: str = ""
) -> FunctionBackend:
    """Build an overlapped-transfer backend with a given chunk count.

    The default instance is registered as ``atgpu-async``; deeper pipelines
    can be registered alongside it, e.g.
    ``register_backend(make_async_backend(8))`` yields ``atgpu-async8``.
    """
    ensure_positive_int(chunks, "chunks")

    def _cost(metrics, machine, parameters, occupancy) -> float:
        return overlapped_cost(metrics, machine, parameters, occupancy, chunks)

    def _batch(batch, machine, parameters, occupancy):
        return overlapped_cost_batch(batch, machine, parameters, occupancy, chunks)

    default = chunks == DEFAULT_ASYNC_CHUNKS
    return make_backend(
        name or ("atgpu-async" if default else f"atgpu-async{chunks}"),
        label or ("ATGPU (async)" if default else f"ATGPU (async, {chunks} chunks)"),
        _cost,
        "Expression (2) with per-round transfers double buffered into "
        f"{chunks} chunks and overlapped with the kernel",
        evaluate_batch=_batch,
    )


#: Interconnect-contention factor of the default sharded backend
#: (independent per-device links).
DEFAULT_SHARD_CONTENTION = 0.0


def make_sharded_backend(
    devices: int = DEFAULT_SHARD_DEVICES,
    contention: float = DEFAULT_SHARD_CONTENTION,
    name: str = "",
    label: str = "",
) -> FunctionBackend:
    """Build a multi-device sharded backend (Expression 2 over ``P`` GPUs).

    The default instance is registered as ``atgpu-multi`` (two devices,
    independent links); other pool shapes register alongside it, e.g.
    ``register_backend(make_sharded_backend(4))`` yields ``atgpu-multi4``
    and ``make_sharded_backend(4, contention=0.5)`` yields
    ``atgpu-multi4-c0.5``.  With ``devices=1`` the cost is bit-for-bit the
    serial ``atgpu`` backend's.

    The factory prices ``Topology.homogeneous(devices, contention)``
    through :func:`~repro.core.sharding.topology_gpu_cost` (scalar) and
    :func:`~repro.core.sharding.topology_cost_batch` (sweeps, on its
    uniform fast path).
    """

    topology = Topology.homogeneous(devices, contention)

    def _cost(metrics, machine, parameters, occupancy) -> float:
        return topology_gpu_cost(
            metrics, machine, parameters, occupancy, topology
        )

    def _batch(batch, machine, parameters, occupancy):
        return topology_cost_batch(
            batch, machine, parameters, occupancy, topology
        )

    default = (
        devices == DEFAULT_SHARD_DEVICES
        and contention == DEFAULT_SHARD_CONTENTION
    )
    if not name:
        name = "atgpu-multi" if default else f"atgpu-multi{devices}"
        if contention != DEFAULT_SHARD_CONTENTION:
            name += f"-c{contention:g}"
    if not label:
        label = (
            "ATGPU (multi)" if default
            else f"ATGPU (multi, {devices} devices"
            + (f", contention {contention:g})" if contention else ")")
        )
    return make_backend(
        name,
        label,
        _cost,
        f"Expression (2) sharded across {devices} devices (straggler time, "
        f"interconnect contention {contention:g})",
        evaluate_batch=_batch,
    )


#: Placeholder backend name an :class:`~repro.experiments.spec.ExperimentSpec`
#: may list to mean "the spec's own topology": resolution replaces it with
#: the auto-registered per-topology backend (see ``spec.resolved_backends``).
TOPOLOGY_BACKEND = "atgpu-topo"


def make_topology_backend(
    topology: Topology,
    planner: str = "load-aware",
    name: str = "",
    label: str = "",
) -> FunctionBackend:
    """Build a topology-aware backend (Expression 2 over a device fleet).

    The default name is derived from the topology's stable hash
    (``atgpu-topo-<hash8>``, with an ``-even`` suffix for the even
    planner), so the same fleet always resolves to the same registry
    entry — which is what lets sessions and the serving layer coalesce
    requests sharing a topology.  An unknown ``planner`` raises
    :class:`ValueError` here, before anything is named or registered.
    """
    ensure_planner(planner)
    if not isinstance(topology, Topology):
        raise TypeError(
            f"topology must be a Topology, got {type(topology).__name__}"
        )
    if not name:
        name = f"{TOPOLOGY_BACKEND}-{topology.topology_hash()[:8]}"
        if planner != "load-aware":
            name += f"-{planner}"
    if not label:
        label = (
            f"ATGPU (topology, {topology.num_devices} devices"
            + (f", {planner} planner)" if planner != "load-aware" else ")")
        )

    def _cost(metrics, machine, parameters, occupancy) -> float:
        return topology_gpu_cost(
            metrics, machine, parameters, occupancy, topology,
            planner=planner,
        )

    def _batch(batch, machine, parameters, occupancy):
        return topology_cost_batch(
            batch, machine, parameters, occupancy, topology,
            planner=planner,
        )

    return make_backend(
        name,
        label,
        _cost,
        f"Expression (2) over a {topology.num_devices}-device topology "
        f"(hash {topology.topology_hash()}, {planner} shard planner)",
        evaluate_batch=_batch,
    )


def ensure_topology_backend(
    topology: Topology, planner: str = "load-aware"
) -> str:
    """Idempotently register the backend for ``topology``; return its name.

    Thread-safe and race-tolerant: concurrent calls for the same fleet
    all return the same name with exactly one registration winning.
    """
    backend = make_topology_backend(topology, planner=planner)
    with _REGISTRY_LOCK:
        if backend.name not in _REGISTRY:
            _REGISTRY[backend.name] = backend
    return backend.name


ATGPU_BACKEND = register_backend(make_backend(
    "atgpu", "ATGPU", _atgpu_cost,
    "GPU-cost of Expression (2): transfer + occupancy-scaled kernel cost",
    evaluate_batch=gpu_cost_batch,
))
SWGPU_BACKEND = register_backend(make_backend(
    "swgpu", "SWGPU", _swgpu_cost,
    "Expression (2) with the transfer terms removed (α = β = 0)",
    evaluate_batch=swgpu_cost_batch,
))
PERFECT_BACKEND = register_backend(make_backend(
    "perfect", "Perfect", _perfect_cost,
    "perfect-GPU cost of Expression (1): every thread block runs at once",
    evaluate_batch=perfect_cost_batch,
))
AGPU_BACKEND = register_backend(make_backend(
    "agpu", "AGPU", _agpu_time,
    "AGPU asymptotic time view (unit-less device steps; AGPU has no cost "
    "function)",
    evaluate_batch=agpu_time_batch,
))
ATGPU_ASYNC_BACKEND = register_backend(make_async_backend())
ATGPU_MULTI_BACKEND = register_backend(make_sharded_backend())

#: The backends evaluated by default throughout the package.
DEFAULT_BACKENDS: Tuple[str, ...] = ("atgpu", "swgpu", "perfect")
