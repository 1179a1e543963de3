"""The Session façade: batched, cached execution of experiment specs.

A :class:`Session` turns declarative :class:`~repro.experiments.spec.ExperimentSpec`
objects into :class:`~repro.experiments.results.Result` objects along one
path, :func:`execute_specs`, whether it runs one spec or a batch.  The
predictions of each group planned by :func:`plan_groups` come from
:func:`predict_group` in the calling process, memoised in the session's
:class:`BatchCache`; only the simulations (:func:`observe_spec`, where the
time goes) are mapped by a pluggable execution engine:

* :class:`SerialEngine` simulates specs one after another in-process,
* :class:`ProcessPoolEngine` simulates them across a
  :class:`concurrent.futures.ProcessPoolExecutor`.

Every executed spec is cached under its
:meth:`~repro.experiments.spec.ExperimentSpec.spec_hash` — in memory always,
and additionally as one JSON file per spec when the session is given a
``cache_dir``.  Repeated runs of the same spec (same algorithm, sizes,
preset, device configuration, seed and backends) are served from the cache;
the ``cache_hits`` / ``cache_misses`` counters expose that behaviour.

Quick use::

    from repro.experiments import ExperimentSpec, Session, paper_specs

    session = Session()
    result = session.run(ExperimentSpec("vector_addition", scale="small"))
    print(result.summary())

    evaluation = session.run_many(paper_specs(scale="small"))
    print(evaluation.summaries())
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace
from pathlib import Path
from typing import (
    Callable, Dict, Iterable, List, Optional, Protocol, Sequence, Tuple, Union,
)

from repro.algorithms.registry import create
from repro.core.batch import MetricsBatch
from repro.core.prediction import (
    SweepObservation, SweepPrediction, predict_sweep_batch,
)
from repro.experiments.results import Result, ResultSet
from repro.experiments.spec import ExperimentSpec, paper_specs


def _rename_series(
    prediction: SweepPrediction,
    requested: Sequence[str],
    resolved: Sequence[str],
) -> SweepPrediction:
    """Key series computed under resolved backend names by the requested ones.

    Topology placeholder resolution evaluates under auto-registered names
    (``atgpu-topo-<hash>``); callers asked for the names in their spec
    (``atgpu-topo``), so the series dictionary is re-keyed before the
    prediction is returned.  A no-op when nothing was resolved.
    """
    if tuple(requested) == tuple(resolved):
        return prediction
    mapping = {
        res: req for req, res in zip(requested, resolved) if res != req
    }
    return replace(
        prediction,
        series={
            mapping.get(name, name): values
            for name, values in prediction.series.items()
        },
    )


class EngineError(RuntimeError):
    """A spec batch failed inside an execution engine.

    Raised where the engine itself (not the spec's model evaluation) is the
    problem — e.g. the process pool's workers died twice in a row.  The
    offending spec, when identifiable, is attached as :attr:`spec` and named
    in the message.
    """

    def __init__(self, message: str, spec: Optional[ExperimentSpec] = None):
        super().__init__(message)
        self.spec = spec


class BatchCache:
    """Memoizes compiled metrics batches and per-backend sweep predictions.

    Both maps key on ``(algorithm, preset, sizes)`` — predictions
    additionally on the requested backends — which is exactly the data a
    batched prediction depends on: cost-model evaluation is a pure function
    of those, so repeated :meth:`Session.run_many` calls over the same
    sweeps (different seeds, different device configurations) skip both the
    metrics compilation and the per-backend :class:`BatchBreakdown`
    evaluation.  ``hits`` / ``misses`` count lookups across both maps.
    Only :func:`predict_group` fills it, in the process that owns it.

    The cache is thread-safe: serving-layer workers share one instance
    across threads.  A lookup racing a build may compile the same entry
    twice (both threads count a miss; evaluation is pure, so the values are
    identical); the first store wins and every caller receives that one
    shared object.
    """

    def __init__(self) -> None:
        self._batches: Dict[tuple, MetricsBatch] = {}
        self._predictions: Dict[tuple, SweepPrediction] = {}
        self.hits = 0
        self.misses = 0
        self._lock = threading.RLock()

    @property
    def size(self) -> int:
        """Number of cached batches plus cached predictions."""
        with self._lock:
            return len(self._batches) + len(self._predictions)

    def clear(self) -> None:
        """Drop every cached batch and prediction (counters are kept)."""
        with self._lock:
            self._batches.clear()
            self._predictions.clear()

    def _get(self, store: Dict[tuple, object], key: tuple, build):
        with self._lock:
            value = store.get(key)
            if value is not None:
                self.hits += 1
                return value
            self.misses += 1
        value = build()
        with self._lock:
            return store.setdefault(key, value)

    def batch(self, key: tuple, build) -> MetricsBatch:
        """The compiled batch under ``key``, building it on first use."""
        return self._get(self._batches, key, build)

    def prediction(self, key: tuple, build) -> SweepPrediction:
        """The evaluated prediction under ``key``, building it on first use.

        Cached predictions are shared between results; callers must treat
        them as read-only.
        """
        return self._get(self._predictions, key, build)


def mergeable(spec: ExperimentSpec, other: ExperimentSpec) -> bool:
    """Whether two specs may share one coalesced prediction group.

    Specs merge when they name the same algorithm and topology and their
    presets resolve to the **same abstract machine**: the compiled
    :class:`MetricsBatch` is a pure function of ``(algorithm, sizes,
    machine)``, so such specs share one union compile even under different
    preset names.  Backend evaluation stays clustered per ``(preset,
    backends)`` inside :func:`predict_group` — presets with one machine may
    still differ in parameters or occupancy — which keeps every spec's
    prediction bit-for-bit equal to evaluating it alone.
    """
    if spec.algorithm != other.algorithm:
        return False
    if spec.topology_key() != other.topology_key():
        return False
    if spec.preset == other.preset:
        return True
    return spec.resolved_preset().machine == other.resolved_preset().machine


def plan_groups(specs: Sequence[ExperimentSpec]) -> List[List[int]]:
    """Greedy first-fit plan of coalescing groups over a spec batch.

    Returns lists of indices into ``specs``; each spec joins the first
    group whose representative (the group's first member) it is
    :func:`mergeable` with, else opens a new group.  Exact
    ``(algorithm, preset, topology)`` repeats short-circuit through a key
    map, so the quadratic representative scan only pays per *distinct*
    key.  Concatenating the groups visits every index exactly once; order
    within a group follows batch order.
    """
    groups: List[List[int]] = []
    representatives: List[ExperimentSpec] = []
    exact: Dict[Tuple[str, str, str], int] = {}
    for index, spec in enumerate(specs):
        key = (spec.algorithm, spec.preset, spec.topology_key())
        slot = exact.get(key)
        if slot is None:
            for candidate, representative in enumerate(representatives):
                if mergeable(spec, representative):
                    slot = candidate
                    break
        if slot is None:
            exact[key] = len(groups)
            groups.append([index])
            representatives.append(spec)
        else:
            exact.setdefault(key, slot)
            groups[slot].append(index)
    return groups


def predict_group(
    specs: Sequence[ExperimentSpec],
    batch_cache: Optional[BatchCache] = None,
) -> List[SweepPrediction]:
    """Coalesced predictions for a group of :func:`mergeable` specs.

    This is the coalescing core shared by :func:`execute_specs` and the
    serving layer (:mod:`repro.serving`).  All specs must be
    :func:`mergeable` — same algorithm and topology, presets resolving to
    one abstract machine — so the whole group is served by **one**
    :class:`MetricsBatch` compiled over the union of its sweep sizes and
    **one** backend evaluation per distinct ``(preset, backends)`` cluster;
    each spec's prediction is scattered back out by selecting its size
    columns (:meth:`~repro.core.prediction.SweepPrediction.select`),
    bit-for-bit equal to evaluating that spec alone.

    A :class:`BatchCache` (when supplied) memoizes the compiled batch
    (keyed by machine, so equal-machine presets share entries) and the
    cluster-level predictions across calls; the union prediction is looked
    up first, so a fully warmed cache serves the group without compiling
    anything.  Order is preserved.
    """
    specs = list(specs)
    if not specs:
        return []
    first = specs[0]
    for spec in specs[1:]:
        if not mergeable(spec, first):
            raise ValueError(
                "predict_group coalesces mergeable specs (one algorithm "
                "and topology, presets resolving to one machine); got "
                f"({first.algorithm!r}, {first.preset!r}, "
                f"{first.topology_key()!r}) and ({spec.algorithm!r}, "
                f"{spec.preset!r}, {spec.topology_key()!r})"
            )
    algorithm = create(first.algorithm)
    preset_for = [spec.resolved_preset() for spec in specs]
    machine = preset_for[0].machine
    sizes_for = [spec.resolved_sizes(algorithm) for spec in specs]
    resolved_for = [spec.resolved_backends() for spec in specs]
    union = sorted({n for sizes in sizes_for for n in sizes})
    column = {n: j for j, n in enumerate(union)}
    batch: Optional[MetricsBatch] = None

    def union_batch() -> MetricsBatch:
        # Compiled lazily: when every union prediction is already cached,
        # the batch is never needed.
        nonlocal batch
        if batch is None:
            def compile_union() -> MetricsBatch:
                return algorithm.compile_batch(union, preset=preset_for[0])

            if batch_cache is not None:
                batch = batch_cache.batch(
                    (algorithm.name, machine, tuple(union)),
                    compile_union,
                )
            else:
                batch = compile_union()
        return batch

    shared: Dict[tuple, SweepPrediction] = {}
    predictions: List[SweepPrediction] = []
    for index, spec in enumerate(specs):
        sizes = sizes_for[index]
        resolved = resolved_for[index]
        preset = preset_for[index]
        cluster = (spec.preset, resolved)
        union_prediction = shared.get(cluster)
        if union_prediction is None:
            def evaluate(preset=preset, resolved=resolved) -> SweepPrediction:
                return predict_sweep_batch(
                    algorithm.name, union_batch(), preset.machine,
                    preset.parameters, preset.occupancy,
                    backends=resolved,
                )

            if batch_cache is not None:
                union_prediction = batch_cache.prediction(
                    (
                        algorithm.name, spec.preset, tuple(union),
                        resolved, spec.topology_key(),
                    ),
                    evaluate,
                )
            else:
                union_prediction = evaluate()
            shared[cluster] = union_prediction
        if sizes == union:
            prediction = union_prediction
        else:
            prediction = union_prediction.select(
                [column[n] for n in sizes]
            )
        predictions.append(
            _rename_series(prediction, spec.backends, resolved)
        )
    return predictions


def observe_spec(spec: ExperimentSpec) -> SweepObservation:
    """Simulate one spec's sweep: the observed side of its result.

    The only step an engine maps, and a module-level function so process
    workers can pickle it.  It reads no runtime registry (algorithms,
    sweeps and the presets' simulator configurations are static, and any
    other device configuration travels in the spec), so a worker simulates
    exactly what the calling process would.  A spec whose preset has no
    simulator configuration and that gives no ``device_config`` raises
    :class:`ValueError` here (:meth:`ExperimentSpec.resolved_device_config`).
    """
    algorithm = create(spec.algorithm)
    return algorithm.observe_sweep(
        spec.resolved_sizes(algorithm),
        config=spec.resolved_device_config(),
        seed=spec.seed,
    )


def execute_specs(
    specs: Sequence[ExperimentSpec],
    batch_cache: Optional[BatchCache] = None,
    mapper: Callable = map,
) -> List[Result]:
    """Execute a batch of specs: the one path from specs to results.

    Predictions come from :func:`predict_group`, in the calling process,
    once per group that :func:`plan_groups` plans: one
    :class:`MetricsBatch` compiled over the union of the group's sweep
    sizes and one backend evaluation per distinct ``(preset, backends)``
    cluster serve every spec's prediction, memoised in ``batch_cache`` when
    one is given.  The simulations go through ``mapper`` (the builtin
    ``map``, or an engine's ``map``), which applies :func:`observe_spec`
    to every spec in order.  Order is preserved.
    """
    specs = list(specs)
    predictions: List[Optional[SweepPrediction]] = [None] * len(specs)
    for indices in plan_groups(specs):
        group = predict_group(
            [specs[index] for index in indices], batch_cache=batch_cache
        )
        for index, prediction in zip(indices, group):
            predictions[index] = prediction
    return [
        Result.from_sweeps(spec, prediction, observation)
        for spec, prediction, observation in zip(
            specs, predictions, mapper(observe_spec, specs)
        )
    ]


class ExecutionEngine(Protocol):
    """What a session requires of an execution engine.

    The shape of :meth:`concurrent.futures.Executor.map`; an engine may
    also provide ``close()``, which :meth:`Session.close` calls.
    """

    name: str

    def map(self, fn: Callable, specs: Sequence[ExperimentSpec]) -> Iterable:
        """Apply ``fn`` to every spec, preserving order."""
        ...


class SerialEngine:
    """Simulate specs one after another in the current process."""

    name = "serial"

    def map(self, fn: Callable, specs: Sequence[ExperimentSpec]) -> Iterable:
        return map(fn, specs)


class ProcessPoolEngine:
    """Simulate a batch of specs across a pool of worker processes.

    Only the simulations run in the workers: a session's predictions stay
    in its own process, grouped and memoised (:func:`execute_specs`).  A
    batch of one runs in-process (a pool buys nothing there).
    ``max_workers`` defaults to the CPU count.  The pool is created lazily
    on the first multi-spec batch and **reused across batches** — spawning
    workers costs tens of milliseconds per process, so a per-batch pool
    would dominate short sweeps.  Call :meth:`close` (or use the owning
    :class:`Session` as a context manager) to shut the workers down.

    A batch that dies with :class:`BrokenProcessPool` (a worker crashed or
    was killed) is retried **once** on a fresh pool; if that retry breaks
    too, the engine raises a typed :class:`EngineError` naming the offending
    spec instead of surfacing the raw executor crash.

    .. note::
        Simulation reads no runtime registry, so specs naming backends or
        presets registered at run time work under the ``fork`` and the
        ``spawn`` start method alike: the workers never resolve them.  A
        preset registered at run time has no simulator configuration, so
        its specs are observed only when they give a ``device_config``.
        ``fn`` must be picklable (a module-level function).
    """

    name = "process"

    def __init__(self, max_workers: Optional[int] = None) -> None:
        if max_workers is not None and max_workers < 1:
            raise ValueError("max_workers must be at least 1")
        self.max_workers = max_workers
        self._pool: Optional[ProcessPoolExecutor] = None
        # Guards pool creation/teardown when sessions are shared across
        # serving-layer worker threads.
        self._lock = threading.Lock()

    @property
    def pool(self) -> Optional[ProcessPoolExecutor]:
        """The live executor, or ``None`` before first use / after close."""
        with self._lock:
            return self._pool

    def _ensure_pool(self) -> ProcessPoolExecutor:
        with self._lock:
            if self._pool is None:
                self._pool = ProcessPoolExecutor(
                    max_workers=self.max_workers or os.cpu_count() or 1
                )
            return self._pool

    def map(self, fn: Callable, specs: Sequence[ExperimentSpec]) -> List:
        specs = list(specs)
        if len(specs) <= 1:
            return [fn(spec) for spec in specs]
        try:
            return list(self._ensure_pool().map(fn, specs))
        except BrokenProcessPool:
            # A dead worker poisons the whole executor; drop it and retry
            # the batch once on a healthy pool (the old per-batch pool
            # recovered implicitly).
            self.close()
            return self._retry_once(fn, specs)

    def _retry_once(self, fn: Callable, specs: List[ExperimentSpec]) -> List:
        """Re-run a broken batch on a fresh pool, spec by spec.

        Per-spec futures make the second failure attributable: the first
        future to die names the spec that was in flight when the worker
        crashed, and the raised :class:`EngineError` carries it.
        """
        futures = [self._ensure_pool().submit(fn, spec) for spec in specs]
        outputs = []
        for spec, future in zip(specs, futures):
            try:
                outputs.append(future.result())
            except BrokenProcessPool as exc:
                self.close()
                raise EngineError(
                    "process pool broke twice in a row; the retry crashed "
                    f"while executing algorithm {spec.algorithm!r} "
                    f"(spec {spec.spec_hash()})",
                    spec=spec,
                ) from exc
        return outputs

    def close(self) -> None:
        """Shut down the worker pool (a later batch re-creates it)."""
        with self._lock:
            if self._pool is not None:
                self._pool.shutdown()
                self._pool = None

    def __enter__(self) -> "ProcessPoolEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


#: Engine factories by name, for ``Session(engine="...")``.
ENGINES = {
    SerialEngine.name: SerialEngine,
    ProcessPoolEngine.name: ProcessPoolEngine,
}


def resolve_engine(engine: Union[str, ExecutionEngine]) -> ExecutionEngine:
    """Turn an engine name or instance into an engine instance."""
    if isinstance(engine, str):
        try:
            factory = ENGINES[engine]
        except KeyError as exc:
            known = ", ".join(sorted(ENGINES))
            raise KeyError(
                f"unknown execution engine {engine!r}; known engines: {known}"
            ) from exc
        return factory()
    return engine


class Session:
    """Executes experiment specs with transparent caching and batching.

    :meth:`run` is :meth:`run_many` of a batch of one, and every spec the
    caches cannot answer goes through :func:`execute_specs`: predictions
    grouped and memoised here, simulations mapped by the engine.

    Parameters
    ----------
    engine:
        An engine name (``"serial"`` or ``"process"``) or any object
        satisfying :class:`ExecutionEngine`; it runs the simulations.
    cache_dir:
        Optional directory for the on-disk JSON result store (one
        ``<spec_hash>.json`` file per result).  Results found there survive
        across sessions and processes.

    One session is safe to share across threads (the serving layer's
    workers all execute through a single instance): the result cache, the
    hit/miss counters and the batch memo are lock-guarded, and disk-store
    writes are atomic (temp file + rename).  Two threads racing on the same
    uncached spec may both execute it — execution is deterministic, so both
    produce identical results and the store stays consistent.
    """

    def __init__(
        self,
        engine: Union[str, ExecutionEngine] = "serial",
        cache_dir: Optional[Union[str, Path]] = None,
    ) -> None:
        self.engine = resolve_engine(engine)
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        if self.cache_dir is not None:
            self.cache_dir.mkdir(parents=True, exist_ok=True)
        self._memory: Dict[str, Result] = {}
        self.cache_hits = 0
        self.cache_misses = 0
        self._lock = threading.RLock()
        #: Memoized compiled metrics batches and per-backend predictions.
        self.batch_cache = BatchCache()

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Release engine resources (e.g. a persistent worker pool).

        The session stays usable afterwards — an engine with a lazy pool
        simply re-creates it on the next batch.
        """
        close = getattr(self.engine, "close", None)
        if callable(close):
            close()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Cache plumbing
    # ------------------------------------------------------------------ #
    @property
    def cache_size(self) -> int:
        """Number of results held in the in-memory cache."""
        with self._lock:
            return len(self._memory)

    @property
    def batch_cache_hits(self) -> int:
        """Lookups served from the compiled-batch/prediction memo."""
        return self.batch_cache.hits

    @property
    def batch_cache_misses(self) -> int:
        """Batch/prediction compilations the memo could not avoid."""
        return self.batch_cache.misses

    def clear_cache(self, disk: bool = False) -> None:
        """Drop the in-memory caches (and the on-disk store with ``disk=True``).

        Clears both the spec-hash result cache and the compiled-batch /
        prediction memo.
        """
        with self._lock:
            self._memory.clear()
        self.batch_cache.clear()
        if disk and self.cache_dir is not None:
            for path in self.cache_dir.glob("*.json"):
                path.unlink()

    def _disk_path(self, key: str) -> Optional[Path]:
        if self.cache_dir is None:
            return None
        return self.cache_dir / f"{key}.json"

    def lookup(
        self, spec: ExperimentSpec, key: Optional[str] = None
    ) -> Optional[Result]:
        """Cached result for a spec, or ``None`` (does not touch counters).

        ``key`` optionally supplies the pre-computed ``spec_hash`` so batch
        callers hash each spec exactly once per call.
        """
        key = key if key is not None else spec.spec_hash()
        with self._lock:
            result = self._memory.get(key)
        if result is not None:
            return result
        path = self._disk_path(key)
        if path is not None and path.exists():
            try:
                result = Result.from_json(path.read_text(encoding="utf-8"))
            except (ValueError, KeyError, TypeError, OSError):
                # A truncated or corrupted store entry is a miss, not a
                # crash: drop it and let the spec re-execute.
                path.unlink(missing_ok=True)
                return None
            with self._lock:
                self._memory[key] = result
            return result
        return None

    def _store(
        self, spec: ExperimentSpec, result: Result, key: Optional[str] = None
    ) -> None:
        key = key if key is not None else spec.spec_hash()
        with self._lock:
            self._memory[key] = result
        path = self._disk_path(key)
        if path is not None:
            # Write-then-rename keeps concurrent writers of the same key
            # from interleaving into a torn store entry.
            tmp = path.with_name(
                f"{path.name}.{os.getpid()}.{threading.get_ident()}.tmp"
            )
            tmp.write_text(result.to_json(), encoding="utf-8")
            os.replace(tmp, path)

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def run(self, spec: ExperimentSpec, use_cache: bool = True) -> Result:
        """Execute one spec: :meth:`run_many` of a batch of one.

        It serves repeats from the result cache and reads and fills the
        batch memo exactly as :meth:`run_many` does.
        """
        return self.run_many([spec], use_cache=use_cache)[0]

    def run_many(
        self, specs: Sequence[ExperimentSpec], use_cache: bool = True
    ) -> ResultSet:
        """Execute a batch of specs through :func:`execute_specs`, in order.

        Cached specs are answered immediately; only the misses are
        executed.  Duplicate specs within one batch are executed once: the
        first occurrence counts as a miss, the repeats as hits (they are
        served from that one execution), so ``cache_misses`` always equals
        the number of actual executions.

        With ``use_cache=False`` caching is disabled entirely: every spec —
        duplicates included — is executed, nothing is stored, neither the
        batch memo nor the hit/miss counters are touched.
        """
        specs = list(specs)
        if not use_cache:
            return ResultSet(
                results=execute_specs(specs, mapper=self.engine.map)
            )
        slots: List[Optional[Result]] = [None] * len(specs)
        pending: Dict[str, List[int]] = {}
        for index, spec in enumerate(specs):
            key = spec.spec_hash()
            cached = self.lookup(spec, key=key)
            if cached is not None:
                with self._lock:
                    self.cache_hits += 1
                slots[index] = cached
            else:
                with self._lock:
                    if key in pending:
                        self.cache_hits += 1
                    else:
                        self.cache_misses += 1
                pending.setdefault(key, []).append(index)
        if pending:
            fresh = execute_specs(
                [specs[indices[0]] for indices in pending.values()],
                self.batch_cache,
                self.engine.map,
            )
            for key, result, indices in zip(
                pending, fresh, pending.values()
            ):
                self._store(specs[indices[0]], result, key=key)
                for index in indices:
                    slots[index] = result
        return ResultSet(results=[slot for slot in slots if slot is not None])

    # ------------------------------------------------------------------ #
    # The paper's evaluation
    # ------------------------------------------------------------------ #
    def run_paper_evaluation(
        self, scale: str = "paper", use_cache: bool = True, **spec_kwargs
    ) -> ResultSet:
        """Run the three Section IV experiments as one batch.

        ``spec_kwargs`` forward to :func:`repro.experiments.spec.paper_specs`
        (``preset``, ``device_config``, ``seed``, ``backends``).
        """
        return self.run_many(
            paper_specs(scale=scale, **spec_kwargs), use_cache=use_cache
        )
