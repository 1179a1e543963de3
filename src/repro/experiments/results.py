"""First-class experiment results.

A :class:`Result` is everything one executed :class:`~repro.experiments.spec.ExperimentSpec`
produced: the per-backend predicted cost series, the predicted transfer
proportions ``ΔT``, and the observed total / kernel / transfer times.  It
serialises to JSON (the on-disk cache format of
:class:`~repro.experiments.session.Session`) and reconstructs the
:class:`~repro.core.prediction.PredictionComparison` from which every figure
and Section IV statistic is derived.

A :class:`ResultSet` is an ordered batch of results — what
:meth:`Session.run_many` returns — with convenience views keyed by
algorithm so the figure and table builders can consume it directly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from typing import Any, Dict, Iterator, List, Mapping, Optional, Sequence

import numpy as np

from repro.core.prediction import (
    PredictionComparison,
    SweepObservation,
    SweepPrediction,
)
from repro.experiments.spec import ExperimentSpec
from repro.simulator.config import DeviceConfig
from repro.utils.validation import reject_unknown_fields


@dataclass
class Result:
    """The outcome of executing one experiment spec.

    Everything is stored as plain lists of floats so a result round-trips
    through JSON without loss; the richer comparison object is rebuilt (and
    memoised) on demand.
    """

    spec: ExperimentSpec
    sizes: List[int]
    #: Predicted cost series per backend name, aligned with ``sizes``.
    predicted: Dict[str, List[float]]
    #: Predicted transfer proportions ``ΔT`` per size.
    predicted_transfer_proportions: List[float]
    observed_totals: List[float]
    observed_kernels: List[float]
    observed_transfers: List[float]
    _comparison: Optional[PredictionComparison] = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        n = len(self.sizes)
        aligned = [self.predicted_transfer_proportions, self.observed_totals,
                   self.observed_kernels, self.observed_transfers,
                   *self.predicted.values()]
        if any(len(series) != n for series in aligned):
            raise ValueError("every result series must align with the sizes")
        if not self.predicted:
            raise ValueError("a result needs at least one predicted series")

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_sweeps(
        cls,
        spec: ExperimentSpec,
        prediction: SweepPrediction,
        observation: SweepObservation,
    ) -> "Result":
        """Capture the sweeps an execution produced into a result.

        Besides the spec's requested backends, the built-in trio is always
        stored (the analysis computes it anyway): the Section IV statistics
        and the figure builders need the ``atgpu`` / ``swgpu`` series, so
        this keeps results reloaded from the JSON cache behaving exactly
        like fresh ones even for specs that requested other backends.
        """
        stored = dict.fromkeys((*spec.backends, "atgpu", "swgpu", "perfect"))
        result = cls(
            spec=spec,
            sizes=list(prediction.sizes),
            predicted={
                name: [float(v) for v in prediction.series_for(name)]
                for name in stored
            },
            predicted_transfer_proportions=[
                float(v) for v in prediction.predicted_transfer_proportions
            ],
            observed_totals=[float(v) for v in observation.totals],
            observed_kernels=[float(v) for v in observation.kernels],
            observed_transfers=[float(v) for v in observation.transfers],
        )
        result._comparison = PredictionComparison(
            prediction=prediction, observation=observation
        )
        return result

    # ------------------------------------------------------------------ #
    # Views
    # ------------------------------------------------------------------ #
    @property
    def algorithm(self) -> str:
        """Registry name of the algorithm this result is for."""
        return self.spec.algorithm

    def backend_series(self, name: str) -> np.ndarray:
        """Predicted cost series of one backend as an array."""
        try:
            return np.asarray(self.predicted[name], dtype=float)
        except KeyError as exc:
            known = ", ".join(sorted(self.predicted))
            raise KeyError(
                f"result carries no series for backend {name!r}; "
                f"available: {known}"
            ) from exc

    def comparison(self) -> PredictionComparison:
        """The prediction-vs-observation comparison (memoised).

        Results fresh from an execution keep the original comparison;
        results deserialised from JSON rebuild an equivalent comparison
        from the stored series.
        """
        if self._comparison is None:
            prediction = SweepPrediction(
                algorithm=self.spec.algorithm,
                sizes=list(self.sizes),
                series={
                    name: np.asarray(values, dtype=float)
                    for name, values in self.predicted.items()
                },
                proportions=list(self.predicted_transfer_proportions),
            )
            observation = SweepObservation(
                algorithm=self.spec.algorithm,
                sizes=list(self.sizes),
                total_times=list(self.observed_totals),
                kernel_times=list(self.observed_kernels),
                transfer_times=list(self.observed_transfers),
            )
            self._comparison = PredictionComparison(
                prediction=prediction, observation=observation
            )
        return self._comparison

    def summary(self) -> Dict[str, float]:
        """The Section IV-D statistics of this experiment."""
        return self.comparison().summary()

    def shape_scores(self) -> Dict[str, float]:
        """Growth-shape score of every evaluated backend vs the total time."""
        return self.comparison().shape_scores(self.spec.backends)

    def statistics(self) -> Dict[str, float]:
        """All Section IV statistics, including per-backend shape scores."""
        stats = self.summary()
        for name, score in self.shape_scores().items():
            stats[f"{name}_shape_score"] = score
        return stats

    # ------------------------------------------------------------------ #
    # Serialisation
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, Any]:
        """The result (spec included) as a JSON-serialisable dictionary.

        ``simulator`` names the configuration the observed series were
        simulated on: the one the spec resolves to.
        """
        return {
            "spec": self.spec.to_dict(),
            "spec_hash": self.spec.spec_hash(),
            "simulator": self.spec.resolved_device_config().to_dict(),
            "sizes": list(self.sizes),
            "predicted": {k: list(v) for k, v in self.predicted.items()},
            "predicted_transfer_proportions": list(
                self.predicted_transfer_proportions
            ),
            "observed_totals": list(self.observed_totals),
            "observed_kernels": list(self.observed_kernels),
            "observed_transfers": list(self.observed_transfers),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Result":
        """Rebuild a result from :meth:`to_dict` output.

        ``spec_hash`` is accepted (``to_dict`` emits it as a convenience
        for external consumers) but recomputed from the spec, never
        trusted; any other unknown key is rejected.  ``simulator`` must
        name the configuration the spec resolves to: observations stored
        without one (as before specs were observed on their preset's
        configuration) or from another one raise :class:`ValueError`,
        which the session's disk store reads as a miss.
        """
        known = [f.name for f in fields(cls)] + ["spec_hash", "simulator"]
        reject_unknown_fields("Result", data, known)
        spec = ExperimentSpec.from_dict(data["spec"])
        if "simulator" not in data or DeviceConfig.from_dict(
            data["simulator"]
        ) != spec.resolved_device_config():
            raise ValueError(
                "the stored observations were not simulated on the "
                "configuration the spec resolves to"
            )
        return cls(
            spec=spec,
            sizes=[int(n) for n in data["sizes"]],
            predicted={
                str(k): [float(x) for x in v]
                for k, v in data["predicted"].items()
            },
            predicted_transfer_proportions=[
                float(x) for x in data["predicted_transfer_proportions"]
            ],
            observed_totals=[float(x) for x in data["observed_totals"]],
            observed_kernels=[float(x) for x in data["observed_kernels"]],
            observed_transfers=[float(x) for x in data["observed_transfers"]],
        )

    def to_json(self, indent: Optional[int] = None) -> str:
        """The result as JSON (the session's on-disk cache format)."""
        return json.dumps(self.to_dict(), sort_keys=True, indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "Result":
        """Rebuild a result from :meth:`to_json` output."""
        return cls.from_dict(json.loads(text))


@dataclass
class ResultSet:
    """An ordered batch of results, as returned by ``Session.run_many``."""

    results: List[Result]

    def __iter__(self) -> Iterator[Result]:
        return iter(self.results)

    def __len__(self) -> int:
        return len(self.results)

    def __getitem__(self, index: int) -> Result:
        return self.results[index]

    def get(self, algorithm: str) -> Result:
        """The first result for an algorithm name."""
        for result in self.results:
            if result.algorithm == algorithm:
                return result
        known = ", ".join(dict.fromkeys(r.algorithm for r in self.results))
        raise KeyError(
            f"no result for algorithm {algorithm!r}; result set covers: {known}"
        )

    def by_algorithm(self) -> Dict[str, Result]:
        """Results keyed by algorithm name (first occurrence wins)."""
        out: Dict[str, Result] = {}
        for result in self.results:
            out.setdefault(result.algorithm, result)
        return out

    def comparisons(self) -> Dict[str, PredictionComparison]:
        """Comparison objects keyed by algorithm — the figure builders' input."""
        return {
            name: result.comparison()
            for name, result in self.by_algorithm().items()
        }

    def summaries(self) -> Dict[str, Dict[str, float]]:
        """Section IV-D statistics per algorithm."""
        return {
            name: result.summary()
            for name, result in self.by_algorithm().items()
        }

    # ------------------------------------------------------------------ #
    # Serialisation
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, Any]:
        """The whole batch as a JSON-serialisable dictionary."""
        return {"results": [result.to_dict() for result in self.results]}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ResultSet":
        """Rebuild a batch from :meth:`to_dict` output."""
        reject_unknown_fields("ResultSet", data, ("results",))
        return cls(results=[Result.from_dict(r) for r in data["results"]])

    def to_json(self, indent: Optional[int] = None) -> str:
        """The batch as JSON."""
        return json.dumps(self.to_dict(), sort_keys=True, indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "ResultSet":
        """Rebuild a batch from :meth:`to_json` output."""
        return cls.from_dict(json.loads(text))


# --------------------------------------------------------------------- #
# Coercion helpers shared by the figure and table builders
# --------------------------------------------------------------------- #
def as_comparison(obj) -> PredictionComparison:
    """Coerce a :class:`PredictionComparison` or :class:`Result` to the former."""
    if isinstance(obj, PredictionComparison):
        return obj
    if isinstance(obj, Result):
        return obj.comparison()
    raise TypeError(
        "expected a PredictionComparison or Result, got "
        f"{type(obj).__name__}"
    )


def as_comparisons(obj) -> Dict[str, PredictionComparison]:
    """Coerce a ``{name: comparison-or-result}`` mapping or a :class:`ResultSet`."""
    if isinstance(obj, ResultSet):
        return obj.comparisons()
    if isinstance(obj, Mapping):
        return {name: as_comparison(value) for name, value in obj.items()}
    raise TypeError(
        "expected a ResultSet or a mapping of comparisons/results, got "
        f"{type(obj).__name__}"
    )
