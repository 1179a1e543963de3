"""Declarative experiment specifications.

An :class:`ExperimentSpec` is the complete, immutable description of one
prediction-vs-observation experiment: which algorithm, which input sizes (an
explicit tuple or a named sweep scale), which GPU preset drives the
prediction, which simulated device produces the observation, which seed
feeds the workload generators, and which cost-model backends are evaluated.

Specs are frozen and hashable, round-trip through plain dictionaries and
JSON, and expose a :meth:`~ExperimentSpec.spec_hash` derived from their
canonical JSON — the one cache key used everywhere (it therefore includes
the seed, preset and device configuration, unlike the legacy runner's
name-and-sizes key).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields, replace
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.algorithms.registry import (
    ALL_ALGORITHMS,
    create,
    paper_algorithm_names,
)
from repro.core.backends import (
    DEFAULT_BACKENDS,
    TOPOLOGY_BACKEND,
    ensure_topology_backend,
)
from repro.core.metrics import validate_sizes
from repro.core.presets import DEFAULT_PRESET, GPUPreset, get_preset
from repro.core.topology import Topology
from repro.simulator.config import SIMULATOR_CONFIGS, DeviceConfig
from repro.utils.validation import (
    ensure_non_negative_int,
    reject_unknown_fields,
)
from repro.workloads.sweeps import sweep_for

#: The scales a spec may name instead of explicit sizes.
SCALES: Tuple[str, ...] = ("paper", "small")


@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment, fully described and hashable.

    Every field is checked where the spec is built, raising
    :class:`TypeError` or :class:`ValueError`; only preset and backend names
    are looked up later, at resolution, because both registries grow at
    run time.

    Parameters
    ----------
    algorithm:
        Registry name of the algorithm (see :mod:`repro.algorithms.registry`).
    sizes:
        Explicit sweep sizes.  When ``None`` the named sweep for
        ``algorithm`` at ``scale`` is used (falling back to the algorithm's
        default sizes).
    scale:
        ``"paper"`` for the exact Section IV sweeps, ``"small"`` for the
        reduced variants.  Ignored when ``sizes`` is given.
    preset:
        Name of the GPU preset driving the prediction (see
        :func:`repro.core.presets.get_preset`).
    device_config:
        Simulator configuration for the observation side (a plain mapping
        is coerced); defaults to the configuration of ``preset``
        (:meth:`resolved_device_config`).
    seed:
        Seed for the workload generators, a non-negative integer.
    backends:
        Names of the cost-model backends to evaluate
        (:mod:`repro.core.backends`).  The placeholder name
        ``"atgpu-topo"`` means "the spec's own topology" and requires
        ``topology`` to be set; see :meth:`resolved_backends`.
    topology:
        Optional :class:`~repro.core.topology.Topology` describing the
        device fleet topology-aware backends evaluate against (a plain
        mapping is coerced).  Included in the spec hash and in every
        caching/coalescing key derived from it.
    """

    algorithm: str
    sizes: Optional[Tuple[int, ...]] = None
    scale: str = "paper"
    preset: str = DEFAULT_PRESET.name
    device_config: Optional[DeviceConfig] = None
    seed: int = 0
    backends: Tuple[str, ...] = DEFAULT_BACKENDS
    topology: Optional[Topology] = None

    def __post_init__(self) -> None:
        if not isinstance(self.algorithm, str):
            raise TypeError(
                "algorithm must be a registered algorithm name, got "
                f"{type(self.algorithm).__name__}"
            )
        if self.algorithm not in ALL_ALGORITHMS:
            known = ", ".join(sorted(ALL_ALGORITHMS))
            raise ValueError(
                f"unknown algorithm {self.algorithm!r}; known algorithms: "
                f"{known}"
            )
        if self.scale not in SCALES:
            raise ValueError(
                f"scale must be one of {', '.join(SCALES)}; got {self.scale!r}"
            )
        if self.sizes is not None:
            object.__setattr__(
                self, "sizes", validate_sizes(self.sizes, "sizes")
            )
        if not isinstance(self.preset, str):
            raise TypeError(
                f"preset must be a preset name, got {type(self.preset).__name__}"
            )
        if not self.preset:
            raise ValueError("an experiment spec needs a preset name")
        if isinstance(self.backends, str):
            raise TypeError(
                "backends must be a sequence of backend names, not the bare "
                f"string {self.backends!r}"
            )
        backends = tuple(self.backends)
        for name in backends:
            if not isinstance(name, str):
                raise TypeError(
                    "backend names must be strings, got "
                    f"{type(name).__name__} {name!r}"
                )
        if not backends:
            raise ValueError("an experiment spec needs at least one backend")
        object.__setattr__(self, "backends", backends)
        object.__setattr__(
            self, "seed", ensure_non_negative_int(self.seed, "seed")
        )
        for attr, kind in (
            ("device_config", DeviceConfig), ("topology", Topology)
        ):
            value = getattr(self, attr)
            if value is None or isinstance(value, kind):
                continue
            if not isinstance(value, Mapping):
                raise TypeError(
                    f"{attr} must be a {kind.__name__} (or its to_dict "
                    f"mapping), got {type(value).__name__}"
                )
            object.__setattr__(self, attr, kind.from_dict(value))
        if TOPOLOGY_BACKEND in self.backends and self.topology is None:
            raise ValueError(
                f"the {TOPOLOGY_BACKEND!r} backend placeholder requires the "
                "spec to carry a topology"
            )

    # ------------------------------------------------------------------ #
    # Resolution against the registries
    # ------------------------------------------------------------------ #
    def resolved_sizes(self, algorithm=None) -> List[int]:
        """The concrete sweep sizes this spec describes.

        ``algorithm`` optionally supplies an already-constructed
        :class:`~repro.algorithms.base.GPUAlgorithm` instance for the
        default-sizes fallback (avoids building a second one).
        """
        if self.sizes is not None:
            return list(self.sizes)
        try:
            return list(sweep_for(self.algorithm, scale=self.scale).sizes)
        except KeyError:
            pass
        if algorithm is None:
            algorithm = create(self.algorithm)
        sizes = list(algorithm.default_sizes())
        if self.scale == "small":
            sizes = sizes[: max(3, len(sizes) // 3)]
        return sizes

    def resolved_preset(self) -> GPUPreset:
        """The :class:`~repro.core.presets.GPUPreset` this spec names."""
        return get_preset(self.preset)

    def resolved_device_config(self) -> DeviceConfig:
        """The simulator configuration the spec is observed on.

        ``device_config`` when given, else the configuration of the preset
        the spec names (:data:`~repro.simulator.config.SIMULATOR_CONFIGS`),
        so the prediction and the observation describe the same GPU.  A
        preset without one (``gtx1080``, or any preset registered at run
        time) raises :class:`ValueError`: such a spec can be predicted but
        is observed only on an explicit ``device_config``.
        """
        if self.device_config is not None:
            return self.device_config
        config = SIMULATOR_CONFIGS.get(self.preset)
        if config is None:
            raise ValueError(
                f"preset {self.preset!r} has no simulator configuration; "
                "pass device_config to observe this spec"
            )
        return config()

    def topology_key(self) -> str:
        """Topology discriminator for caching/coalescing keys.

        The topology's stable hash, or ``""`` for specs without one —
        cheap to compute (memoised on the topology) and safe to embed in
        any tuple key.
        """
        return "" if self.topology is None else self.topology.topology_hash()

    def resolved_backends(self) -> Tuple[str, ...]:
        """The concrete backend names this spec evaluates.

        Occurrences of the ``"atgpu-topo"`` placeholder are replaced by
        the auto-registered backend for this spec's topology
        (:func:`~repro.core.backends.ensure_topology_backend`); all other
        names pass through unchanged.  Series computed under the resolved
        names are renamed back to the requested names by the session
        layer, so callers always see the names they asked for.
        """
        if TOPOLOGY_BACKEND not in self.backends:
            return self.backends
        resolved = ensure_topology_backend(self.topology)
        return tuple(
            resolved if name == TOPOLOGY_BACKEND else name
            for name in self.backends
        )

    def with_overrides(self, **kwargs) -> "ExperimentSpec":
        """Copy of the spec with selected fields replaced."""
        return replace(self, **kwargs)

    # ------------------------------------------------------------------ #
    # Serialisation and hashing
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, Any]:
        """The spec as a plain JSON-serialisable dictionary."""
        return {
            "algorithm": self.algorithm,
            "sizes": list(self.sizes) if self.sizes is not None else None,
            "scale": self.scale,
            "preset": self.preset,
            "device_config": (
                self.device_config.to_dict()
                if self.device_config is not None
                else None
            ),
            "seed": self.seed,
            "backends": list(self.backends),
            "topology": (
                self.topology.to_dict()
                if self.topology is not None
                else None
            ),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExperimentSpec":
        """Rebuild a spec from :meth:`to_dict` output.

        Unknown keys raise a typed
        :class:`~repro.utils.validation.UnknownFieldError` naming the
        offending field, so e.g. a ``"topolgy"`` typo fails loudly
        instead of silently producing a homogeneous spec.
        """
        reject_unknown_fields(
            "ExperimentSpec", data, (f.name for f in fields(cls))
        )
        return cls(**dict(data))

    def to_json(self) -> str:
        """The spec as canonical (sorted-key) JSON."""
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentSpec":
        """Rebuild a spec from :meth:`to_json` output."""
        return cls.from_dict(json.loads(text))

    def spec_hash(self) -> str:
        """Stable short hash of the full spec — the universal cache key.

        Computed over the canonical JSON, so it covers *every* field
        (including seed, preset and device configuration) and is identical
        across processes and interpreter runs.  The spec is frozen, so the
        hash is computed once and memoised on the instance — cache lookups
        no longer re-serialise the spec on every call.
        """
        cached = self.__dict__.get("_spec_hash")
        if cached is None:
            cached = hashlib.sha256(
                self.to_json().encode("utf-8")
            ).hexdigest()[:16]
            # repro-lint: disable=FRZ001 -- write-once memo derived from frozen fields
            object.__setattr__(self, "_spec_hash", cached)
        return cached


def paper_specs(
    scale: str = "paper",
    preset: str = DEFAULT_PRESET.name,
    device_config: Optional[DeviceConfig] = None,
    seed: int = 0,
    backends: Sequence[str] = DEFAULT_BACKENDS,
) -> List[ExperimentSpec]:
    """Specs for the three experiments of Section IV, in the paper's order."""
    return [
        ExperimentSpec(
            algorithm=name,
            scale=scale,
            preset=preset,
            device_config=device_config,
            seed=seed,
            backends=tuple(backends),
        )
        for name in paper_algorithm_names()
    ]
