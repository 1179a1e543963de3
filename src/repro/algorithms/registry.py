"""Registry of the implemented GPU algorithms.

The experiment harness, the examples and perfbench look algorithms up
by name; the registry keeps that mapping in one place and distinguishes the
*paper* algorithms (the three problems of Section IV) from the *extension*
algorithms added to exercise the model further.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.algorithms.base import GPUAlgorithm
from repro.algorithms.histogram import Histogram
from repro.algorithms.matrix_multiplication import MatrixMultiplication
from repro.algorithms.reduction import Reduction
from repro.algorithms.scan import PrefixSum
from repro.algorithms.spmv import SpMV
from repro.algorithms.stencil import Stencil1D
from repro.algorithms.vector_addition import VectorAddition

#: Factories of the algorithms evaluated in the paper (Section IV).
PAPER_ALGORITHMS: Dict[str, Callable[[], GPUAlgorithm]] = {
    VectorAddition.name: VectorAddition,
    Reduction.name: Reduction,
    MatrixMultiplication.name: MatrixMultiplication,
}

#: Factories of the extension algorithms (the "future work" problems).
EXTENSION_ALGORITHMS: Dict[str, Callable[[], GPUAlgorithm]] = {
    PrefixSum.name: PrefixSum,
    Stencil1D.name: Stencil1D,
    Histogram.name: Histogram,
    SpMV.name: SpMV,
}

#: All registered algorithm factories.
ALL_ALGORITHMS: Dict[str, Callable[[], GPUAlgorithm]] = {
    **PAPER_ALGORITHMS,
    **EXTENSION_ALGORITHMS,
}


def create(name: str) -> GPUAlgorithm:
    """Instantiate a registered algorithm by name."""
    try:
        factory = ALL_ALGORITHMS[name]
    except KeyError as exc:
        known = ", ".join(sorted(ALL_ALGORITHMS))
        raise KeyError(f"unknown algorithm {name!r}; known algorithms: {known}") from exc
    return factory()


def paper_algorithm_names() -> List[str]:
    """Names of the three algorithms the paper evaluates."""
    return list(PAPER_ALGORITHMS)


def extension_algorithm_names() -> List[str]:
    """Names of the extension algorithms."""
    return list(EXTENSION_ALGORITHMS)


def all_algorithm_names() -> List[str]:
    """Names of every registered algorithm."""
    return list(ALL_ALGORITHMS)
