"""The parameter sweeps of the paper's evaluation section.

Each figure of Section IV is generated over a specific sweep of input sizes;
this module records those sweeps in one place (and provides scaled-down
variants used by the test suite and quick runs, which keep the same
spacing structure but at sizes that execute quickly in pure Python).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List


@dataclass(frozen=True)
class Sweep:
    """A named sweep of input sizes."""

    name: str
    sizes: List[int]
    description: str = ""

    def __post_init__(self) -> None:
        if not self.sizes:
            raise ValueError("a sweep needs at least one size")
        if any(s <= 0 for s in self.sizes):
            raise ValueError("sweep sizes must be positive")
        if list(self.sizes) != sorted(self.sizes):
            raise ValueError("sweep sizes must be increasing")


#: Figure 3: vector addition, n = 1,000,000 ... 10,000,000.
VECTOR_ADDITION_SWEEP = Sweep(
    name="vector_addition_paper",
    sizes=[i * 1_000_000 for i in range(1, 11)],
    description="Fig. 3: n = 1e6 .. 1e7 in steps of 1e6",
)

#: Figure 4: reduction, n = 2^16 ... 2^26.
REDUCTION_SWEEP = Sweep(
    name="reduction_paper",
    sizes=[1 << e for e in range(16, 27)],
    description="Fig. 4: n = 2^16 .. 2^26",
)

#: Figure 5: matrix multiplication, n = 32 ... 1024.
MATRIX_MULTIPLICATION_SWEEP = Sweep(
    name="matrix_multiplication_paper",
    sizes=[32, 64, 128, 256, 384, 512, 640, 768, 896, 1024],
    description="Fig. 5: square matrices of side 32 .. 1024",
)

#: Scaled-down sweeps with the same shape, for fast CI / test runs.
VECTOR_ADDITION_SMALL = Sweep(
    name="vector_addition_small",
    sizes=[i * 100_000 for i in range(1, 6)],
    description="reduced vector-addition sweep for quick runs",
)

REDUCTION_SMALL = Sweep(
    name="reduction_small",
    sizes=[1 << e for e in range(14, 20)],
    description="reduced reduction sweep for quick runs",
)

MATRIX_MULTIPLICATION_SMALL = Sweep(
    name="matrix_multiplication_small",
    sizes=[32, 64, 128, 256],
    description="reduced matrix-multiplication sweep for quick runs",
)

#: Chunk counts explored by the compute/copy-overlap experiments: 1 is the
#: serial baseline, 2 the classic double buffer, larger values deepen the
#: pipeline (diminishing returns once the bottleneck stage dominates).
STREAM_CHUNK_SWEEP = Sweep(
    name="stream_chunks",
    sizes=[1, 2, 4, 8, 16],
    description="chunk counts for the async-stream overlap experiments",
)

#: Device counts explored by the multi-GPU sharding experiments: 1 is the
#: serial baseline, then doubling pool sizes.  Scaling flattens once the
#: per-device shard no longer amortises the fixed per-transfer overheads or
#: the interconnect contention dominates.
SHARD_COUNT_SWEEP = Sweep(
    name="shard_counts",
    sizes=[1, 2, 4, 8],
    description="device counts for the multi-GPU sharding experiments",
)

def dense_sweep(
    points: int = 256,
    lo: int = 100_000,
    hi: int = 10_000_000,
    name: str = "",
) -> Sweep:
    """An evenly spaced ``points``-size sweep for throughput workloads.

    The paper's figures use ~10 sizes; serving sweeps at traffic scale means
    evaluating hundreds of points per request.  perfbench's explore and
    serve workloads draw their sizes from this grid.  Sizes are strictly
    increasing, so ``points`` must fit in ``[lo, hi]``.
    """
    if points < 1:
        raise ValueError(f"points must be >= 1, got {points!r}")
    if not 0 < lo <= hi:
        raise ValueError(f"need 0 < lo <= hi, got lo={lo!r}, hi={hi!r}")
    if points > hi - lo + 1:
        raise ValueError(
            f"cannot fit {points} distinct sizes between {lo} and {hi}"
        )
    if points == 1:
        sizes = [lo]
    else:
        step = (hi - lo) / (points - 1)
        sizes = sorted({int(round(lo + i * step)) for i in range(points)})
    return Sweep(
        name=name or f"dense_{points}",
        sizes=sizes,
        description=f"{points} evenly spaced sizes in [{lo}, {hi}] "
                    "for batch-throughput workloads",
    )


#: Sweeps keyed by the algorithm registry name, paper-scale and reduced.
PAPER_SWEEPS = {
    "vector_addition": VECTOR_ADDITION_SWEEP,
    "reduction": REDUCTION_SWEEP,
    "matrix_multiplication": MATRIX_MULTIPLICATION_SWEEP,
}

SMALL_SWEEPS = {
    "vector_addition": VECTOR_ADDITION_SMALL,
    "reduction": REDUCTION_SMALL,
    "matrix_multiplication": MATRIX_MULTIPLICATION_SMALL,
}


def sweep_for(algorithm: str, scale: str = "paper") -> Sweep:
    """Look up the sweep of one of the paper's algorithms.

    ``scale`` is ``"paper"`` for the exact sizes of Section IV or ``"small"``
    for the reduced variants.
    """
    table = PAPER_SWEEPS if scale == "paper" else SMALL_SWEEPS
    if scale not in ("paper", "small"):
        raise ValueError(f"scale must be 'paper' or 'small', got {scale!r}")
    try:
        return table[algorithm]
    except KeyError as exc:
        known = ", ".join(sorted(table))
        raise KeyError(
            f"no sweep registered for {algorithm!r}; known: {known}"
        ) from exc
