"""The paper's parameter sweeps."""

from repro.workloads.sweeps import (
    MATRIX_MULTIPLICATION_SMALL,
    MATRIX_MULTIPLICATION_SWEEP,
    PAPER_SWEEPS,
    REDUCTION_SMALL,
    REDUCTION_SWEEP,
    SHARD_COUNT_SWEEP,
    SMALL_SWEEPS,
    STREAM_CHUNK_SWEEP,
    Sweep,
    VECTOR_ADDITION_SMALL,
    VECTOR_ADDITION_SWEEP,
    dense_sweep,
    sweep_for,
)

__all__ = [
    "MATRIX_MULTIPLICATION_SMALL",
    "MATRIX_MULTIPLICATION_SWEEP",
    "PAPER_SWEEPS",
    "REDUCTION_SMALL",
    "REDUCTION_SWEEP",
    "SHARD_COUNT_SWEEP",
    "SMALL_SWEEPS",
    "STREAM_CHUNK_SWEEP",
    "Sweep",
    "VECTOR_ADDITION_SMALL",
    "VECTOR_ADDITION_SWEEP",
    "dense_sweep",
    "sweep_for",
]
