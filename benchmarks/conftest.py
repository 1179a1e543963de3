"""Shared fixtures for the benchmark harness.

The expensive part of every figure benchmark is the prediction-vs-observation
sweep of Section IV.  It is computed once per session (at the paper's sweep
sizes) and shared; each benchmark then regenerates and prints its figure or
table from that data, so running ``pytest benchmarks/ --benchmark-only``
reproduces every table and figure of the evaluation in one pass.

Set the environment variable ``REPRO_BENCH_SCALE=small`` to run the same
benchmarks on the reduced sweeps (useful on slow machines).
"""

from __future__ import annotations

import os

import pytest

from repro.experiments import Session, paper_specs


def bench_scale() -> str:
    """Sweep scale used by the benchmarks (``paper`` unless overridden)."""
    scale = os.environ.get("REPRO_BENCH_SCALE", "paper").lower()
    return scale if scale in ("paper", "small") else "paper"


@pytest.fixture(scope="session")
def scale() -> str:
    """The sweep scale as a fixture, for benchmarks building their own specs."""
    return bench_scale()


@pytest.fixture(scope="session")
def paper_comparisons():
    """Prediction-vs-observation sweeps for the three paper algorithms."""
    results = Session().run_many(paper_specs(scale=bench_scale()))
    return {result.algorithm: result.comparison() for result in results}
