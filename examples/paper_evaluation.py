"""Regenerate the paper's full evaluation (Figures 3-6, Table I, Section IV-D).

Runs the three experiments of Section IV -- vector addition, reduction and
matrix multiplication -- comparing the ATGPU and SWGPU predictions against
the simulated GTX-650 observations, and prints every figure's series, Table I
and the summary statistics.

Run with::

    python examples/paper_evaluation.py            # reduced sweeps (fast)
    python examples/paper_evaluation.py --paper    # the paper's exact sweeps
    python examples/paper_evaluation.py --process  # simulate on a process pool

With ``--process`` each spec's simulation runs in a pool worker, while the
predictions are grouped and memoised in the session's own process.
"""

from __future__ import annotations

import sys

from repro.experiments import (
    Session,
    all_figures,
    paper_specs,
    render_figures,
    render_summary,
    summary_statistics,
    table1,
)


def main(scale: str = "small", engine: str = "serial") -> None:
    print(f"Running the Section IV evaluation at '{scale}' scale "
          f"on the '{engine}' engine ...")
    # The context manager shuts the engine's worker pool down cleanly
    # (letting interpreter exit reap it can race the queue feeder thread).
    with Session(engine=engine) as session:
        comparisons = session.run_many(paper_specs(scale=scale))

    print()
    print("Table I — comparison of GPU abstract models")
    print(table1(rendered=True))

    print()
    print(render_figures(all_figures(comparisons), precision=5))

    print()
    print("Section IV-D summary statistics (measured vs paper)")
    print(render_summary(summary_statistics(comparisons)))


if __name__ == "__main__":
    main(
        "paper" if "--paper" in sys.argv[1:] else "small",
        "process" if "--process" in sys.argv[1:] else "serial",
    )
