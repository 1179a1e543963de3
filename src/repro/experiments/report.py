"""Text rendering of experiment results.

``examples/paper_evaluation.py`` prints its figures and tables through
these functions.
"""

from __future__ import annotations

from typing import Dict

from repro.experiments.figures import FigureSeries


def render_figure(series: FigureSeries, precision: int = 6) -> str:
    """Render one subfigure's series as an aligned text table."""
    headers = series.column_names()
    rows = [headers]
    for row in series.as_rows():
        rendered = [f"{row[0]:.0f}"]
        rendered.extend(f"{value:.{precision}g}" for value in row[1:])
        rows.append(rendered)
    widths = [max(len(r[i]) for r in rows) for i in range(len(headers))]
    lines = [f"{series.figure}: {series.title}"]
    for row in rows:
        lines.append("  ".join(cell.rjust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def render_figures(figures: Dict[str, FigureSeries], precision: int = 6) -> str:
    """Render several subfigures separated by blank lines."""
    return "\n\n".join(
        render_figure(figures[key], precision=precision) for key in sorted(figures)
    )

