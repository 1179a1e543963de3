"""Integration tests for the experiment harness (figures, tables, session)."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.experiments import (
    Session,
    all_figures,
    figure3,
    figure4,
    figure5,
    figure6,
    paper_specs,
    render_figure,
    render_figures,
    render_summary,
    summary_statistics,
    table1,
)
from repro.workloads import PAPER_SWEEPS, SMALL_SWEEPS, Sweep, sweep_for


@pytest.fixture(scope="module")
def comparisons():
    """The Section IV comparisons at small scale, keyed by algorithm."""
    results = Session().run_many(paper_specs(scale="small"))
    return {result.algorithm: result.comparison() for result in results}


#: perfbench's paper-eval reference: every Section IV series at paper
#: scale and the IV-D statistics, as the benchmark checks them.
PAPER_REFERENCE = (
    Path(__file__).resolve().parent.parent
    / "perfbench" / "reference" / "paper_eval.json"
)

#: The IV-D statistics the reference holds per algorithm.
REFERENCE_SUMMARY_FIELDS = (
    "measured_transfer_share",
    "measured_predicted_transfer_share",
    "measured_delta_accuracy",
    "measured_swgpu_capture",
    "atgpu_shape_score",
    "swgpu_shape_score",
)


@pytest.fixture(scope="module")
def paper_results():
    """The Section IV results at the paper's sweep sizes."""
    return Session().run_many(paper_specs(scale="paper"))


@pytest.fixture(scope="module")
def paper_comparisons(paper_results):
    """The Section IV comparisons at the paper's sweep sizes."""
    return {result.algorithm: result.comparison() for result in paper_results}


class TestWorkloads:
    def test_paper_sweeps_match_section_iv(self):
        assert PAPER_SWEEPS["vector_addition"].sizes[-1] == 10_000_000
        assert PAPER_SWEEPS["reduction"].sizes == [1 << e for e in range(16, 27)]
        assert PAPER_SWEEPS["matrix_multiplication"].sizes[0] == 32
        assert PAPER_SWEEPS["matrix_multiplication"].sizes[-1] == 1024

    def test_small_sweeps_are_smaller(self):
        for name in PAPER_SWEEPS:
            assert max(SMALL_SWEEPS[name].sizes) < max(PAPER_SWEEPS[name].sizes)

    def test_sweep_for_lookup(self):
        assert sweep_for("reduction", "paper") is PAPER_SWEEPS["reduction"]
        with pytest.raises(KeyError):
            sweep_for("nonexistent")
        with pytest.raises(ValueError):
            sweep_for("reduction", scale="huge")

    def test_sweep_validation(self):
        with pytest.raises(ValueError):
            Sweep("bad", [3, 2, 1])
        with pytest.raises(ValueError):
            Sweep("bad", [])


class TestTable1:
    def test_table1_matrix(self):
        table = table1()
        assert table["Host/Device Data Transfer"] == {
            "AGPU": False, "SWGPU": False, "ATGPU": True}
        assert not table["Global Memory Limit"]["AGPU"]

    def test_table1_rendered(self):
        text = table1(rendered=True)
        assert "ATGPU" in text and "Host/Device Data Transfer" in text


class TestPaperEvaluation:
    def test_paper_evaluation_covers_three_algorithms(self, comparisons):
        assert set(comparisons) == {
            "vector_addition", "reduction", "matrix_multiplication"}

    def test_comparison_alignment(self, comparisons):
        for comparison in comparisons.values():
            assert comparison.prediction.sizes == comparison.observation.sizes


class TestFigures:
    def test_figure3_series(self, comparisons):
        figures = figure3(comparisons["vector_addition"])
        assert set(figures) == {"3a", "3b", "3c"}
        assert set(figures["3a"].series) == {"ATGPU", "SWGPU"}
        assert set(figures["3b"].series) == {"Total", "Kernel"}
        assert set(figures["3c"].series) == {"ATGPU", "SWGPU", "Total", "Kernel"}
        for curve in figures["3c"].series.values():
            assert curve.min() >= 0.0 and curve.max() <= 1.0

    def test_figure3_atgpu_grows_faster_than_swgpu(self, comparisons):
        series = figure3(comparisons["vector_addition"])["3a"].series
        atgpu_growth = series["ATGPU"][-1] / series["ATGPU"][0]
        swgpu_growth = series["SWGPU"][-1] / series["SWGPU"][0]
        assert series["ATGPU"][-1] > series["SWGPU"][-1]
        assert atgpu_growth > 1.0 and swgpu_growth > 1.0

    def test_figure4_series(self, comparisons):
        figures = figure4(comparisons["reduction"])
        assert set(figures) == {"4a", "4b", "4c"}
        total = figures["4b"].series["Total"]
        kernel = figures["4b"].series["Kernel"]
        assert np.all(total >= kernel)

    def test_figure5_series(self, comparisons):
        figures = figure5(comparisons["matrix_multiplication"])
        assert set(figures) == {"5a", "5b"}
        # Matmul: total and kernel times are close (transfer is minor) at the top end.
        total = figures["5b"].series["Total"][-1]
        kernel = figures["5b"].series["Kernel"][-1]
        assert kernel / total > 0.5

    def test_figure6_series(self, comparisons):
        figures = figure6(comparisons)
        assert set(figures) == {"6a", "6b", "6c"}
        for series in figures.values():
            for curve in series.series.values():
                assert np.all(curve >= 0.0) and np.all(curve <= 1.0)

    def test_figure6_ordering_matches_paper(self, comparisons):
        # At the largest size of each sweep the paper's ordering holds: vector
        # addition is the most transfer-bound, matrix multiplication the least.
        # (Averages over the reduced sweeps are dominated by fixed overheads at
        # tiny matrix sizes, so the comparison uses the top of each sweep.)
        figures = figure6(comparisons)
        vecadd = figures["6a"].series["ΔE (Observed)"][-1]
        reduction = figures["6b"].series["ΔE (Observed)"][-1]
        matmul = figures["6c"].series["ΔE (Observed)"][-1]
        assert vecadd > reduction > matmul
        assert figures["6c"].series["ΔE (Observed)"][0] > matmul  # Δ falls with n

    def test_all_figures_complete(self, comparisons):
        figures = all_figures(comparisons)
        assert set(figures) == {"3a", "3b", "3c", "4a", "4b", "4c", "5a", "5b",
                                "6a", "6b", "6c"}

    def test_figure6_requires_all_algorithms(self, comparisons):
        partial = {"vector_addition": comparisons["vector_addition"]}
        with pytest.raises(KeyError):
            figure6(partial)

    def test_render_figure_text(self, comparisons):
        figures = figure3(comparisons["vector_addition"])
        text = render_figure(figures["3a"])
        assert "Figure 3a" in text and "ATGPU" in text
        assert render_figures(figures).count("Figure 3") == 3


class TestPaperScaleFigures:
    """Figures 3-6 at the paper's sweep sizes keep the paper's claims."""

    def test_figure3_vector_addition(self, paper_comparisons):
        figures = figure3(paper_comparisons["vector_addition"])
        atgpu, swgpu = figures["3a"].series["ATGPU"], figures["3a"].series["SWGPU"]
        assert (atgpu > swgpu).all()
        # Roughly linear growth over the 10x sweep; the fixed α/σ offsets
        # keep the ratio somewhat below the span itself.
        span = figures["3a"].sizes[-1] / figures["3a"].sizes[0]
        assert atgpu[-1] / atgpu[0] > 0.5 * span
        total, kernel = figures["3b"].series["Total"], figures["3b"].series["Kernel"]
        assert (total > kernel).all()
        # Data transfer dominates the total (the paper reports 84 %).
        assert ((total - kernel) / total).mean() > 0.6
        for curve in figures["3c"].series.values():
            assert curve.min() == 0.0 and curve.max() == 1.0

    def test_figure4_reduction(self, paper_comparisons):
        figures = figure4(paper_comparisons["reduction"])
        assert (figures["4a"].series["ATGPU"] > figures["4a"].series["SWGPU"]).all()
        total, kernel = figures["4b"].series["Total"], figures["4b"].series["Kernel"]
        assert (total > kernel).all()
        # The paper reports ~35 % of the total time spent on transfer.
        assert 0.15 < ((total - kernel) / total).mean() < 0.65
        assert set(figures["4c"].series) == {"ATGPU", "SWGPU", "Total", "Kernel"}

    def test_figure5_matrix_multiplication(self, paper_comparisons):
        figures = figure5(paper_comparisons["matrix_multiplication"])
        atgpu = figures["5a"].series["ATGPU"]
        # Cost grows super-linearly in the matrix side (O(n^3) work).
        assert atgpu[-1] / atgpu[0] > 100
        total, kernel = figures["5b"].series["Total"], figures["5b"].series["Kernel"]
        assert (total >= kernel).all()
        # At the largest size the kernel is almost all of the total: the
        # paper's "model not needed here" case.
        assert kernel[-1] / total[-1] > 0.75

    def test_figure6_transfer_proportions(self, paper_comparisons):
        figures = figure6(paper_comparisons)
        observed = figures["6a"].series["ΔE (Observed)"]
        predicted = figures["6a"].series["ΔT (Predicted)"]
        assert observed.mean() > 0.6
        assert np.abs(observed - predicted).mean() < 0.15
        assert 0.15 < figures["6b"].series["ΔE (Observed)"].mean() < 0.65
        matmul = figures["6c"].series["ΔE (Observed)"]
        assert matmul[-1] < matmul[0]
        assert matmul[-1] < 0.2


class TestPaperScaleReference:
    """The paper-scale evaluation equals the benchmark's reference exactly.

    A change that only makes the code faster leaves every series and
    statistic unchanged, so the comparison is ``==``, not a tolerance.
    """

    def test_series_and_statistics_equal_the_reference(self, paper_results):
        stats = summary_statistics(paper_results)
        observed = {
            result.algorithm: {
                "sizes": list(result.sizes),
                "predicted": {
                    name: result.predicted[name]
                    for name in ("atgpu", "swgpu", "perfect")
                },
                "delta_t": list(result.predicted_transfer_proportions),
                "observed_totals": list(result.observed_totals),
                "observed_kernels": list(result.observed_kernels),
                "observed_transfers": list(result.observed_transfers),
                "summary": {
                    field: getattr(stats[result.algorithm], field)
                    for field in REFERENCE_SUMMARY_FIELDS
                },
            }
            for result in paper_results
        }
        reference = json.loads(PAPER_REFERENCE.read_text(encoding="utf-8"))
        assert observed == reference


class TestSummaryStatistics:
    @pytest.mark.parametrize("evaluation, min_share", [
        ("comparisons", 0.5),
        ("paper_comparisons", 0.6),
    ])
    def test_summary_reproduces_qualitative_claims(
        self, request, evaluation, min_share
    ):
        summaries = summary_statistics(request.getfixturevalue(evaluation))
        vecadd = summaries["vector_addition"]
        matmul = summaries["matrix_multiplication"]
        # Vector addition is transfer-dominated; matmul is not (Section IV-D).
        assert vecadd.measured_transfer_share > min_share
        assert matmul.measured_swgpu_capture > vecadd.measured_swgpu_capture
        # The ATGPU prediction of Δ is accurate for the transfer-bound case.
        assert vecadd.measured_delta_accuracy < 0.15
        # Shape scores are meaningful similarity values.
        for summary in summaries.values():
            assert 0.5 <= summary.atgpu_shape_score <= 1.0
            assert 0.0 <= summary.swgpu_shape_score <= 1.0

    def test_render_summary(self, comparisons):
        text = render_summary(summary_statistics(comparisons))
        assert "vector_addition" in text and "ΔE avg (meas)" in text
