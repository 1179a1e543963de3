"""Tests for the ATGPU pseudocode DSL: variables, validation, analysis, execution."""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms import (
    ALL_ALGORITHMS,
    MatrixMultiplication,
    Reduction,
    VectorAddition,
)
from repro.core.machine import ATGPUMachine
from repro.core.presets import GTX_650, GTX_980
from repro.pseudocode import (
    Compute,
    GlobalToShared,
    If,
    KernelLaunch,
    Loop,
    MissingSemanticsError,
    NamingError,
    Program,
    ProgramInterpreter,
    Round,
    Scope,
    SharedCompute,
    SharedToGlobal,
    TransferIn,
    TransferOut,
    ValidationError,
    analyse_program,
    global_var,
    host_var,
    render_program,
    scope_of_name,
    shared_var,
    validate_program,
)
from repro.simulator import DeviceConfig, GPUDevice


class TestVariables:
    def test_scope_inference(self):
        assert scope_of_name("A") is Scope.HOST
        assert scope_of_name("a") is Scope.GLOBAL
        assert scope_of_name("_a") is Scope.SHARED

    def test_bad_names_rejected(self):
        with pytest.raises(NamingError):
            scope_of_name("1abc")
        with pytest.raises(NamingError):
            scope_of_name("")

    def test_declaration_checks_convention(self):
        host_var("Input", 10)
        global_var("input", 10)
        shared_var("_input", 10)
        with pytest.raises(NamingError):
            host_var("input", 10)
        with pytest.raises(NamingError):
            global_var("_input", 10)
        with pytest.raises(NamingError):
            shared_var("Input", 10)


class TestStatements:
    def test_transfer_scope_rules(self):
        TransferIn("a", "A", words=10)
        with pytest.raises(ValueError):
            TransferIn("A", "a", words=10)
        TransferOut("A", "a", words=10)
        with pytest.raises(ValueError):
            TransferOut("a", "A", words=10)

    def test_global_access_scope_rules(self):
        GlobalToShared("_s", "a")
        with pytest.raises(ValueError):
            GlobalToShared("s", "a")
        SharedToGlobal("a", "_s")
        with pytest.raises(ValueError):
            SharedToGlobal("_a", "_s")

    def test_if_counts_body_operations(self):
        statement = If("lane == 0", body=(Compute(operations=4),), operations=1)
        assert statement.operation_count({}) == 5

    def test_loop_multiplies_body(self):
        loop = Loop(count=3, body=(Compute(operations=2), GlobalToShared("_s", "a")))
        assert loop.operation_count({}) == 3 * 3
        assert loop.io_blocks_per_mp({}) == 3

    def test_loop_with_callable_count(self):
        loop = Loop(count=lambda p: p["n"] / p["b"], body=(Compute(),))
        assert loop.iterations({"n": 64, "b": 8}) == 8

    def test_kernel_launch_aggregates(self):
        launch = KernelLaunch(
            grid_blocks=4,
            body=(GlobalToShared("_s", "a"), Compute(), SharedToGlobal("c", "_s")),
            shared_declarations=(shared_var("_s", 16),),
        )
        assert launch.grid({}) == 4
        assert launch.time({}) == 3
        assert launch.io_blocks({}) == 2 * 4
        assert launch.shared_words_per_block() == 16


def _vecadd_program(n=64, b=4):
    return VectorAddition().build_pseudocode(n, ATGPUMachine(p=2 * b, b=b, M=256, G=4096))


class TestValidation:
    def test_paper_programs_are_valid(self, machine):
        for algo, n in ((VectorAddition(), 1024), (Reduction(), 4096),
                        (MatrixMultiplication(), 64)):
            program = algo.build_pseudocode(n, machine)
            validate_program(program, machine)

    def test_undeclared_variable_detected(self):
        program = Program(
            name="broken",
            variables=(host_var("A", 4), global_var("a", 4), shared_var("_s", 4)),
            rounds=(Round(
                transfers_in=(TransferIn("a", "A", words=4),),
                launches=(KernelLaunch(1, (GlobalToShared("_s", "ghost"),)),),
            ),),
        )
        with pytest.raises(ValidationError, match="ghost"):
            validate_program(program)

    def test_global_memory_limit_enforced(self, tiny_machine):
        program = _vecadd_program(n=100_000, b=tiny_machine.b)
        with pytest.raises(ValidationError):
            validate_program(program, tiny_machine)

    def test_nested_if_rejected(self):
        nested = If("outer", body=(If("inner", body=(Compute(),)),))
        program = Program(
            name="nested",
            variables=(global_var("a", 4), shared_var("_s", 4), host_var("A", 4)),
            rounds=(Round(
                transfers_in=(TransferIn("a", "A", words=4),),
                launches=(KernelLaunch(1, (nested,)),),
            ),),
        )
        with pytest.raises(ValidationError, match="single conditional"):
            validate_program(program)


class TestAnalyzer:
    def test_zero_word_transfer_statements_are_markers(self):
        """A W statement moving no words at these parameters is not charged
        a transaction, matching the core model's zero-word-event rule."""
        program = Program(
            name="markers",
            variables=(host_var("A", 4), host_var("B", 4),
                       global_var("a", 4), shared_var("_s", 4)),
            rounds=(Round(
                transfers_in=(
                    TransferIn("a", "A", words=4),
                    TransferIn("a", "B", words=0),
                ),
                launches=(KernelLaunch(1, (GlobalToShared("_s", "a"),)),),
                transfers_out=(TransferOut("A", "a", words=0),),
            ),),
        )
        metrics = analyse_program(program)
        assert metrics.total_inward_words == 4
        assert metrics[0].inward_transactions == 1
        assert metrics[0].outward_transactions == 0

    def test_vector_addition_analysis_matches_hand_counts(self, machine):
        n = 6400
        program = VectorAddition().build_pseudocode(n, machine)
        metrics = analyse_program(program, machine)
        hand = VectorAddition().metrics(n, machine)
        assert metrics.num_rounds == hand.num_rounds == 1
        assert metrics.total_io_blocks == hand.total_io_blocks
        assert metrics.total_inward_words == hand.total_inward_words == 2 * n
        assert metrics.total_outward_words == hand.total_outward_words == n
        assert metrics.total_transfer_transactions == hand.total_transfer_transactions == 3
        assert metrics.max_global_words == hand.max_global_words == 3 * n
        assert metrics[0].thread_blocks == hand[0].thread_blocks

    def test_reduction_analysis_round_structure(self, machine):
        n = 32 * 32 * 4
        program = Reduction().build_pseudocode(n, machine)
        metrics = analyse_program(program, machine)
        hand = Reduction().metrics(n, machine)
        assert metrics.num_rounds == hand.num_rounds
        assert metrics.total_inward_words == n
        assert metrics.total_outward_words == 1
        assert metrics[0].thread_blocks == hand[0].thread_blocks

    def test_matmul_analysis_counts(self, machine):
        n = 128
        program = MatrixMultiplication().build_pseudocode(n, machine)
        metrics = analyse_program(program, machine)
        hand = MatrixMultiplication().metrics(n, machine)
        assert metrics.total_inward_words == hand.total_inward_words == 2 * n * n
        assert metrics.total_io_blocks == hand.total_io_blocks
        assert metrics[0].thread_blocks == hand[0].thread_blocks == (n // 32) ** 2

    def test_analysis_respects_machine_capacity(self, tiny_machine):
        program = _vecadd_program(n=100_000, b=tiny_machine.b)
        with pytest.raises(Exception):
            analyse_program(program, tiny_machine)


#: Per-round fields on which the pseudocode analyzer, an independent route
#: to the metrics, agrees exactly with the hand analyses.  ``time`` is never
#: compared: the analyzer counts every statement, while the hand analyses
#: use Section IV's operation counts.
ORACLE_FIELDS = (
    "inward_words", "outward_words", "inward_transactions",
    "outward_transactions", "global_words", "thread_blocks", "io_blocks",
    "shared_words_per_mp",
)

#: Fields where a hand analysis deliberately counts differently.
ORACLE_EXCLUDED = {
    # The hand count charges the ``x`` gather per block, the analyzer per lane.
    "spmv": ("io_blocks",),
    # The hand count covers the halo tile only; the pseudocode also declares
    # the ``_out`` staging array.
    "stencil_1d": ("shared_words_per_mp",),
    # The hand count covers the bins; the pseudocode also stages ``_seg``.
    "histogram": ("shared_words_per_mp",),
}

#: Edge sizes checked on top of each algorithm's default sweep.
ORACLE_SIZES = [1, 2, 3, 7, 31, 33, 1000, 4097]


@pytest.mark.parametrize("preset", [GTX_650, GTX_980], ids=lambda p: p.name)
@pytest.mark.parametrize("name", sorted(ALL_ALGORITHMS))
def test_pseudocode_oracle_matches_hand_metrics(name, preset):
    algorithm = ALL_ALGORITHMS[name]()
    machine = preset.machine
    fields = [
        f for f in ORACLE_FIELDS if f not in ORACLE_EXCLUDED.get(name, ())
    ]
    for n in algorithm.default_sizes() + ORACLE_SIZES:
        derived = analyse_program(algorithm.build_pseudocode(n, machine), machine)
        hand = algorithm.metrics(n, machine)
        assert derived.num_rounds == hand.num_rounds, n
        for index, (got, want) in enumerate(zip(derived, hand)):
            for field in fields:
                assert getattr(got, field) == getattr(want, field), (
                    n, index, field
                )


class TestInterpreter:
    def test_vector_addition_executes_correctly(self, tiny_config):
        n = 50
        device = GPUDevice(tiny_config)
        program = _vecadd_program(n=n, b=tiny_config.warp_width)
        inputs = {"A": np.arange(n), "B": np.arange(n) * 10}
        result = ProgramInterpreter(device).execute(program, inputs)
        assert np.array_equal(result.outputs["C"], inputs["A"] + inputs["B"])
        assert result.total_time_s > 0
        assert 0 <= result.observed_transfer_proportion <= 1
        assert result.transfer_time_s > 0 and result.kernel_time_s > 0

    def test_missing_host_input_raises(self, tiny_config):
        program = _vecadd_program(n=16, b=tiny_config.warp_width)
        with pytest.raises(KeyError):
            ProgramInterpreter(GPUDevice(tiny_config)).execute(program, {"A": np.arange(16)})

    def test_analysis_only_program_cannot_execute(self, tiny_config):
        # The reduction pseudocode carries no executable semantics.
        program = Reduction().build_pseudocode(64, tiny_config.abstract_machine())
        with pytest.raises(MissingSemanticsError):
            ProgramInterpreter(GPUDevice(tiny_config)).execute(
                program, {"A": np.arange(64)})


class TestRenderer:
    def test_render_contains_operators_and_wrapper(self, machine):
        text = render_program(VectorAddition().build_pseudocode(1024, machine))
        assert "W" in text
        assert "<==" in text
        assert "<-" in text
        assert "for all mp_rho in MP" in text

    def test_render_reduction_shows_rounds(self, machine):
        text = render_program(Reduction().build_pseudocode(4096, machine))
        assert "round" in text
        assert "Transfer answer" in text or "Transfer output" in text
