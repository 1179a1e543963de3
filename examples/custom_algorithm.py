"""Design a new algorithm (SAXPY) directly in the ATGPU pseudocode DSL.

The paper presents ATGPU as a *design* tool: write the pseudocode, analyse
it, and only then decide whether the kernel is worth implementing given how
much of its running time data transfer will consume.  This example does
exactly that for SAXPY (``y = a·x + y``):

1. build the pseudocode program with executable semantics,
2. validate it against the machine's rules and capacity limits,
3. statically analyse it into metrics and evaluate the cost functions,
4. execute the very same program on the simulator through the interpreter
   and compare the observed transfer share with the prediction,
5. describe a whole *sweep* of sizes at once as ``round_arrays`` rows
   stacked into a ``MetricsBatch`` (the ``metrics_batch`` extension point)
   and price every size as one vectorized batch — bit-for-bit equal to the
   per-size path.

Run with::

    python examples/custom_algorithm.py [n]
"""

from __future__ import annotations

import sys

import numpy as np

from repro.core import GTX_650, MetricsBatch, analyse_metrics, round_arrays
from repro.core.prediction import predict_sweep_batch
from repro.pseudocode import (
    GlobalToShared,
    KernelLaunch,
    Program,
    ProgramInterpreter,
    Round,
    SharedCompute,
    SharedToGlobal,
    TransferIn,
    TransferOut,
    analyse_program,
    global_var,
    host_var,
    render_program,
    shared_var,
    validate_program,
)
from repro.simulator import DeviceConfig, GPUDevice


def build_saxpy(n: int, b: int, a_scalar: float) -> Program:
    """SAXPY pseudocode: one thread per element, three scoped variables."""
    blocks = -(-n // b)

    def segment(block: int, lanes: np.ndarray, params):
        indices = block * b + lanes
        return indices[indices < int(params["n"])]

    kernel = KernelLaunch(
        grid_blocks=blocks,
        shared_declarations=(shared_var("_x", b), shared_var("_y", b)),
        label="saxpy kernel",
        body=(
            GlobalToShared("_x", "x", global_index=segment),
            GlobalToShared("_y", "y", global_index=segment),
            SharedCompute(
                "_y", "a * _x[j] + _y[j]",
                compute=lambda shared, lanes, params: (
                    params["a"] * shared["_x"][lanes] + shared["_y"][lanes]),
            ),
            SharedToGlobal("y", "_y", global_index=segment),
        ),
    )
    return Program(
        name="saxpy",
        variables=(
            host_var("X", n), host_var("Y", n), host_var("Out", n),
            global_var("x", n), global_var("y", n),
            shared_var("_x", b), shared_var("_y", b),
        ),
        rounds=(Round(
            transfers_in=(TransferIn("x", "X", words=n), TransferIn("y", "Y", words=n)),
            launches=(kernel,),
            transfers_out=(TransferOut("Out", "y", words=n),),
            label="saxpy",
        ),),
        params={"n": float(n), "b": float(b), "a": a_scalar},
    )


def saxpy_metrics_batch(sizes, machine):
    """SAXPY metrics for a whole sweep of sizes, as one array program.

    This is the array-native factory a :class:`repro.GPUAlgorithm` subclass
    would expose as ``metrics_batch(ns, machine)`` (the base class falls
    back to packing per-size ``metrics(n, machine)`` calls; overriding it
    with columns like these skips the per-size objects entirely).  SAXPY is
    one round of four warp operations (stage x, stage y, multiply-add,
    write back): two inward arrays, one outward, 3 I/O blocks and two
    ``b``-word shared arrays per thread block — exactly what the static
    analyser derives from the pseudocode above.
    """
    ns = np.asarray(list(sizes), dtype=np.int64)
    blocks = machine.thread_blocks_grid(ns)
    return MetricsBatch.from_rounds(ns, [round_arrays(
        len(ns),
        time=4.0,
        io_blocks=3.0 * blocks,
        inward_words=2.0 * ns, inward_transactions=2,
        outward_words=ns.astype(float), outward_transactions=1,
        global_words=2.0 * ns,
        shared_words_per_mp=2.0 * machine.b,
        thread_blocks=blocks,
        label="saxpy",
    )], algorithm="saxpy")


def sweep_demo(preset, sizes) -> None:
    """Price a whole SAXPY sweep from one MetricsBatch and check parity."""
    batch = saxpy_metrics_batch(sizes, preset.machine)
    prediction = predict_sweep_batch(
        "saxpy", batch, preset.machine, preset.parameters, preset.occupancy
    )
    print("\nVectorized sweep via a metrics_batch-style factory "
          "(one array program, no per-size metrics objects):")
    for index, (n, cost, share) in enumerate(zip(
        sizes, prediction.series_for("atgpu"),
        prediction.predicted_transfer_proportions,
    )):
        # Parity with the per-size analysis is exact, not approximate.
        report = analyse_metrics(
            batch.metrics_at(index), preset.machine,
            preset.parameters, preset.occupancy,
            algorithm="saxpy", input_size=n,
        )
        assert report.gpu_cost == cost
        print(f"  n = {n:>9,}: ATGPU cost {cost:.6f} s, ΔT = {share:.3f}")


# The interpreter executes every block of a DSL kernel functionally, and DSL
# programs have no vectorised fallback: n must stay within
# functional_block_limit (4096 blocks) x warp width (32) = 131,072 elements.
def main(n: int = 100_000, a_scalar: float = 2.5) -> None:
    preset = GTX_650
    program = build_saxpy(n, preset.machine.b, a_scalar)

    print(render_program(program))
    validate_program(program, preset.machine)
    print("\nProgram validates against the ATGPU notation and machine limits.")

    metrics = analyse_program(program, preset.machine)
    report = analyse_metrics(metrics, preset.machine, preset.parameters,
                             preset.occupancy, algorithm="saxpy", input_size=n)
    print(f"\nRounds R = {report.num_rounds}, I/O blocks = {metrics.total_io_blocks:.0f}, "
          f"transfer words = {metrics.total_transfer_words:.0f}")
    print(f"ATGPU GPU-cost = {report.gpu_cost:.6f} s, SWGPU cost = {report.swgpu_cost:.6f} s")
    print(f"Predicted transfer proportion ΔT = {report.predicted_transfer_proportion:.3f}")

    device = GPUDevice(DeviceConfig.gtx650())
    rng = np.random.default_rng(0)
    x, y = rng.normal(size=n), rng.normal(size=n)
    result = ProgramInterpreter(device).execute(program, {"X": x, "Y": y})
    assert np.allclose(result.outputs["Out"], a_scalar * x + y)
    print(f"\nSimulated run: total {result.total_time_s * 1e3:.3f} ms, "
          f"ΔE = {result.observed_transfer_proportion:.3f} (result verified)")

    sweep_demo(preset, [n // 4, n // 2, n, 2 * n])

    print("\nLike vector addition, SAXPY is transfer-bound: the model says the")
    print("kernel is not worth optimising before the transfers are.")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 100_000)
