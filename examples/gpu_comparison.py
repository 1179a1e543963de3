"""Future-work study: how the predictions change on other GPUs.

The paper's conclusion proposes verifying the model on other GPUs.  This
example evaluates the three paper algorithms under every bundled GPU preset
(GTX 650, GTX 980, Tesla K40, GTX 1080) and on the corresponding simulator
configurations where available, showing how the balance between kernel cost
and transfer cost shifts with faster devices and faster host links.

Run with::

    python examples/gpu_comparison.py
"""

from __future__ import annotations

from repro.algorithms import MatrixMultiplication, Reduction, VectorAddition
from repro.core.presets import PRESETS
from repro.simulator import SIMULATOR_CONFIGS

CASES = [
    (VectorAddition(), 4_000_000),
    (Reduction(), 1 << 22),
    (MatrixMultiplication(), 512),
]


def main() -> None:
    print("Predicted transfer proportion ΔT per GPU preset")
    print(f"{'algorithm':<24s}" + "".join(f"{name:>12s}" for name in sorted(PRESETS)))
    for algorithm, n in CASES:
        row = [f"{algorithm.name:<24s}"]
        for name in sorted(PRESETS):
            report = algorithm.analyse(n, PRESETS[name])
            row.append(f"{report.predicted_transfer_proportion:12.3f}")
        print("".join(row))

    print()
    print("Observed (simulated) transfer proportion ΔE per device")
    print(f"{'algorithm':<24s}" + "".join(f"{name:>12s}" for name in sorted(SIMULATOR_CONFIGS)))
    for algorithm, n in CASES:
        row = [f"{algorithm.name:<24s}"]
        for name in sorted(SIMULATOR_CONFIGS):
            record = algorithm.observe(n, config=SIMULATOR_CONFIGS[name]())
            row.append(f"{record.observed_transfer_proportion:12.3f}")
        print("".join(row))

    print()
    print("Faster devices with faster PCIe links reduce both the kernel and the")
    print("transfer times, but the *share* of time spent transferring stays large")
    print("for vector addition on every GPU — the paper's conclusion generalises.")


if __name__ == "__main__":
    main()
