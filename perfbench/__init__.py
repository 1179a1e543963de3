"""System benchmark of the ATGPU reproduction: end-to-end and per-layer.

Run ``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` from the repository root; ``run.py`` documents the
workloads, the metrics and the output format.
"""
