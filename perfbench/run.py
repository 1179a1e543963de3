"""Run one workload of the system benchmark and print its metrics.

From the repository root::

    python3 perfbench/run.py --workload <paper-eval|explore|serve> \\
        --seed <n> --seconds <s> --trace <0|1>

The seed is the only input: the workload generates its requests and sizes
from it.  ``--seconds`` is how long the run measures; every op in flight
when it ends is finished.  The workloads and why each was chosen are in
``paper_eval.py``, ``explore.py`` and ``serve.py``.

Every workload prints the same metrics, those ``BENCHMARK.json`` lists, so
each can be compared with itself across commits.  ``--trace 0`` measures
the end-to-end ones with tracing off: ``op_p50_ms``, the p50 of the
workload's op (paper-eval: one evaluation; explore: one round of its five
op types; serve: one steady-phase request, timed from its due time);
``ops_per_s``, ops per busy second (serve: requests per second of burst
drain time); ``setup_s``, the median of several fresh-interpreter set-ups
(``import repro``, building the workload, a warm-up reaching every lazy
import); and ``peak_rss_mb``.  ``--trace 1`` is the separate traced run: it
times the benchmark's calls into each layer's public functions
(``walks.py``) as spans and prints the per-layer metrics (see
``common.layer_metrics``), ``trace.overhead``, ``trace.coverage`` and the
sandbox calibration.  Spans are written to
``.perfbench/trace-<workload>-seed<n>.jsonl`` when the run ends.

Report lines give each metric with its unit, p50, highest percentile with
ten samples beyond it and sample count.  Each workload also prints its own
metrics there, outside the result line: paper-eval ``eval_s``,
``delta_gap`` and ``share_err``; explore the p50 of each op type
(``analyse_ms`` ... ``schedule_sweep_ms``); serve ``serve_p50_ms``,
``serve_p99_ms`` and ``burst_rps``; the traced run the finer per-layer
times.  The last line is one JSON object ``{"correct", "attempted",
"failed", "metrics"}``.  The run exits 1 when an output check fails or a
listed metric is missing (the result line says ``"correct": false``) and
2, without a result, when the repository's ``src/repro`` is not there.

Baseline medians and quartiles, the environment they were measured on and
each workload's loop type, rate and op are in ``baseline.json``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import resource
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".perfbench"
#: Fresh-interpreter set-ups sampled per run; ``setup_s`` is their median.
SETUP_SAMPLES = 5
#: Units checked to be finite and positive.
TIME_UNITS = ("s", "ms", "us", "req/s", "1/s")


def fingerprint() -> str:
    """Python, NumPy, CPU count and CPU model of this machine."""
    import numpy

    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            model = next(
                line.split(":", 1)[1].strip() for line in handle
                if line.startswith("model name")
            )
    except (OSError, StopIteration):
        pass
    return (f"python {platform.python_version()}, numpy {numpy.__version__}, "
            f"nproc {os.cpu_count()}, cpu {model}")


def sample_setups(workload: str, seed: int, seconds: float) -> list:
    """Set-up seconds of ``SETUP_SAMPLES`` fresh interpreters, one at a time."""
    probe = Path(__file__).with_name("setup_probe.py")
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(
            [sys.executable, str(probe), workload, str(seed), str(seconds)],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
        samples.append(float(done.stdout.split()[-1]))
    return samples


def main(argv=None) -> int:
    sys.path[:0] = [str(SRC), str(ROOT)]
    from perfbench.setup_probe import WORKLOADS, pin_malloc, set_up

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    pin_malloc()
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: {SRC / 'repro'} not found; run from a checkout of "
              "the repository", file=sys.stderr)
        return 2
    # Bytecode is written before anything is timed, so the first run of a
    # fresh checkout times the same imports as every later one.
    for package in (SRC / "repro", ROOT / "perfbench"):
        compileall.compile_dir(str(package), quiet=1)

    from perfbench.common import (
        Calibration, Metric, as_json_metrics, finite_positive, render, timing,
    )
    from perfbench.spans import Tracer

    setups = [] if args.trace else sample_setups(
        args.workload, args.seed, args.seconds
    )
    workload, _ = set_up(args.workload, args.seed, args.seconds)
    calibration = Calibration()
    if args.trace:
        tracer = Tracer()
        outcome = workload.trace(args.seconds, calibration, tracer)
        tracer.write(TRACE_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl")
        outcome.failures += tracer.nesting_errors()
        metrics = outcome.metrics + [calibration.metric()]
    else:
        outcome = workload.measure(args.seconds, calibration)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = [
            timing("setup_s", "s", setups),
            Metric("peak_rss_mb", rss_mb, "MB"),
            *outcome.metrics,
        ]
    failures = outcome.failures + finite_positive(
        metrics + outcome.report, TIME_UNITS
    )
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = {
        m["name"]: m["unit"]
        for m in manifest["per_layer" if args.trace else "end_to_end"]
    }
    measured = {m.name: m for m in metrics}
    failures += [
        f"{name} ({unit}) not measured" for name, unit in wanted.items()
        if name not in measured or measured[name].unit != unit
    ]
    metrics = [measured[name] for name in wanted if name in measured]

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print(f"environment: {fingerprint()}")
    drift = [] if args.trace else [calibration.metric()]
    for line in render(metrics + outcome.report + drift):
        print(line)
    print(f"ops: {outcome.attempted} attempted, {outcome.failed} failed; "
          f"output checks: {'ok' if not failures else 'FAILED'}")
    for failure in failures[:20]:
        print(f"  check failed: {failure}")
    print(json.dumps({
        "correct": not failures,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": as_json_metrics(metrics),
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
