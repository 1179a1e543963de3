"""Tests of the benchmark itself, each workload run at a tiny length.

Run from the repository root (about two minutes; the paper-eval op alone
takes ~15 s and is not shortened)::

    python3 -m pytest perfbench/selftest.py -q

They check that every workload prints every metric named in
``BENCHMARK.json`` with its unit, and its own named metrics as report lines;
that the output checks pass; that the traced run's spans nest (each child
inside its parent, with the same op id) with ``trace.coverage`` printed;
and that the command fails without a result outside a checkout.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
UNITS = {
    kind: {m["name"]: m["unit"] for m in SPEC[kind]}
    for kind in ("end_to_end", "per_layer")
}
#: Each workload's own metrics, printed beside the result line.
REPORTED = {
    "paper-eval": {"eval_s": "s", "delta_gap": "ratio", "share_err": "ratio"},
    "explore": {
        f"{kind}_ms": "ms" for kind in
        ("analyse", "predict_sweep", "observe", "observe_sweep", "schedule_sweep")
    },
    "serve": {"serve_p50_ms": "ms", "serve_p99_ms": "ms", "burst_rps": "req/s"},
}


def printed(stdout: str, name: str, unit: str) -> bool:
    """Whether a report line gives metric ``name`` in ``unit``."""
    return any(
        line.startswith(name + " ") and f" {unit}" in line
        for line in stdout.splitlines()
    )


def run(workload: str, trace: int, cwd: Path = ROOT):
    """Run the benchmark command for one second; (exit code, stdout)."""
    done = subprocess.run(
        [*SPEC["command"], "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    return done.returncode, done.stdout


@pytest.fixture(scope="module", params=[0, 1], ids=["timed", "traced"])
def outputs(request):
    """Every workload's run in one mode: {workload: (code, stdout, result)}."""
    results = {}
    for workload in WORKLOADS:
        code, stdout = run(workload, request.param)
        result = json.loads(stdout.strip().splitlines()[-1])
        results[workload] = (code, stdout, result)
    return request.param, results


def test_every_metric_printed_with_its_unit(outputs):
    trace, results = outputs
    kind = "per_layer" if trace else "end_to_end"
    for workload, (_, stdout, result) in results.items():
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["attempted"] >= 1
        assert list(result["metrics"]) == list(UNITS[kind]), workload
        for name, metric in result["metrics"].items():
            assert metric["unit"] == UNITS[kind][name], (workload, name)
            assert isinstance(metric["value"], (int, float)), (workload, name)
            assert printed(stdout, name, metric["unit"]), (workload, name)
        if not trace:
            for name, unit in REPORTED[workload].items():
                assert printed(stdout, name, unit), (workload, name)
                assert name not in result["metrics"], (workload, name)


def test_output_checks_pass(outputs):
    for workload, (code, stdout, result) in outputs[1].items():
        assert code == 0, stdout
        assert result["correct"] and result["failed"] == 0, stdout
        assert "output checks: ok" in stdout


def test_traced_spans_nest(outputs):
    trace, results = outputs
    if not trace:
        pytest.skip("spans come from the traced run")
    for workload in WORKLOADS:
        path = ROOT / ".perfbench" / f"trace-{workload}-seed7.jsonl"
        records = [json.loads(line) for line in path.read_text().splitlines()]
        spans = {r["span_id"]: r for r in records if "span_id" in r}
        assert spans, workload
        for span in spans.values():
            assert span["start_ns"] <= span["end_ns"]
            if span["parent"] is None:
                continue
            parent = spans[span["parent"]]
            assert parent["op"] == span["op"], (workload, span["name"])
            assert parent["start_ns"] <= span["start_ns"], (workload, span["name"])
            assert span["end_ns"] <= parent["end_ns"], (workload, span["name"])
        metrics = results[workload][2]["metrics"]
        assert metrics["trace.overhead"]["value"] > 0, workload
        assert metrics["trace.coverage"]["value"] > 0, workload


def test_fails_without_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    code, stdout = run(WORKLOADS[0], 0, cwd=tmp_path)
    assert code != 0
    assert '"correct"' not in stdout


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
