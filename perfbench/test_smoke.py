"""Smoke test of the benchmark: every workload at a tiny size, untraced and traced.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_benchmark(root: Path, workload: str, trace: int):
    cmd = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "0.5", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=170, cwd=root)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_reported_and_no_check_fails(workload, trace):
    proc = run_benchmark(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] > 0
    assert result["failed"] == 0 and result["correct"], proc.stderr   # fail_frac == 0
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == wanted
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    assert "fail_frac = 0 " in proc.stdout


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_benchmark(tmp_path, "ladder", 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_missing_trace_target_fails_loudly():
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import tracing
    from stratmc import lattice

    tracer = tracing.Tracer()
    with pytest.raises(tracing.TraceError, match="no_such_function"):
        tracer.install([(lattice, "no_such_function", "lattice.no_such_function", "lattice.grid", None)])
    tracer.uninstall()

    tracer.install([(lattice, "index_array", "lattice.index_array", "lattice.grid", None)])
    try:
        root = tracer.open("pass", "pass")
        tracer.close(root)
    finally:
        tracer.uninstall()
    index = tracing.SpanIndex(tracer.spans)
    with pytest.raises(tracing.TraceError, match="lattice.index_array"):
        tracing.require_names(index, [root], ["lattice.index_array"], "a pass")
