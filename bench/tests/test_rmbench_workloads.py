"""Tiny-size runs of every workload, traced and untraced, and the entry point's refusals."""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

from rmbench.harness import metric_specs, run_workload  # noqa: E402
from rmbench.workloads import WORKLOADS  # noqa: E402


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tiny_run_completes_and_checks(name):
    metrics, attempted, failures, notes = run_workload(WORKLOADS[name], seed=7, seconds=0, trace=False, tiny=True)
    assert notes["passes"] == 1 and attempted > 0
    assert set(metrics) | {"setup_s"} == {n for n, _ in metric_specs()[0]}
    assert all(math.isfinite(v) and v > 0 for v in metrics.values())
    # the hyperbolic threshold level is the only operation allowed to fail
    assert all(label.startswith("eckart_normalization a=0") for label, _, _ in failures)


def test_traced_counts_repeat_exactly():
    runs = [run_workload(WORKLOADS["exact-high-n"], seed=3, seconds=0, trace=True, tiny=True) for _ in range(2)]
    first, second = runs[0][0], runs[1][0]
    names = {n for n, _ in metric_specs()[1]}
    assert set(first) == names
    counts = [n for n, unit in metric_specs()[1] if unit == "count"]
    assert {n: first[n] for n in counts} == {n: second[n] for n in counts}
    assert first["polycore.ops"] > 0 and first["trm.trm_polynomial.calls"] == 3 * 8
    assert first["numerics.integrate.calls"] == 0


def test_missing_program_is_refused(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__", "traces"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "exact-high-n", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
    assert "no rosenmorse package" in proc.stderr


def test_unknown_workload_is_refused():
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", "nope"],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=120)
    assert proc.returncode != 0 and "unknown workload" in proc.stderr
    with pytest.raises(json.JSONDecodeError):
        json.loads(proc.stdout or "")
