"""Smoke test of the benchmark: every workload, untraced and traced, on the
small grids, with every output check.  Run from the repository root:

    python3 -m pytest perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from run import DEFAULT_SEED, END_TO_END, WORKLOADS  # noqa: E402
from tracer import PER_LAYER  # noqa: E402
import workloads as wl  # noqa: E402


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), "--size", "smoke",
         "--seconds", "0", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def test_runner_agrees_with_workloads():
    assert WORKLOADS == wl.WORKLOADS
    assert DEFAULT_SEED == wl.DEFAULT_SEED
    assert set(wl.SEED_DEPENDENT) == set(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run(workload, trace):
    proc = bench("--workload", workload, "--seed", "7", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    # no known defect reproduces on the smoke grids, so nothing may fail
    assert result["correct"] and result["failed"] == 0, proc.stdout
    assert not [line for line in lines if line.startswith(("FAIL", "KNOWN DEFECT"))]
    expected = PER_LAYER if trace else END_TO_END
    assert {k: m["unit"] for k, m in result["metrics"].items()} == expected
    meta = json.loads(lines[-2])["meta"]
    assert meta["seed"] == 7 and meta["seed_dependent"] == wl.SEED_DEPENDENT[workload]
    assert meta["failed_share"] == 0.0
    metrics = {k: m["value"] for k, m in result["metrics"].items()}
    if trace and workload == "bounds":
        # 5 assemblies (2 distinct) and 9 eigensolves (6 distinct) per verdict
        assert metrics["spectrum.assemble.repeat_share"] == pytest.approx(3 / 5)
        assert metrics["spectrum.dirichlet_eigs.repeat_share"] == pytest.approx(3 / 9)
        assert metrics["spectrum.assemble.calls"] == 15
    if trace and workload == "graph":
        assert metrics["graph_solver.solve.calls"] == 5
        assert 0 < metrics["graph_solver.trial_accept_ratio"] <= 1
    if not trace:
        assert all(v > 0 for v in metrics.values())


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench("--workload", "graph", "--seed", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
