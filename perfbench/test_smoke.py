"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py -q

Runs every workload once untraced and once traced, and checks that each
metric BENCHMARK.json declares is emitted with its unit, that the outputs
pass their checks, and that the trace's self times plus the untraced
remainder add up to the traced wall time.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SEED = 3


def _bench(workload: str, trace: int, cwd: Path = ROOT, run_py: Path = HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(run_py), "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, cwd=cwd, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_declared_metric_is_emitted(workload, trace):
    proc = _bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stdout
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == declared
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] != 0 for m in SPEC["end_to_end"])
        return

    record = json.loads((ROOT / ".perfbench_runs" / "results" /
                         f"{workload}-seed{SEED}-trace1-smoke.json").read_text())
    for label, check in record["trace"].items():
        assert check["ok"] and check["inside_wall"], label
        assert check["self_sum_s"] + check["remainder_s"] == pytest.approx(check["wall_s"])
        assert check["spans"] > 0, label


def test_self_time_check_catches_broken_nesting():
    sys.path.insert(0, str(HERE))
    try:
        import tracing
    finally:
        sys.path.remove(str(HERE))
    nested = [["a", 1.0, 5.0, -1, None], ["b", 1.5, 2.0, 0, None],
              ["c", 2.0, 4.0, 0, None], ["d", 6.0, 7.0, -1, None]]
    check = tracing.self_time_check(nested, 0.0, 10.0)
    assert check["ok"] and check["self_sum_s"] == 5.0 and check["remainder_s"] == 5.0
    overlapping_roots = [["a", 1.0, 5.0, -1, None], ["d", 4.0, 7.0, -1, None]]
    assert not tracing.self_time_check(overlapping_roots, 0.0, 10.0)["ok"]
    child_outlasts_parent = [["a", 1.0, 5.0, -1, None], ["b", 1.5, 6.0, 0, None]]
    assert not tracing.self_time_check(child_outlasts_parent, 0.0, 10.0)["ok"]
    outside_wall = [["a", 1.0, 11.0, -1, None]]
    assert not tracing.self_time_check(outside_wall, 0.0, 10.0)["ok"]


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("cohort_normalize", 0, cwd=tmp_path, run_py=tmp_path / HERE.name / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_input_writer_matches_dataio(tmp_path):
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    try:
        import workloads
        from omicsurv import dataio
    finally:
        del sys.path[:2]
    values = np.random.default_rng(0).gamma(2.0, 1.0, size=(4, 3))
    values[0, 0] = 5.0
    matrix = dataio.ExpressionMatrix(platform_id="x", patient_ids=["a", "b", "c", "d"],
                                     gene_ids=["g1", "g2", "g3"], values=values)
    dataio.save_expression(matrix, tmp_path / "dataio.csv")
    workloads._write_matrix(tmp_path / "bench.csv", matrix.patient_ids,
                            matrix.gene_ids, values)
    assert (tmp_path / "bench.csv").read_bytes() == (tmp_path / "dataio.csv").read_bytes()

    cna = dataio.CnaMatrix(patient_ids=matrix.patient_ids, gene_ids=matrix.gene_ids,
                           values=np.array([[-2, -1, 0], [0, 1, 2], [0, 0, 0], [1, -1, 2]]))
    dataio.save_cna(cna, tmp_path / "dataio_cna.csv")
    workloads._write_matrix(tmp_path / "bench_cna.csv", cna.patient_ids, cna.gene_ids,
                            cna.values, fmt=str)
    assert (tmp_path / "bench_cna.csv").read_bytes() == (tmp_path / "dataio_cna.csv").read_bytes()
