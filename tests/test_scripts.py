"""Smoke tests of the scripts under ``scripts/``: each layer-timing script
runs on a small cohort, exits 0 and prints its SHA-256 lines (no hash is
pinned, since the hashes depend on the BLAS build), and the comparative
benchmarks run at one seed."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from omicsurv import cli

SCRIPTS = Path(__file__).parents[1] / "scripts"


def run_script(script, *argv):
    environ = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    return subprocess.run([sys.executable, str(SCRIPTS / script), *argv],
                          capture_output=True, text=True, env=environ)


@pytest.mark.parametrize("script, argv, hashes", [
    ("time_data_layers.py", ["--patients", "120", "--genes", "40"], 3),
    ("time_model_layers.py", ["--patients", "80", "--genes", "30"], 7),
])
def test_layer_script_prints_its_hashes(script, argv, hashes):
    result = run_script(script, *argv)
    assert result.returncode == 0, result.stderr
    lines = [line for line in result.stdout.splitlines() if "sha256" in line]
    assert len(lines) == hashes, result.stdout
    assert all(len(line.split()[-1]) == 64 for line in lines)


def test_benchmarks_script_prints_three_means():
    result = run_script("run_benchmarks.py", "--seeds", "1", "--quick")
    assert result.returncode == 0, result.stderr
    means = [line for line in result.stdout.splitlines() if "mean:" in line]
    assert len(means) == 3, result.stdout
