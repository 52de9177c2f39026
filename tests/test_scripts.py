"""Smoke test of the layer-timing scripts under ``scripts/``: each runs on a
small cohort, exits 0 and prints its SHA-256 lines. No hash is pinned, since
the hashes depend on the BLAS build."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from omicsurv import cli

SCRIPTS = Path(__file__).parents[1] / "scripts"


@pytest.mark.parametrize("script, argv, hashes", [
    ("time_data_layers.py", ["--patients", "120", "--genes", "40"], 3),
    ("time_model_layers.py", ["--patients", "80", "--genes", "30"], 7),
])
def test_layer_script_prints_its_hashes(script, argv, hashes):
    environ = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    result = subprocess.run([sys.executable, str(SCRIPTS / script), *argv],
                            capture_output=True, text=True, env=environ)
    assert result.returncode == 0, result.stderr
    lines = [line for line in result.stdout.splitlines() if "sha256" in line]
    assert len(lines) == hashes, result.stdout
    assert all(len(line.split()[-1]) == 64 for line in lines)
