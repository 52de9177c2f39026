#!/usr/bin/env python3
"""Generate a synthetic two-platform cohort, write an experiment config, and
run the full pipeline end to end. It ends by printing its total wall time and
the SHA-256 of report.csv and trials.csv, so one run checks both a speed-up and
that the outputs stayed byte-identical.

Usage: python scripts/run_example_experiment.py [--workdir DIR] [--seed N]
"""

import argparse
import hashlib
import tempfile
import time
from pathlib import Path

import yaml

from omicsurv import cli, pipeline


def main():
    start = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workdir", help="directory for data and outputs "
                                          "(default: a fresh temp dir)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workers", type=int, default=1)
    args = parser.parse_args()

    workdir = Path(args.workdir or tempfile.mkdtemp(prefix="omicsurv_"))
    data_dir = workdir / "data"
    print(f"working directory: {workdir}")

    code = cli.main([
        "synth", "--n-patients", "300", "--n-genes", "500",
        "--n-informative", "5", "--censoring", "0.3",
        "--seed", str(args.seed), "--out-dir", str(data_dir),
    ])
    if code != 0:
        raise SystemExit(code)

    config = {
        "data": {
            "sources": [
                {"path": str(data_dir / "microarray.csv"), "name": "micro"},
                {"path": str(data_dir / "rnaseq.csv"), "name": "rna"},
            ],
            "clinical": str(data_dir / "clinical.csv"),
            "cna": str(data_dir / "cna.csv"),
            "reference": 0,
            "log2": True,
            "include_age": True,
            "projection_dims": [3],
            "tsne": {"perplexity": 30, "iterations": 500},
        },
        "labels": {"horizons": [24, 60]},
        "models": [
            {"family": "gaussian_nb"},
            {"family": "l1_logistic",
             "params": {"lambda": "loguniform:0.001,0.1", "max_sweeps": 30},
             "budget": 4},
            {"family": "random_forest",
             "params": {"n_trees": 50, "max_depth": "int:2,8"},
             "budget": 3},
        ],
        "cv": {"k_folds": 3},
        "search": {"budget": 1},
        "seed": args.seed,
        "workers": args.workers,
        "output": str(workdir / "out"),
    }
    config_path = workdir / "experiment.yaml"
    config_path.write_text(yaml.safe_dump(config), encoding="utf-8")
    print(f"config written to {config_path}")

    result = pipeline.run_experiment(pipeline.load_config(config_path))
    print(f"report: {result['report_path']}")
    print(f"trials: {result['trials_path']}")
    print()
    print(f"{'model':<16} {'data':<24} {'mean AUC':>9} {'std':>7}")
    for (model, data), (mean, std) in sorted(result["report"].aggregates().items()):
        print(f"{model:<16} {data:<24} {mean:>9.3f} {std:>7.3f}")
    print()
    for key in ("report_path", "trials_path"):
        path = Path(result[key])
        print(f"sha256 {path.name}: {hashlib.sha256(path.read_bytes()).hexdigest()}")
    print(f"wall time: {time.perf_counter() - start:.1f} s")


if __name__ == "__main__":
    main()
