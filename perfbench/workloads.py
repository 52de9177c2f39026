"""The four workloads: inputs made from the workload seed, the omicsurv CLI
command a user would run on them, and checks of that command's outputs.
README.md says why each workload was chosen.

Sizes are scaled so that one command takes a few seconds on two cores; see
README.md for the full-size figures they stand in for. The experiment seed
inside the configs is fixed (``EXPERIMENT_SEED``): the workload seed draws the
cohort, while the search samples, CV splits and t-SNE start stay the same, so
every run of a workload does the same amount of search work.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
import yaml

from omicsurv import dataio, synth

EXPERIMENT_SEED = 0
# genes sampled for the FSQN invariant checks, fixed across seeds
CHECKED_GENES = 64


# ------------------------------------------------------------------ inputs

def _write_matrix(path: Path, ids, columns, values, fmt=repr) -> None:
    """Same bytes as ``dataio.save_expression``/``save_cna`` (csv.writer rows
    ending in CRLF, floats by ``repr``), written without per-cell calls."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(["patient_id", *columns]) + "\r\n")
        for pid, row in zip(ids, values.tolist()):
            fh.write(pid + "," + ",".join(map(fmt, row)) + "\r\n")


def _cohort(inputs: Path, seed: int, n_patients: int, n_genes: int,
            censoring: float, cna: bool = False, rnaseq: bool = True,
            microarray_log2: bool = False) -> None:
    config = synth.SynthConfig(n_patients=n_patients, n_genes=n_genes,
                               n_informative_genes=min(5, n_genes), seed=seed,
                               censoring_fraction_target=censoring)
    latent = synth.gen_latent(config)
    micro = synth.gen_microarray(config, latent)
    values = np.log2(micro.values + 1.0) if microarray_log2 else micro.values
    _write_matrix(inputs / "microarray.csv", micro.patient_ids, micro.gene_ids, values)
    if rnaseq:
        rna = synth.gen_rnaseq(config, latent)
        _write_matrix(inputs / "rnaseq.csv", rna.patient_ids, rna.gene_ids, rna.values)
    if cna:
        table = synth.gen_cna(config, latent)
        _write_matrix(inputs / "cna.csv", table.patient_ids, table.gene_ids,
                      table.values, fmt=str)
    records, _ = synth.gen_clinical(config, latent)
    dataio.save_clinical(records, inputs / "clinical.csv")


def _read_table(path: Path) -> tuple[list[str], list[str], np.ndarray]:
    """Header, row ids and float values of a patients-as-rows CSV."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = [row for row in csv.reader(fh) if row]
    values = np.array([row[1:] for row in rows[1:]], dtype=np.float64)
    return rows[0], [row[0] for row in rows[1:]], values


# ------------------------------------------------------------------ reports

def _example_config(inputs: Path, size: dict) -> dict:
    """The config of scripts/run_example_experiment.py, at ``size``."""
    return {
        "data": {
            "sources": [{"path": str(inputs / "microarray.csv"), "name": "micro"},
                        {"path": str(inputs / "rnaseq.csv"), "name": "rna"}],
            "clinical": str(inputs / "clinical.csv"),
            "cna": str(inputs / "cna.csv"),
            "reference": 0,
            "log2": True,
            "include_age": True,
            "projection_dims": [3],
            "tsne": {"perplexity": size["perplexity"], "iterations": size["tsne_iterations"]},
        },
        "labels": {"horizons": size["horizons"]},
        "models": [
            {"family": "gaussian_nb"},
            {"family": "l1_logistic",
             "params": {"lambda": "loguniform:0.001,0.1", "max_sweeps": 30},
             "budget": size["logistic_budget"]},
            {"family": "random_forest",
             "params": {"n_trees": size["n_trees"], "max_depth": "int:2,8"},
             "budget": size["forest_budget"]},
        ],
        "cv": {"k_folds": size["k_folds"]},
        "search": {"budget": 1},
        "seed": EXPERIMENT_SEED,
        "workers": 1,
    }


def _paper_config(inputs: Path, size: dict) -> dict:
    return {
        "data": {
            "sources": [{"path": str(inputs / "microarray.csv"), "name": "micro"},
                        {"path": str(inputs / "rnaseq.csv"), "name": "rna"}],
            "clinical": str(inputs / "clinical.csv"),
            "reference": 0,
            "log2": True,
            "include_age": True,
            "projection_dims": [],
        },
        "labels": {"horizons": [60]},
        "models": [
            {"family": "gaussian_nb"},
            {"family": "svm_rbf",
             "params": {"C": "loguniform:0.1,100", "gamma": "loguniform:1e-4,1e-2"},
             "budget": size["svm_budget"]},
            {"family": "rp_ensemble",
             "params": {"b1_groups": size["b1_groups"], "b2_per_group": size["b2_per_group"],
                        "projected_dim": 5},
             "budget": 1},
            {"family": "rectangle_mlp",
             "params": {"epochs": size["mlp_epochs"], "width": "cat:16,32"},
             "budget": size["mlp_budget"]},
        ],
        "cv": {"k_folds": size["k_folds"]},
        "search": {"budget": 1},
        "seed": EXPERIMENT_SEED,
        "workers": 2,
    }


def _report_setup(make_config, censoring: float, cna: bool):
    def setup(inputs: Path, seed: int, size: dict) -> None:
        _cohort(inputs, seed, size["n_patients"], size["n_genes"], censoring, cna=cna)
        config = make_config(inputs, size)
        (inputs / "experiment.yaml").write_text(yaml.safe_dump(config), encoding="utf-8")
    return setup


def _report_argv(inputs: Path, out: Path, workers: int | None) -> list[str]:
    argv = ["report", "--config", str(inputs / "experiment.yaml"), "--output", str(out)]
    return argv + ([] if workers is None else ["--workers", str(workers)])


def _report_sections(path: Path):
    """(per-fold rows, aggregate rows) of a report.csv."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    blank = rows.index([])
    return rows[1:blank], rows[blank + 2:]


def _expected_report(inputs: Path):
    """Every (model, data, fold) the config plans, and trials per (model, data)."""
    config = yaml.safe_load((inputs / "experiment.yaml").read_text(encoding="utf-8"))
    data = config["data"]
    descriptors = ["RNA raw age"]
    if data.get("cna"):
        descriptors.append("RNA+CNA raw age")
    descriptors += [f"RNA TSNE {dim} age" for dim in data.get("projection_dims") or []]
    names = [f"{d} t={float(h):g}" for h in config["labels"]["horizons"] for d in descriptors]
    budgets = {m["family"]: m.get("budget") or config["search"]["budget"]
               for m in config["models"]}
    folds = {(m, d, k) for m in budgets for d in names
             for k in range(config["cv"]["k_folds"])}
    trials = {(m, d): budgets[m] for m in budgets for d in names}
    return folds, trials


def _report_check(inputs: Path, out: Path) -> list[str]:
    problems = []
    expected_folds, expected_trials = _expected_report(inputs)
    fold_rows, aggregates = _report_sections(out / "report.csv")
    seen = set()
    for model, data, fold, auc, n_test in fold_rows:
        seen.add((model, data, int(fold)))
        if not 0.0 <= float(auc) <= 1.0 or int(n_test) < 1:
            problems.append(f"report.csv: bad row {model},{data},{fold}: auc {auc}, n {n_test}")
    if seen != expected_folds or len(fold_rows) != len(expected_folds):
        problems.append(f"report.csv: {len(fold_rows)} fold rows, expected "
                        f"{len(expected_folds)} (missing {sorted(expected_folds - seen)[:3]})")
    if len(aggregates) != len(expected_trials):
        problems.append(f"report.csv: {len(aggregates)} aggregate rows, "
                        f"expected {len(expected_trials)}")

    with open(out / "trials.csv", newline="", encoding="utf-8") as fh:
        trial_rows = list(csv.reader(fh))[1:]
    counts: dict[tuple[str, str], list[int]] = {}
    for model, data, trial, _, _ in trial_rows:
        counts.setdefault((model, data), []).append(int(trial))
    for key, budget in expected_trials.items():
        if sorted(counts.get(key, [])) != list(range(budget)):
            problems.append(f"trials.csv: {key} has trials {counts.get(key)}, "
                            f"expected 0..{budget - 1}")
    if len(trial_rows) != sum(expected_trials.values()):
        problems.append(f"trials.csv: {len(trial_rows)} rows, expected "
                        f"{sum(expected_trials.values())}")
    return problems


def _report_quality(inputs: Path, out: Path) -> dict[str, float]:
    _, aggregates = _report_sections(out / "report.csv")
    return {"auc_mean": float(np.mean([float(row[2]) for row in aggregates]))}


# ------------------------------------------------------------------ cohort

def _normalize_setup(inputs: Path, seed: int, size: dict) -> None:
    _cohort(inputs, seed, size["n_patients"], size["n_genes"], 0.446)


def _normalize_argv(inputs: Path, out: Path, workers: int | None) -> list[str]:
    return ["normalize", "--target", str(inputs / "rnaseq.csv"),
            "--reference", str(inputs / "microarray.csv"), "--log2",
            "--output", str(out / "normalized.csv")]


def _normalize_check(inputs: Path, out: Path) -> list[str]:
    """Shape and ids of the target, finite values, and on a fixed sample of
    genes the FSQN invariants: the target's order and ties are kept and every
    value lies in the reference's range."""
    header, ids, target = _read_table(inputs / "rnaseq.csv")
    ref_header, _, reference = _read_table(inputs / "microarray.csv")
    out_header, out_ids, normalized = _read_table(out / "normalized.csv")
    if out_header != header or out_ids != ids or normalized.shape != target.shape:
        return [f"normalized.csv: shape {normalized.shape} or ids differ from "
                f"the target's {target.shape}"]
    if not np.all(np.isfinite(normalized)):
        return ["normalized.csv: non-finite values"]
    problems = []
    target, reference = np.log2(target + 1.0), np.log2(reference + 1.0)
    ref_col = {g: j for j, g in enumerate(ref_header[1:])}
    genes = np.random.default_rng(2018).choice(
        target.shape[1], size=min(CHECKED_GENES, target.shape[1]), replace=False)
    for j in genes:
        order = np.argsort(target[:, j], kind="stable")
        t, v = target[order, j], normalized[order, j]
        tied = np.diff(t) == 0
        if np.any(np.diff(v) < 0) or np.any(np.diff(v)[tied] != 0):
            problems.append(f"normalized.csv: gene {header[j + 1]} loses the target order")
        r = reference[:, ref_col[header[j + 1]]]
        if v.min() < r.min() or v.max() > r.max():
            problems.append(f"normalized.csv: gene {header[j + 1]} leaves the reference range")
    return problems


def _project_setup(inputs: Path, seed: int, size: dict) -> None:
    # the log2 reference platform stands in for an FSQN-normalized table:
    # FSQN output follows the reference's per-gene distribution
    _cohort(inputs, seed, size["n_patients"], size["n_genes"], 0.446,
            rnaseq=False, microarray_log2=True)
    (inputs / "microarray.csv").rename(inputs / "normalized.csv")


def _project_argv_for(size: dict):
    def argv(inputs: Path, out: Path, workers: int | None) -> list[str]:
        return ["project", "--features", str(inputs / "normalized.csv"),
                "--dims", "3", "--perplexity", str(size["perplexity"]),
                "--iterations", str(size["tsne_iterations"]), "--append-age",
                "--clinical", str(inputs / "clinical.csv"),
                "--output", str(out / "projected.csv")]
    return argv


def _project_check(inputs: Path, out: Path) -> list[str]:
    _, ids, _ = _read_table(inputs / "normalized.csv")
    header, out_ids, values = _read_table(out / "projected.csv")
    ages = {r.patient_id: r.age_years for r in dataio.load_clinical(inputs / "clinical.csv")}
    if header != ["patient_id", "tsne_0", "tsne_1", "tsne_2", "age"]:
        return [f"projected.csv: header {header}"]
    if out_ids != ids or values.shape != (len(ids), 4):
        return [f"projected.csv: {values.shape} rows/ids differ from the {len(ids)} inputs"]
    if not np.all(np.isfinite(values)):
        return ["projected.csv: non-finite coordinates"]
    if any(values[i, 3] != ages[pid] for i, pid in enumerate(ids)):
        return ["projected.csv: age column differs from clinical.csv"]
    return []


def exact_affinities(x: np.ndarray, perplexity: float) -> np.ndarray:
    """Symmetric t-SNE input affinities, computed independently of omicsurv:
    per-row Gaussian precision by bisection to the target perplexity."""
    n = len(x)
    sq = np.sum(x * x, axis=1)
    d2 = np.maximum(sq[:, None] + sq[None, :] - 2.0 * (x @ x.T), 0.0)
    np.fill_diagonal(d2, np.inf)
    target = math.log(perplexity)
    lo, hi = np.zeros(n), np.full(n, np.inf)
    beta = np.ones(n)
    for _ in range(200):
        logits = -beta[:, None] * d2
        logits -= logits.max(axis=1, keepdims=True)
        p = np.exp(logits)
        p /= p.sum(axis=1, keepdims=True)
        entropy = -np.sum(p * np.log(np.maximum(p, 1e-300)), axis=1)
        too_flat = entropy > target  # perplexity too high: raise precision
        lo = np.where(too_flat, beta, lo)
        hi = np.where(too_flat, hi, beta)
        beta = np.where(np.isinf(hi), beta * 2.0, 0.5 * (lo + hi))
    return (p + p.T) / (2.0 * n)


def _project_quality_for(size: dict):
    def quality(inputs: Path, out: Path) -> dict[str, float]:
        _, _, x = _read_table(inputs / "normalized.csv")
        _, _, projected = _read_table(out / "projected.csv")
        p = exact_affinities(x, size["perplexity"])
        y = projected[:, :3]
        sq = np.sum(y * y, axis=1)
        num = 1.0 / (1.0 + np.maximum(sq[:, None] + sq[None, :] - 2.0 * (y @ y.T), 0.0))
        np.fill_diagonal(num, 0.0)
        q = num / num.sum()
        mask = p > 0
        return {"tsne_kl": float(np.sum(p[mask] * np.log(p[mask] / np.maximum(q[mask], 1e-12))))}
    return quality


# ------------------------------------------------------------------ registry

@dataclass(frozen=True)
class Workload:
    name: str
    size: dict
    setup: Callable[[Path, int, dict], None]
    argv: Callable[[Path, Path, int | None], list[str]]
    check: Callable[[Path, Path], list[str]]
    quality: Callable[[Path, Path], dict[str, float]]
    outputs: tuple[str, ...]
    # traced passes: (label, workers override); the first matches the
    # untraced command, the last supplies the per-layer metrics
    trace_passes: tuple = (("main", None),)


def _no_quality(inputs: Path, out: Path) -> dict[str, float]:
    return {}


EXAMPLE_SIZE = dict(n_patients=150, n_genes=100, horizons=[60], perplexity=30,
                    tsne_iterations=500, logistic_budget=4, n_trees=10,
                    forest_budget=3, k_folds=3)
PAPER_SIZE = dict(n_patients=200, n_genes=300, svm_budget=6, b1_groups=25,
                  b2_per_group=20, mlp_epochs=100, mlp_budget=2, k_folds=10)
NORMALIZE_SIZE = dict(n_patients=400, n_genes=1500)
PROJECT_SIZE = dict(n_patients=300, n_genes=1000, perplexity=30, tsne_iterations=500)


def _workloads(smoke: bool) -> dict[str, Workload]:
    example = dict(EXAMPLE_SIZE, **(dict(n_patients=60, n_genes=20, perplexity=10,
                                         tsne_iterations=30, logistic_budget=2,
                                         n_trees=2, forest_budget=1) if smoke else {}))
    paper = dict(PAPER_SIZE, **(dict(n_patients=60, n_genes=20, svm_budget=2,
                                     b1_groups=2, b2_per_group=3, mlp_epochs=3,
                                     k_folds=3) if smoke else {}))
    normalize = dict(NORMALIZE_SIZE, **(dict(n_patients=50, n_genes=40) if smoke else {}))
    project = dict(PROJECT_SIZE, **(dict(n_patients=40, n_genes=20, perplexity=5,
                                         tsne_iterations=30) if smoke else {}))
    entries = [
        Workload("report_example", example, _report_setup(_example_config, 0.3, cna=True),
                 _report_argv, _report_check, _report_quality,
                 ("report.csv", "trials.csv")),
        Workload("report_paper", paper, _report_setup(_paper_config, 0.446, cna=False),
                 _report_argv, _report_check, _report_quality,
                 ("report.csv", "trials.csv"),
                 trace_passes=(("workers2", None), ("workers1", 1))),
        Workload("cohort_normalize", normalize, _normalize_setup, _normalize_argv,
                 _normalize_check, _no_quality, ("normalized.csv",)),
        Workload("cohort_project", project, _project_setup, _project_argv_for(project),
                 _project_check, _project_quality_for(project), ("projected.csv",)),
    ]
    return {w.name: w for w in entries}


def get(name: str, smoke: bool = False) -> Workload | None:
    return _workloads(smoke).get(name)


NAMES = tuple(_workloads(False))
