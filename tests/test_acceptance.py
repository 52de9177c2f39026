"""Acceptance suite: eleven criteria, each printing one PASS/FAIL line.

The verdict lines bypass pytest's output capture, so a plain
``pytest tests/test_acceptance.py -v`` shows them.
"""

import time
from pathlib import Path

import numpy as np
import pytest
import yaml
from scipy import stats

from omicsurv import (benchmarks, cli, evaluation, models, normalize,
                      pipeline, project, survival, synth)
from omicsurv.dataio import ClinicalRecord
from omicsurv.survival import SurvivalLabel

from cross_checks import roc_auc, roc_curve
from mlp_checks import gradient_check

REPO_ROOT = Path(__file__).resolve().parents[1]


_CAPTURE_MANAGER = None


@pytest.fixture(autouse=True)
def _expose_capture_manager(request):
    global _CAPTURE_MANAGER
    _CAPTURE_MANAGER = request.config.pluginmanager.getplugin("capturemanager")
    yield


def verdict(n, ok, detail):
    line = f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} — {detail}"
    if _CAPTURE_MANAGER is not None:
        with _CAPTURE_MANAGER.global_and_fixture_disabled():
            print(f"\n{line}")
    else:
        print(line)
    assert ok, line


def test_01_fsqn_exactness_and_ks():
    start = time.perf_counter()
    gen = np.random.default_rng(0)
    # equal-size tie-free case: sorted target must equal sorted reference
    ref = gen.normal(0, 1, (100, 10))
    tgt = gen.gamma(2, 3, (100, 10))
    exact = True
    for j in range(10):
        mapped = normalize.quantile_map(tgt[:, j], ref[:, j])
        exact &= bool(np.array_equal(np.sort(mapped), np.sort(ref[:, j])))

    # unequal sizes on synthetic two-platform data: per-gene KS <= 0.05
    config = synth.SynthConfig(n_patients=1000, n_genes=30,
                               n_informative_genes=0, seed=0)
    cohort = synth.gen_two_platform(config)
    micro = normalize.log2_transform(cohort.microarray)
    rnaseq = normalize.log2_transform(cohort.rnaseq)
    normalized = normalize.fsqn(rnaseq, micro)
    worst = max(
        stats.ks_2samp(normalized.values[:, j], micro.values[:, j]).statistic
        for j in range(30)
    )
    elapsed = time.perf_counter() - start
    verdict(1, exact and worst <= 0.05 and elapsed < 10,
            f"equal-size exact={exact}, max per-gene KS={worst:.4f} "
            f"(<=0.05), runtime {elapsed:.1f}s (<10s)")


def test_02_integration_benefit():
    start = time.perf_counter()
    results = [benchmarks.integration_benefit(seed) for seed in range(5)]
    combined = float(np.mean([r.treatment for r in results]))
    singles = {
        name: float(np.mean([r.baselines[name] for r in results]))
        for name in results[0].baselines
    }
    margin = combined - max(singles.values())
    elapsed = time.perf_counter() - start
    verdict(2, margin >= 0.05 and elapsed < 300,
            f"combined AUC {combined:.3f} vs single-platform "
            f"{singles} -> margin {margin:.3f} (>=0.05), "
            f"runtime {elapsed:.0f}s (<300s)")


def test_03_projection_benefit():
    start = time.perf_counter()
    results = [benchmarks.projection_benefit(seed) for seed in range(5)]
    tsne_auc = float(np.mean([r.treatment for r in results]))
    raw_auc = float(np.mean([r.baselines["raw"] for r in results]))
    margin = tsne_auc - raw_auc
    elapsed = time.perf_counter() - start
    verdict(3, margin >= 0.05 and elapsed < 600,
            f"3D t-SNE AUC {tsne_auc:.3f} vs raw 500-dim {raw_auc:.3f} "
            f"-> margin {margin:.3f} (>=0.05), runtime {elapsed:.0f}s (<600s)")


def test_04_label_oracle_exhaustive():
    def oracle(c, event, t):
        if c > t:
            return SurvivalLabel.SURVIVED
        if event:
            return SurvivalLabel.DIED
        return SurvivalLabel.DROPPED

    mismatches = 0
    total = 0
    times = np.linspace(0.0, 120.0, 241)        # includes exact boundaries
    horizons = np.linspace(0.5, 120.0, 240)
    for t in horizons:
        for c in times:
            for event in (True, False):
                record = ClinicalRecord("p", float(c), event)
                total += 1
                if survival.make_label(record, float(t)) is not oracle(c, event, t):
                    mismatches += 1
    verdict(4, mismatches == 0,
            f"{mismatches} mismatches over {total} (C, event, t) grid points")


def test_05_km_oracle():
    # no censoring: KM equals empirical survival
    gen = np.random.default_rng(0)
    times = gen.integers(1, 50, 40).astype(float)
    records = [ClinicalRecord(f"p{i}", t, True) for i, t in enumerate(times)]
    (curve,) = survival.kaplan_meier(records)
    empirical_ok = all(
        abs(s - np.mean(times > u)) < 1e-12
        for u, s in zip(curve.event_times, curve.survival_probabilities)
    )

    # hand-computed censored cases
    hand_ok = True
    cases = [
        # (records as (time, event), expected (event_times, survival))
        ([(1, 1), (2, 0), (3, 1)], ([1, 3], [2 / 3, 0.0])),
        ([(2, 1), (2, 0), (5, 1), (7, 0)],
         ([2, 5], [3 / 4, (3 / 4) * (1 / 2)])),
        ([(1, 1), (1, 1), (4, 0), (6, 1), (9, 0)],
         ([1, 6], [3 / 5, (3 / 5) * (1 / 2)])),
        ([(3, 0), (4, 1), (4, 1), (10, 0), (12, 1), (15, 0)],
         ([4, 12], [3 / 5, (3 / 5) * (1 / 2)])),
    ]
    for raw, (exp_t, exp_s) in cases:
        rec = [ClinicalRecord(f"q{i}", float(t), bool(e))
               for i, (t, e) in enumerate(raw)]
        (c,) = survival.kaplan_meier(rec)
        hand_ok &= np.array_equal(c.event_times, exp_t)
        hand_ok &= bool(np.max(np.abs(c.survival_probabilities
                                      - np.array(exp_s))) < 1e-12)
    verdict(5, empirical_ok and hand_ok,
            f"no-censoring empirical match={empirical_ok}, "
            f"hand-computed censored cases match={hand_ok} (tol 1e-12)")


def test_06_auc_oracle():
    worst = 0.0
    for trial in range(200):
        gen = np.random.default_rng(trial)
        n = int(gen.integers(4, 120))
        scores = gen.integers(0, 6, n).astype(float)  # heavy ties
        labels = gen.integers(0, 2, n)
        labels[:2] = [0, 1]
        pair = evaluation.auc(scores, labels)
        trap = roc_auc(roc_curve(scores, labels))
        worst = max(worst, abs(pair - trap))
    constant = evaluation.auc([3.0] * 20, [1] * 7 + [0] * 13)
    verdict(6, worst < 1e-12 and constant == 0.5,
            f"max |pair-count - trapezoid| = {worst:.2e} (<1e-12) over 200 "
            f"instances with ties; constant scores -> {constant} (== 0.5)")


def test_07_gradient_checks():
    step = 1e-6
    worst_tsne = 0.0
    for trial in range(20):
        gen = np.random.default_rng(trial)
        x = gen.normal(0, 1, (9, 3))
        p = project.input_affinities(x, perplexity=2.0)
        coords = gen.normal(0, 1, (9, 2))
        grad = project.kl_gradient(p, coords)
        numeric = np.zeros_like(coords)
        for i in range(coords.shape[0]):
            for d in range(coords.shape[1]):
                up, down = coords.copy(), coords.copy()
                up[i, d] += step
                down[i, d] -= step
                numeric[i, d] = (project.kl_divergence(p, up)
                                 - project.kl_divergence(p, down)) / (2 * step)
        denom = np.maximum(np.abs(numeric), 1e-6)
        worst_tsne = max(worst_tsne, float((np.abs(grad - numeric) / denom).max()))

    worst_mlp = 0.0
    for family in ("rectangle_mlp", "mlp_regressor"):
        for trial in range(20):
            gen = np.random.default_rng(1000 + trial)
            x = gen.normal(0, 1, (10, 5))
            if family == "rectangle_mlp":
                y = (gen.random(10) > 0.5).astype(float)
            else:
                y = gen.normal(0, 3, 10)
            err = gradient_check(
                models.ModelSpec(family, {"width": 6, "n_hidden_layers": 2},
                                 trial), x, y)
            worst_mlp = max(worst_mlp, err)
    verdict(7, worst_tsne < 1e-4 and worst_mlp < 1e-4,
            f"max rel. error: t-SNE KL {worst_tsne:.2e}, "
            f"MLP families {worst_mlp:.2e} (both <1e-4, 20 instances each)")


def test_08_rp_ensemble_benefit():
    start = time.perf_counter()
    results = [benchmarks.rp_benefit(seed) for seed in range(10)]
    ensemble = float(np.mean([r.ensemble_error for r in results]))
    single = float(np.mean([r.mean_single_error for r in results]))
    margin = single - ensemble
    importance_wins = sum(r.importance_separated for r in results)
    elapsed = time.perf_counter() - start
    verdict(8, margin >= 0.05 and importance_wins >= 9 and elapsed < 600,
            f"misclassification: ensemble {ensemble:.3f} vs mean single "
            f"{single:.3f} -> margin {margin:.3f} (>=0.05); informative "
            f"importance higher in {importance_wins}/10 seeds (>=9); "
            f"runtime {elapsed:.0f}s (<600s)")


def test_09_null_calibration():
    specs = [models.ModelSpec(f, hp, 0) for f, hp in (
        ("gaussian_nb", {}),
        ("svm_rbf", {"C": 1.0, "gamma": 0.1}),
        ("l1_logistic", {"lambda": 0.01, "max_sweeps": 50}),
        ("random_forest", {"n_trees": 20}),
        ("rectangle_mlp", {"epochs": 50, "width": 8}),
        ("mlp_regressor", {"epochs": 50, "width": 8}),
        ("rp_ensemble", {"b1_groups": 5, "b2_per_group": 2, "projected_dim": 3}),
    )]
    failures = []
    for spec in specs:
        means = []
        for seed in range(10):
            gen = np.random.default_rng(seed)
            x = gen.normal(0, 1, (60, 8))
            y = gen.permutation([0] * 30 + [1] * 30)
            report = evaluation.cross_validate(
                spec, (x, y), evaluation.CvPlan(k_folds=3, seed=seed))
            means.append(np.mean([row.auc for row in report.rows]))
        mean = float(np.mean(means))
        if not 0.4 <= mean <= 0.6:
            failures.append((spec.family, mean))
    verdict(9, not failures,
            "permuted-label mean CV AUC in [0.4, 0.6] for every model"
            + (f"; out of range: {failures}" if failures else
               " (all 7 model kinds, 10 seeds each)"))


def test_10_determinism_and_scheduling(tmp_path):
    start = time.perf_counter()
    data_dir = tmp_path / "data"
    assert cli.main(["synth", "--n-patients", "300", "--n-genes", "500",
                     "--n-informative", "5", "--censoring", "0.3",
                     "--seed", "0", "--out-dir", str(data_dir)]) == 0
    base = {
        "data": {
            "sources": [
                {"path": str(data_dir / "microarray.csv"), "name": "micro"},
                {"path": str(data_dir / "rnaseq.csv"), "name": "rna"},
            ],
            "clinical": str(data_dir / "clinical.csv"),
            "log2": True,
            "include_age": True,
            "projection_dims": [],
        },
        "labels": {"horizons": [60]},
        "models": [
            {"family": "gaussian_nb"},
            {"family": "l1_logistic",
             "params": {"lambda": "loguniform:0.001,0.1", "max_sweeps": 20},
             "budget": 2},
        ],
        "cv": {"k_folds": 3},
        "search": {"budget": 2},
        "seed": 0,
    }
    outputs = {}
    for tag, workers in (("a", 1), ("b", 1), ("c", 4), ("d", 2)):
        config = dict(base)
        config["workers"] = workers
        config["output"] = str(tmp_path / f"out_{tag}")
        path = tmp_path / f"config_{tag}.yaml"
        path.write_text(yaml.safe_dump(config), encoding="utf-8")
        assert cli.main(["report", "--config", str(path)]) == 0
        outputs[tag] = tuple((tmp_path / f"out_{tag}" / name).read_bytes()
                             for name in ("report.csv", "trials.csv"))
    elapsed = time.perf_counter() - start
    rerun_ok = outputs["a"] == outputs["b"]
    workers_ok = outputs["a"] == outputs["c"] == outputs["d"]
    verdict(10, rerun_ok and workers_ok and elapsed < 300,
            f"report.csv and trials.csv bit-identical across reruns={rerun_ok} "
            f"and worker counts 1 vs 4 vs 2={workers_ok}; runtime {elapsed:.0f}s "
            f"(<300s)")


def test_11_readme_context_anchor():
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    has_best = "0.815" in readme
    has_target = "0.75" in readme
    verdict(11, has_best and has_target,
            f"README states the real-data reference numbers: best raw-SVC "
            f"AUC 0.815 present={has_best}, 0.75 five-year target "
            f"present={has_target}")
