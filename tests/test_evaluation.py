import csv
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omicsurv import evaluation, models
from omicsurv.errors import ConfigError, DataError

from conftest import separable_xy
from cross_checks import roc_auc, roc_curve


def brute_force_auc(scores, labels):
    """O(n_pos * n_neg) pair-counting oracle."""
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    total = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                total += 1.0
            elif p == n:
                total += 0.5
    return total / (len(pos) * len(neg))


class TestAuc:
    def test_perfect(self):
        assert evaluation.auc([0.9, 0.8, 0.1, 0.2], [1, 1, 0, 0]) == 1.0

    def test_anti_perfect(self):
        assert evaluation.auc([0.9, 0.8, 0.1, 0.2], [0, 0, 1, 1]) == 0.0

    def test_constant_scores_exactly_half(self):
        assert evaluation.auc([0.5] * 10, [1] * 4 + [0] * 6) == 0.5

    def test_single_class_rejected(self):
        with pytest.raises(DataError):
            evaluation.auc([0.1, 0.2], [1, 1])

    def test_length_mismatch(self):
        with pytest.raises(DataError):
            evaluation.auc([0.1], [1, 0])

    def test_non_binary_labels_rejected(self):
        for check in (evaluation.auc, roc_curve):
            with pytest.raises(DataError, match="0 or 1"):
                check([0.1, 0.2, 0.3], [0, 2, 0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_scores_rejected(self, bad):
        """A NaN would otherwise be ranked above every finite score."""
        for check in (evaluation.auc, roc_curve):
            with pytest.raises(DataError, match="1 non-finite of 4"):
                check([0.1, bad, 0.3, 0.2], [0, 1, 0, 1])

    @given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 1)),
                    min_size=2, max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_pair_count_oracle_with_ties(self, raw):
        scores = [float(s) for s, _ in raw]
        labels = [y for _, y in raw]
        if len(set(labels)) < 2:
            return
        assert evaluation.auc(scores, labels) == pytest.approx(
            brute_force_auc(scores, labels), abs=1e-12)

    @given(st.lists(st.tuples(st.floats(-5, 5), st.integers(0, 1)),
                    min_size=2, max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_flip_complement(self, raw):
        scores = np.array([s for s, _ in raw])
        labels = np.array([y for _, y in raw])
        if len(set(labels.tolist())) < 2:
            return
        assert evaluation.auc(scores, labels) + evaluation.auc(
            scores, 1 - labels) == pytest.approx(1.0, abs=1e-12)

    @given(st.lists(st.tuples(st.integers(-50, 50), st.integers(0, 1)),
                    min_size=2, max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_monotone_transform_invariance(self, raw):
        # a coarse grid keeps exp() and 2x+3 strictly increasing in floats,
        # so ties are preserved exactly rather than created by rounding
        scores = np.array([s for s, _ in raw], dtype=np.float64) / 10.0
        labels = np.array([y for _, y in raw])
        if len(set(labels.tolist())) < 2:
            return
        base = evaluation.auc(scores, labels)
        assert evaluation.auc(np.exp(scores), labels) == pytest.approx(
            base, abs=1e-12)
        assert evaluation.auc(2.0 * scores + 3.0, labels) == pytest.approx(
            base, abs=1e-12)


class TestRocCurve:
    def test_perfect_passes_corner(self):
        curve = roc_curve([0.9, 0.8, 0.1, 0.2], [1, 1, 0, 0])
        points = set(zip(curve.fpr.tolist(), curve.tpr.tolist()))
        assert (0.0, 1.0) in points

    def test_constant_scores_diagonal(self):
        curve = roc_curve([0.5] * 6, [1, 0, 1, 0, 1, 0])
        np.testing.assert_array_equal(curve.fpr, [0.0, 1.0])
        np.testing.assert_array_equal(curve.tpr, [0.0, 1.0])
        assert curve.thresholds[0] == math.inf

    def test_endpoints_and_monotone(self, rng):
        scores = rng.normal(0, 1, 50)
        labels = rng.integers(0, 2, 50)
        labels[:2] = [0, 1]
        curve = roc_curve(scores, labels)
        assert curve.fpr[0] == 0.0 and curve.tpr[0] == 0.0
        assert curve.fpr[-1] == 1.0 and curve.tpr[-1] == 1.0
        assert (np.diff(curve.fpr) >= 0).all()
        assert (np.diff(curve.tpr) >= 0).all()
        assert (np.diff(curve.thresholds) < 0).all()

    def test_trapezoid_matches_pair_count_200_instances(self):
        for trial in range(200):
            gen = np.random.default_rng(trial)
            n = int(gen.integers(4, 100))
            # integer scores force plenty of ties
            scores = gen.integers(0, 8, n).astype(float)
            labels = gen.integers(0, 2, n)
            labels[:2] = [0, 1]
            area = roc_auc(roc_curve(scores, labels))
            assert abs(area - evaluation.auc(scores, labels)) < 1e-12


class TestStratifiedKfold:
    def test_exact_proportionality(self):
        labels = np.array([1] * 10 + [0] * 10)
        folds = evaluation.stratified_kfold(labels, evaluation.CvPlan(k_folds=2))
        for fold in folds:
            assert labels[fold].sum() == 5
            assert len(fold) == 10

    def test_minority_below_k(self):
        labels = np.array([1] * 9 + [0])
        with pytest.raises(DataError, match="minority class"):
            evaluation.stratified_kfold(labels, evaluation.CvPlan(k_folds=2))

    @pytest.mark.parametrize("stratified, named", [(True, "minority class count 50")])
    def test_huge_k_fails_before_allocating(self, stratified, named):
        """k_folds=10**9 is rejected before any per-fold list is made. It runs
        in a child process whose address space is capped at 1 GiB, so code
        that allocates first fails with a MemoryError instead of taking the
        host's memory."""
        code = (
            "import resource, numpy as np\n"
            "from omicsurv import evaluation\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
            "plan = evaluation.CvPlan(k_folds=10**9)\n"
            "evaluation.stratified_kfold(np.array([0, 1] * 50), plan)\n"
        )
        environ = dict(os.environ, PYTHONPATH=str(Path(evaluation.__file__).parents[1]))
        result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                                text=True, timeout=60, env=environ)
        assert result.returncode == 1
        assert result.stderr.strip().splitlines()[-1] == (
            f"omicsurv.errors.DataError: k_folds=1000000000 exceeds {named}")

    def test_k_below_two(self):
        with pytest.raises(ConfigError):
            evaluation.CvPlan(k_folds=1)

    @given(st.integers(2, 5), st.integers(0, 1000), st.integers(12, 60))
    @settings(max_examples=50, deadline=None)
    def test_partition_property(self, k, seed, n):
        gen = np.random.default_rng(seed)
        labels = gen.integers(0, 2, n)
        if np.bincount(labels, minlength=2).min() < k:
            return
        plan = evaluation.CvPlan(k_folds=k, seed=seed)
        folds = evaluation.stratified_kfold(labels, plan)
        flat = np.concatenate(folds)
        assert len(flat) == n
        assert set(flat.tolist()) == set(range(n))
        again = evaluation.stratified_kfold(labels, plan)
        for a, b in zip(folds, again):
            np.testing.assert_array_equal(a, b)


class TestCrossValidate:
    def test_separable_mean_auc_one(self):
        x, y = separable_xy(n_per_class=20, gap=10.0)
        report = evaluation.cross_validate(
            models.ModelSpec("gaussian_nb", {}, 0), (x, y),
            evaluation.CvPlan(k_folds=4))
        aucs = [row.auc for row in report.rows]
        assert np.mean(aucs) == 1.0

    def test_null_calibration_quick(self):
        means = []
        for seed in range(10):
            gen = np.random.default_rng(seed)
            x = gen.normal(0, 1, (60, 5))
            y = gen.permutation([0] * 30 + [1] * 30)
            report = evaluation.cross_validate(
                models.ModelSpec("gaussian_nb", {}, seed), (x, y),
                evaluation.CvPlan(k_folds=3, seed=seed))
            means.append(np.mean([row.auc for row in report.rows]))
        assert 0.4 <= np.mean(means) <= 0.6

    def test_row_count_is_k(self):
        x, y = separable_xy()
        report = evaluation.cross_validate(
            models.ModelSpec("gaussian_nb", {}, 0), (x, y),
            evaluation.CvPlan(k_folds=5), data_descriptor="blobs")
        assert len(report.rows) == 5
        assert all(row.data == "blobs" for row in report.rows)
        assert sum(row.n_test for row in report.rows) == len(y)

    def test_rp_config_accepted(self):
        x, y = separable_xy(n_features=6)
        config = models.ModelSpec("rp_ensemble", {"b1_groups": 2, "b2_per_group": 1,
                                                  "projected_dim": 2}, 0)
        report = evaluation.cross_validate(config, (x, y),
                                           evaluation.CvPlan(k_folds=2))
        assert len(report.rows) == 2
        assert report.rows[0].model == "rp_ensemble"


    @pytest.mark.parametrize("family, hyperparameters", [
        ("gaussian_nb", {}),
        ("rp_ensemble", {"b1_groups": 3, "b2_per_group": 2, "projected_dim": 2}),
        ("rectangle_mlp", {"epochs": 3, "width": 4}),
    ])
    def test_any_run_of_folds_gives_the_cross_validation_rows(self, family,
                                                              hyperparameters):
        x, y = separable_xy(n_per_class=20, n_features=6, gap=1.0)
        spec = models.ModelSpec(family, hyperparameters, 3)
        plan = evaluation.CvPlan(k_folds=5)
        folds = evaluation.stratified_kfold(y, plan)
        rows = evaluation.cross_validate(spec, (x, y), plan).rows
        assert [row.fold for row in rows] == [0, 1, 2, 3, 4]
        assert evaluation.cross_validate(spec, (x, y), plan, folds=folds,
                                         fold_ids=[1, 2, 4]).rows == [
            rows[1], rows[2], rows[4]]
        assert [evaluation.cross_validate(spec, (x, y), plan, folds=folds,
                                          fold_ids=[f]).rows[0]
                for f in range(5)] == rows

    @pytest.mark.parametrize("family", ["gaussian_nb", "rectangle_mlp",
                                        "mlp_regressor"])
    def test_errors_come_in_fold_order(self, family):
        # fold 0 scores the non-finite row and fails scoring; every other
        # fold trains on it and fails fitting, one fold at a time or jointly
        x, y = separable_xy(n_per_class=20, n_features=4)
        plan = evaluation.CvPlan(k_folds=4)
        folds = evaluation.stratified_kfold(y, plan)
        x[folds[0][0], 1] = np.nan
        spec = models.ModelSpec(family, {} if family == "gaussian_nb" else {"epochs": 2}, 0)
        with pytest.raises(DataError, match="scores must be finite"):
            evaluation.cross_validate(spec, (x, y), plan)
        with pytest.raises(DataError, match="non-finite training features"):
            evaluation.cross_validate(spec, (x, y), plan, folds=folds, fold_ids=[1, 0])


class TestEvalReport:
    def test_aggregates_and_csv(self, tmp_path):
        report = evaluation.EvalReport(rows=[
            evaluation.EvalRow("m", "d", 0, 0.8, 10),
            evaluation.EvalRow("m", "d", 1, 0.6, 10),
        ])
        mean, std = report.aggregates()[("m", "d")]
        assert mean == pytest.approx(0.7)
        assert std == pytest.approx(0.1)
        path = tmp_path / "r.csv"
        report.to_csv(path)
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["model", "data", "fold", "auc", "n_test"]
        assert rows[1][3] == repr(0.8)
