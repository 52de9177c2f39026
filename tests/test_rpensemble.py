import json

import numpy as np
import pytest

from omicsurv import models, rpensemble
from omicsurv.errors import ConfigError, DataError

from conftest import separable_xy


def _train(x, y, seed, **hyperparameters):
    """``rpensemble.train`` on complete, checked params."""
    return rpensemble.train(x, y, models.read_params("rp_ensemble", hyperparameters),
                            seed)


def _gnb_file(mean0, mean1, var0, var1):
    """A one-feature gaussian_nb base model as the rp_ensemble file nests it."""
    return {"format_version": 2, "family": "gaussian_nb", "hyperparameters": {},
            "seed": 3, "n_features": 1,
            "state": {"mean0": [mean0], "mean1": [mean1], "var0": [var0],
                      "var1": [var1], "log_prior0": -0.6931471805599453,
                      "log_prior1": -0.6931471805599453}}


# An rp_ensemble model file as written when the model kept its settings in a
# frozen config object: b1_groups 2, b2_per_group 1, projected_dim 1, seed 3,
# fitted on FILE_X and FILE_Y.
FILE_X = np.array([[0, 1, 2, 0], [1, 0, 1, 1], [0, 2, 0, 1], [1, 1, 1, 0],
                   [3, 2, 4, 3], [4, 3, 2, 4], [3, 4, 3, 2], [4, 2, 4, 3]],
                  dtype=float)
FILE_Y = np.array([0, 0, 0, 0, 1, 1, 1, 1])
RP_MODEL_FILE = {
    "format_version": 2, "family": "rp_ensemble",
    "hyperparameters": {"b1_groups": 2, "b2_per_group": 1, "projected_dim": 1},
    "seed": 3, "n_features": 4,
    "state": {
        "config": {"b1_groups": 2, "b2_per_group": 1, "projected_dim": 1,
                   "base_family": "gaussian_nb", "base_hyperparameters": {},
                   "vote_threshold_alpha": None,
                   "selection_holdout_fraction": 0.2, "seed": 3},
        "projections": [[[0.6100061839757496, -0.7638575467969289,
                          0.12496471778007318, -0.1696995080218799]],
                        [[0.008613459752748964, -0.250276089921312,
                          -0.9074587638791896, 0.3373518622797871]]],
        "base_models": [
            _gnb_file(-0.41873949103992086, -0.06854980105683262,
                      0.6910833936769694, 0.594290046246708),
            _gnb_file(-0.9847521927842335, -2.595297533916992,
                      0.512116590219792, 0.6666309500006523)],
        "alpha": 1.0,
        "feature_importance": [0.25525035839509314, 0.24094692420917707,
                               0.4280068847345136, 0.07579583266121614],
        "group_errors": [[1.0], [0.5]],
        "selected_indices": [0, 0]},
}


class TestSampleProjection:
    def test_full_rank_det(self):
        rng = np.random.default_rng(0)
        a = rpensemble.sample_projections(4, 4, [rng])[0]
        assert abs(abs(np.linalg.det(a)) - 1.0) < 1e-8

    def test_rows_orthonormal(self):
        rng = np.random.default_rng(1)
        a = rpensemble.sample_projections(20, 5, [rng])[0]
        np.testing.assert_allclose(a @ a.T, np.eye(5), atol=1e-8)

    def test_d_exceeds_m(self):
        with pytest.raises(ConfigError):
            rpensemble.sample_projections(3, 4, [np.random.default_rng(0)])

    def test_jl_norm_expectation(self):
        m, d = 20, 4
        rng = np.random.default_rng(2)
        x = rng.normal(0, 1, m)
        sq = np.array([
            np.sum((rpensemble.sample_projections(m, d, [rng])[0] @ x) ** 2)
            for _ in range(10_000)
        ])
        expected = d / m * np.sum(x ** 2)
        assert abs(sq.mean() - expected) / expected < 0.05


class TestConfigValidation:
    def test_bounds(self):
        for params, match in [
            ({"b1_groups": 0}, "b1_groups must be >= 1, got 0"),
            ({"b2_per_group": 0}, "b2_per_group must be >= 1, got 0"),
            ({"projected_dim": 0}, "projected_dim must be >= 1"),
            ({"vote_threshold_alpha": 1.0}, "vote_threshold_alpha must lie in"),
            ({"selection_holdout_fraction": 0.0},
             "selection_holdout_fraction must lie in"),
            ({"base_family": "bogus"}, "unknown model family 'bogus'"),
            ({"base_hyperparameters": {"C": 1.0}},
             "gaussian_nb: unknown config key 'C'"),
            ({"base_family": "mlp_regressor"},
             "base family 'mlp_regressor' has no hard-label threshold"),
        ]:
            with pytest.raises(ConfigError, match=f"^rp_ensemble: .*{match}"):
                models.read_params("rp_ensemble", params)

    @pytest.mark.parametrize("params, match", [
        ({"bogus": 1}, "rp_ensemble: unknown config key 'bogus'"),
        ({"seed": 3}, "rp_ensemble: unknown config key 'seed'"),
        ({"base_family": "rp_ensemble"}, "its own base family"),
        # An explicit id keeps the name this case has always had.
        pytest.param({"b1_groups": 2.5}, "'b1_groups' must be int",
                     id="params3-must be integers"),
        ({"selection_holdout_fraction": "half"},
         "'selection_holdout_fraction' must be float"),
    ])
    def test_family_params_rejected(self, params, match):
        x, y = separable_xy(n_features=4)
        with pytest.raises(ConfigError, match=match):
            models.fit(models.ModelSpec("rp_ensemble", params, 0), x, y)

    def test_projected_dim_exceeds_features(self):
        x, y = separable_xy(n_features=3)
        with pytest.raises(ConfigError, match="rp_ensemble: projected_dim must not"):
            models.fit(models.ModelSpec("rp_ensemble", {"projected_dim": 4}, 0), x, y)


class TestDegeneracies:
    def test_b1_b2_one_equals_base(self):
        x, y = separable_xy(n_features=6, seed=1)
        model = models.fit(models.ModelSpec("rp_ensemble", {
            "b1_groups": 1, "b2_per_group": 1, "projected_dim": 2}, 7), x, y)
        rng = np.random.default_rng(np.random.SeedSequence([7, 0, 0]))
        proj = rpensemble.sample_projections(6, 2, [rng])[0]
        base = models.fit(models.ModelSpec("gaussian_nb", {}, 7),
                          x @ proj.T, y)
        np.testing.assert_array_equal(
            models.predict_scores(model, x),
            models.predict_labels(base, x @ proj.T).astype(float))

    def test_d_equals_m_rotation(self):
        x, y = separable_xy(n_features=4, seed=2)
        model = models.fit(models.ModelSpec("rp_ensemble", {
            "b1_groups": 1, "b2_per_group": 1, "projected_dim": 4}, 3), x, y)
        rng = np.random.default_rng(np.random.SeedSequence([3, 0, 0]))
        proj = rpensemble.sample_projections(4, 4, [rng])[0]
        base = models.fit(models.ModelSpec("gaussian_nb", {}, 3),
                          x @ proj.T, y)
        base_acc = np.mean(models.predict_labels(base, x @ proj.T) == y)
        rp_acc = np.mean(models.predict_labels(model, x) == y)
        assert rp_acc == base_acc


class TestTrain:
    def model(self, seed=0):
        x, y = separable_xy(n_per_class=25, n_features=10, gap=3.0, seed=seed)
        return _train(x, y, seed, b1_groups=5, b2_per_group=3,
                      projected_dim=3), x, y

    def test_selected_minimizes_group_error(self):
        model, _, _ = self.model()
        for g in range(model.params["b1_groups"]):
            sel = model.selected_indices[g]
            assert model.group_errors[g, sel] == model.group_errors[g].min()

    def test_projections_orthonormal(self):
        model, _, _ = self.model()
        for proj in model.projections:
            np.testing.assert_allclose(proj @ proj.T, np.eye(3), atol=1e-8)

    def test_importance_sums_to_one(self):
        model, _, _ = self.model()
        assert model.feature_importance.min() >= 0
        assert abs(model.feature_importance.sum() - 1.0) < 1e-12

    def test_zero_columns_zero_importance(self):
        x, y = separable_xy(n_per_class=20, n_features=5, seed=4)
        x_aug = np.hstack([x, np.zeros((len(x), 3))])
        model = _train(x_aug, y, 1, b1_groups=3, b2_per_group=2, projected_dim=3)
        np.testing.assert_array_equal(model.feature_importance[5:], 0.0)

    def test_informative_features_rank_higher(self):
        wins = 0
        for seed in range(10):
            gen = np.random.default_rng(seed)
            n = 80
            y = np.repeat([0, 1], n // 2)
            x = gen.normal(0, 1, (n, 100))
            x[:, :5] += 2.0 * y[:, None]
            model = _train(x, y, seed, b1_groups=10, b2_per_group=5,
                           projected_dim=5)
            if (model.feature_importance[:5].mean()
                    > model.feature_importance[5:].mean()):
                wins += 1
        assert wins >= 9

    def test_determinism(self):
        a, x, _ = self.model(seed=5)
        b, _, _ = self.model(seed=5)
        np.testing.assert_array_equal(rpensemble.predict_scores(a, x),
                                      rpensemble.predict_scores(b, x))

    def test_single_class_rejected(self):
        x, _ = separable_xy()
        spec = models.ModelSpec("rp_ensemble", {"projected_dim": 2}, 0)
        with pytest.raises(DataError, match="single-class training set"):
            models.fit(spec, x, np.zeros(len(x), dtype=int))


class TestPredict:
    def test_score_range_and_granularity(self):
        gen = np.random.default_rng(0)
        x = gen.normal(0, 1, (60, 8))
        y = (x[:, 0] + 0.5 * gen.normal(0, 1, 60) > 0).astype(int)
        model = _train(x, y, 0, b1_groups=7, b2_per_group=2, projected_dim=3)
        scores = rpensemble.predict_scores(model, x)
        assert scores.min() >= 0.0 and scores.max() <= 1.0
        assert np.allclose(scores * 7, np.round(scores * 7))

    def test_unanimity_on_easy_data(self):
        x, y = separable_xy(n_features=6, gap=20.0, seed=6)
        model = _train(x, y, 2, b1_groups=4, b2_per_group=2, projected_dim=2)
        scores = rpensemble.predict_scores(model, x)
        np.testing.assert_array_equal(scores, y.astype(float))

    def test_fixed_alpha_respected(self):
        x, y = separable_xy(n_features=6, seed=7)
        model = _train(x, y, 0, b1_groups=3, b2_per_group=2, projected_dim=2,
                       vote_threshold_alpha=0.5)
        assert model.alpha == 0.5

    def test_width_mismatch(self):
        x, y = separable_xy(n_features=6, seed=8)
        model = models.fit(models.ModelSpec("rp_ensemble", {
            "b1_groups": 2, "b2_per_group": 1, "projected_dim": 2}, 0), x, y)
        with pytest.raises(DataError, match="does not match training width"):
            models.predict_scores(model, np.zeros((2, 9)))


class TestFamilyContract:
    def test_contract_names_are_the_traced_functions(self):
        # The benchmark tracer swaps every module binding of rpensemble.train
        # and rpensemble.predict_scores for a timed wrapper; models.fit and
        # models.predict_scores reach them through fit and scores, so those
        # must be the same objects for the rpensemble.* spans to nest.
        assert rpensemble.fit is rpensemble.train
        assert rpensemble.scores is rpensemble.predict_scores

    def test_earlier_model_file_loads_and_scores(self, tmp_path):
        path = tmp_path / "rp.json"
        path.write_text(json.dumps(RP_MODEL_FILE), encoding="utf-8")
        model = models.load_model(path)
        query = np.array([[0.5, 0.5, 0.5, 0.5], [3.5, 3.0, 3.0, 3.0],
                          [2.0, 2.0, 2.0, 2.0], [-1.0, 5.0, 0.0, 2.0]])
        assert models.predict_scores(model, query).tolist() == [0.5, 1.0, 0.0, 0.0]
        assert models.predict_labels(model, query).tolist() == [0, 1, 0, 0]
        models.save_model(model, tmp_path / "again.json")
        assert (tmp_path / "again.json").read_text(encoding="utf-8") == json.dumps(
            RP_MODEL_FILE)

    def test_refit_writes_the_earlier_file(self):
        spec = models.ModelSpec("rp_ensemble", RP_MODEL_FILE["hyperparameters"], 3)
        model = models.fit(spec, FILE_X, FILE_Y)
        assert json.dumps(models.to_jsonable(model)) == json.dumps(RP_MODEL_FILE)
