import numpy as np
import pytest

from omicsurv import models, rpensemble
from omicsurv.errors import ConfigError, DataError

from conftest import separable_xy


class TestSampleProjection:
    def test_full_rank_det(self):
        rng = np.random.default_rng(0)
        a = rpensemble.sample_projection(4, 4, rng)
        assert abs(abs(np.linalg.det(a)) - 1.0) < 1e-8

    def test_rows_orthonormal(self):
        rng = np.random.default_rng(1)
        a = rpensemble.sample_projection(20, 5, rng)
        np.testing.assert_allclose(a @ a.T, np.eye(5), atol=1e-8)

    def test_d_exceeds_m(self):
        with pytest.raises(ConfigError):
            rpensemble.sample_projection(3, 4, np.random.default_rng(0))

    def test_jl_norm_expectation(self):
        m, d = 20, 4
        rng = np.random.default_rng(2)
        x = rng.normal(0, 1, m)
        sq = np.array([
            np.sum((rpensemble.sample_projection(m, d, rng) @ x) ** 2)
            for _ in range(10_000)
        ])
        expected = d / m * np.sum(x ** 2)
        assert abs(sq.mean() - expected) / expected < 0.05


class TestConfigValidation:
    def test_bounds(self):
        with pytest.raises(ConfigError):
            rpensemble.RpConfig(b1_groups=0)
        with pytest.raises(ConfigError):
            rpensemble.RpConfig(vote_threshold_alpha=1.0)
        with pytest.raises(ConfigError):
            rpensemble.RpConfig(selection_holdout_fraction=0.0)

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
        with pytest.raises(ConfigError):
            rpensemble.train(x, y, rpensemble.RpConfig(projected_dim=4))


class TestDegeneracies:
    def test_b1_b2_one_equals_base(self):
        x, y = separable_xy(n_features=6, seed=1)
        model = models.fit(models.ModelSpec("rp_ensemble", {
            "b1_groups": 1, "b2_per_group": 1, "projected_dim": 2}, 7), x, y)
        rng = np.random.default_rng(np.random.SeedSequence([7, 0, 0]))
        proj = rpensemble.sample_projection(6, 2, rng)
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
        proj = rpensemble.sample_projection(4, 4, rng)
        base = models.fit(models.ModelSpec("gaussian_nb", {}, 3),
                          x @ proj.T, y)
        base_acc = np.mean(models.predict_labels(base, x @ proj.T) == y)
        rp_acc = np.mean(models.predict_labels(model, x) == y)
        assert rp_acc == base_acc


class TestTrain:
    def model(self, seed=0, **kw):
        x, y = separable_xy(n_per_class=25, n_features=10, gap=3.0, seed=seed)
        defaults = dict(b1_groups=5, b2_per_group=3, projected_dim=3,
                        seed=seed)
        defaults.update(kw)
        return rpensemble.train(x, y, rpensemble.RpConfig(**defaults)), x, y

    def test_selected_minimizes_group_error(self):
        model, _, _ = self.model()
        for g in range(model.config.b1_groups):
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
        config = rpensemble.RpConfig(b1_groups=3, b2_per_group=2,
                                     projected_dim=3, seed=1)
        model = rpensemble.train(x_aug, y, config)
        np.testing.assert_array_equal(model.feature_importance[5:], 0.0)

    def test_informative_features_rank_higher(self):
        wins = 0
        for seed in range(10):
            gen = np.random.default_rng(seed)
            n = 80
            y = np.repeat([0, 1], n // 2)
            x = gen.normal(0, 1, (n, 100))
            x[:, :5] += 2.0 * y[:, None]
            config = rpensemble.RpConfig(b1_groups=10, b2_per_group=5,
                                         projected_dim=5, seed=seed)
            model = rpensemble.train(x, y, config)
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
        with pytest.raises(DataError):
            rpensemble.train(x, np.zeros(len(x), dtype=int),
                             rpensemble.RpConfig(projected_dim=2))


class TestPredict:
    def test_score_range_and_granularity(self):
        gen = np.random.default_rng(0)
        x = gen.normal(0, 1, (60, 8))
        y = (x[:, 0] + 0.5 * gen.normal(0, 1, 60) > 0).astype(int)
        config = rpensemble.RpConfig(b1_groups=7, b2_per_group=2,
                                     projected_dim=3, seed=0)
        model = rpensemble.train(x, y, config)
        scores = rpensemble.predict_scores(model, x)
        assert scores.min() >= 0.0 and scores.max() <= 1.0
        assert np.allclose(scores * 7, np.round(scores * 7))

    def test_unanimity_on_easy_data(self):
        x, y = separable_xy(n_features=6, gap=20.0, seed=6)
        config = rpensemble.RpConfig(b1_groups=4, b2_per_group=2,
                                     projected_dim=2, seed=2)
        model = rpensemble.train(x, y, config)
        scores = rpensemble.predict_scores(model, x)
        np.testing.assert_array_equal(scores, y.astype(float))

    def test_fixed_alpha_respected(self):
        x, y = separable_xy(n_features=6, seed=7)
        config = rpensemble.RpConfig(b1_groups=3, b2_per_group=2,
                                     projected_dim=2,
                                     vote_threshold_alpha=0.5, seed=0)
        model = rpensemble.train(x, y, config)
        assert model.alpha == 0.5

    def test_width_mismatch(self):
        x, y = separable_xy(n_features=6, seed=8)
        config = rpensemble.RpConfig(b1_groups=2, b2_per_group=1,
                                     projected_dim=2, seed=0)
        model = rpensemble.train(x, y, config)
        with pytest.raises(DataError, match="does not match training width"):
            rpensemble.predict_scores(model, np.zeros((2, 9)))
