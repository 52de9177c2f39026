import dataclasses
import inspect
import json
import re
from pathlib import Path

import numpy as np
import pytest
import yaml

from omicsurv import dataio, evaluation, models, normalize, search, survival, synth
from omicsurv.errors import ConfigError, DataError
from omicsurv.models import mlp

from conftest import separable_xy
from cross_checks import logistic_objective
from mlp_checks import epoch_losses, gradient_check


def spec(family, seed=0, **hp):
    return models.ModelSpec(family=family, hyperparameters=hp, seed=seed)


def assert_out_of_range_rejected(family, key, value, message):
    """``value`` is a ConfigError naming the family in ``read_params``, in
    ``fit`` and as the low end of a search range (NaN, which no range holds,
    as a fixed search value)."""
    x, y = separable_xy()
    match = re.escape(f"{family}: {message}")
    with pytest.raises(ConfigError, match=match):
        models.read_params(family, {key: value})
    with pytest.raises(ConfigError, match=match):
        models.fit(spec(family, **{key: value}), x, y)
    kind = "int" if isinstance(value, int) else "uniform"
    searched = value if value != value else search.parse_param(f"{kind}:{value},3")
    with pytest.raises(ConfigError, match=match):
        search.SearchSpace(family, {key: searched})


# A random_forest model file of format 1 (nested trees), as written before
# format 2, for n_trees 3 and max_depth 2.
FOREST_FORMAT_1 = {
    "format_version": 1, "family": "random_forest",
    "hyperparameters": {"n_trees": 3, "max_depth": 2}, "seed": 5, "n_features": 3,
    "state": {"trees": [
        {"feature": 1, "threshold": 0.65, "frac_ones": 0.5833333333333334,
         "left": {"feature": 0, "threshold": 1.9, "frac_ones": 0.7,
                  "left": {"frac_ones": 0.7777777777777778},
                  "right": {"frac_ones": 0.0}},
         "right": {"frac_ones": 0.0}},
        {"feature": 0, "threshold": 1.1, "frac_ones": 0.08333333333333333,
         "left": {"frac_ones": 0.0},
         "right": {"feature": 1, "threshold": -1.85, "frac_ones": 0.5,
                   "left": {"frac_ones": 0.0}, "right": {"frac_ones": 1.0}}},
        {"feature": 0, "threshold": 1.9, "frac_ones": 0.3333333333333333,
         "left": {"feature": 2, "threshold": -0.05, "frac_ones": 0.4444444444444444,
                  "left": {"frac_ones": 0.0}, "right": {"frac_ones": 1.0}},
         "right": {"frac_ones": 0.0}},
    ]},
}


def forest_format_1_with(edit) -> bytes:
    """FOREST_FORMAT_1's file after ``edit`` of its ``state``."""
    forest = json.loads(json.dumps(FOREST_FORMAT_1))
    edit(forest["state"])
    return json.dumps(forest).encode()


SMALL_HP = {
    "gaussian_nb": {},
    "svm_rbf": {"C": 10.0, "gamma": 0.5},
    "l1_logistic": {"lambda": 0.001},
    "random_forest": {"n_trees": 20},
    "rectangle_mlp": {"epochs": 200, "width": 8},
    "rp_ensemble": {"b1_groups": 3, "b2_per_group": 2, "projected_dim": 2},
}


def assert_same_state(got, want):
    """``got`` holds ``want``'s saved fields bit for bit, dtypes included,
    and its unsaved fields' defaults."""
    assert type(got) is type(want)
    for f in dataclasses.fields(want):
        value = getattr(got, f.name)
        if f.metadata.get("saved", True):
            assert_same_value(value, getattr(want, f.name), f.name)
        else:
            default = (f.default_factory() if f.default is dataclasses.MISSING
                       else f.default)
            assert_same_value(value, default, f.name)


def assert_same_value(got, want, name):
    if isinstance(want, np.ndarray):
        assert isinstance(got, np.ndarray) and got.dtype == want.dtype, name
        assert got.tobytes() == want.tobytes(), name
        if want.size:
            assert got.shape == want.shape, name
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), name
        for a, b in zip(got, want):
            assert_same_value(a, b, name)
    elif isinstance(want, models.TrainedModel):
        assert got.spec == want.spec and got.n_features == want.n_features, name
        assert_same_state(got.state, want.state)
    elif isinstance(want, float):
        assert isinstance(got, float), name
        assert np.float64(got).tobytes() == np.float64(want).tobytes(), name
    else:
        assert type(got) is type(want) and got == want, name


class TestModelSpec:
    def test_unknown_family(self):
        with pytest.raises(ConfigError, match="unknown model family"):
            models.ModelSpec(family="nope")

    def test_families_tuple(self):
        assert set(models.FAMILIES) == {
            "gaussian_nb", "svm_rbf", "l1_logistic", "random_forest",
            "rectangle_mlp", "mlp_regressor", "rp_ensemble"}

    @pytest.mark.parametrize("family", models.FAMILIES)
    def test_fit_contract(self, family):
        """A family's fit takes x, y, params and seed, plus only the options
        its table entry passes."""
        module, options = models._TABLE[family]
        assert list(inspect.signature(module.fit).parameters) == [
            "x", "y", "params", "seed", *options]

    @pytest.mark.parametrize("family", models.FAMILIES)
    def test_unknown_hyperparameter(self, family):
        x, y = separable_xy()
        match = f"{family}: unknown config key 'bogus'"
        with pytest.raises(ConfigError, match=match):
            models.fit(spec(family, bogus=1), x, y)
        with pytest.raises(ConfigError, match=match):
            search.SearchSpace(family, {"bogus": search.Uniform(0.0, 1.0)})

    def test_readme_table_matches_params(self):
        """The README's hyperparameter table lists each family's PARAMS."""
        lines = (Path(__file__).parents[1] / "README.md").read_text(
            encoding="utf-8").splitlines()
        start = lines.index("| family | key | type | default | bound |") + 2
        documented = {}
        for line in lines[start:]:
            if not line.startswith("|"):
                break
            families, key, kind, default, bound = (
                c.strip() for c in line.strip("|").split("|"))
            value = yaml.safe_load(re.match(r"`([^`]*)`", default).group(1))
            for family in re.findall(r"`(\w+)`", families):
                documented[family, key.strip("`")] = (kind, value, bound.strip("`"))
        names = {int: "int", float: "float", bool: "bool", str: "str", dict: "mapping"}
        declared = {(family, key): (names[kind], default, "".join(bound))
                    for family in models.FAMILIES
                    for key, (kind, default, *bound)
                    in models._TABLE[family][0].PARAMS.items()}
        assert documented == declared


class TestValidation:
    def test_single_class(self):
        with pytest.raises(DataError, match="single-class"):
            models.fit(spec("gaussian_nb"), np.zeros((4, 2)), np.zeros(4))

    @pytest.mark.parametrize("family", [f for f in models.FAMILIES
                                        if f != "mlp_regressor"])
    def test_classifier_labels_outside_0_1(self, family):
        x, y = separable_xy()
        with pytest.raises(DataError, match=r"classifier labels must be 0 or 1, "
                                            r"got \[1, 2\]"):
            models.fit(spec(family, **SMALL_HP[family]), x, y + 1)
        with pytest.raises(DataError, match=r"got \[-1, 1\]"):
            models.fit(spec(family, **SMALL_HP[family]), x, 2 * y - 1)

    def test_regressor_fits_any_targets(self):
        x, y = separable_xy()
        model = models.fit(spec("mlp_regressor", epochs=2), x, 10.0 * y + 3.0)
        assert np.isfinite(models.predict_scores(model, x)).all()

    def test_length_mismatch(self):
        with pytest.raises(DataError, match="length mismatch"):
            models.fit(spec("gaussian_nb"), np.zeros((4, 2)), np.zeros(3))

    def test_predict_width_mismatch(self):
        x, y = separable_xy()
        model = models.fit(spec("gaussian_nb"), x, y)
        with pytest.raises(DataError, match="does not match training width"):
            models.predict_scores(model, np.zeros((2, 5)))


@pytest.mark.parametrize("family, key, value, message", [
    ("svm_rbf", "C", -1.0, "C must be > 0, got -1.0"),
    ("svm_rbf", "C", 0.0, "C must be > 0, got 0.0"),
    ("svm_rbf", "C", 1e-13, "C must be > 1e-12, got 1e-13"),
    ("svm_rbf", "C", 1e-12, "C must be > 1e-12, got 1e-12"),
    ("svm_rbf", "gamma", -1.0, "gamma must be > 0, got -1.0"),
    ("svm_rbf", "tol", -1.0, "tol must be >= 0, got -1.0"),
    ("svm_rbf", "max_iter", 0, "max_iter must be >= 1, got 0"),
    ("l1_logistic", "lambda", -1.0, "lambda must be >= 0, got -1.0"),
    ("l1_logistic", "max_sweeps", 0, "max_sweeps must be >= 1, got 0"),
    ("l1_logistic", "tol", -1.0, "tol must be >= 0, got -1.0"),
    ("rectangle_mlp", "n_hidden_layers", -1, "n_hidden_layers must be >= 0, got -1"),
    ("rectangle_mlp", "width", 0, "width must be >= 1, got 0"),
    ("rectangle_mlp", "epochs", 0, "epochs must be >= 1, got 0"),
    ("rectangle_mlp", "learning_rate", -1.0, "learning_rate must be > 0, got -1.0"),
    ("rectangle_mlp", "batch_size", 0, "batch_size must be >= 1, got 0"),
    ("mlp_regressor", "width", 0, "width must be >= 1, got 0"),
    ("mlp_regressor", "learning_rate", 0.0, "learning_rate must be > 0, got 0.0"),
])
def test_out_of_range_params_rejected(family, key, value, message):
    assert_out_of_range_rejected(family, key, value, message)


def _nearest_outside(kind, bound: str) -> list:
    """The values nearest outside a declared lower ``bound`` of a ``kind``
    key: limit - 1 for an int ``>=`` bound, the limit itself for ``>``, and
    for a float also NaN (and below a ``>=`` limit its next lower float)."""
    op, limit = bound.split()
    if kind is int:
        return [int(limit) - (op == ">=")]
    limit = float(limit)
    return [limit if op == ">" else float(np.nextafter(limit, -np.inf)), float("nan")]


BOUNDED = [(family, key, value, bound)
           for family in models.FAMILIES
           for key, (kind, _, *bounds) in models._TABLE[family][0].PARAMS.items()
           for bound in bounds
           for value in _nearest_outside(kind, bound)]


@pytest.mark.parametrize("family, key, value, bound", BOUNDED,
                         ids=[f"{f}-{k}-{v}" for f, k, v, _ in BOUNDED])
def test_declared_bound_rejected(family, key, value, bound):
    """Every bound a family declares in PARAMS rejects the value nearest
    outside it."""
    assert_out_of_range_rejected(family, key, value,
                                 f"{key} must be {bound}, got {value}")


def test_every_bound_is_tested():
    """Each family with a bounded key has a case in test_declared_bound_rejected."""
    assert {family for family, *_ in BOUNDED} == set(models.FAMILIES) - {"gaussian_nb"}


def test_range_ends_accepted():
    """The smallest value each range check allows fits."""
    x, y = separable_xy()
    for family, params in [
            ("svm_rbf", {"C": 1e-3, "tol": 0.0, "max_iter": 1}),
            ("l1_logistic", {"lambda": 0.0, "max_sweeps": 1, "tol": 0.0}),
            ("rectangle_mlp", {"n_hidden_layers": 0, "width": 1, "epochs": 1,
                               "batch_size": 1})]:
        models.fit(spec(family, **params), x, y)


class TestGaussianNb:
    def test_closed_form_means(self):
        x = np.vstack([np.zeros((20, 2)), np.full((20, 2), 10.0)])
        y = np.array([0] * 20 + [1] * 20)
        model = models.fit(spec("gaussian_nb"), x, y)
        np.testing.assert_allclose(model.state.mean0, [0.0, 0.0])
        np.testing.assert_allclose(model.state.mean1, [10.0, 10.0])
        assert (model.state.var0 >= 1e-9).all()

    def test_sample_statistics(self, rng):
        x = rng.normal(0, 2, (30, 3))
        y = (rng.random(30) > 0.5).astype(int)
        if y.min() == y.max():
            y[0] = 1 - y[0]
        model = models.fit(spec("gaussian_nb"), x, y)
        np.testing.assert_allclose(model.state.mean1, x[y == 1].mean(axis=0))
        np.testing.assert_allclose(model.state.var0,
                                   np.maximum(x[y == 0].var(axis=0), 1e-9))

    def test_separable_score_ordering(self):
        x, y = separable_xy()
        model = models.fit(spec("gaussian_nb"), x, y)
        scores = models.predict_scores(model, x)
        assert scores[y == 1].min() > scores[y == 0].max()


class TestSvm:
    def xor(self):
        gen = np.random.default_rng(0)
        centers = np.array([[0, 0], [4, 4], [0, 4], [4, 0]], dtype=float)
        x = np.vstack([c + gen.normal(0, 0.3, (10, 2)) for c in centers])
        y = np.array([1] * 20 + [0] * 20)
        return x, y

    def test_xor_training_accuracy(self):
        x, y = self.xor()
        model = models.fit(spec("svm_rbf", C=10.0, gamma=1.0), x, y)
        assert (models.predict_labels(model, x) == y).all()

    def test_dual_box_and_kkt(self):
        x, y = separable_xy(seed=2)
        c = 5.0
        model = models.fit(spec("svm_rbf", C=c, gamma=0.5, tol=1e-3), x, y)
        state = model.state
        assert (state.alphas >= -1e-12).all()
        assert (state.alphas <= c + 1e-12).all()
        assert state.final_violation <= 1e-3
        # equality constraint y'alpha = 0
        assert abs(state.alphas @ state.train_y_pm) < 1e-9

    def test_determinism(self):
        x, y = separable_xy()
        a = models.fit(spec("svm_rbf"), x, y)
        b = models.fit(spec("svm_rbf"), x, y)
        assert (models.predict_scores(a, x) == models.predict_scores(b, x)).all()

    def test_records_solver_state(self):
        x, y = self.xor()
        capped = models.fit(spec("svm_rbf", C=10.0, gamma=1.0, max_iter=1), x, y).state
        assert capped.iterations == 1
        assert capped.converged is False
        assert capped.final_violation > 1e-3
        model = models.fit(spec("svm_rbf", C=10.0, gamma=1.0), x, y)
        assert model.state.converged is True
        assert 1 < model.state.iterations < 20000
        loaded = models.from_jsonable(json.loads(json.dumps(models.to_jsonable(model))))
        assert (loaded.state.iterations, loaded.state.converged) == (0, False)
        assert "iterations" not in models.to_jsonable(model)["state"]


class TestL1Logistic:
    def test_objective_monotone_in_sweeps(self):
        gen = np.random.default_rng(1)
        x = gen.normal(0, 1, (40, 6))
        y = (x[:, 0] + 0.5 * gen.normal(0, 1, 40) > 0).astype(int)
        objectives = []
        for sweeps in range(1, 8):
            model = models.fit(
                spec("l1_logistic", **{"lambda": 0.05}, max_sweeps=sweeps),
                x, y)
            objectives.append(logistic_objective(model.state, x, y))
        assert all(b <= a + 1e-12 for a, b in zip(objectives, objectives[1:]))

    def test_full_regularization_constant_score(self):
        x, y = separable_xy()
        model = models.fit(spec("l1_logistic", **{"lambda": 1e6}), x, y)
        assert (model.state.weights == 0).all()
        scores = models.predict_scores(model, x)
        assert np.ptp(scores) == 0.0

    def test_sparsity_increases_with_lambda(self):
        gen = np.random.default_rng(3)
        x = gen.normal(0, 1, (60, 10))
        y = (x[:, 0] > 0).astype(int)
        nnz = []
        for lam in (1e-4, 0.05, 0.5):
            model = models.fit(spec("l1_logistic", **{"lambda": lam}), x, y)
            nnz.append(int(np.count_nonzero(model.state.weights)))
        assert nnz[0] >= nnz[1] >= nnz[2]

    def test_reports_stop_at_sweep_cap(self):
        gen = np.random.default_rng(3)
        x = gen.normal(0, 1, (60, 10))
        y = (x[:, 0] > 0).astype(int)
        capped = models.fit(
            spec("l1_logistic", **{"lambda": 0.001}, max_sweeps=20), x, y).state
        assert capped.sweeps == 20 and capped.converged is False
        # the default max_sweeps and tol suffice at this lambda: 73 sweeps
        done = models.fit(spec("l1_logistic", **{"lambda": 0.05}), x, y).state
        assert done.converged is True and done.sweeps < 200
        assert "sweeps" not in models.state_jsonable(done)

    def test_constant_columns_get_no_weight(self):
        gen = np.random.default_rng(0)
        x = gen.normal(0, 1, (60, 5))
        x[:, 2], x[:, 3] = 0.1, -3.7   # their means are off by an ulp
        y = (x[:, 0] > 0).astype(int)
        state = models.fit(spec("l1_logistic", **{"lambda": 0.0}), x, y).state
        assert state.weights[2] == 0.0 and state.weights[3] == 0.0

    def test_converges_on_model_layers_cohort(self):
        """The cohort of scripts/time_model_layers.py: 300 x 500 log2
        microarray, labelled at 60 months (213 labelled)."""
        config = synth.SynthConfig(n_patients=300, n_genes=500,
                                   n_informative_genes=5, seed=0)
        latent = synth.gen_latent(config)
        micro = normalize.log2_transform(synth.gen_microarray(config, latent))
        clinical, _ = synth.gen_clinical(config, latent)
        dataset = survival.make_labeled_dataset(
            dataio.build_features(micro, clinical), clinical, 60.0)
        x, y = dataset.features.values, dataset.labels
        state = models.fit(spec("l1_logistic", **{"lambda": 0.01}), x, y).state
        assert state.converged is True and state.sweeps < 200


class TestRandomForest:
    def test_depth_zero_constant(self):
        x, y = separable_xy()
        model = models.fit(spec("random_forest", n_trees=1, max_depth=0,
                                bootstrap=False), x, y)
        scores = models.predict_scores(model, x)
        assert np.ptp(scores) == 0.0

    def test_single_tree_memorizes(self, rng):
        x = rng.normal(0, 1, (30, 4))
        y = rng.integers(0, 2, 30)
        y[0], y[1] = 0, 1
        model = models.fit(spec("random_forest", n_trees=1, bootstrap=False),
                           x, y)
        assert (models.predict_labels(model, x) == y).all()

    def test_score_is_vote_fraction(self):
        x, y = separable_xy()
        model = models.fit(spec("random_forest", n_trees=7), x, y)
        scores = models.predict_scores(model, x)
        assert np.allclose(scores * 7, np.round(scores * 7))

    def test_determinism(self):
        x, y = separable_xy()
        a = models.fit(spec("random_forest", n_trees=10), x, y)
        b = models.fit(spec("random_forest", n_trees=10), x, y)
        assert (models.predict_scores(a, x) == models.predict_scores(b, x)).all()

    @pytest.mark.parametrize("low, high", [
        (np.nextafter(1.0, 0.0), 1.0),  # the midpoint rounds up to 1.0
        (1e308, 1.7e308),  # the sum of the two overflows to inf
    ])
    def test_split_between_close_values(self, low, high):
        """Where the midpoint rounds up to the value above, the split is at the
        value below, so both children get rows and the tree ends."""
        x = np.array([[low], [high], [high], [low]])
        y = np.array([0, 1, 1, 0])
        model = models.fit(spec("random_forest", n_trees=1, bootstrap=False,
                                max_depth=50), x, y)
        assert model.state.threshold[0] == low
        assert len(model.state.feature) == 3
        assert (models.predict_labels(model, x) == y).all()

    @pytest.mark.parametrize("key, value, message", [
        ("n_trees", 0, "n_trees must be >= 1, got 0"),
        ("mtry", 0, "mtry must be >= 1, got 0"),
        ("mtry", -1, "mtry must be >= 1, got -1"),
        ("max_depth", -1, "max_depth must be >= 0, got -1"),
    ])
    def test_out_of_range_params_rejected(self, key, value, message):
        assert_out_of_range_rejected("random_forest", key, value, message)


class TestMlp:
    def test_classifier_loss_decreases(self):
        x, y = separable_xy(n_per_class=15, n_features=2, gap=4.0)
        losses = epoch_losses(x, y, {"width": 8, "learning_rate": 0.05},
                                  seed=0, task="classify", epochs=10)
        assert losses[-1] < losses[0]

    def test_regressor_loss_decreases(self):
        gen = np.random.default_rng(0)
        x = gen.normal(0, 1, (30, 3))
        y = x @ np.array([1.0, -2.0, 0.5])
        losses = epoch_losses(x, y, {"width": 8, "learning_rate": 0.02},
                                  seed=0, task="regress", epochs=10)
        assert losses[-1] < losses[0]

    def test_regressor_constant_target(self):
        gen = np.random.default_rng(1)
        x = gen.normal(0, 1, (50, 3))
        y = np.full(50, 5.0)
        model = models.fit(spec("mlp_regressor", epochs=300,
                                learning_rate=0.05, width=8), x, y)
        assert abs(models.predict_scores(model, x).mean() - 5.0) < 0.1

    def test_output_bias_stationary_at_fit(self):
        # zero weights, zero targets: predictions equal targets, so the
        # output-bias gradient is exactly zero
        state = mlp.MlpState(
            weights=[np.zeros((2, 3)), np.zeros((3, 1))],
            biases=[np.zeros(3), np.zeros(1)], task="regress")
        x = np.ones((4, 2))
        y = np.zeros(4)
        _, _, gb = mlp.loss_and_gradients(state, x, y)
        assert gb[-1][0] == 0.0

    def test_balanced_logit_optimum(self):
        # symmetric instance: same single feature value, labels half/half;
        # at the zero network the logit is 0 and the gradient wrt the output
        # bias vanishes by symmetry
        state = mlp.MlpState(
            weights=[np.zeros((1, 2)), np.zeros((2, 1))],
            biases=[np.zeros(2), np.zeros(1)], task="classify")
        x = np.ones((4, 1))
        y = np.array([0.0, 1.0, 0.0, 1.0])
        _, gw, gb = mlp.loss_and_gradients(state, x, y)
        assert abs(gb[-1][0]) < 1e-15

    def test_gradient_check_both_families(self):
        gen = np.random.default_rng(0)
        for family in ("rectangle_mlp", "mlp_regressor"):
            for trial in range(5):
                x = gen.normal(0, 1, (8, 4))
                if family == "rectangle_mlp":
                    y = (gen.random(8) > 0.5).astype(float)
                else:
                    y = gen.normal(0, 2, 8)
                err = gradient_check(
                    spec(family, seed=trial, width=5, n_hidden_layers=2), x, y)
                assert err < 1e-4

    def test_regressor_requires_weights_for_censor_weight(self):
        x, _ = separable_xy()
        times = np.abs(x[:, 0]) + 1.0
        with pytest.raises(ConfigError,
                           match="mlp_regressor: unknown config key 'censor_weight'"):
            models.fit(spec("mlp_regressor", censor_weight=0.5), x, times)


class TestScoreOrientation:
    def test_every_classifier_auc_one_on_separable(self):
        x, y = separable_xy(gap=8.0)
        for family, hp in SMALL_HP.items():
            model = models.fit(models.ModelSpec(family, hp, 0), x, y)
            scores = models.predict_scores(model, x)
            assert evaluation.auc(scores, y) == 1.0, family

    def test_regressor_orientation(self):
        x, y = separable_xy(gap=8.0)
        times = np.where(y == 1, 100.0, 10.0)
        model = models.fit(spec("mlp_regressor", epochs=300,
                                learning_rate=0.001, width=8), x, times)
        scores = models.predict_scores(model, x)
        assert evaluation.auc(scores, y) > 0.95


class TestPredictLabels:
    def test_thresholds(self):
        x, y = separable_xy()
        for family, hp in SMALL_HP.items():
            model = models.fit(models.ModelSpec(family, hp, 0), x, y)
            assert (models.predict_labels(model, x) == y).all(), family

    def test_regressor_has_no_labels(self):
        x, y = separable_xy()
        model = models.fit(spec("mlp_regressor", epochs=2), x,
                           y.astype(float))
        with pytest.raises(ConfigError):
            models.predict_labels(model, x)


class TestSerialization:
    def test_round_trip_all_families(self, tmp_path):
        x, y = separable_xy()
        for family, hp in SMALL_HP.items():
            model = models.fit(models.ModelSpec(family, hp, 0), x, y)
            path = tmp_path / f"{family}.json"
            models.save_model(model, path)
            again = models.load_model(path)
            np.testing.assert_allclose(models.predict_scores(again, x),
                                       models.predict_scores(model, x))

    def test_regressor_round_trip(self, tmp_path):
        x, y = separable_xy()
        model = models.fit(spec("mlp_regressor", epochs=5), x, y.astype(float))
        models.save_model(model, tmp_path / "m.json")
        again = models.load_model(tmp_path / "m.json")
        np.testing.assert_allclose(models.predict_scores(again, x),
                                   models.predict_scores(model, x))

    def test_forest_format_2_round_trip(self, tmp_path):
        x, y = separable_xy()
        model = models.fit(spec("random_forest", n_trees=5, max_depth=3), x, y)
        models.save_model(model, tmp_path / "forest.json")
        payload = json.loads((tmp_path / "forest.json").read_text(encoding="utf-8"))
        assert payload["format_version"] == 2
        assert sorted(payload["state"]) == ["feature", "frac_ones", "left", "roots",
                                            "threshold"]
        again = models.load_model(tmp_path / "forest.json")
        for name in ("feature", "threshold", "left", "frac_ones", "roots"):
            assert getattr(again.state, name).tobytes() == getattr(model.state, name).tobytes()
        query = x + 0.25
        assert (models.predict_scores(again, query)
                == models.predict_scores(model, query)).all()

    def test_forest_format_1_still_loads(self, tmp_path):
        """A format-1 file with nested trees, as the earlier omicsurv wrote it,
        scores as it did then, and is saved again as format 2."""
        path = tmp_path / "forest_v1.json"
        path.write_text(json.dumps(FOREST_FORMAT_1), encoding="utf-8")
        model = models.load_model(path)
        query = np.array([[-1.0, 0.0, 0.5], [0.3, -0.2, 0.0], [1.2, 1.0, -1.0],
                          [2.0, -2.0, 0.0]])
        want = [2 / 3, 2 / 3, 1 / 3, 0.0]
        assert models.predict_scores(model, query).tolist() == want
        # breadth-first within each tree; the right child follows the left
        assert model.state.roots.tolist() == [0, 5, 10]
        assert model.state.feature.tolist() == [1, 0, -1, -1, -1, 0, -1, 1, -1, -1,
                                                0, 2, -1, -1, -1]
        assert model.state.left.tolist() == [1, 3, -1, -1, -1, 6, -1, 8, -1, -1,
                                             11, 13, -1, -1, -1]
        models.save_model(model, tmp_path / "forest_v2.json")
        again = models.load_model(tmp_path / "forest_v2.json")
        assert models.to_jsonable(again)["format_version"] == 2
        assert models.predict_scores(again, query).tolist() == want

    @pytest.mark.parametrize("family", [*SMALL_HP, "mlp_regressor"])
    def test_saved_fields_round_trip_bit_for_bit(self, tmp_path, family):
        """Every saved field comes back with its bits and dtype, nested base
        models included; every unsaved one (a solver diagnostic) holds its
        dataclass default."""
        x, y = separable_xy()
        model = models.fit(models.ModelSpec(family, SMALL_HP.get(family, {"epochs": 5}), 0),
                           x, y)
        models.save_model(model, tmp_path / "m.json")
        again = models.load_model(tmp_path / "m.json")
        assert again.spec == model.spec and again.n_features == model.n_features
        assert_same_state(again.state, model.state)

    def test_svm_without_support_vectors_round_trips(self, tmp_path):
        x, y = separable_xy()
        model = models.fit(spec("svm_rbf", tol=5.0), x, y)
        assert model.state.support_x.size == 0 and model.state.dual_coef.size == 0
        models.save_model(model, tmp_path / "svm.json")
        again = models.load_model(tmp_path / "svm.json")
        assert_same_state(again.state, model.state)
        assert (models.predict_scores(again, x) == model.state.bias).all()
        models.save_model(again, tmp_path / "again.json")
        assert ((tmp_path / "again.json").read_bytes()
                == (tmp_path / "svm.json").read_bytes())

    @pytest.mark.parametrize("edit, named", [
        (lambda payload: b"{not json", "not a JSON model file"),
        (lambda payload: b"\xff\xfe{}", "not a JSON model file"),
        (lambda payload: b"[1, 2]", "missing key 'format_version'"),
        (lambda payload: payload.pop("state"), "missing key 'state'"),
        (lambda payload: payload["state"].pop("weights"), "missing key 'state.weights'"),
        (lambda payload: payload["state"].pop("lambda"), "missing key 'state.lambda'"),
        (lambda payload: payload.update(family="bogus"),
         "key 'family': unknown model family 'bogus'"),
        (lambda payload: payload["state"].update(weights="abc"),
         "key 'state.weights': expected a numeric array"),
        (lambda payload: payload.update(n_features=5),
         "state cannot score a row of n_features=5"),
        (lambda payload: forest_format_1_with(
            lambda state: state["trees"][0]["left"].pop("right")),
         "missing key 'state.trees[0].left.right'"),
        (lambda payload: forest_format_1_with(
            lambda state: state["trees"][0].update(frac_ones="abc")),
         "key 'state.trees[0].frac_ones': expected a number"),
        (lambda payload: forest_format_1_with(
            lambda state: state["trees"][1]["right"].update(threshold="abc")),
         "key 'state.trees[1].right.threshold': expected a number"),
        (lambda payload: forest_format_1_with(lambda state: state.update(trees=5)),
         "key 'state.trees': expected a list"),
    ], ids=["not-json", "not-utf8", "not-an-object", "no-state", "no-state-weights",
            "no-state-lambda", "unknown-family", "non-numeric-weights",
            "n-features-mismatch", "forest-format-1-no-right",
            "forest-format-1-frac-ones-abc", "forest-format-1-threshold-abc",
            "forest-format-1-trees-not-a-list"])
    def test_bad_file_is_data_error_naming_file_and_key(self, tmp_path, edit, named):
        """``edit`` returns the file's bytes, or edits the saved payload."""
        x, y = separable_xy()
        payload = models.to_jsonable(models.fit(spec("l1_logistic"), x, y))
        content = edit(payload)
        path = tmp_path / "bad.json"
        path.write_bytes(content if isinstance(content, bytes)
                         else json.dumps(payload).encode())
        with pytest.raises(DataError) as info:
            models.load_model(path)
        assert str(info.value).startswith(f"{path}: ")
        assert named in str(info.value)

    def test_version_check(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format_version": 99}', encoding="utf-8")
        with pytest.raises(DataError, match="unsupported model format"):
            models.load_model(path)
