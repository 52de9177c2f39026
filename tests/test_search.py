import concurrent.futures

import numpy as np
import pytest

from omicsurv import evaluation, models, search
from omicsurv.errors import ConfigError

from conftest import separable_xy


class TestDistributions:
    def test_uniform_bounds(self):
        dist = search.Uniform(2.0, 3.0)
        rng = np.random.default_rng(0)
        draws = [dist.sample(rng) for _ in range(100)]
        assert all(2.0 <= d <= 3.0 for d in draws)

    def test_loguniform_bounds_and_validation(self):
        dist = search.LogUniform(0.01, 100.0)
        rng = np.random.default_rng(0)
        draws = np.array([dist.sample(rng) for _ in range(200)])
        assert (draws >= 0.01).all() and (draws <= 100.0).all()
        # spans orders of magnitude
        assert draws.min() < 0.1 and draws.max() > 10.0
        with pytest.raises(ConfigError):
            search.LogUniform(0.0, 1.0)

    def test_int_uniform_inclusive(self):
        dist = search.IntUniform(1, 3)
        rng = np.random.default_rng(0)
        draws = {dist.sample(rng) for _ in range(200)}
        assert draws == {1, 2, 3}

    def test_categorical(self):
        dist = search.Categorical(("a", "b"))
        rng = np.random.default_rng(0)
        assert {dist.sample(rng) for _ in range(50)} == {"a", "b"}


class TestParseDistribution:
    def test_specs(self):
        assert search.parse_distribution("uniform:0.1,10") == search.Uniform(0.1, 10.0)
        assert search.parse_distribution("loguniform:0.01,100") == search.LogUniform(0.01, 100.0)
        assert search.parse_distribution("int:1,5") == search.IntUniform(1, 5)
        assert search.parse_distribution("cat:a,2,3.5") == search.Categorical(("a", 2, 3.5))

    def test_errors(self):
        with pytest.raises(ConfigError, match="unknown distribution"):
            search.parse_distribution("triangular:1,2")
        with pytest.raises(ConfigError, match="malformed"):
            search.parse_distribution("uniform:1")
        with pytest.raises(ConfigError, match="at least one choice"):
            search.parse_distribution("cat:")


class TestSearchSpace:
    def test_sample_deterministic(self):
        space = search.SearchSpace(
            family="svm_rbf",
            params={"C": search.LogUniform(0.1, 10.0), "gamma": 0.5})
        a = space.sample(seed=1, trial_index=3)
        b = space.sample(seed=1, trial_index=3)
        c = space.sample(seed=1, trial_index=4)
        assert a.hyperparameters == b.hyperparameters
        assert a.hyperparameters != c.hyperparameters
        assert a.hyperparameters["gamma"] == 0.5

    def test_rp_family_yields_config(self):
        space = search.SearchSpace(family="rp_ensemble",
                                   params={"projected_dim": 2})
        config = space.sample(seed=0, trial_index=0)
        assert isinstance(config, models.ModelSpec)
        assert config.hyperparameters["projected_dim"] == 2

    def test_rp_base_hyperparameters_checked_against_base_family(self):
        search.SearchSpace("rp_ensemble", {
            "base_family": "svm_rbf", "base_hyperparameters": {"C": 1.0}})
        with pytest.raises(ConfigError,
                           match="rp_ensemble: gaussian_nb: unknown config key 'bogus'"):
            search.SearchSpace("rp_ensemble", {"base_hyperparameters": {"bogus": 1}})
        with pytest.raises(ConfigError, match="rp_ensemble: unknown model family 'nope'"):
            search.SearchSpace("rp_ensemble", {"base_family": "nope"})
        # every categorical choice of the base family meets the base params
        with pytest.raises(ConfigError, match="rp_ensemble: gaussian_nb: .*'C'"):
            search.SearchSpace("rp_ensemble", {
                "base_family": search.Categorical(("svm_rbf", "gaussian_nb")),
                "base_hyperparameters": {"C": 1.0}})

    def test_categorical_coverage_default_seed(self):
        space = search.SearchSpace(
            family="random_forest",
            params={"bootstrap": search.Categorical((False, True))})
        seen = {space.sample(0, i).hyperparameters["bootstrap"] for i in range(10)}
        assert seen == {False, True}


class TestRandomSearch:
    def search_args(self, seed=0):
        x, y = separable_xy(n_per_class=12, n_features=3, gap=3.0, seed=seed)
        plan = evaluation.CvPlan(k_folds=3, seed=seed)
        return x, y, plan

    def test_budget_one(self):
        x, y, plan = self.search_args()
        space = search.SearchSpace("gaussian_nb", {})
        best, trials = search.random_search(space, x, y, plan, 1, 0)
        assert len(trials) == 1 and best is trials[0]

    def test_budget_validation(self):
        x, y, plan = self.search_args()
        with pytest.raises(ConfigError):
            search.random_search(search.SearchSpace("gaussian_nb", {}),
                                 x, y, plan, 0, 0)

    def test_tie_break_lower_index(self):
        x, y, plan = self.search_args()
        space = search.SearchSpace("gaussian_nb", {})  # all trials identical
        best, trials = search.random_search(space, x, y, plan, 5, 0)
        assert best.index == 0
        assert len({t.mean_auc for t in trials}) == 1

    def test_worker_count_independence(self):
        x, y, plan = self.search_args()
        space = search.SearchSpace(
            "l1_logistic", {"lambda": search.LogUniform(1e-3, 1.0)})
        best1, trials1 = search.random_search(space, x, y, plan, 4, 0,
                                              worker_count=1)
        best2, trials2 = search.random_search(space, x, y, plan, 4, 0,
                                              worker_count=2)
        assert best1.index == best2.index
        for a, b in zip(trials1, trials2):
            assert a.params == b.params
            assert a.rows == b.rows

    @pytest.mark.parametrize("budget, workers, pool_size", [(1, 2, 1), (3, 8, 3),
                                                           (5, 2, 2)])
    def test_pool_no_larger_than_budget(self, monkeypatch, budget, workers, pool_size):
        sizes = []

        class InlinePool:  # records the pool size, runs each trial here
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                future = concurrent.futures.Future()
                future.set_result(fn(*args))
                return future

        monkeypatch.setattr(search, "ProcessPoolExecutor", InlinePool)
        x, y, plan = self.search_args()
        _, trials = search.random_search(search.SearchSpace("gaussian_nb", {}),
                                         x, y, plan, budget, 0, worker_count=workers)
        assert sizes == [pool_size] and len(trials) == budget

    def test_all_failures_aggregated(self):
        x, y, plan = self.search_args()
        bad = np.zeros_like(y)  # single class -> every trial fails
        space = search.SearchSpace("gaussian_nb", {})
        with pytest.raises(ConfigError, match="all 3 search trials failed"):
            search.random_search(space, x, bad, plan, 3, 0)

    def test_trials_sorted_and_recorded(self):
        x, y, plan = self.search_args()
        space = search.SearchSpace(
            "l1_logistic", {"lambda": search.LogUniform(1e-3, 1.0)})
        _, trials = search.random_search(space, x, y, plan, 3, 0)
        assert [t.index for t in trials] == [0, 1, 2]
        for t in trials:
            assert len(t.rows) == 3
            assert t.wall_time >= 0
            assert t.mean_auc == pytest.approx(np.mean([r.auc for r in t.rows]))
