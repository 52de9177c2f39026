import concurrent.futures

import numpy as np
import pytest

from omicsurv import evaluation, models, search
from omicsurv.errors import ConfigError

from conftest import separable_xy


class InlinePool:
    """Stands in for ProcessPoolExecutor: runs the initializer, and each task
    as it is submitted, in this process."""

    def __init__(self, max_workers, initializer, initargs):
        initializer(*initargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def run(self, future, fn, args):
        try:
            future.set_result(fn(*args))
        except Exception as exc:  # noqa: BLE001 - delivered through the future
            future.set_exception(exc)

    def submit(self, fn, *args):
        future = concurrent.futures.Future()
        self.run(future, fn, args)
        return future


class ReversePool(InlinePool):
    """Holds the tasks of a 1-trial, 3-fold search until all are submitted,
    then runs them last to first."""

    def __init__(self, max_workers, initializer, initargs):
        super().__init__(max_workers, initializer, initargs)
        self.held = []

    def submit(self, fn, *args):
        future = concurrent.futures.Future()
        self.held.append((future, fn, args))
        if len(self.held) == 3:
            for task in reversed(self.held):
                self.run(*task)
        return future


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

    @pytest.mark.parametrize("text, message", [
        ("uniform:5,1", "uniform needs low <= high, got 5.0,1.0"),
        ("int:3,1", "int needs low <= high, got 3,1"),
        ("loguniform:5,1", "loguniform needs 0 < low < high, got 5.0,1.0"),
    ])
    def test_reversed_bounds_rejected(self, text, message):
        with pytest.raises(ConfigError) as info:
            search.parse_distribution(text)
        assert str(info.value) == message

    def test_single_point_ranges_allowed(self):
        rng = np.random.default_rng(0)
        assert search.Uniform(2.0, 2.0).sample(rng) == 2.0
        assert search.IntUniform(3, 3).sample(rng) == 3

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

    @pytest.mark.parametrize("family, params, message", [
        ("rp_ensemble", {"selection_holdout_fraction": search.Uniform(0.5, 1.5)},
         "selection_holdout_fraction must lie in (0,1)"),
        ("rp_ensemble", {"vote_threshold_alpha": search.Uniform(0.2, 1.0)},
         "vote_threshold_alpha must lie in (0,1)"),
    ])
    def test_both_ends_of_a_range_checked(self, family, params, message):
        with pytest.raises(ConfigError) as info:
            search.SearchSpace(family, params)
        assert str(info.value) == f"{family}: {message}"

    def test_width_checked_against_every_example(self):
        message = ("rp_ensemble needs at least {} feature columns with these "
                   "parameters; 'table' has 4")
        with pytest.raises(ConfigError) as info:
            search.SearchSpace("rp_ensemble", {}).check_width(4, "'table'")
        assert str(info.value) == message.format(5)
        space = search.SearchSpace("rp_ensemble",
                                   {"projected_dim": search.IntUniform(2, 6)})
        space.check_width(6, "'table'")
        with pytest.raises(ConfigError) as info:
            space.check_width(4, "'table'")
        assert str(info.value) == message.format(6)
        # families without a width limit fit any width
        search.SearchSpace("gaussian_nb", {}).check_width(1, "'table'")

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
        for budget in (1, 3, 4):
            best1, trials1 = search.random_search(space, x, y, plan, budget, 0,
                                                  worker_count=1)
            for workers in (2, 4):
                best, trials = search.random_search(space, x, y, plan, budget, 0,
                                                    worker_count=workers)
                assert best.index == best1.index
                assert [t.index for t in trials] == list(range(budget))
                for a, b in zip(trials, trials1):
                    assert a.params == b.params
                    assert a.rows == b.rows
                    assert a.mean_auc.hex() == b.mean_auc.hex()

    @pytest.mark.parametrize("budget, workers, pool_size", [
        (1, 2, 2), (1, 8, 3), (3, 8, 8), (3, 16, 9), (5, 2, 2)])
    def test_pool_no_larger_than_task_count(self, monkeypatch, budget, workers,
                                            pool_size):
        sizes = []

        def pool(**kwargs):
            sizes.append(kwargs["max_workers"])
            return InlinePool(**kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", pool)
        monkeypatch.setattr(search, "_task_inputs", ())
        x, y, plan = self.search_args()  # 3 folds
        _, trials = search.random_search(search.SearchSpace("gaussian_nb", {}),
                                         x, y, plan, budget, 0, worker_count=workers)
        assert sizes == [pool_size] and len(trials) == budget

    def test_failing_folds_give_the_same_error_at_any_worker_count(self):
        x, y, plan = self.search_args()
        x[5, 1] = np.inf  # every fold that trains on row 5 fails
        space = search.SearchSpace("gaussian_nb", {})
        messages = []
        for workers in (1, 2):
            with pytest.raises(ConfigError) as info:
                search.random_search(space, x, y, plan, 2, 0, worker_count=workers)
            messages.append(str(info.value))
        assert messages[0] == messages[1] == (
            "all 2 search trials failed: trial 0: non-finite training features; "
            "trial 1: non-finite training features")

    def test_trial_fails_with_its_lowest_failing_fold(self, monkeypatch):
        def cross_validate(spec, data, plan, folds, fold_ids):
            rows = []
            for fold in fold_ids:
                if fold > 0:
                    raise ValueError(f"fold {fold} failed")
                rows.append(evaluation.EvalRow(spec.family, "data", fold, 0.5,
                                               len(folds[fold])))
            return evaluation.EvalReport(rows)

        monkeypatch.setattr(evaluation, "cross_validate", cross_validate)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", ReversePool)
        monkeypatch.setattr(search, "_task_inputs", ())
        x, y, plan = self.search_args()
        with pytest.raises(ConfigError,
                           match=r"^all 1 search trials failed: trial 0: fold 1 failed$"):
            search.random_search(search.SearchSpace("gaussian_nb", {}),
                                 x, y, plan, 1, 0, worker_count=2)

    def test_in_process_trial_stops_at_its_first_failing_fold(self, monkeypatch):
        real = evaluation.cross_validate
        calls = []

        def cross_validate(spec, data, plan, folds, fold_ids):
            calls.append((spec.seed, list(fold_ids)))
            if len(calls) == 2:  # trial 0, fold 1
                raise ValueError("fold 1 failed")
            return real(spec, data, plan, folds=folds, fold_ids=fold_ids)

        monkeypatch.setattr(evaluation, "cross_validate", cross_validate)
        x, y, plan = self.search_args()  # 3 folds, one task per fold
        space = search.SearchSpace("gaussian_nb", {})
        assert not models.has_fit_folds(space.family)
        _, trials = search.random_search(space, x, y, plan, 2, 0, worker_count=1)
        seeds = [space.sample(0, i).seed for i in range(2)]
        assert calls == [(seeds[0], [0]), (seeds[0], [1]),
                         (seeds[1], [0]), (seeds[1], [1]), (seeds[1], [2])]
        assert [t.index for t in trials] == [1]
        assert [row.fold for row in trials[0].rows] == [0, 1, 2]
        assert search._task_inputs == ()

    def test_all_failures_aggregated(self):
        x, y, plan = self.search_args()
        x[0, 0] = np.nan  # every fold that trains on row 0 fails
        space = search.SearchSpace("gaussian_nb", {})
        with pytest.raises(ConfigError, match="all 3 search trials failed"):
            search.random_search(space, x, y, plan, 3, 0)

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
