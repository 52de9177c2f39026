"""Seeded random hyperparameter search over declarative distributions.

Each trial's hyperparameters derive deterministically from (seed, trial
index), and the cross-validation folds are split once per search, before any
trial runs. With one worker the trials run in-process, one ``cross_validate``
each. With more, a process pool runs the folds as tasks: for a family that
fits its folds together (``models.has_fit_folds``) one task per trial, or, when
the budget is below the worker count, as many runs of consecutive folds per
trial as keep every worker busy; for any other family one task per (trial,
fold). The parent reassembles each trial from its fold rows in fold order. A
fold's rows and errors do not depend on the other folds of its task, so the
results are bit-identical for any worker count or scheduling order.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import evaluation, models
from .errors import ConfigError


@dataclass(frozen=True)
class Uniform:
    low: float
    high: float

    def __post_init__(self):
        if not self.low <= self.high:
            raise ConfigError(f"uniform needs low <= high, got {self.low},{self.high}")

    def sample(self, rng):
        return float(rng.uniform(self.low, self.high))


@dataclass(frozen=True)
class LogUniform:
    low: float
    high: float

    def __post_init__(self):
        if self.low <= 0 or self.high <= self.low:
            raise ConfigError("loguniform needs 0 < low < high, "
                              f"got {self.low},{self.high}")

    def sample(self, rng):
        return float(np.exp(rng.uniform(np.log(self.low), np.log(self.high))))


@dataclass(frozen=True)
class IntUniform:
    low: int
    high: int  # inclusive

    def __post_init__(self):
        if self.high < self.low:
            raise ConfigError(f"int needs low <= high, got {self.low},{self.high}")

    def sample(self, rng):
        return int(rng.integers(self.low, self.high + 1))


@dataclass(frozen=True)
class Categorical:
    choices: tuple

    def __post_init__(self):
        if not self.choices:
            raise ConfigError("cat needs at least one choice")

    def sample(self, rng):
        return self.choices[int(rng.integers(len(self.choices)))]


def parse_distribution(text: str):
    """Parse a CLI distribution spec like ``uniform:0.1,10`` or ``cat:a,b``."""
    kind, _, args = text.partition(":")
    parts = [a.strip() for a in args.split(",")] if args else []
    try:
        if kind == "uniform":
            return Uniform(float(parts[0]), float(parts[1]))
        if kind == "loguniform":
            return LogUniform(float(parts[0]), float(parts[1]))
        if kind == "int":
            return IntUniform(int(parts[0]), int(parts[1]))
        if kind == "cat":
            return Categorical(tuple(coerce(p) for p in parts))
    except (IndexError, ValueError) as exc:
        raise ConfigError(f"malformed distribution spec {text!r}") from exc
    raise ConfigError(f"unknown distribution kind {kind!r}")


def parse_param(value):
    """A string holding ``:`` is a distribution spec; any other value is
    held fixed."""
    if isinstance(value, str) and ":" in value:
        return parse_distribution(value)
    return value


def parse_params(params: dict) -> dict:
    """``parse_param`` of every value; an error in a spec names its key."""
    out = {}
    for key, value in params.items():
        try:
            out[key] = parse_param(value)
        except ConfigError as exc:
            raise ConfigError(f"{key}: {exc}") from None
    return out


def coerce(text: str):
    """A command-line literal as int, float or bool, else the string itself."""
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            pass
    if text in ("true", "false"):
        return text == "true"
    return text


def _examples(value) -> list:
    """What a parameter's values are checked by: a range's two ends, a
    categorical's choices, a fixed value itself."""
    if hasattr(value, "choices"):
        return list(value.choices)
    if hasattr(value, "high"):
        return [value.low, value.high]
    return [value]


@dataclass(frozen=True)
class SearchSpace:
    """A model family plus fixed values and/or distributions per parameter,
    and the number of trials to sample, checked against the family's keys."""

    family: str  # a models.FAMILIES entry
    params: dict = field(default_factory=dict)
    budget: int = 1

    def __post_init__(self):
        models.check_family(self.family)
        if self.budget < 1:
            raise ConfigError("search budget must be >= 1")
        for params in self._example_params():
            models.read_params(self.family, params)

    def _example_params(self):
        """The hyperparameters a space is checked by: the first example of
        every parameter, then each other example together with the first
        example of every other parameter."""
        examples = {name: _examples(value) for name, value in self.params.items()}
        first = {name: values[0] for name, values in examples.items()}
        yield first
        for name, values in examples.items():
            for example in values[1:]:
                yield {**first, name: example}

    def check_width(self, width: int, table: str) -> None:
        """A ConfigError if an example cannot fit ``width`` feature columns."""
        for params in self._example_params():
            models.check_width(self.family, params, width, table)

    def sample(self, seed: int, trial_index: int) -> models.ModelSpec:
        rng = np.random.default_rng(np.random.SeedSequence([seed, trial_index]))
        sampled = {}
        for name in sorted(self.params):
            value = self.params[name]
            sampled[name] = value.sample(rng) if hasattr(value, "sample") else value
        model_seed = int(
            np.random.SeedSequence([seed, trial_index, 1]).generate_state(1)[0]
        )
        return models.ModelSpec(family=self.family, hyperparameters=sampled,
                                seed=model_seed)


@dataclass
class TrialRecord:
    index: int
    params: dict
    rows: list[evaluation.EvalRow]  # one per cross-validation fold, in fold order
    mean_auc: float
    # Seconds spent fitting and scoring the trial's folds: its cross-validation
    # when the search runs in-process, the sum of its fold tasks' times in a pool.
    wall_time: float


def _record(index: int, spec: models.ModelSpec, rows: list[evaluation.EvalRow],
            wall_time: float) -> TrialRecord:
    return TrialRecord(
        index=index,
        params=dict(spec.hyperparameters),
        rows=rows,
        mean_auc=float(np.mean([row.auc for row in rows])),
        wall_time=wall_time,
    )


# (specs, x, y, folds) of the search a pool worker serves, set once per worker
# by _init_worker so that the arrays are not sent with every task.
_task_inputs: tuple = ()


def _init_worker(specs, x, y, folds) -> None:
    global _task_inputs
    _task_inputs = (specs, x, y, folds)


def _run_folds(trial: int, fold_ids: list[int]) -> tuple[list[evaluation.EvalRow], float]:
    specs, x, y, folds = _task_inputs
    start = time.perf_counter()
    rows = evaluation.evaluate_folds(specs[trial], x, y, folds, fold_ids)
    return rows, time.perf_counter() - start


def random_search(space: SearchSpace, x, y, plan: evaluation.CvPlan,
                  budget: int, seed: int,
                  worker_count: int = 1) -> tuple[TrialRecord, list[TrialRecord]]:
    """Evaluate ``budget`` sampled configurations; return (best, all trials).

    The best trial maximizes mean fold AUC, ties broken by lower index. The
    folds are split once, so a split error (``k_folds`` above the minority
    class count) is one DataError. A trial that fails fails with the error of
    its lowest-index failing fold; if every trial fails, that is a ConfigError
    listing them.
    """
    if budget < 1:
        raise ConfigError("search budget must be >= 1")
    if worker_count < 1:
        raise ConfigError("worker_count must be >= 1")
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    folds = evaluation.stratified_kfold(y, plan)
    specs = [space.sample(seed, i) for i in range(budget)]

    failures: list[tuple[int, Exception]] = []
    trials: list[TrialRecord] = []
    if worker_count == 1:
        for i, spec in enumerate(specs):
            start = time.perf_counter()
            try:
                rows = evaluation.cross_validate(spec, (x, y), plan, folds=folds).rows
            except Exception as exc:  # noqa: BLE001 - aggregated below
                failures.append((i, exc))
                continue
            trials.append(_record(i, spec, rows, time.perf_counter() - start))
    else:
        from concurrent.futures import ProcessPoolExecutor

        # A family that fits its folds together gets one task per trial, or
        # as many runs of folds per trial as keep every worker busy; any other
        # one task per (trial, fold). Never more workers than tasks.
        k = len(folds)
        per_trial = ((worker_count + budget - 1) // budget
                     if models.has_fit_folds(space.family) else k)
        units = [chunk.tolist() for chunk in np.array_split(np.arange(k),
                                                            min(per_trial, k))]
        with ProcessPoolExecutor(max_workers=min(worker_count, budget * len(units)),
                                 initializer=_init_worker,
                                 initargs=(specs, x, y, folds)) as pool:
            futures = [[pool.submit(_run_folds, i, fold_ids) for fold_ids in units]
                       for i in range(budget)]
            for i, spec in enumerate(specs):
                try:  # in fold order: the lowest failing fold's error is raised
                    done = [future.result() for future in futures[i]]
                except Exception as exc:  # noqa: BLE001
                    failures.append((i, exc))
                    continue
                trials.append(_record(i, spec, [row for rows, _ in done for row in rows],
                                      sum(elapsed for _, elapsed in done)))

    if not trials:
        details = "; ".join(f"trial {i}: {exc}" for i, exc in failures)
        raise ConfigError(f"all {budget} search trials failed: {details}")
    best = max(trials, key=lambda t: (t.mean_auc, -t.index))
    return best, trials
