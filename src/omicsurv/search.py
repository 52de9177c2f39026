"""Seeded random hyperparameter search over declarative distributions.

Each trial's hyperparameters derive deterministically from (seed, trial
index), so results are identical for any worker count or scheduling order.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import evaluation, models
from .errors import ConfigError


@dataclass(frozen=True)
class Uniform:
    low: float
    high: float

    def sample(self, rng):
        return float(rng.uniform(self.low, self.high))


@dataclass(frozen=True)
class LogUniform:
    low: float
    high: float

    def __post_init__(self):
        if self.low <= 0 or self.high <= self.low:
            raise ConfigError("loguniform needs 0 < low < high")

    def sample(self, rng):
        return float(np.exp(rng.uniform(np.log(self.low), np.log(self.high))))


@dataclass(frozen=True)
class IntUniform:
    low: int
    high: int  # inclusive

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
        # a range is checked by its low bound, a categorical by each choice, each
        # together with the first example of every other parameter
        examples = {name: getattr(value, "choices", [getattr(value, "low", value)])
                    for name, value in self.params.items()}
        first = {name: values[0] for name, values in examples.items()}
        for name, values in examples.items():
            for example in values:
                models.read_params(self.family, {**first, name: example})

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
    rows: list[evaluation.EvalRow]  # one per cross-validation fold
    mean_auc: float
    wall_time: float


def _run_trial(space: SearchSpace, x, y, plan, seed: int, index: int) -> TrialRecord:
    start = time.perf_counter()
    spec = space.sample(seed, index)
    rows = evaluation.cross_validate(spec, (x, y), plan).rows
    return TrialRecord(
        index=index,
        params=dict(spec.hyperparameters),
        rows=rows,
        mean_auc=float(np.mean([row.auc for row in rows])),
        wall_time=time.perf_counter() - start,
    )


def random_search(space: SearchSpace, x, y, plan: evaluation.CvPlan,
                  budget: int, seed: int,
                  worker_count: int = 1) -> tuple[TrialRecord, list[TrialRecord]]:
    """Evaluate ``budget`` sampled configurations; return (best, all trials).

    The best trial maximizes mean fold AUC, ties broken by lower index.
    """
    if budget < 1:
        raise ConfigError("search budget must be >= 1")
    if worker_count < 1:
        raise ConfigError("worker_count must be >= 1")

    failures: list[tuple[int, Exception]] = []
    trials: list[TrialRecord] = []
    if worker_count == 1:
        for i in range(budget):
            try:
                trials.append(_run_trial(space, x, y, plan, seed, i))
            except Exception as exc:  # noqa: BLE001 - aggregated below
                failures.append((i, exc))
    else:
        # No more workers than trials. A budget-1 search still runs in a worker:
        # run here, its numpy and LAPACK pages would stay in this process's
        # resident set for the rest of the run and raise the run's peak.
        with ProcessPoolExecutor(max_workers=min(worker_count, budget)) as pool:
            futures = {
                i: pool.submit(_run_trial, space, x, y, plan, seed, i)
                for i in range(budget)
            }
            for i in range(budget):
                try:
                    trials.append(futures[i].result())
                except Exception as exc:  # noqa: BLE001
                    failures.append((i, exc))

    if not trials:
        details = "; ".join(f"trial {i}: {exc}" for i, exc in failures)
        raise ConfigError(f"all {budget} search trials failed: {details}")
    trials.sort(key=lambda t: t.index)
    best = max(trials, key=lambda t: (t.mean_auc, -t.index))
    return best, trials
