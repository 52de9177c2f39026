"""AUC computation and stratified cross-validation.

AUC is defined by pair counting (the Mann-Whitney statistic, with ties worth
half a pair), computed via average ranks; the tests cross-check it against
trapezoidal integration of the ROC curve, which must agree to 1e-12.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import dataio, models
from .errors import ConfigError, DataError
from .ranks import average_ranks


@dataclass(frozen=True)
class CvPlan:
    k_folds: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.k_folds < 2:
            raise ConfigError("k_folds must be >= 2")


@dataclass(frozen=True)
class EvalRow:
    model: str
    data: str
    fold: int
    auc: float
    n_test: int


@dataclass
class EvalReport:
    rows: list[EvalRow] = field(default_factory=list)

    def aggregates(self) -> dict[tuple[str, str], tuple[float, float]]:
        """(model, data) -> (mean AUC, std AUC over folds)."""
        grouped: dict[tuple[str, str], list[float]] = {}
        for row in self.rows:
            grouped.setdefault((row.model, row.data), []).append(row.auc)
        return {
            key: (float(np.mean(v)), float(np.std(v)))
            for key, v in grouped.items()
        }

    def to_csv(self, path) -> None:
        rows = [[r.model, r.data, r.fold, r.auc, r.n_test] for r in self.rows]
        rows += [[], ["model", "data", "mean_auc", "std_auc", ""]]
        rows += [[model, data, mean, std, ""]
                 for (model, data), (mean, std) in sorted(self.aggregates().items())]
        dataio.save_rows(path, ["model", "data", "fold", "auc", "n_test"], rows)


def _class_counts(labels: np.ndarray) -> tuple[int, int]:
    """(positives, negatives) of 0/1 labels with both classes present."""
    n_pos = int(np.count_nonzero(labels == 1))
    n_neg = int(np.count_nonzero(labels == 0))
    if n_pos + n_neg != len(labels):
        raise DataError("labels must be 0 or 1")
    if n_pos == 0 or n_neg == 0:
        raise DataError("both classes must be present")
    return n_pos, n_neg


def _finite_scores(scores) -> np.ndarray:
    scores = np.asarray(scores, dtype=np.float64)
    bad = np.count_nonzero(~np.isfinite(scores))
    if bad:
        raise DataError(f"scores must be finite, got {bad} non-finite of {len(scores)}")
    return scores


def auc(scores, labels) -> float:
    """Mann-Whitney AUC: P(score_pos > score_neg) + 0.5 * P(tie)."""
    scores = _finite_scores(scores)
    labels = np.asarray(labels, dtype=np.int64)
    if len(scores) != len(labels):
        raise DataError("scores and labels must have equal length")
    n_pos, n_neg = _class_counts(labels)
    ranks = average_ranks(scores) + 1.0
    pos_rank_sum = float(ranks[labels == 1].sum())
    return (pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def stratified_kfold(labels, plan: CvPlan) -> list[np.ndarray]:
    """Disjoint index folds covering all samples; per-fold class counts are
    within 1 of proportional allocation. Deterministic given the seed."""
    labels = np.asarray(labels, dtype=np.int64)
    counts = np.bincount(labels, minlength=2)
    # checked before the folds are allocated: k_folds may be huge
    if counts.min() < plan.k_folds:
        raise DataError(
            f"k_folds={plan.k_folds} exceeds minority class count {counts.min()}"
        )
    groups = [np.flatnonzero(labels == cls) for cls in range(len(counts))]
    rng = np.random.default_rng(np.random.SeedSequence([plan.seed, 7]))
    folds: list[list[int]] = [[] for _ in range(plan.k_folds)]
    for group in groups:
        for pos, sample in enumerate(rng.permutation(group)):
            folds[pos % plan.k_folds].append(int(sample))
    return [np.sort(np.array(f, dtype=np.int64)) for f in folds]


def cross_validate(spec: models.ModelSpec, data: tuple, plan: CvPlan,
                   data_descriptor: str = "data",
                   folds: list[np.ndarray] | None = None,
                   fold_ids=None) -> EvalReport:
    """For each fold f of ``fold_ids`` (a sequence, every fold when not
    given), in order, fit ``spec`` on every sample outside ``folds[f]`` and
    score the AUC of its predictions on ``folds[f]``; rows are named by the
    spec's family.

    ``data`` is an ``(x, y)`` pair. Any transductive preprocessing (t-SNE) is
    assumed already applied to the features. ``folds`` are the test indices
    of each fold, ``stratified_kfold(y, plan)`` when not given.

    The fits go through ``models.fit_folds``, which hands out each fold's
    model, or raises its fit error, in fold order. Each fold is scored before
    the next is asked for, so the error raised is that of the lowest failing
    fold, in its fit or its scoring, whether or not the family fits its folds
    together.
    """
    x, y = data
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if folds is None:
        folds = stratified_kfold(y, plan)
    if fold_ids is None:
        fold_ids = range(len(folds))
    train_sets = []
    for f in fold_ids:
        train = np.ones(len(y), dtype=bool)
        train[folds[f]] = False
        train_sets.append(np.flatnonzero(train))
    report = EvalReport()
    for f, model in zip(fold_ids, models.fit_folds(spec, x, y, train_sets)):
        test_idx = folds[f]
        scores = models.predict_scores(model, x[test_idx])
        report.rows.append(EvalRow(model=spec.family, data=data_descriptor, fold=f,
                                   auc=auc(scores, y[test_idx]), n_test=len(test_idx)))
    return report
