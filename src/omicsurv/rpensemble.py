"""Random-projection ensemble classifier.

For each of B1 groups, B2 Haar-distributed row-orthonormal projections are
drawn; the base classifier is fit on the projected training split and the
projection with the lowest holdout misclassification wins its group. The
winners are refit on the full data and vote; the score is the fraction of
groups voting class 1 and the hard label thresholds that fraction at alpha.

Each group is drawn and scored as one stack: its B2 projections come from one
batched QR, the data is projected by one stacked matmul, and
``models.holdout_errors`` fits and scores all B2 base classifiers together
(one pass for a family with a ``holdout_errors`` hook, such as gaussian_nb).
Only one group's stack is held at a time.

``fit_folds`` trains one ensemble per row subset of one table, as
cross-validation does: the draws depend only on (seed, group, projection), so
each group is drawn once for all subsets. Each subset then gets its own inner
holdout split, group errors, selection, base-model fit and votes. It projects
its own rows: BLAS may round a row's projection differently with the row count
(matrix-vector products at projected_dim 1, small-matrix GEMM kernels), so a
slice of one all-rows product would not give the bits of a separate fit. The
selected slice, projected once, serves both the base-model fit and its vote.
``train`` is the one-subset case.

Feature importance sums, over the selected projections, each feature's
squared projection weights scaled by its training variance (so constant and
all-zero columns get exactly zero importance), normalized to sum to 1.

The module is the ``rp_ensemble`` family of ``omicsurv.models``, whose
``fit`` and ``predict_scores`` check the data and feature width before
``train`` and ``predict_scores`` here run. It uses ``models`` only at call
time, so their import cycle resolves in either order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import models
from .errors import ConfigError, DataError

# alpha None is learned in train
PARAMS = {"b1_groups": (int, 100), "b2_per_group": (int, 20),
          "projected_dim": (int, 5), "base_family": (str, "gaussian_nb"),
          "base_hyperparameters": (dict, {}), "vote_threshold_alpha": (float, None),
          "selection_holdout_fraction": (float, 0.2)}


def check_params(params: dict) -> None:
    """Range checks on a typed ``PARAMS`` dict, the base family's included."""
    if params["b1_groups"] < 1 or params["b2_per_group"] < 1:
        raise ConfigError("b1_groups and b2_per_group must be >= 1")
    if params["projected_dim"] < 1:
        raise ConfigError("projected_dim must be >= 1")
    if params["base_family"] == "rp_ensemble":
        raise ConfigError("rp_ensemble cannot be its own base family")
    models.check_family(params["base_family"])
    if not models.is_classifier(params["base_family"]):
        raise ConfigError(f"base family {params['base_family']!r} has no "
                          "hard-label threshold to vote with")
    models.read_params(params["base_family"], params["base_hyperparameters"])
    alpha = params["vote_threshold_alpha"]
    if alpha is not None and not 0.0 < alpha < 1.0:
        raise ConfigError("vote_threshold_alpha must lie in (0,1)")
    if not 0.0 < params["selection_holdout_fraction"] < 1.0:
        raise ConfigError("selection_holdout_fraction must lie in (0,1)")


def width_limit(params: dict) -> int:
    """The fewest feature columns a fit with ``params`` needs: one per
    projected dimension."""
    return params["projected_dim"]


@dataclass
class RpModel:
    params: dict
    seed: int
    projections: list[np.ndarray]       # B1 matrices, each d x M
    base_models: list[models.TrainedModel]
    alpha: float
    feature_importance: np.ndarray      # length M, sums to 1
    # holdout errors per group, shape (B1, B2); selected index per group
    group_errors: np.ndarray
    selected_indices: np.ndarray


def sample_projections(m: int, d: int, rngs) -> np.ndarray:
    """Stack (B, d, m) of Haar-distributed matrices with orthonormal rows,
    slice b drawn from ``rngs[b]``. A rank-deficient draw is redrawn from its
    own generator, up to 8 draws in all."""
    if d > m:
        raise ConfigError(f"projected dim {d} exceeds ambient dim {m}")
    q, r = np.linalg.qr(np.stack([rng.standard_normal((m, d)) for rng in rngs]))
    diag = np.diagonal(r, axis1=1, axis2=2)  # a view, so it follows redraws
    for attempt in range(8):
        bad = np.flatnonzero(np.min(np.abs(diag), axis=1) < 1e-12)
        if not len(bad):
            return (q * np.sign(diag)[:, None, :]).transpose(0, 2, 1)
        if attempt == 7:
            raise DataError("failed to draw a full-rank projection in 8 attempts")
        for b in bad:
            q[b], r[b] = np.linalg.qr(rngs[b].standard_normal((m, d)))


def _stratified_holdout(y: np.ndarray, fraction: float,
                        rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    train_idx, hold_idx = [], []
    for cls in (0, 1):
        cls_idx = np.flatnonzero(y == cls)
        perm = rng.permutation(cls_idx)
        n_hold = max(1, int(round(fraction * len(cls_idx))))
        if n_hold >= len(cls_idx):
            raise DataError("holdout split leaves a single-class training set")
        hold_idx.extend(perm[:n_hold])
        train_idx.extend(perm[n_hold:])
    return np.sort(np.array(train_idx)), np.sort(np.array(hold_idx))


@dataclass
class _Subset:
    """One training subset's part of a joint fit: its rows of x, the rows its
    groups are fitted and scored on, and what its groups have chosen."""
    rows: np.ndarray
    train: np.ndarray
    hold: np.ndarray
    errors: np.ndarray
    selected: np.ndarray
    votes: np.ndarray
    projections: list = field(default_factory=list)
    base_models: list = field(default_factory=list)


def train(x: np.ndarray, y: np.ndarray, params: dict, seed: int) -> RpModel:
    (model,) = fit_folds(x, y, [np.arange(len(y))], params, seed)
    if isinstance(model, Exception):
        raise model
    return model


def fit_folds(x: np.ndarray, y: np.ndarray, train_sets: list, params: dict,
              seed: int) -> list:
    """One ensemble per row subset ``x[rows], y[rows]`` of ``train_sets``, each
    the bits of a separate ``train`` on that subset. A subset whose fit fails
    drops out with every later one, and the list ends with the exception of
    the lowest failing subset. An error that every subset would meet, such as
    a failed draw, is raised."""
    b1, b2, dim = params["b1_groups"], params["b2_per_group"], params["projected_dim"]
    m = x.shape[1]
    if dim > m:
        raise ConfigError("projected_dim must not exceed the feature count")
    base_spec = models.ModelSpec(
        family=params["base_family"],
        hyperparameters=params["base_hyperparameters"],
        seed=seed,
    )

    subsets: list[_Subset] = []
    failure = None
    for rows in train_sets:
        split_rng = np.random.default_rng(np.random.SeedSequence([seed, 999]))
        try:
            train_idx, hold_idx = _stratified_holdout(
                y[rows], params["selection_holdout_fraction"], split_rng)
        except Exception as exc:  # noqa: BLE001 - returned in its place
            failure = exc
            break
        subsets.append(_Subset(rows=rows, train=rows[train_idx], hold=rows[hold_idx],
                               errors=np.empty((b1, b2)),
                               selected=np.empty(b1, dtype=np.int64),
                               votes=np.empty((b1, len(rows)), dtype=np.int64)))

    for g in range(b1):
        if not subsets:
            break
        stack = sample_projections(m, dim, [
            np.random.default_rng(np.random.SeedSequence([seed, g, b]))
            for b in range(b2)
        ])
        for i, sub in enumerate(subsets):
            try:
                _fit_group(sub, g, stack, x, y, base_spec)
            except Exception as exc:  # noqa: BLE001 - returned in its place
                failure = exc
                del subsets[i:]
                break
    fitted = [_ensemble(sub, x, y, params, seed) for sub in subsets]
    return fitted if failure is None else fitted + [failure]


def _fit_group(sub: _Subset, g: int, stack: np.ndarray, x, y, base_spec) -> None:
    """Score group ``g``'s projections on the subset's holdout split, and fit
    and vote the one with the lowest error (the first, on ties)."""
    sub.errors[g] = models.holdout_errors(
        base_spec,
        np.matmul(x[sub.train], stack.transpose(0, 2, 1)), y[sub.train],
        np.matmul(x[sub.hold], stack.transpose(0, 2, 1)), y[sub.hold],
    )
    sub.selected[g] = np.argmin(sub.errors[g])
    # a copy in the drawn layout, so the group's stack is not kept alive
    proj = np.copy(stack[sub.selected[g]], order="K")
    z = x[sub.rows] @ proj.T
    fitted = models.fit(base_spec, z, y[sub.rows])
    sub.votes[g] = models.predict_labels(fitted, z)
    sub.projections.append(proj)
    sub.base_models.append(fitted)


def _ensemble(sub: _Subset, x, y, params: dict, seed: int) -> RpModel:
    """The subset's model: its vote threshold and feature importance."""
    b1, y_sub = params["b1_groups"], y[sub.rows]
    score = sub.votes.mean(axis=0)
    if params["vote_threshold_alpha"] is not None:
        alpha = params["vote_threshold_alpha"]
    else:
        grid = np.arange(b1 + 1) / b1
        errs = [float(np.mean((score >= a).astype(np.int64) != y_sub)) for a in grid]
        alpha = float(grid[int(np.argmin(errs))])

    m = x.shape[1]
    var = x[sub.rows].var(axis=0)
    raw = np.zeros(m)
    for proj in sub.projections:
        raw += np.sum(proj ** 2, axis=0) * var
    total = raw.sum()
    importance = raw / total if total > 0 else np.full(m, 1.0 / m)

    return RpModel(
        params=params,
        seed=seed,
        projections=sub.projections,
        base_models=sub.base_models,
        alpha=alpha,
        feature_importance=importance,
        group_errors=sub.errors,
        selected_indices=sub.selected,
    )


def _vote_matrix(base_models, projections, x) -> np.ndarray:
    votes = np.empty((len(base_models), len(x)), dtype=np.int64)
    for i, (fitted, proj) in enumerate(zip(base_models, projections)):
        votes[i] = models.predict_labels(fitted, x @ proj.T)
    return votes


def predict_scores(model: RpModel, x: np.ndarray) -> np.ndarray:
    """Fraction of the B1 selected base models voting class 1."""
    return _vote_matrix(model.base_models, model.projections, x).mean(axis=0)


# the same function objects, so a tracer rebinding train reaches fit too
fit = train
scores = predict_scores


def threshold(model: RpModel) -> float:
    return model.alpha


def to_jsonable(model: RpModel) -> dict:
    return {
        "config": {**model.params, "seed": model.seed},
        "projections": [p.tolist() for p in model.projections],
        "base_models": [models.to_jsonable(m) for m in model.base_models],
        "alpha": model.alpha,
        "feature_importance": model.feature_importance.tolist(),
        "group_errors": model.group_errors.tolist(),
        "selected_indices": model.selected_indices.tolist(),
    }


def from_jsonable(d: dict) -> RpModel:
    return RpModel(
        params={k: v for k, v in d["config"].items() if k != "seed"},
        seed=d["config"]["seed"],
        projections=[np.array(p) for p in d["projections"]],
        base_models=[models.from_jsonable(m) for m in d["base_models"]],
        alpha=d["alpha"],
        feature_importance=np.array(d["feature_importance"]),
        group_errors=np.array(d["group_errors"]),
        selected_indices=np.array(d["selected_indices"], dtype=np.int64),
    )
