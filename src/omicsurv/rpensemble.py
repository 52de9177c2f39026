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

Feature importance sums, over the selected projections, each feature's
squared projection weights scaled by its training variance (so constant and
all-zero columns get exactly zero importance), normalized to sum to 1.

The module is the ``rp_ensemble`` family of ``omicsurv.models``. It uses
``models`` only at call time, so their import cycle resolves in either order.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from . import models
from .errors import ConfigError, DataError


@dataclass(frozen=True)
class RpConfig:
    b1_groups: int = 100
    b2_per_group: int = 20
    projected_dim: int = 5
    base_family: str = "gaussian_nb"
    base_hyperparameters: dict = field(default_factory=dict)
    vote_threshold_alpha: float | None = None
    selection_holdout_fraction: float = 0.2
    seed: int = 0

    def __post_init__(self):
        if self.b1_groups < 1 or self.b2_per_group < 1:
            raise ConfigError("b1_groups and b2_per_group must be >= 1")
        if self.projected_dim < 1:
            raise ConfigError("projected_dim must be >= 1")
        if self.base_family == "rp_ensemble":
            raise ConfigError("rp_ensemble cannot be its own base family")
        models.check_family(self.base_family)
        models.read_params(self.base_family, self.base_hyperparameters)
        if self.vote_threshold_alpha is not None and not (
            0.0 < self.vote_threshold_alpha < 1.0
        ):
            raise ConfigError("vote_threshold_alpha must lie in (0,1)")
        if not 0.0 < self.selection_holdout_fraction < 1.0:
            raise ConfigError("selection_holdout_fraction must lie in (0,1)")


@dataclass
class RpModel:
    config: RpConfig
    projections: list[np.ndarray]       # B1 matrices, each d x M
    base_models: list[models.TrainedModel]
    alpha: float
    feature_importance: np.ndarray      # length M, sums to 1
    # holdout errors per group, shape (B1, B2); selected index per group
    group_errors: np.ndarray = None
    selected_indices: np.ndarray = None


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


def sample_projection(m: int, d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed d x m matrix with orthonormal rows."""
    return sample_projections(m, d, [rng])[0]


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


def train(x: np.ndarray, y: np.ndarray, config: RpConfig) -> RpModel:
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    m = x.shape[1]
    if config.projected_dim > m:
        raise ConfigError("projected_dim must not exceed the feature count")
    if len(np.unique(y)) < 2:
        raise DataError("both classes must be present")

    split_rng = np.random.default_rng(np.random.SeedSequence([config.seed, 999]))
    train_idx, hold_idx = _stratified_holdout(
        y, config.selection_holdout_fraction, split_rng
    )
    x_tr, y_tr = x[train_idx], y[train_idx]
    x_ho, y_ho = x[hold_idx], y[hold_idx]

    base_spec = models.ModelSpec(
        family=config.base_family,
        hyperparameters=config.base_hyperparameters,
        seed=config.seed,
    )

    errors = np.empty((config.b1_groups, config.b2_per_group))
    selected = np.empty(config.b1_groups, dtype=np.int64)
    projections: list[np.ndarray] = []
    for g in range(config.b1_groups):
        stack = sample_projections(m, config.projected_dim, [
            np.random.default_rng(np.random.SeedSequence([config.seed, g, b]))
            for b in range(config.b2_per_group)
        ])
        errors[g] = models.holdout_errors(
            base_spec,
            np.matmul(x_tr, stack.transpose(0, 2, 1)), y_tr,
            np.matmul(x_ho, stack.transpose(0, 2, 1)), y_ho,
        )
        selected[g] = np.argmin(errors[g])
        # a copy in the drawn layout, so the group's stack is not kept alive
        projections.append(np.copy(stack[selected[g]], order="K"))

    base_models = [
        models.fit(base_spec, x @ proj.T, y) for proj in projections
    ]

    votes = _vote_matrix(base_models, projections, x)
    score = votes.mean(axis=0)
    if config.vote_threshold_alpha is not None:
        alpha = config.vote_threshold_alpha
    else:
        grid = np.arange(config.b1_groups + 1) / config.b1_groups
        errs = [float(np.mean((score >= a).astype(np.int64) != y)) for a in grid]
        alpha = float(grid[int(np.argmin(errs))])

    var = x.var(axis=0)
    raw = np.zeros(m)
    for proj in projections:
        raw += np.sum(proj ** 2, axis=0) * var
    total = raw.sum()
    importance = raw / total if total > 0 else np.full(m, 1.0 / m)

    return RpModel(
        config=config,
        projections=projections,
        base_models=base_models,
        alpha=alpha,
        feature_importance=importance,
        group_errors=errors,
        selected_indices=selected,
    )


def _vote_matrix(base_models, projections, x) -> np.ndarray:
    votes = np.empty((len(base_models), len(x)), dtype=np.int64)
    for i, (fitted, proj) in enumerate(zip(base_models, projections)):
        votes[i] = models.predict_labels(fitted, x @ proj.T)
    return votes


def predict_scores(model: RpModel, x: np.ndarray) -> np.ndarray:
    """Fraction of the B1 selected base models voting class 1."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[1] != model.projections[0].shape[1]:
        raise DataError(
            f"feature width {x.shape[1]} does not match training width "
            f"{model.projections[0].shape[1]}"
        )
    return _vote_matrix(model.base_models, model.projections, x).mean(axis=0)


# RpConfig's fields but seed, same defaults; alpha None is learned in train
PARAMS = {"b1_groups": (int, 100), "b2_per_group": (int, 20),
          "projected_dim": (int, 5), "base_family": (str, "gaussian_nb"),
          "base_hyperparameters": (dict, {}), "vote_threshold_alpha": (float, None),
          "selection_holdout_fraction": (float, 0.2)}


def check_params(params: dict) -> None:
    """Reject what ``RpConfig`` rejects, the base family's checks included."""
    RpConfig(**params)


def fit(x: np.ndarray, y: np.ndarray, params: dict, seed: int) -> RpModel:
    return train(x, y, RpConfig(seed=seed, **params))


def scores(model: RpModel, x: np.ndarray) -> np.ndarray:
    return predict_scores(model, x)


def threshold(model: RpModel) -> float:
    return model.alpha


def to_jsonable(model: RpModel) -> dict:
    return {
        "config": asdict(model.config),
        "projections": [p.tolist() for p in model.projections],
        "base_models": [models.to_jsonable(m) for m in model.base_models],
        "alpha": model.alpha,
        "feature_importance": model.feature_importance.tolist(),
        "group_errors": model.group_errors.tolist(),
        "selected_indices": model.selected_indices.tolist(),
    }


def from_jsonable(d: dict) -> RpModel:
    return RpModel(
        config=RpConfig(**d["config"]),
        projections=[np.array(p) for p in d["projections"]],
        base_models=[models.from_jsonable(m) for m in d["base_models"]],
        alpha=d["alpha"],
        feature_importance=np.array(d["feature_importance"]),
        group_errors=np.array(d["group_errors"]),
        selected_indices=np.array(d["selected_indices"], dtype=np.int64),
    )
