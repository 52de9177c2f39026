"""Uniform model contract over the classifier/regressor suite.

Every family is trained through ``fit(spec, x, y)`` and scored through
``predict_scores`` where larger scores favor class 1. For ``mlp_regressor``
the targets are observed survival times and the predicted time is used
directly as the survival score.

``_TABLE`` maps each family to the module that implements it. Every such
module exposes ``fit(x, y, params, seed, sample_weight=None)``,
``scores(state, x)``, ``threshold(state)`` (the hard-label cut on the score
scale), ``to_jsonable(state)`` and ``from_jsonable(d)``. Only the MLPs use
``sample_weight``; the other families ignore it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .. import rpensemble
from ..errors import ConfigError, DataError
from . import forest, gaussian_nb, logistic, mlp, svm

# family -> (module, extra keyword arguments to its fit). Functions are looked up
# on the module at call time, so rebinding a module attribute reaches every call.
_TABLE = {
    "gaussian_nb": (gaussian_nb, {}),
    "svm_rbf": (svm, {}),
    "l1_logistic": (logistic, {}),
    "random_forest": (forest, {}),
    "rectangle_mlp": (mlp, {"task": "classify"}),
    "mlp_regressor": (mlp, {"task": "regress"}),
    "rp_ensemble": (rpensemble, {}),
}

FAMILIES = tuple(_TABLE)

MODEL_FORMAT_VERSION = 1


@dataclass(frozen=True)
class ModelSpec:
    family: str
    hyperparameters: dict = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ConfigError(
                f"unknown model family {self.family!r}; valid: {FAMILIES}"
            )


@dataclass
class TrainedModel:
    spec: ModelSpec
    n_features: int
    state: object


def _validate_training_data(x: np.ndarray, y: np.ndarray, classifier: bool):
    if len(x) != len(y):
        raise DataError(f"feature/target length mismatch: {len(x)} vs {len(y)}")
    if len(x) < 2:
        raise DataError("need at least 2 training samples")
    if not np.all(np.isfinite(x)):
        raise DataError("non-finite training features")
    if classifier and len(np.unique(y)) < 2:
        raise DataError("single-class training set")


def fit(spec: ModelSpec, x: np.ndarray, y: np.ndarray,
        sample_weight: np.ndarray | None = None) -> TrainedModel:
    """Train one model. ``y`` is binary for classifiers; for mlp_regressor it
    holds observed survival times and ``sample_weight`` may down-weight
    censored patients."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y)
    module, options = _TABLE[spec.family]
    _validate_training_data(x, y, classifier=options.get("task") != "regress")
    state = module.fit(x, y, spec.hyperparameters, spec.seed,
                       sample_weight=sample_weight, **options)
    return TrainedModel(spec=spec, n_features=x.shape[1], state=state)


def censor_weights(events: np.ndarray, censor_weight: float = 1.0) -> np.ndarray:
    """Per-sample weights for the time regressor: censored rows get
    ``censor_weight`` (default 1.0, i.e. no down-weighting)."""
    if not 0.0 <= censor_weight <= 1.0:
        raise ConfigError("censor_weight must lie in [0,1]")
    return np.where(np.asarray(events, dtype=bool), 1.0, censor_weight)


def predict_scores(model: TrainedModel, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.shape[1] != model.n_features:
        raise DataError(
            f"feature width {x.shape[1]} does not match training width "
            f"{model.n_features}"
        )
    return _TABLE[model.spec.family][0].scores(model.state, x)


def predict_labels(model: TrainedModel, x: np.ndarray) -> np.ndarray:
    """Hard 0/1 labels at the family's decision threshold."""
    threshold = _TABLE[model.spec.family][0].threshold(model.state)
    return (predict_scores(model, x) >= threshold).astype(np.int64)


def _flatten_params(state: mlp.MlpState) -> np.ndarray:
    parts = [w.ravel() for w in state.weights] + [b.ravel() for b in state.biases]
    return np.concatenate(parts)


def _write_params(state: mlp.MlpState, flat: np.ndarray) -> None:
    pos = 0
    for w in state.weights:
        w[...] = flat[pos:pos + w.size].reshape(w.shape)
        pos += w.size
    for b in state.biases:
        b[...] = flat[pos:pos + b.size].reshape(b.shape)
        pos += b.size


def gradient_check(spec: ModelSpec, x: np.ndarray, y: np.ndarray,
                   sample_weight: np.ndarray | None = None,
                   step: float = 1e-5) -> float:
    """Compare backprop gradients against central finite differences over
    every parameter; returns the max relative error."""
    module, options = _TABLE[spec.family]
    if module is not mlp:
        raise ConfigError("gradient_check applies to the MLP families only")
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if len(x) > 20 or x.shape[1] > 10:
        raise ConfigError("gradient_check expects <= 20 samples and <= 10 features")

    hp = spec.hyperparameters
    rng = np.random.default_rng(np.random.SeedSequence([spec.seed, 0]))
    weights, biases = mlp._init_params(
        x.shape[1], int(hp.get("width", 8)), int(hp.get("n_hidden_layers", 2)), rng
    )
    state = mlp.MlpState(weights=weights, biases=biases, task=options["task"])

    _, gw, gb = mlp.loss_and_gradients(state, x, y, sample_weight)
    analytic = np.concatenate([g.ravel() for g in gw] + [g.ravel() for g in gb])

    flat = _flatten_params(state)
    numeric = np.empty_like(flat)
    for i in range(len(flat)):
        orig = flat[i]
        flat[i] = orig + step
        _write_params(state, flat)
        up, _, _ = mlp.loss_and_gradients(state, x, y, sample_weight)
        flat[i] = orig - step
        _write_params(state, flat)
        down, _, _ = mlp.loss_and_gradients(state, x, y, sample_weight)
        flat[i] = orig
        numeric[i] = (up - down) / (2.0 * step)
    _write_params(state, flat)

    denom = np.maximum(np.abs(numeric), 1e-6)
    rel = np.abs(analytic - numeric) / denom
    return float(rel.max())


def to_jsonable(model: TrainedModel) -> dict:
    """Structured-text parameter dump; format documented in the README."""
    return {
        "format_version": MODEL_FORMAT_VERSION,
        "family": model.spec.family,
        "hyperparameters": model.spec.hyperparameters,
        "seed": model.spec.seed,
        "n_features": model.n_features,
        "state": _TABLE[model.spec.family][0].to_jsonable(model.state),
    }


def from_jsonable(payload: dict) -> TrainedModel:
    if payload.get("format_version") != MODEL_FORMAT_VERSION:
        raise DataError(f"unsupported model format {payload.get('format_version')}")
    spec = ModelSpec(family=payload["family"],
                     hyperparameters=payload["hyperparameters"],
                     seed=payload["seed"])
    state = _TABLE[spec.family][0].from_jsonable(payload["state"])
    return TrainedModel(spec=spec, n_features=payload["n_features"], state=state)


def save_model(model: TrainedModel, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(to_jsonable(model), fh)


def load_model(path) -> TrainedModel:
    with open(path, encoding="utf-8") as fh:
        return from_jsonable(json.load(fh))
