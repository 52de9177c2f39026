"""Fully-connected networks with equal-width tanh hidden layers.

One code path serves both the classifier (logistic loss on a single logit)
and the regressor (mean squared error against the ``y`` it is given: observed
survival times through the Python API, the 0/1 horizon labels in ``cv``,
``search`` and ``report``). tanh keeps the loss smooth so finite-difference
gradient checks are exact to first order everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError


@dataclass
class MlpState:
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    task: str  # "classify" or "regress"


def _init_params(n_in: int, width: int, n_hidden: int,
                 rng: np.random.Generator) -> tuple[list, list]:
    sizes = [n_in] + [width] * n_hidden + [1]
    weights, biases = [], []
    for a, b in zip(sizes[:-1], sizes[1:]):
        weights.append(rng.standard_normal((a, b)) / np.sqrt(a))
        biases.append(np.zeros(b))
    return weights, biases


def _forward(weights, biases, x):
    """Returns the list of layer activations; last entry is the raw output."""
    acts = [x]
    h = x
    for i, (w, b) in enumerate(zip(weights, biases)):
        z = h @ w + b
        h = z if i == len(weights) - 1 else np.tanh(z)
        acts.append(h)
    return acts


def _loss_and_output_grad(out: np.ndarray, y: np.ndarray, task: str):
    n = len(y)
    if task == "classify":
        y_pm = 2.0 * y - 1.0
        margins = y_pm * out
        loss = float(np.mean(np.logaddexp(0.0, -margins)))
        sig = 1.0 / (1.0 + np.exp(np.clip(margins, -500, 500)))
        dout = -(y_pm * sig) / n
    else:
        resid = y - out
        loss = float(np.mean(resid ** 2))
        dout = -2.0 * resid / n
    return loss, dout


def _backward(weights, acts, dout):
    """Backprop; returns (weight grads, bias grads) matching the param lists."""
    gw = [None] * len(weights)
    gb = [None] * len(weights)
    delta = dout[:, None] if dout.ndim == 1 else dout
    for i in range(len(weights) - 1, -1, -1):
        gw[i] = acts[i].T @ delta
        gb[i] = delta.sum(axis=0)
        if i > 0:
            delta = (delta @ weights[i].T) * (1.0 - acts[i] ** 2)
    return gw, gb


def loss_and_gradients(state: MlpState, x: np.ndarray, y: np.ndarray):
    acts = _forward(state.weights, state.biases, x)
    out = acts[-1][:, 0]
    loss, dout = _loss_and_output_grad(out, y, state.task)
    gw, gb = _backward(state.weights, acts, dout)
    return loss, gw, gb


PARAMS = {"n_hidden_layers": (int, 2), "width": (int, 32), "epochs": (int, 200),
          "learning_rate": (float, 0.01), "batch_size": (int, 32)}


def check_params(params: dict) -> None:
    for key, low in (("n_hidden_layers", 0), ("width", 1), ("epochs", 1),
                     ("batch_size", 1)):
        if params[key] < low:
            raise ConfigError(f"{key} must be >= {low}, got {params[key]}")
    if not params["learning_rate"] > 0:
        raise ConfigError(
            f"learning_rate must be > 0, got {params['learning_rate']}")


def fit(x: np.ndarray, y: np.ndarray, params: dict, seed: int,
        task: str = "classify") -> MlpState:
    lr, batch_size = params["learning_rate"], params["batch_size"]
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0]))
    weights, biases = _init_params(x.shape[1], params["width"],
                                   params["n_hidden_layers"], rng)
    state = MlpState(weights=weights, biases=biases, task=task)
    yf = y.astype(np.float64)

    n = len(y)
    shuffle_rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
    for _ in range(params["epochs"]):
        order = shuffle_rng.permutation(n)
        for start in range(0, n, batch_size):
            idx = order[start:start + batch_size]
            _, gw, gb = loss_and_gradients(state, x[idx], yf[idx])
            for w, b, dw, db in zip(state.weights, state.biases, gw, gb):
                w -= lr * dw
                b -= lr * db
    return state


def scores(state: MlpState, x: np.ndarray) -> np.ndarray:
    """Classifier: output logit. Regressor: predicted survival time."""
    return _forward(state.weights, state.biases, x)[-1][:, 0]


def threshold(state: MlpState) -> float:
    if state.task == "regress":
        raise ConfigError("the time regressor has no hard-label threshold")
    return 0.0


def to_jsonable(state: MlpState) -> dict:
    return {
        "weights": [w.tolist() for w in state.weights],
        "biases": [b.tolist() for b in state.biases],
        "task": state.task,
    }


def from_jsonable(d: dict) -> MlpState:
    return MlpState(
        weights=[np.array(w) for w in d["weights"]],
        biases=[np.array(b) for b in d["biases"]],
        task=d["task"],
    )
