"""Fully-connected networks with equal-width tanh hidden layers.

One code path serves both the classifier (logistic loss on a single logit)
and the regressor (mean squared error against the ``y`` it is given: observed
survival times through the Python API, the 0/1 horizon labels in ``cv``,
``search`` and ``report``). tanh keeps the loss smooth so finite-difference
gradient checks are exact to first order everywhere.

Training computes no loss: a minibatch step needs only the gradient at the
output, so the loss lives in ``loss_and_gradients`` alone. ``fit_folds``,
``scores`` and ``loss_and_gradients`` share one forward and one backward
pass, which add the bias, take tanh and 1 - a^2, and scale the update by the
learning rate in place, with the same operations in the same order as on
fresh arrays. Both passes work on the trailing two axes, so they take one net
or a stack of G nets (weights (G, a, b), inputs (G, batch, a)).

``fit_folds`` trains one net per row subset of one table. The initial weights
depend only on the seed and the feature count, and the minibatch order only on
the seed and the subset's size, so subsets of equal size train together as one
stack: every step gathers its (G, batch, features) rows straight from the
table, and each net's matmuls have the shapes of a separate fit, which gives
each net the bits it would get alone. ``fit`` is its one-subset case.
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
    last = len(weights) - 1
    for i, (w, b) in enumerate(zip(weights, biases)):
        h = h @ w
        h += b[..., None, :]
        if i < last:
            np.tanh(h, out=h)
        acts.append(h)
    return acts


def _target(y: np.ndarray, task: str) -> np.ndarray:
    """What the output is fitted to: y in {-1, 1} for the classifier, y
    itself for the regressor."""
    return 2.0 * y - 1.0 if task == "classify" else y


def _output_grad(out: np.ndarray, target: np.ndarray, task: str) -> np.ndarray:
    """Gradient of the mean loss with respect to ``out``, the mean taken
    over the last axis."""
    n = target.shape[-1]
    if task == "classify":
        # -y_pm * sigmoid(-margin) / n, the margins clipped against overflow
        dout = target * out
        np.clip(dout, -500, 500, out=dout)
        np.exp(dout, out=dout)
        dout += 1.0
        np.divide(1.0, dout, out=dout)
        dout *= target
        dout /= -n
    else:
        dout = target - out
        dout *= -2.0
        dout /= n
    return dout


def _loss(out: np.ndarray, target: np.ndarray, task: str) -> float:
    if task == "classify":
        return float(np.mean(np.logaddexp(0.0, -(target * out))))
    return float(np.mean((target - out) ** 2))


def _backward(weights, acts, dout):
    """Backprop; returns (weight grads, bias grads) matching the param lists.
    Overwrites the hidden activations with 1 - a^2."""
    gw = [None] * len(weights)
    gb = [None] * len(weights)
    delta = dout[..., None]
    for i in range(len(weights) - 1, -1, -1):
        gw[i] = np.swapaxes(acts[i], -1, -2) @ delta
        gb[i] = delta.sum(axis=-2)
        if i > 0:
            slope = acts[i]
            np.square(slope, out=slope)
            np.subtract(1.0, slope, out=slope)
            delta = delta @ np.swapaxes(weights[i], -1, -2)
            delta *= slope
    return gw, gb


def loss_and_gradients(state: MlpState, x: np.ndarray, y: np.ndarray):
    acts = _forward(state.weights, state.biases, x)
    out = acts[-1][:, 0]
    target = _target(y, state.task)
    loss = _loss(out, target, state.task)
    gw, gb = _backward(state.weights, acts, _output_grad(out, target, state.task))
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
    return fit_folds(x, y, [np.arange(len(y))], params, seed, task)[0]


def fit_folds(x: np.ndarray, y: np.ndarray, train_sets: list, params: dict,
              seed: int, task: str = "classify") -> list[MlpState]:
    """One net per row subset ``x[rows], y[rows]`` of ``train_sets``, each
    the bits of a separate fit on that subset."""
    target = _target(y.astype(np.float64), task)
    by_size: dict[int, list[int]] = {}
    for i, rows in enumerate(train_sets):
        by_size.setdefault(len(rows), []).append(i)
    states = [None] * len(train_sets)
    for members in by_size.values():
        weights, biases = _train_stack(
            x, target, np.stack([train_sets[i] for i in members]), params, seed, task)
        for g, i in enumerate(members):
            states[i] = MlpState(weights=[w[g].copy() for w in weights],
                                 biases=[b[g].copy() for b in biases], task=task)
    return states


def _train_stack(x, target, rows, params, seed, task):
    """SGD of G nets together, net g on the rows ``rows[g]`` of ``x`` and
    ``target``; ``rows`` has shape (G, n)."""
    lr, batch_size = params["learning_rate"], params["batch_size"]
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0]))
    weights, biases = _init_params(x.shape[1], params["width"],
                                   params["n_hidden_layers"], rng)
    count = len(rows)
    weights = [np.repeat(w[None], count, axis=0) for w in weights]
    biases = [np.repeat(b[None], count, axis=0) for b in biases]

    n = rows.shape[1]
    shuffle_rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
    for _ in range(params["epochs"]):
        order = shuffle_rng.permutation(n)
        for start in range(0, n, batch_size):
            idx = rows[:, order[start:start + batch_size]]
            acts = _forward(weights, biases, x[idx])
            dout = _output_grad(acts[-1][..., 0], target[idx], task)
            gw, gb = _backward(weights, acts, dout)
            for w, b, dw, db in zip(weights, biases, gw, gb):
                dw *= lr
                w -= dw
                db *= lr
                b -= db
    return weights, biases


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
