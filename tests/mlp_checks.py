"""MLP checks used only by the tests: backprop against finite differences,
and the training loss after each epoch."""

import numpy as np

from omicsurv import models
from omicsurv.errors import ConfigError
from omicsurv.models import mlp


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


def gradient_check(spec: models.ModelSpec, x: np.ndarray, y: np.ndarray,
                   step: float = 1e-5) -> float:
    """Compare backprop gradients against central finite differences over
    every parameter; returns the max relative error."""
    module, options = models._TABLE[spec.family]
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

    _, gw, gb = mlp.loss_and_gradients(state, x, y)
    analytic = np.concatenate([g.ravel() for g in gw] + [g.ravel() for g in gb])

    flat = _flatten_params(state)
    numeric = np.empty_like(flat)
    for i in range(len(flat)):
        orig = flat[i]
        flat[i] = orig + step
        _write_params(state, flat)
        up, _, _ = mlp.loss_and_gradients(state, x, y)
        flat[i] = orig - step
        _write_params(state, flat)
        down, _, _ = mlp.loss_and_gradients(state, x, y)
        flat[i] = orig
        numeric[i] = (up - down) / (2.0 * step)
    _write_params(state, flat)

    denom = np.maximum(np.abs(numeric), 1e-6)
    rel = np.abs(analytic - numeric) / denom
    return float(rel.max())


def epoch_losses(x, y, params, seed, task="classify", epochs=10):
    """Full-data loss after each of the first epochs."""
    losses = []
    p = models.read_params("rectangle_mlp", params)  # both MLPs share one table
    for e in range(1, epochs + 1):
        p["epochs"] = e
        state = mlp.fit(x, y, p, seed, task=task)
        loss, _, _ = mlp.loss_and_gradients(state, x, y.astype(np.float64))
        losses.append(loss)
    return losses
