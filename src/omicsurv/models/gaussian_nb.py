"""Gaussian naive Bayes with per-feature variances floored at 1e-9.

``fit`` and ``scores`` work over the trailing two axes (samples, features), so
the same formulas fit one (n, d) table or a stack of B such tables at once;
``holdout_errors`` uses that to score a whole stack in one pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

VAR_FLOOR = 1e-9


@dataclass
class GnbState:
    mean0: np.ndarray
    mean1: np.ndarray
    var0: np.ndarray
    var1: np.ndarray
    log_prior0: float
    log_prior1: float


STATE = GnbState
PARAMS = {}


def fit(x: np.ndarray, y: np.ndarray, params: dict, seed: int) -> GnbState:
    x0, x1 = x[..., y == 0, :], x[..., y == 1, :]
    n, n0, n1 = x.shape[-2], x0.shape[-2], x1.shape[-2]
    return GnbState(
        mean0=x0.mean(axis=-2),
        mean1=x1.mean(axis=-2),
        var0=np.maximum(x0.var(axis=-2), VAR_FLOOR),
        var1=np.maximum(x1.var(axis=-2), VAR_FLOOR),
        log_prior0=float(np.log(n0 / n)),
        log_prior1=float(np.log(n1 / n)),
    )


def _class_loglik(x, mean, var):
    mean, var = mean[..., None, :], var[..., None, :]
    return -0.5 * np.sum(np.log(2.0 * np.pi * var) + (x - mean) ** 2 / var, axis=-1)


def scores(state: GnbState, x: np.ndarray) -> np.ndarray:
    """Log-posterior difference, positive favors class 1."""
    ll1 = _class_loglik(x, state.mean1, state.var1) + state.log_prior1
    ll0 = _class_loglik(x, state.mean0, state.var0) + state.log_prior0
    return ll1 - ll0


def threshold(state: GnbState) -> float:
    return 0.0


def holdout_errors(z_tr: np.ndarray, y_tr: np.ndarray, z_ho: np.ndarray,
                   y_ho: np.ndarray, params: dict) -> np.ndarray:
    """Holdout misclassification rate of each slice's fit, shape (B,)."""
    state = fit(z_tr, y_tr, params, seed=0)
    return np.mean((scores(state, z_ho) >= threshold(state)) != y_ho, axis=-1)

