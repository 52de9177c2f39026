"""L1-regularized logistic regression by proximal coordinate descent.

Objective: mean logistic loss + lambda * ||w||_1 (intercept unpenalized).
Each coordinate step minimizes a separable quadratic majorizer built from the
0.25 curvature bound of the logistic loss, so the objective never increases
across sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class LogisticState:
    weights: np.ndarray
    intercept: float
    lam: float


def _sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def objective(state: LogisticState, x: np.ndarray, y: np.ndarray) -> float:
    z = x @ state.weights + state.intercept
    margins = np.where(y == 1, z, -z)
    loss = float(np.mean(np.logaddexp(0.0, -margins)))
    return loss + state.lam * float(np.sum(np.abs(state.weights)))


def _soft_threshold(v: float, thresh: float) -> float:
    if v > thresh:
        return v - thresh
    if v < -thresh:
        return v + thresh
    return 0.0


PARAMS = {"lambda": (float, 0.01), "max_sweeps": (int, 200), "tol": (float, 1e-8)}


def fit(x: np.ndarray, y: np.ndarray, params: dict, seed: int,
        sample_weight=None) -> LogisticState:
    lam = params["lambda"]

    n, m = x.shape
    w = np.zeros(m)
    b = 0.0
    z = np.zeros(n)
    lipschitz = np.maximum(0.25 * np.sum(x * x, axis=0) / n, 1e-12)
    yf = y.astype(np.float64)
    for _ in range(params["max_sweeps"]):
        max_change = 0.0
        for j in range(m):
            g = float(x[:, j] @ (_sigmoid(z) - yf)) / n
            w_new = _soft_threshold(w[j] - g / lipschitz[j], lam / lipschitz[j])
            if w_new != w[j]:
                z += x[:, j] * (w_new - w[j])
                max_change = max(max_change, abs(w_new - w[j]))
                w[j] = w_new
        gb = float(np.mean(_sigmoid(z) - yf))
        db = -gb / 0.25
        if db != 0.0:
            b += db
            z += db
            max_change = max(max_change, abs(db))
        if max_change < params["tol"]:
            break
    return LogisticState(weights=w, intercept=b, lam=lam)


def scores(state: LogisticState, x: np.ndarray) -> np.ndarray:
    """Linear logit."""
    return x @ state.weights + state.intercept


def threshold(state: LogisticState) -> float:
    return 0.0


def to_jsonable(state: LogisticState) -> dict:
    return {
        "weights": state.weights.tolist(),
        "intercept": state.intercept,
        "lambda": state.lam,
    }


def from_jsonable(d: dict) -> LogisticState:
    return LogisticState(weights=np.array(d["weights"]),
                         intercept=d["intercept"], lam=d["lambda"])
