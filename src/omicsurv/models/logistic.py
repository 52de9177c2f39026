"""L1-regularized logistic regression by proximal coordinate descent.

Objective: mean logistic loss + lambda * ||w||_1 (intercept unpenalized).
Each coordinate step minimizes a separable quadratic majorizer built from the
0.25 curvature bound of the logistic loss, so the objective never increases
across sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError


@dataclass
class LogisticState:
    weights: np.ndarray
    intercept: float
    lam: float
    # solver diagnostics, not serialized: the sweeps run, and whether the
    # largest step of the last one fell below tol (False: stopped at max_sweeps)
    sweeps: int
    converged: bool


def _sigmoid(z):
    # exp of -|z| never overflows; 1/(1+e^-z) for z >= 0, e^z/(1+e^z) below
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


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


def check_params(params: dict) -> None:
    if not params["lambda"] >= 0:
        raise ConfigError(f"lambda must be >= 0, got {params['lambda']}")
    if params["max_sweeps"] < 1:
        raise ConfigError(f"max_sweeps must be >= 1, got {params['max_sweeps']}")
    if not params["tol"] >= 0:
        raise ConfigError(f"tol must be >= 0, got {params['tol']}")


def fit(x: np.ndarray, y: np.ndarray, params: dict, seed: int) -> LogisticState:
    lam = params["lambda"]

    n, m = x.shape
    # Python floats and precomputed column views keep the per-coordinate cost
    # low; the residual sigmoid(z) - y is recomputed only after z moves
    columns = list(x.T)
    w = [0.0] * m
    b = 0.0
    z = np.zeros(n)
    lipschitz = np.maximum(0.25 * np.sum(x * x, axis=0) / n, 1e-12).tolist()
    yf = y.astype(np.float64)
    residual = _sigmoid(z) - yf
    sweeps, converged = 0, False
    while sweeps < params["max_sweeps"] and not converged:
        sweeps += 1
        max_change = 0.0
        for j, col in enumerate(columns):
            g = float(col @ residual) / n
            w_new = _soft_threshold(w[j] - g / lipschitz[j], lam / lipschitz[j])
            if w_new != w[j]:
                z += col * (w_new - w[j])
                residual = _sigmoid(z) - yf
                max_change = max(max_change, abs(w_new - w[j]))
                w[j] = w_new
        gb = float(np.mean(residual))
        db = -gb / 0.25
        if db != 0.0:
            b += db
            z += db
            residual = _sigmoid(z) - yf
            max_change = max(max_change, abs(db))
        converged = max_change < params["tol"]
    return LogisticState(weights=np.array(w), intercept=b, lam=lam,
                         sweeps=sweeps, converged=converged)


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
    # a loaded model ran no sweeps
    return LogisticState(weights=np.array(d["weights"]),
                         intercept=d["intercept"], lam=d["lambda"],
                         sweeps=0, converged=False)
