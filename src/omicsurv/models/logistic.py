"""L1-regularized logistic regression by proximal coordinate descent.

Objective: mean logistic loss + lambda * ||w||_1 (intercept unpenalized).

The columns are centered first, as in glmnet (Friedman, Hastie & Tibshirani
2010): with the intercept unpenalized, fitting on x - mu and returning the
intercept b - mu.w gives the same optimum, and a weight step no longer moves
the mean logit, which the intercept would then have to undo.

Each sweep evaluates the sigmoid once, at the sweep's starting logits z, and
bounds the loss there by one quadratic: row i gets the curvature
tanh(z_i/2) / (2 z_i), at most the global 0.25 and the smallest curvature of
a quadratic that touches log(1 + e^-t) at t = z_i and lies above it everywhere
(Jaakkola & Jordan 2000). The intercept step and one pass of coordinate steps
then minimize that bound exactly, so a changed weight only moves the bound's
residual in place. The bound equals the objective at the sweep's start, lies
above it everywhere and no step raises it, so the objective never increases
from one sweep to the next, without line search.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class LogisticState:
    weights: np.ndarray
    intercept: float
    lam: float = field(metadata={"key": "lambda"})
    # solver diagnostics, not saved: the sweeps run, and whether the largest
    # step of the last one fell below tol (False: stopped at max_sweeps)
    sweeps: int = field(default=0, metadata={"saved": False})
    converged: bool = field(default=False, metadata={"saved": False})


def _sigmoid(z):
    # exp of -|z| never overflows; 1/(1+e^-z) for z >= 0, e^z/(1+e^z) below
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def _soft_threshold(v: float, thresh: float) -> float:
    if v > thresh:
        return v - thresh
    if v < -thresh:
        return v + thresh
    return 0.0


STATE = LogisticState
PARAMS = {"lambda": (float, 0.01, ">= 0"), "max_sweeps": (int, 200, ">= 1"),
          "tol": (float, 1e-8, ">= 0")}


def fit(x: np.ndarray, y: np.ndarray, params: dict, seed: int) -> LogisticState:
    lam = params["lambda"]

    n, m = x.shape
    mu = x.mean(axis=0)
    # centered columns as contiguous rows; a constant column centers to zero
    xt = x.T - mu[:, None]
    xt[np.ptp(x, axis=0) == 0] = 0.0
    columns = list(xt)
    squares = xt * xt
    w = [0.0] * m
    b = 0.0
    yf = y.astype(np.float64)
    sweeps, converged = 0, False
    while sweeps < params["max_sweeps"] and not converged:
        sweeps += 1
        z = np.array(w) @ xt + b
        curvature = np.divide(np.tanh(0.5 * z), 2.0 * z, out=np.full(n, 0.25),
                              where=z != 0)
        # n times the bound's gradient in the logits: sigmoid(z) - y at the
        # sweep's start, moved by curvature * (change of z) as the steps go
        residual = _sigmoid(z) - yf
        db = -float(np.mean(residual)) / float(np.mean(curvature))
        b += db
        residual += curvature * db
        max_change = abs(db)
        # Python floats keep the per-coordinate cost low: coordinate j's step
        # is its gradient col.residual / n over its curvature lipschitz[j]
        lipschitz = np.maximum(squares @ curvature / n, 1e-12)
        step = (1.0 / (n * lipschitz)).tolist()
        thresh = (lam / lipschitz).tolist()
        for j, col in enumerate(columns):
            g = float(col.dot(residual))  # ndarray.dot: half the cost of @
            w_new = _soft_threshold(w[j] - g * step[j], thresh[j])
            if w_new != w[j]:
                delta = w_new - w[j]
                residual += curvature * (col * delta)
                max_change = max(max_change, abs(delta))
                w[j] = w_new
        converged = max_change < params["tol"]
    weights = np.array(w)
    return LogisticState(weights=weights, intercept=b - float(mu @ weights),
                         lam=lam, sweeps=sweeps, converged=converged)


def scores(state: LogisticState, x: np.ndarray) -> np.ndarray:
    """Linear logit."""
    return x @ state.weights + state.intercept


def threshold(state: LogisticState) -> float:
    return 0.0

