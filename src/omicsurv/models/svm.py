"""RBF-kernel SVM trained by SMO with maximal-violating-pair selection.

Dual problem: minimize 1/2 a'Qa - e'a subject to 0 <= a <= C, y'a = 0,
with Q_ij = y_i y_j K(x_i, x_j). Convergence when the maximal KKT violation
m - M drops below tol.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError


@dataclass
class SvmState:
    support_x: np.ndarray
    dual_coef: np.ndarray  # alpha_i * y_i for support vectors
    bias: float
    gamma: float
    # diagnostics kept for KKT verification
    final_violation: float
    alphas: np.ndarray
    train_y_pm: np.ndarray


def rbf_kernel(a: np.ndarray, b: np.ndarray, gamma: float) -> np.ndarray:
    d2 = (
        np.sum(a * a, axis=1)[:, None]
        + np.sum(b * b, axis=1)[None, :]
        - 2.0 * (a @ b.T)
    )
    return np.exp(-gamma * np.maximum(d2, 0.0))


def _index_sets(alpha: np.ndarray, y_pm: np.ndarray, c: float):
    """Masks of the candidates for i (up) and j (low) of the violating pair."""
    up = ((alpha < c - 1e-12) & (y_pm > 0)) | ((alpha > 1e-12) & (y_pm < 0))
    low = ((alpha < c - 1e-12) & (y_pm < 0)) | ((alpha > 1e-12) & (y_pm > 0))
    return up, low


PARAMS = {"C": (float, 1.0), "gamma": (float, None), "tol": (float, 1e-3),
          "max_iter": (int, 20000)}


def check_params(params: dict) -> None:
    if not params["C"] > 0:
        raise ConfigError(f"C must be > 0, got {params['C']}")
    if params["gamma"] is not None and not params["gamma"] > 0:
        raise ConfigError(f"gamma must be > 0, got {params['gamma']}")
    if not params["tol"] >= 0:
        raise ConfigError(f"tol must be >= 0, got {params['tol']}")
    if params["max_iter"] < 1:
        raise ConfigError(f"max_iter must be >= 1, got {params['max_iter']}")


def fit(x: np.ndarray, y: np.ndarray, params: dict, seed: int) -> SvmState:
    c, tol = params["C"], params["tol"]
    gamma = 1.0 / x.shape[1] if params["gamma"] is None else params["gamma"]

    y_pm = np.where(y == 1, 1.0, -1.0)
    n = len(y_pm)
    k = rbf_kernel(x, x, gamma)
    q = np.outer(y_pm, y_pm) * k
    alpha = np.zeros(n)
    grad = -np.ones(n)  # gradient of the dual objective at alpha = 0

    violation = np.inf
    for _ in range(params["max_iter"]):
        yg = -y_pm * grad
        up, low = _index_sets(alpha, y_pm, c)
        if not up.any() or not low.any():
            violation = 0.0
            break
        i = int(np.flatnonzero(up)[np.argmax(yg[up])])
        j = int(np.flatnonzero(low)[np.argmin(yg[low])])
        m_up, m_low = yg[i], yg[j]
        violation = m_up - m_low
        if violation <= tol:
            break
        quad = max(k[i, i] + k[j, j] - 2.0 * k[i, j], 1e-12)
        step = violation / quad
        # box constraints on both coordinates, moving along y'a = const
        if y_pm[i] > 0:
            step = min(step, c - alpha[i])
        else:
            step = min(step, alpha[i])
        if y_pm[j] > 0:
            step = min(step, alpha[j])
        else:
            step = min(step, c - alpha[j])
        alpha[i] += y_pm[i] * step
        alpha[j] -= y_pm[j] * step
        grad += q[:, i] * y_pm[i] * step - q[:, j] * y_pm[j] * step

    # recompute the violation at the final iterate
    yg = -y_pm * grad
    up, low = _index_sets(alpha, y_pm, c)
    if up.any() and low.any():
        m_up = float(np.max(yg[up]))
        m_low = float(np.min(yg[low]))
        violation = m_up - m_low
        # at free support vectors b = -y_i * grad_i, bracketed by [m_low, m_up]
        bias = 0.5 * (m_up + m_low)
    else:
        violation = 0.0
        bias = float(np.mean(y_pm - (alpha * y_pm) @ k)) if alpha.any() else 0.0

    sv = alpha > 1e-12
    return SvmState(
        support_x=x[sv].copy(),
        dual_coef=(alpha * y_pm)[sv],
        bias=bias,
        gamma=gamma,
        final_violation=float(violation),
        alphas=alpha,
        train_y_pm=y_pm,
    )


def scores(state: SvmState, x: np.ndarray) -> np.ndarray:
    """Signed decision value."""
    if len(state.dual_coef) == 0:
        return np.full(len(x), state.bias)
    k = rbf_kernel(x, state.support_x, state.gamma)
    return k @ state.dual_coef + state.bias


def threshold(state: SvmState) -> float:
    return 0.0


def to_jsonable(state: SvmState) -> dict:
    return {
        "support_x": state.support_x.tolist(),
        "dual_coef": state.dual_coef.tolist(),
        "bias": state.bias,
        "gamma": state.gamma,
    }


def from_jsonable(d: dict) -> SvmState:
    support = np.array(d["support_x"], dtype=np.float64)
    if support.ndim == 1:
        support = support.reshape(0, 0)
    return SvmState(
        support_x=support,
        dual_coef=np.array(d["dual_coef"]),
        bias=d["bias"],
        gamma=d["gamma"],
        final_violation=float("nan"),
        alphas=np.array([]),
        train_y_pm=np.array([]),
    )
