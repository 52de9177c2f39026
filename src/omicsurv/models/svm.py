"""RBF-kernel SVM trained by SMO with maximal-violating-pair selection.

Dual problem: minimize 1/2 a'Qa - e'a subject to 0 <= a <= C, y'a = 0,
with Q_ij = y_i y_j K(x_i, x_j). Convergence when the maximal KKT violation
m - M drops below tol (Fan, Chen & Lin 2005).

The step loop never forms Q. K is exactly symmetric (the gram matrix of x
with itself) and y = +-1, so column i of Q times y_i equals y * K[i]
bit for bit: the gradient update reads two contiguous rows of K. The masks
of the candidates for i (up) and j (low) are computed once; a step moves
two coordinates of alpha, so only those two entries of the masks change,
and they are updated in scalar Python. ``yg`` and the update are written
into buffers allocated once per fit, and i and j are the first maximal and
minimal ``yg`` over buffers that hold -inf (for up) and +inf (for low)
outside their sets, which picks the same indices as indexing ``yg`` by the
masks. ``rbf_kernel`` builds the kernel in one n x m buffer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import check_bound
from ..project import sq_distances

_UNSAVED = {"saved": False}


@dataclass
class SvmState:
    support_x: np.ndarray
    dual_coef: np.ndarray  # alpha_i * y_i for support vectors
    bias: float
    gamma: float
    # solver diagnostics, not saved: the final KKT violation, the dual
    # variables and +-1 labels it was checked on, the SMO steps taken, and
    # whether the violation is within tol (False: stopped at max_iter)
    final_violation: float = field(default=float("nan"), metadata=_UNSAVED)
    alphas: np.ndarray = field(default_factory=lambda: np.empty(0), metadata=_UNSAVED)
    train_y_pm: np.ndarray = field(default_factory=lambda: np.empty(0),
                                   metadata=_UNSAVED)
    iterations: int = field(default=0, metadata=_UNSAVED)
    converged: bool = field(default=False, metadata=_UNSAVED)


def rbf_kernel(a: np.ndarray, b: np.ndarray, gamma: float) -> np.ndarray:
    """exp(-gamma * d2), with d2 the ``sq_distances`` of ``a`` and ``b``,
    in d2's buffer."""
    out = sq_distances(a, b)
    out *= -gamma
    return np.exp(out, out=out)


def _index_sets(alpha: np.ndarray, y_pm: np.ndarray, c: float):
    """Masks of the candidates for i (up) and j (low) of the violating pair."""
    up = ((alpha < c - 1e-12) & (y_pm > 0)) | ((alpha > 1e-12) & (y_pm < 0))
    low = ((alpha < c - 1e-12) & (y_pm < 0)) | ((alpha > 1e-12) & (y_pm > 0))
    return up, low


STATE = SvmState
PARAMS = {"C": (float, 1.0, "> 0"), "gamma": (float, None, "> 0"),
          "tol": (float, 1e-3, ">= 0"), "max_iter": (int, 20000, ">= 1")}


def check_params(params: dict) -> None:
    # no coordinate can leave 0 when C is within the SMO's 1e-12 box margin
    check_bound("C", params["C"], "> 1e-12")


def fit(x: np.ndarray, y: np.ndarray, params: dict, seed: int) -> SvmState:
    c, tol = params["C"], params["tol"]
    gamma = 1.0 / x.shape[1] if params["gamma"] is None else params["gamma"]

    y_pm = np.where(y == 1, 1.0, -1.0)
    n = len(y_pm)
    k = rbf_kernel(x, x, gamma)
    grad = -np.ones(n)  # gradient of the dual objective at alpha = 0
    up, low = _index_sets(np.zeros(n), y_pm, c)

    neg_y = -y_pm
    yg, up_yg, low_yg = np.empty(n), np.full(n, -np.inf), np.full(n, np.inf)
    step_i, step_j = np.empty(n), np.empty(n)
    alpha, signs, k_diag = [0.0] * n, y_pm.tolist(), k.diagonal().tolist()
    c_low = c - 1e-12
    steps = 0
    for _ in range(params["max_iter"]):
        np.multiply(neg_y, grad, out=yg)
        np.copyto(up_yg, yg, where=up)
        np.copyto(low_yg, yg, where=low)
        i, j = int(up_yg.argmax()), int(low_yg.argmin())
        if not up[i] or not low[j]:  # one of the sets is empty
            break
        violation = yg.item(i) - yg.item(j)
        if violation <= tol:
            break
        quad = max(k_diag[i] + k_diag[j] - 2.0 * k.item(i, j), 1e-12)
        step = violation / quad
        # box constraints on both coordinates, moving along y'a = const
        if signs[i] > 0:
            step = min(step, c - alpha[i])
        else:
            step = min(step, alpha[i])
        if signs[j] > 0:
            step = min(step, alpha[j])
        else:
            step = min(step, c - alpha[j])
        alpha[i] += signs[i] * step
        alpha[j] -= signs[j] * step
        np.multiply(y_pm, k[i], out=step_i)
        step_i *= step
        np.multiply(y_pm, k[j], out=step_j)
        step_j *= step
        step_i -= step_j
        grad += step_i
        steps += 1
        for t in (i, j):
            below_c, above_0 = alpha[t] < c_low, alpha[t] > 1e-12
            up[t], low[t] = ((below_c, above_0) if signs[t] > 0
                             else (above_0, below_c))
            up_yg[t], low_yg[t] = -np.inf, np.inf

    alpha = np.array(alpha)
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
        iterations=steps,
        converged=bool(violation <= tol),
    )


def scores(state: SvmState, x: np.ndarray) -> np.ndarray:
    """Signed decision value."""
    if len(state.dual_coef) == 0:
        return np.full(len(x), state.bias)
    k = rbf_kernel(x, state.support_x, state.gamma)
    return k @ state.dual_coef + state.bias


def threshold(state: SvmState) -> float:
    return 0.0

