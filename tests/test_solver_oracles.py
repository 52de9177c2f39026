"""The one-pass split scoring of ``random_forest`` and the cached residual of
``l1_logistic`` against the per-feature and per-coordinate loops they
replaced, kept here as reference code: trees and weights must match bit for
bit."""

import json

import numpy as np
import pytest

from omicsurv import models
from omicsurv.models import forest, logistic


# --- reference random forest: one argsort/cumsum per candidate feature ------

def _ref_best_split_on(x_col, y):
    order = np.argsort(x_col, kind="stable")
    xs, ys = x_col[order], y[order].astype(np.float64)
    n = len(ys)
    total_pos = ys.sum()
    parent = forest._gini(np.array([n - total_pos, total_pos]), n)

    valid = xs[1:] != xs[:-1]
    if not valid.any():
        return None
    left_pos = np.cumsum(ys)[:-1]
    nl = np.arange(1, n, dtype=np.float64)
    nr = n - nl
    right_pos = total_pos - left_pos
    gini_l = 1.0 - ((left_pos / nl) ** 2 + ((nl - left_pos) / nl) ** 2)
    gini_r = 1.0 - ((right_pos / nr) ** 2 + ((nr - right_pos) / nr) ** 2)
    gain = parent - (nl * gini_l + nr * gini_r) / n
    gain[~valid] = -np.inf
    i = int(np.argmax(gain))
    if gain[i] <= 1e-12:
        return None
    return float(gain[i]), 0.5 * (xs[i] + xs[i + 1])


def _ref_best_over(x, y, features):
    chosen = None
    for f in features:
        split = _ref_best_split_on(x[:, f], y)
        if split is not None and (chosen is None or split[0] > chosen[0]):
            chosen = (split[0], int(f), split[1])
    return chosen


def _ref_grow(x, y, depth, max_depth, mtry, rng):
    node = forest.TreeNode(frac_ones=float(np.mean(y)))
    if len(y) < 2 or node.frac_ones in (0.0, 1.0):
        return node
    if max_depth is not None and depth >= max_depth:
        return node
    feature_order = rng.permutation(x.shape[1])
    chosen = _ref_best_over(x, y, feature_order[:mtry])
    if chosen is None:
        chosen = _ref_best_over(x, y, feature_order[mtry:])
    if chosen is None:
        return node
    _, f, threshold = chosen
    mask = x[:, f] <= threshold
    node.feature = f
    node.threshold = threshold
    node.left = _ref_grow(x[mask], y[mask], depth + 1, max_depth, mtry, rng)
    node.right = _ref_grow(x[~mask], y[~mask], depth + 1, max_depth, mtry, rng)
    return node


def _ref_forest(x, y, params, seed):
    mtry = max(1, int(np.sqrt(x.shape[1]))) if params["mtry"] is None else params["mtry"]
    trees = []
    for t in range(params["n_trees"]):
        rng = np.random.default_rng(np.random.SeedSequence([seed, t]))
        if params["bootstrap"]:
            idx = rng.integers(0, len(y), size=len(y))
            xt, yt = x[idx], y[idx]
        else:
            xt, yt = x, y
        trees.append(_ref_grow(xt, yt, 0, params["max_depth"], mtry, rng))
    return forest.ForestState(trees=trees)


# --- reference l1_logistic: masked sigmoid, residual on every coordinate ----

def _ref_sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _ref_logistic(x, y, params):
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
            g = float(x[:, j] @ (_ref_sigmoid(z) - yf)) / n
            w_new = logistic._soft_threshold(w[j] - g / lipschitz[j],
                                             lam / lipschitz[j])
            if w_new != w[j]:
                z += x[:, j] * (w_new - w[j])
                max_change = max(max_change, abs(w_new - w[j]))
                w[j] = w_new
        gb = float(np.mean(_ref_sigmoid(z) - yf))
        db = -gb / 0.25
        if db != 0.0:
            b += db
            z += db
            max_change = max(max_change, abs(db))
        if max_change < params["tol"]:
            break
    return w, b


# --- data --------------------------------------------------------------------

def _xy(n, m, seed, decimals=None):
    """Noisy labels from two features; ``decimals`` rounds x to force ties."""
    gen = np.random.default_rng(seed)
    x = gen.normal(0, 1, (n, m))
    if decimals is not None:
        x = np.round(x, decimals)
    y = (x[:, 0] - x[:, 1] + gen.normal(0, 0.8, n) > 0).astype(np.int64)
    y[:2] = (0, 1)
    return x, y


def _constant_columns():
    x, y = _xy(50, 8, seed=4)
    x[:, [1, 5]] = 3.0
    return x, y


def _duplicated_rows():
    # identical rows with both labels cannot be split on any feature, so the
    # fallback scans every block and still finds nothing
    x, y = _xy(12, 9, seed=5, decimals=1)
    x = np.vstack([x, x[:4]])
    y = np.concatenate([y, 1 - y[:4]])
    return x, y


FOREST_DATA = {
    "continuous": lambda: _xy(60, 12, seed=1),
    "ties": lambda: _xy(60, 12, seed=2, decimals=0),
    "constant_columns": _constant_columns,
    "duplicated_rows": _duplicated_rows,
    "n2": lambda: (np.array([[0.0, 1.0, 5.0], [1.0, 1.0, -5.0]]), np.array([0, 1])),
}


@pytest.mark.parametrize("data", sorted(FOREST_DATA))
@pytest.mark.parametrize("bootstrap", [True, False])
@pytest.mark.parametrize("max_depth", [None, 2, 8])
@pytest.mark.parametrize("mtry", [1, None, 64])
def test_forest_matches_per_feature_loop(data, bootstrap, max_depth, mtry):
    x, y = FOREST_DATA[data]()
    params = models.read_params("random_forest", {
        "n_trees": 4, "bootstrap": bootstrap, "max_depth": max_depth, "mtry": mtry})
    got = forest.to_jsonable(forest.fit(x, y, params, seed=11))
    want = forest.to_jsonable(_ref_forest(x, y, params, seed=11))
    assert json.dumps(got) == json.dumps(want)
    assert got == want


@pytest.mark.parametrize("lam", [1e-3, 1e-2, 1e6])
@pytest.mark.parametrize("shape, seed", [((60, 15), 1), ((25, 40), 2)])
def test_logistic_matches_per_coordinate_loop(lam, shape, seed):
    x, y = _xy(*shape, seed=seed)
    params = models.read_params("l1_logistic", {"lambda": lam, "max_sweeps": 50})
    state = logistic.fit(x, y, params, seed=0)
    weights, intercept = _ref_logistic(x, y, params)
    assert np.array_equal(state.weights, weights)
    assert state.weights.tobytes() == weights.tobytes()
    assert state.intercept == intercept


def test_sigmoid_matches_masked_form():
    z = np.array([0.0, -0.0, 710.0, -710.0, 750.0, -750.0, 1e-300, -1e-300,
                  36.5, -36.5, 1.0, -1.0, np.inf, -np.inf])
    z = np.concatenate([z, np.random.default_rng(0).normal(0, 20, 200)])
    with np.errstate(over="raise"):
        got = logistic._sigmoid(z)
    assert got.tobytes() == _ref_sigmoid(z).tobytes()
