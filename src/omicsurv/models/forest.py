"""Random forest of gini decision trees.

Each tree draws mtry candidate features per node (default sqrt(M)); if none
of the sampled features yields an impurity-reducing split the remaining
features are tried, so a lone unbootstrapped tree of unlimited depth can
always fit tie-free training data exactly. All candidate features of a node
are scored in one 2-D argsort/cumsum pass (the fallback in blocks of mtry
columns), and a tie in gain goes to the feature drawn first, then to the
lowest threshold.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class TreeNode:
    feature: int = -1
    threshold: float = 0.0
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None
    frac_ones: float = 0.0

    @property
    def is_leaf(self) -> bool:
        return self.left is None


@dataclass
class ForestState:
    trees: list[TreeNode]


def _gini(counts: np.ndarray, total: int) -> float:
    if total == 0:
        return 0.0
    p = counts / total
    return 1.0 - float(np.sum(p * p))


def _best_over(x: np.ndarray, y: np.ndarray, features) -> tuple | None:
    """Best (gain, feature, threshold) over ``features``, all scored in one
    2-D pass; a tie goes to the earliest feature, then the lowest threshold."""
    if len(features) == 0:
        return None
    cols = x[:, features]
    order = np.argsort(cols, axis=0, kind="stable")
    xs = np.take_along_axis(cols, order, axis=0)
    ys = y[order].astype(np.float64)
    n = len(y)
    total_pos = float(y.sum())
    parent = _gini(np.array([n - total_pos, total_pos]), n)

    valid = xs[1:] != xs[:-1]
    left_pos = np.cumsum(ys, axis=0)[:-1]
    nl = np.arange(1, n, dtype=np.float64)[:, None]
    nr = n - nl
    right_pos = total_pos - left_pos
    gini_l = 1.0 - ((left_pos / nl) ** 2 + ((nl - left_pos) / nl) ** 2)
    gini_r = 1.0 - ((right_pos / nr) ** 2 + ((nr - right_pos) / nr) ** 2)
    gain = parent - (nl * gini_l + nr * gini_r) / n
    gain[~valid] = -np.inf
    rows = np.argmax(gain, axis=0)
    best = gain[rows, np.arange(len(features))]
    best[best <= 1e-12] = -np.inf
    c = int(np.argmax(best))
    if best[c] == -np.inf:
        return None
    i = rows[c]
    return float(best[c]), int(features[c]), 0.5 * (xs[i, c] + xs[i + 1, c])


def _grow(x: np.ndarray, y: np.ndarray, depth: int, max_depth: int | None,
          mtry: int, rng: np.random.Generator) -> TreeNode:
    node = TreeNode(frac_ones=float(np.mean(y)))
    if len(y) < 2 or node.frac_ones in (0.0, 1.0):
        return node
    if max_depth is not None and depth >= max_depth:
        return node
    feature_order = rng.permutation(x.shape[1])
    # mtry candidate features first; fall back to the rest only if none split,
    # mtry columns at a time, where a later block must beat the gain so far
    chosen = _best_over(x, y, feature_order[:mtry])
    if chosen is None:
        for start in range(mtry, len(feature_order), mtry):
            split = _best_over(x, y, feature_order[start:start + mtry])
            if split is not None and (chosen is None or split[0] > chosen[0]):
                chosen = split
    if chosen is None:
        return node
    _, f, threshold = chosen
    mask = x[:, f] <= threshold
    node.feature = f
    node.threshold = threshold
    node.left = _grow(x[mask], y[mask], depth + 1, max_depth, mtry, rng)
    node.right = _grow(x[~mask], y[~mask], depth + 1, max_depth, mtry, rng)
    return node


def _tree_votes(node: TreeNode, x: np.ndarray, out: np.ndarray,
                idx: np.ndarray) -> None:
    if len(idx) == 0:
        return
    if node.is_leaf:
        out[idx] = 1 if node.frac_ones >= 0.5 else 0
        return
    mask = x[idx, node.feature] <= node.threshold
    _tree_votes(node.left, x, out, idx[mask])
    _tree_votes(node.right, x, out, idx[~mask])


# max_depth None grows each tree until its leaves are pure
PARAMS = {"n_trees": (int, 100), "max_depth": (int, None), "mtry": (int, None),
          "bootstrap": (bool, True)}


def fit(x: np.ndarray, y: np.ndarray, params: dict, seed: int) -> ForestState:
    mtry = max(1, int(np.sqrt(x.shape[1]))) if params["mtry"] is None else params["mtry"]

    trees = []
    for t in range(params["n_trees"]):
        rng = np.random.default_rng(np.random.SeedSequence([seed, t]))
        if params["bootstrap"]:
            idx = rng.integers(0, len(y), size=len(y))
            xt, yt = x[idx], y[idx]
        else:
            xt, yt = x, y
        trees.append(_grow(xt, yt, 0, params["max_depth"], mtry, rng))
    return ForestState(trees=trees)


def scores(state: ForestState, x: np.ndarray) -> np.ndarray:
    """Fraction of trees voting class 1."""
    votes = np.zeros(len(x))
    tree_out = np.empty(len(x), dtype=np.int64)
    all_idx = np.arange(len(x))
    for tree in state.trees:
        _tree_votes(tree, x, tree_out, all_idx)
        votes += tree_out
    return votes / len(state.trees)


def threshold(state: ForestState) -> float:
    return 0.5


def _node_to_dict(node: TreeNode) -> dict:
    if node.is_leaf:
        return {"frac_ones": node.frac_ones}
    return {
        "feature": node.feature,
        "threshold": node.threshold,
        "frac_ones": node.frac_ones,
        "left": _node_to_dict(node.left),
        "right": _node_to_dict(node.right),
    }


def _node_from_dict(d: dict) -> TreeNode:
    node = TreeNode(frac_ones=d["frac_ones"])
    if "feature" in d:
        node.feature = d["feature"]
        node.threshold = d["threshold"]
        node.left = _node_from_dict(d["left"])
        node.right = _node_from_dict(d["right"])
    return node


def to_jsonable(state: ForestState) -> dict:
    return {"trees": [_node_to_dict(t) for t in state.trees]}


def from_jsonable(d: dict) -> ForestState:
    return ForestState(trees=[_node_from_dict(t) for t in d["trees"]])
