"""Random forest of gini decision trees (Breiman 2001), grown level by level.

``fit`` grows all ``n_trees`` trees together, one depth at a time (Louppe
2014, *Understanding Random Forests*, ch. 5).

Draw order. Tree ``t`` has its own generator, ``SeedSequence([seed, t])``.
It first draws the bootstrap sample. Then, level by level and in node order,
each node of the tree that can split draws a permutation of the M features. A
node can split if it has at least 2 rows, holds both classes and lies above
``max_depth``. So tree ``t`` depends only on ``(seed, t)``: not on
``n_trees`` and not on the worker count.

Splits. A node is scored on the first ``mtry`` features of its permutation
(default ⌊√M⌋). Only if none of them splits does it fall back to the remaining
features, so a lone unbootstrapped tree of unlimited depth can always fit
tie-free training data exactly. A split must lower the gini impurity by more
than 1e-12. A tie in gain goes to the feature earliest in the permutation, then
to the lowest threshold. The threshold is the midpoint of the two values around
the split, or the lower value where the midpoint rounds up to the upper one, so
both children always get rows.

Scoring pass. At one depth, every (node, candidate feature) pair of every tree
is a segment of the node's rows. Each row is keyed by
``(segment · n + rank) · 2 + label``, with the dense column ranks of
``ranks.dense_ranks``. One sort groups the rows by segment and orders them by
value, one cumulative sum counts class 1 to the left of each position, the gini
gain is evaluated between every two distinct values with the operations of the
per-feature formula, and ``maximum``/``minimum.reduceat`` find each node's
first best position over its segments in candidate order.

Memory bound. A pass takes whole nodes in node order, at most ``_BUDGET · n ·
mtry`` (row, feature) elements, about 40 bytes each at its peak, and the
int32 permutations of its nodes hold at most twice as many entries. The
fallback scores the remaining features in column blocks under the same bound,
and the ranks are computed a block of columns at a time. So no temporary
grows with the number of trees, or with the number of nodes times M.

Storage. The forest is flat arrays over the nodes of all trees, in the order
they were grown: ``feature``, ``threshold``, ``left`` (the right child is
``left + 1``) and ``frac_ones``, plus one root per tree. ``scores`` routes
every (tree, row) pair down one level per step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DataError
from ..ranks import dense_ranks

# (row, feature) elements per scoring pass, in units of n × mtry
_BUDGET = 5
# sort keys are int32 while they fit, else int64
_INT32_MAX = np.iinfo(np.int32).max


@dataclass
class ForestState:
    """Node i splits at ``threshold[i]`` on ``feature[i]``: a row whose value
    is at most the threshold goes to node ``left[i]``, any other row to
    ``left[i] + 1``. A leaf has feature and left -1 and threshold 0.
    ``frac_ones`` is the fraction of class 1 among a node's training rows, and
    tree t starts at node ``roots[t]``."""
    roots: np.ndarray
    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    frac_ones: np.ndarray


STATE = ForestState
# max_depth None grows each tree until its leaves are pure
PARAMS = {"n_trees": (int, 100, ">= 1"), "max_depth": (int, None, ">= 0"),
          "mtry": (int, None, ">= 1"), "bootstrap": (bool, True)}


def _score(keys: np.ndarray, rows: np.ndarray, counts: np.ndarray,
           feats: np.ndarray):
    """Best split of each node i over its candidate features ``feats[i]``;
    ``rows`` holds the nodes' rows, ``counts[i]`` of them for node i in turn.
    ``keys[f, i]`` is ``2 · rank + label`` of row i in feature f. Returns the gain
    (-inf if no candidate splits), the feature and the dense rank of the
    largest value that goes left."""
    k, c = feats.shape
    n = keys.shape[1]
    dtype = np.int32 if 2 * n * k * c <= _INT32_MAX else np.int64
    # segment s = node · c + candidate holds the node's rows, keyed
    # (s · n + rank) · 2 + label and sorted
    index = np.repeat(feats.astype(np.intp) * n, counts, axis=0)
    index += rows[:, None]
    key = keys.take(index).astype(dtype, copy=False)
    del index
    key += np.repeat(np.arange(0, 2 * n * c * k, 2 * n, dtype=dtype).reshape(k, c),
                     counts, axis=0)
    key = key.ravel()
    key.sort()
    ones = key & 1
    np.cumsum(ones, out=ones)
    key >>= 1

    # a split lies between positions i and i + 1 of a segment that differ
    seg_len = counts.repeat(c)
    seg_end = seg_len.cumsum()
    valid = np.empty(len(key), dtype=bool)
    np.not_equal(key[1:], key[:-1], out=valid[:-1])
    valid[seg_end - 1] = False
    splits = np.add.reduceat(valid, seg_end - seg_len, dtype=np.intp)
    at = valid.nonzero()[0]
    del valid

    ones_before = np.zeros(k * c)
    ones_before[1:] = ones[seg_end[:-1] - 1]
    nn = seg_len.astype(np.float64)
    tp = ones[seg_end - 1] - ones_before
    pn, pp = (nn - tp) / nn, tp / nn
    parent = 1.0 - (pn * pn + pp * pp)
    # gain = parent - (nl · gini_left + nr · gini_right) / nn at each split,
    # with nl rows and lp of class 1 on the left, nr and rp on the right;
    # evaluated in place, in the order of the per-feature formula
    lp = ones[at] - ones_before.repeat(splits)
    nl = at - (seg_end - seg_len - 1.0).repeat(splits)
    del ones
    gain = lp / nl
    gain *= gain
    term = nl - lp
    term /= nl
    term *= term
    gain += term
    np.subtract(1.0, gain, out=gain)
    gain *= nl
    nn = nn.repeat(splits)
    rp = np.subtract(tp.repeat(splits), lp, out=lp)
    nr = np.subtract(nn, nl, out=nl)
    right = np.divide(rp, nr, out=term)
    right *= right
    np.subtract(nr, rp, out=rp)
    rp /= nr
    rp *= rp
    right += rp
    np.subtract(1.0, right, out=right)
    right *= nr
    gain += right
    gain /= nn
    np.subtract(parent.repeat(splits), gain, out=gain)
    del rp, nr, right, nn

    # the first maximum over a node's segments, in candidate order, is the
    # best candidate's lowest threshold
    node_splits = splits.reshape(k, c).sum(axis=1)
    has = node_splits > 0
    heads = (node_splits.cumsum() - node_splits)[has]
    best = np.full(k, -np.inf)
    best[has] = np.maximum.reduceat(gain, heads)
    pos = np.zeros(k, dtype=np.intp)
    pos[has] = np.minimum.reduceat(
        np.where(gain == best.repeat(node_splits), at, len(key)), heads)
    best[best <= 1e-12] = -np.inf
    chosen = key[pos] // n
    return best, feats[np.arange(k), chosen % c], key[pos] - chosen * n


def _feature_orders(gens: list, trees: np.ndarray, m: int) -> np.ndarray:
    """One permutation of the m features per node, drawn from its tree's
    generator; the nodes of one tree are consecutive and drawn in order."""
    orders = np.empty((len(trees), m), dtype=np.int32)
    orders[:] = np.arange(m, dtype=np.int32)
    bounds = [0, *(np.flatnonzero(trees[1:] != trees[:-1]) + 1).tolist(), len(trees)]
    for a, b in zip(bounds[:-1], bounds[1:]):
        gens[trees[a]].permuted(orders[a:b], axis=1, out=orders[a:b])
    return orders


def _choose_splits(keys, rows, counts, trees, gens, width, budget):
    """Split feature (-1 for none) and split rank of each node that can
    split, scored in passes of whole nodes under the element budget."""
    k, m = len(counts), len(keys)
    feature = np.full(k, -1)
    rank = np.zeros(k, dtype=np.int64)
    ends = np.cumsum(counts)
    max_nodes = max(1, 2 * budget // m)
    a = 0
    while a < k:
        first = ends[a] - counts[a]
        b = int(np.searchsorted(ends, first + budget // width, side="right"))
        b = min(max(b, a + 1), a + max_nodes)
        orders = _feature_orders(gens, trees[a:b], m)
        chunk_rows = rows[first:ends[b - 1]]
        gain, f, r = _score(keys, chunk_rows, counts[a:b], orders[:, :width])
        # fall back to the remaining features, a block of columns at a time;
        # a later block must beat the gain so far
        rest = np.flatnonzero(gain == -np.inf) if m > width else []
        if len(rest):
            in_rest = np.zeros(b - a, dtype=bool)
            in_rest[rest] = True
            rest_rows = chunk_rows[np.repeat(in_rest, counts[a:b])]
            step = max(1, budget // len(rest_rows))
            for lo in range(width, m, step):
                g, fb, rb = _score(keys, rest_rows, counts[a:b][rest],
                                   orders[rest, lo:lo + step])
                better = g > gain[rest]
                gain[rest[better]] = g[better]
                f[rest[better]] = fb[better]
                r[rest[better]] = rb[better]
        ok = gain > -np.inf
        feature[a:b][ok] = f[ok]
        rank[a:b][ok] = r[ok]
        a = b
    return feature, rank


def fit(x: np.ndarray, y: np.ndarray, params: dict, seed: int) -> ForestState:
    n, m = x.shape
    mtry = max(1, int(np.sqrt(m))) if params["mtry"] is None else params["mtry"]
    width = min(mtry, m)
    budget = _BUDGET * n * width
    max_depth = params["max_depth"]
    y = np.asarray(y, dtype=np.int64)
    # keys[f, i] = 2 · dense rank of x[i, f] in column f + y[i], ranked a
    # block of columns at a time
    keys = np.empty((m, n), dtype=np.int32)
    block = max(1, budget // n)
    for lo in range(0, m, block):
        keys[lo:lo + block] = dense_ranks(np.ascontiguousarray(x[:, lo:lo + block].T))
    keys <<= 1
    keys |= y.astype(np.int32)

    n_trees = params["n_trees"]
    gens = [np.random.default_rng(np.random.SeedSequence([seed, t]))
            for t in range(n_trees)]
    rows = np.concatenate([g.integers(0, n, size=n) if params["bootstrap"]
                           else np.arange(n) for g in gens])
    # the nodes of the current level, tree by tree, and their rows in turn
    trees = np.arange(n_trees)
    counts = np.full(n_trees, n)
    ones = y[rows].reshape(n_trees, n).sum(axis=1)

    levels = []
    grown, depth = 0, 0
    while len(trees):
        k = len(trees)
        feature = np.full(k, -1)
        threshold = np.zeros(k)
        left = np.full(k, -1)
        levels.append((feature, threshold, left, ones / counts))
        if max_depth is not None and depth >= max_depth:
            break
        can_split = (counts >= 2) & (ones > 0) & (ones < counts)
        node = np.repeat(np.arange(k), counts)
        cand = np.flatnonzero(can_split)
        f, r = _choose_splits(keys, rows[can_split[node]], counts[cand], trees[cand],
                              gens, width, budget)
        split = cand[f >= 0]
        f, r = f[f >= 0], r[f >= 0]
        feature[split] = f
        left[split] = grown + k + 2 * np.arange(len(split))

        # threshold: the midpoint of the node's largest value at or below the
        # split rank and its smallest value above it. A midpoint that rounds up
        # to the value above (adjacent floats, or a sum beyond the float range)
        # would send every row left and repeat the node forever, so the split
        # is then at the value below.
        index = np.full(k, -1)
        index[split] = np.arange(len(split))
        node = index[node]
        rows, node = rows[node >= 0], node[node >= 0]
        values = x[rows, f[node]]
        below = keys[f[node], rows] <= 2 * r[node] + 1
        heads = np.cumsum(counts[split]) - counts[split]
        if len(split):
            lo = np.maximum.reduceat(np.where(below, values, -np.inf), heads)
            hi = np.minimum.reduceat(np.where(below, np.inf, values), heads)
            with np.errstate(over="ignore"):
                mid = 0.5 * (lo + hi)
            threshold[split] = np.where(mid < hi, mid, lo)

        # the children, left then right, in the order of their parents
        child = 2 * node + ~(values <= threshold[split][node])
        counts = np.bincount(child, minlength=2 * len(split))
        ones = np.bincount(child, weights=y[rows], minlength=2 * len(split)).astype(np.int64)
        grouped = child * n + rows
        grouped.sort()
        rows = grouped % n
        trees = np.repeat(trees[split], 2)
        grown += k
        depth += 1

    feature, threshold, left, frac_ones = (np.concatenate(parts) for parts in zip(*levels))
    return ForestState(roots=np.arange(n_trees), feature=feature, threshold=threshold,
                       left=left, frac_ones=frac_ones)


def scores(state: ForestState, x: np.ndarray) -> np.ndarray:
    """Fraction of trees voting class 1."""
    n_trees, n = len(state.roots), len(x)
    # node[t · n + i]: where row i stands in tree t
    node = np.repeat(state.roots, n)
    active = np.flatnonzero(state.feature[node] >= 0)
    while len(active):
        at = node[active]
        at = state.left[at] + ~(x[active % n, state.feature[at]] <= state.threshold[at])
        node[active] = at
        active = active[state.feature[at] >= 0]
    votes = (state.frac_ones[node] >= 0.5).reshape(n_trees, n).sum(axis=0)
    return votes / n_trees


def threshold(state: ForestState) -> float:
    return 0.5


def upgrade(state: dict) -> dict:
    """Model format 1's nested trees as format 2's flat lists, each tree
    breadth-first; a format-2 state as it is. A node without a key it needs,
    a ``trees`` that is not a list or a node value that is not a number is a
    DataError naming its path, e.g. ``state.trees[0].left.right``."""
    from . import _lookup  # here, not at the top: the package imports this module

    def number(node, key, where):
        value = _lookup(node, key, where)
        if not isinstance(value, (int, float)):
            raise DataError(f"key {where + key!r}: expected a number")
        return float(value)

    if not isinstance(state, dict) or "trees" not in state:
        return state
    if not isinstance(state["trees"], list):
        raise DataError("key 'state.trees': expected a list")
    roots, feature, threshold, left, frac_ones = [], [], [], [], []
    for t, tree in enumerate(state["trees"]):
        roots.append(len(feature))
        queue = [(tree, f"state.trees[{t}].")]
        for node, where in queue:
            frac_ones.append(number(node, "frac_ones", where))
            if "feature" in node:
                feature.append(node["feature"])
                threshold.append(number(node, "threshold", where))
                left.append(roots[-1] + len(queue))
                queue += [(_lookup(node, side, where), f"{where}{side}.")
                          for side in ("left", "right")]
            else:
                feature.append(-1)
                threshold.append(0.0)
                left.append(-1)
    return {"roots": roots, "feature": feature, "threshold": threshold, "left": left,
            "frac_ones": frac_ones}
