"""The level-wise growth of ``random_forest``, the stacked group pass of
``rp_ensemble``, the all-rows bandwidth search of the t-SNE affinities, and
the buffered step loops of SMO (``svm_rbf``) and SGD (the MLPs) against the
per-feature, per-projection, point-by-point and allocate-per-step loops they
replaced, kept here as reference code: trees, ensembles, affinities, dual
coefficients and network weights must match bit for bit. The reference
forest visits its nodes breadth-first, as ``fit`` draws them, and scores
each node's candidate features one at a time. The t-SNE iteration, one pass
over row blocks with no Q matrix, orders its sums differently from the
allocate-per-iteration loop kept here, whose n x n Q and masked per-entry KL
it replaced: its gradient, KL and first iterates must match that loop to
1e-12 relative, and no pass may depend on the block size.
``l1_logistic`` centers its columns and bounds the loss once
per sweep, so its weights differ from those of the uncentered per-coordinate
loop kept here; its objective must be no higher after as many sweeps.
``fit_folds`` of ``rp_ensemble`` and of the MLPs, which train the subsets of
one table together, must match one reference fit per subset bit for bit."""

import json
from dataclasses import replace

import numpy as np
import pytest

from omicsurv import evaluation, models, project, ranks, rpensemble
from omicsurv.dataio import FeatureMatrix
from omicsurv.errors import DataError
from omicsurv.models import forest, gaussian_nb, logistic, mlp, svm

from cross_checks import logistic_objective


# --- reference random forest: one argsort/cumsum per candidate feature ------

def _gini(counts, total):
    if total == 0:
        return 0.0
    p = counts / total
    return 1.0 - float(np.sum(p * p))


def _ref_best_split_on(x_col, y):
    order = np.argsort(x_col, kind="stable")
    xs, ys = x_col[order], y[order].astype(np.float64)
    n = len(ys)
    total_pos = ys.sum()
    parent = _gini(np.array([n - total_pos, total_pos]), n)

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


def _ref_split(x, y, depth, max_depth, mtry, rng):
    """(feature, threshold) of one node, or None for a leaf."""
    if len(y) < 2 or np.mean(y) in (0.0, 1.0):
        return None
    if max_depth is not None and depth >= max_depth:
        return None
    feature_order = rng.permutation(x.shape[1])
    chosen = _ref_best_over(x, y, feature_order[:mtry])
    if chosen is None:
        chosen = _ref_best_over(x, y, feature_order[mtry:])
    return None if chosen is None else chosen[1:]


def _ref_forest(x, y, params, seed):
    """All trees grown breadth-first, one level at a time, tree by tree and
    node by node within a level, into the flat arrays ``forest.fit`` fills."""
    mtry = max(1, int(np.sqrt(x.shape[1]))) if params["mtry"] is None else params["mtry"]
    rngs, level = [], []
    for t in range(params["n_trees"]):
        rng = np.random.default_rng(np.random.SeedSequence([seed, t]))
        rows = (rng.integers(0, len(y), size=len(y)) if params["bootstrap"]
                else np.arange(len(y)))
        rngs.append(rng)
        level.append((t, rows))
    feature, threshold, left, frac_ones = [], [], [], []
    depth = 0
    while level:
        next_level = []
        first_child = len(frac_ones) + len(level)
        for t, rows in level:
            xt, yt = x[rows], y[rows]
            frac_ones.append(float(np.mean(yt)))
            split = _ref_split(xt, yt, depth, params["max_depth"], mtry, rngs[t])
            if split is None:
                feature.append(-1)
                threshold.append(0.0)
                left.append(-1)
                continue
            f, cut = split
            mask = xt[:, f] <= cut
            feature.append(f)
            threshold.append(cut)
            left.append(first_child + len(next_level))
            next_level += [(t, rows[mask]), (t, rows[~mask])]
        depth += 1
        level = next_level
    return forest.ForestState(np.array(feature), np.array(threshold), np.array(left),
                              np.array(frac_ones), np.arange(params["n_trees"]))


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


# --- reference rp_ensemble: one QR, fit and holdout score per projection ----

def _ref_sample_projection(m, d, rng):
    for _ in range(8):
        g = rng.standard_normal((m, d))
        q, r = np.linalg.qr(g)
        diag = np.diag(r)
        if np.min(np.abs(diag)) < 1e-12:
            continue  # rank deficient draw; resample
        return (q * np.sign(diag)).T
    raise DataError("failed to draw a full-rank projection in 8 attempts")


def _ref_rp_train(x, y, params, seed):
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    m = x.shape[1]
    split_rng = np.random.default_rng(np.random.SeedSequence([seed, 999]))
    train_idx, hold_idx = rpensemble._stratified_holdout(
        y, params["selection_holdout_fraction"], split_rng)
    x_tr, y_tr = x[train_idx], y[train_idx]
    x_ho, y_ho = x[hold_idx], y[hold_idx]
    base_spec = models.ModelSpec(family=params["base_family"],
                                 hyperparameters=params["base_hyperparameters"],
                                 seed=seed)

    errors = np.empty((params["b1_groups"], params["b2_per_group"]))
    selected = np.empty(params["b1_groups"], dtype=np.int64)
    projections = []
    for g in range(params["b1_groups"]):
        best_proj = None
        for b in range(params["b2_per_group"]):
            rng = np.random.default_rng(np.random.SeedSequence([seed, g, b]))
            proj = _ref_sample_projection(m, params["projected_dim"], rng)
            fitted = models.fit(base_spec, x_tr @ proj.T, y_tr)
            err = float(np.mean(models.predict_labels(fitted, x_ho @ proj.T) != y_ho))
            errors[g, b] = err
            if best_proj is None or err < errors[g, selected[g]]:
                selected[g] = b
                best_proj = proj
        projections.append(best_proj)

    base_models = [models.fit(base_spec, x @ proj.T, y) for proj in projections]
    score = rpensemble._vote_matrix(base_models, projections, x).mean(axis=0)
    if params["vote_threshold_alpha"] is not None:
        alpha = params["vote_threshold_alpha"]
    else:
        grid = np.arange(params["b1_groups"] + 1) / params["b1_groups"]
        errs = [float(np.mean((score >= a).astype(np.int64) != y)) for a in grid]
        alpha = float(grid[int(np.argmin(errs))])
    var = x.var(axis=0)
    raw = np.zeros(m)
    for proj in projections:
        raw += np.sum(proj ** 2, axis=0) * var
    total = raw.sum()
    importance = raw / total if total > 0 else np.full(m, 1.0 / m)
    return rpensemble.RpModel(params=params, seed=seed, projections=projections,
                              base_models=base_models, alpha=alpha,
                              feature_importance=importance, group_errors=errors,
                              selected_indices=selected)


# --- reference gaussian_nb: the 2-D formulas before they took stacks --------

def _ref_gnb_fit(x, y):
    x0, x1 = x[y == 0], x[y == 1]
    return gaussian_nb.GnbState(
        mean0=x0.mean(axis=0), mean1=x1.mean(axis=0),
        var0=np.maximum(x0.var(axis=0), gaussian_nb.VAR_FLOOR),
        var1=np.maximum(x1.var(axis=0), gaussian_nb.VAR_FLOOR),
        log_prior0=float(np.log(len(x0) / len(x))),
        log_prior1=float(np.log(len(x1) / len(x))))


def _ref_gnb_scores(state, x):
    def loglik(mean, var):
        return -0.5 * np.sum(np.log(2.0 * np.pi * var) + (x - mean) ** 2 / var, axis=1)
    ll1 = loglik(state.mean1, state.var1) + state.log_prior1
    ll0 = loglik(state.mean0, state.var0) + state.log_prior0
    return ll1 - ll0


# --- reference t-SNE: fresh n x n temporaries and a masked KL per iteration --

def _ref_pairwise_sq_dists(x):
    sq = np.sum(x * x, axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (x @ x.T)
    np.fill_diagonal(d2, 0.0)
    return np.maximum(d2, 0.0)


def _ref_q_matrix(coords):
    num = 1.0 / (1.0 + _ref_pairwise_sq_dists(coords))
    np.fill_diagonal(num, 0.0)
    q = num / num.sum()
    return q, num


def _ref_kl(p_pos, q_pos):
    return float(np.sum(p_pos * np.log(p_pos / np.maximum(q_pos, project._EPS))))


def _ref_gradient(p, q, num, coords):
    w = (p - q) * num
    return 4.0 * (w.sum(axis=1)[:, None] * coords - w @ coords)


def _ref_tsne(features, config):
    p = project.input_affinities(features, config.perplexity)
    mask = p > 0
    p_pos = p[mask]
    coords = project._init_coords(features.patient_ids, config.output_dims,
                                  config.seed)
    velocity = np.zeros_like(coords)
    trace = np.empty(config.iterations)
    q, num = _ref_q_matrix(coords)
    for it in range(config.iterations):
        exaggerate = it < config.early_exaggeration_iters
        p_eff = p * config.early_exaggeration_factor if exaggerate else p
        grad = _ref_gradient(p_eff, q, num, coords)
        momentum = 0.5 if it < project._MOMENTUM_SWITCH_ITER else 0.8
        velocity = momentum * velocity - config.learning_rate * grad
        coords = coords + velocity
        q, num = _ref_q_matrix(coords)
        trace[it] = _ref_kl(p_pos, q[mask])
    return coords, trace


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


def _twin_columns():
    # a constant column and two equal ones: a node that draws the constant one
    # first falls back to the twins, whose gains tie, so the twin drawn first
    # must win even when the fallback scores them in separate passes
    x, y = _xy(40, 2, seed=6)
    return np.column_stack([np.full(40, 2.0), x[:, 0], x[:, 0]]), y


def _zero_gain():
    # the one split leaves 1 of 5 rows of class 1 on the left and 2 of 10 on
    # the right, as in the node: its gain is 0, computed as 5.6e-17, which
    # the 1e-12 floor rejects
    x = np.repeat([[0.0], [1.0]], [5, 10], axis=0)
    y = np.array([1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0])
    return x, y


FOREST_DATA = {
    "continuous": lambda: _xy(60, 12, seed=1),
    "ties": lambda: _xy(60, 12, seed=2, decimals=0),
    "constant_columns": _constant_columns,
    "duplicated_rows": _duplicated_rows,
    "n2": lambda: (np.array([[0.0, 1.0, 5.0], [1.0, 1.0, -5.0]]), np.array([0, 1])),
    "twin_columns": _twin_columns,
    "zero_gain": _zero_gain,
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


@pytest.mark.parametrize("data", sorted(FOREST_DATA))
@pytest.mark.parametrize("budget", [1, 1000])
def test_forest_pass_size_does_not_change_trees(monkeypatch, data, budget):
    """Passes of about one node, or of a whole level, and fallbacks of one
    column at a time, grow the reference's trees."""
    x, y = FOREST_DATA[data]()
    params = models.read_params("random_forest", {"n_trees": 6, "mtry": 1})
    monkeypatch.setattr(forest, "_BUDGET", budget)
    got = forest.to_jsonable(forest.fit(x, y, params, seed=2))
    assert got == forest.to_jsonable(_ref_forest(x, y, params, seed=2))


@pytest.mark.parametrize("decimals", [None, 1, 0])
def test_dense_ranks_match_unique_inverse(decimals):
    rows, _ = _xy(7, 40, seed=9, decimals=decimals)
    rows[3] = 1.5
    rows[4, ::2] = -0.0
    rows[4, 1::2] = 0.0
    want = np.array([np.unique(row, return_inverse=True)[1] for row in rows])
    got = ranks.dense_ranks(rows)
    assert got.dtype == np.int32 and (got == want).all()


def test_forest_rejects_rounding_gain():
    x, y = _zero_gain()
    params = models.read_params("random_forest", {"n_trees": 1, "bootstrap": False})
    assert forest.fit(x, y, params, seed=0).feature.tolist() == [-1]


def test_forest_wide_keys_grow_the_same_trees(monkeypatch):
    """Sort keys too wide for int32 are int64; the trees do not change."""
    x, y = FOREST_DATA["continuous"]()
    params = models.read_params("random_forest", {"n_trees": 5})
    want = forest.to_jsonable(forest.fit(x, y, params, seed=8))
    monkeypatch.setattr(forest, "_INT32_MAX", 0)
    assert forest.to_jsonable(forest.fit(x, y, params, seed=8)) == want


def _tree(state, t):
    """Tree t of a flat forest as nested (feature, threshold, frac_ones,
    left, right) tuples; a leaf is its frac_ones."""
    def walk(i):
        if state.feature[i] < 0:
            return float(state.frac_ones[i])
        return (int(state.feature[i]), float(state.threshold[i]),
                float(state.frac_ones[i]), walk(state.left[i]), walk(state.left[i] + 1))
    return walk(state.roots[t])


def test_forest_tree_depends_only_on_seed_and_index():
    x, y = FOREST_DATA["continuous"]()
    small, large = (forest.fit(x, y, models.read_params("random_forest", {"n_trees": count}),
                               seed=3) for count in (3, 7))
    assert [_tree(small, t) for t in range(3)] == [_tree(large, t) for t in range(3)]


def test_forest_scores_match_per_row_walk():
    x, y = FOREST_DATA["ties"]()
    state = forest.fit(x, y, models.read_params("random_forest", {"n_trees": 7}), seed=6)
    query = np.vstack([x, x[::-1] + 0.5, [[np.nan] * x.shape[1]]])
    votes = np.zeros(len(query))
    for t in range(len(state.roots)):
        for row, values in enumerate(query):
            i = state.roots[t]
            while state.feature[i] >= 0:
                go_left = values[state.feature[i]] <= state.threshold[i]
                i = state.left[i] + (0 if go_left else 1)
            votes[row] += state.frac_ones[i] >= 0.5
    assert forest.scores(state, query).tobytes() == (votes / len(state.roots)).tobytes()


def test_forest_scores_the_same_after_save_and_load(tmp_path):
    x, y = FOREST_DATA["continuous"]()
    model = models.fit(models.ModelSpec("random_forest", {"n_trees": 9}, seed=4), x, y)
    models.save_model(model, tmp_path / "forest.json")
    again = models.load_model(tmp_path / "forest.json")
    query = np.vstack([x, x + 0.25])
    assert (models.predict_scores(again, query).tobytes()
            == models.predict_scores(model, query).tobytes())


@pytest.mark.parametrize("lam", [1e-3, 1e-2, 5e-2, 1e6])
@pytest.mark.parametrize("shape, seed", [((60, 15), 1), ((25, 40), 2)])
def test_logistic_matches_per_coordinate_loop(lam, shape, seed):
    """Centered columns and one majorizer per sweep reach an objective no
    higher than the uncentered per-coordinate loop after as many sweeps."""
    x, y = _xy(*shape, seed=seed)
    for sweeps in (30, 200):
        params = models.read_params("l1_logistic",
                                    {"lambda": lam, "max_sweeps": sweeps})
        state = logistic.fit(x, y, params, seed=0)
        weights, intercept = _ref_logistic(x, y, params)
        ref = logistic.LogisticState(weights, intercept, lam, sweeps=0, converged=False)
        assert logistic_objective(state, x, y) <= logistic_objective(ref, x, y) + 1e-12
        if lam == 1e6:
            assert (state.weights == 0).all() and (weights == 0).all()


@pytest.mark.parametrize("lam", [1e-3, 1e-2, 5e-2])
@pytest.mark.parametrize("shape, seed", [((60, 15), 1), ((25, 40), 2)])
def test_logistic_translation_invariant(lam, shape, seed):
    """Adding a constant to each column leaves the weights where they were
    and moves only the intercept, so the scores stay put."""
    x, y = _xy(*shape, seed=seed)
    shifted = x + np.random.default_rng(seed).uniform(-20.0, 20.0, shape[1])
    params = models.read_params("l1_logistic", {"lambda": lam, "max_sweeps": 50})
    state = logistic.fit(x, y, params, seed=0)
    moved = logistic.fit(shifted, y, params, seed=0)
    scale = np.max(np.abs(state.weights))
    assert scale > 0
    assert np.max(np.abs(moved.weights - state.weights)) <= 1e-9 * scale
    np.testing.assert_allclose(logistic.scores(moved, shifted),
                               logistic.scores(state, x), rtol=0, atol=1e-9)


def test_sigmoid_matches_masked_form():
    z = np.array([0.0, -0.0, 710.0, -710.0, 750.0, -750.0, 1e-300, -1e-300,
                  36.5, -36.5, 1.0, -1.0, np.inf, -np.inf])
    z = np.concatenate([z, np.random.default_rng(0).normal(0, 20, 200)])
    with np.errstate(over="raise"):
        got = logistic._sigmoid(z)
    assert got.tobytes() == _ref_sigmoid(z).tobytes()


# (n, m, seed, decimals); rounding to 0 decimals makes projections tie
RP_DATA = [(139, 301, 1, None), (60, 20, 2, None), (80, 7, 3, None),
           (200, 60, 4, None), (60, 12, 5, 0)]


@pytest.mark.parametrize("n, m, seed, decimals", RP_DATA)
@pytest.mark.parametrize("dim", ["one", "mid", "full"])
@pytest.mark.parametrize("b2", [1, 7])
def test_rp_matches_per_projection_loop(n, m, seed, decimals, dim, b2):
    x, y = _xy(n, m, seed=seed, decimals=decimals)
    d = {"one": 1, "mid": min(5, m), "full": m}[dim]
    params = models.read_params("rp_ensemble", {
        "b1_groups": 4, "b2_per_group": b2, "projected_dim": d})
    got = rpensemble.to_jsonable(rpensemble.train(x, y, params, seed))
    want = rpensemble.to_jsonable(_ref_rp_train(x, y, params, seed))
    assert json.dumps(got) == json.dumps(want)
    assert got == want


def test_rp_ties_select_first_minimum():
    x, y = _xy(60, 12, seed=5, decimals=0)
    params = models.read_params("rp_ensemble", {
        "b1_groups": 6, "b2_per_group": 12, "projected_dim": 1})
    model = rpensemble.train(x, y, params, 5)
    tied = [np.sum(row == row.min()) > 1 for row in model.group_errors]
    assert any(tied)  # the data does make projections tie
    assert rpensemble.to_jsonable(model) == rpensemble.to_jsonable(
        _ref_rp_train(x, y, params, 5))


@pytest.mark.parametrize("base", [
    ("svm_rbf", {"C": 1.0, "gamma": 0.1}),
    ("l1_logistic", {"lambda": 0.05, "max_sweeps": 20}),
])
def test_rp_fallback_family_matches_per_projection_loop(base):
    family, params = base
    x, y = _xy(50, 9, seed=6)
    rp_params = models.read_params("rp_ensemble", {
        "b1_groups": 3, "b2_per_group": 4, "projected_dim": 3,
        "base_family": family, "base_hyperparameters": params})
    assert not hasattr(models._TABLE[family][0], "holdout_errors")
    got = rpensemble.to_jsonable(rpensemble.train(x, y, rp_params, 6))
    want = rpensemble.to_jsonable(_ref_rp_train(x, y, rp_params, 6))
    assert json.dumps(got) == json.dumps(want)


class _FirstDrawSingular:
    """A generator whose first ``standard_normal`` draw is all zeros (rank
    deficient); later draws come from the wrapped generator."""

    def __init__(self, rng):
        self.rng, self.calls = rng, 0

    def standard_normal(self, shape):
        self.calls += 1
        return np.zeros(shape) if self.calls == 1 else self.rng.standard_normal(shape)


def test_stacked_draw_redraws_rank_deficient_slice_from_its_generator():
    m, d = 9, 3
    rngs = [np.random.default_rng(s) for s in range(4)]
    stubbed = [_FirstDrawSingular(np.random.default_rng(s)) if s == 2
               else np.random.default_rng(s) for s in range(4)]
    stack = rpensemble.sample_projections(m, d, stubbed)
    assert stubbed[2].calls == 2
    for b in range(4):
        want = _ref_sample_projection(
            m, d, _FirstDrawSingular(rngs[b]) if b == 2 else rngs[b])
        assert stack[b].tobytes() == want.tobytes()
        assert np.copy(stack[b], order="K").tobytes(order="A") == want.tobytes(order="A")


def test_stacked_draw_gives_up_after_eight_rank_deficient_draws():
    class AlwaysSingular:
        calls = 0

        def standard_normal(self, shape):
            self.calls += 1
            return np.zeros(shape)

    rng = AlwaysSingular()
    with pytest.raises(DataError, match="8 attempts"):
        rpensemble.sample_projections(5, 2, [np.random.default_rng(0), rng])
    assert rng.calls == 8


@pytest.mark.parametrize("n, m, seed, decimals", RP_DATA)
def test_gaussian_nb_matches_2d_formulas(n, m, seed, decimals):
    x, y = _xy(n, m, seed=seed, decimals=decimals)
    x_new = np.random.default_rng(seed + 100).normal(0, 1, (31, m))
    state = gaussian_nb.fit(x, y, {}, seed=0)
    assert gaussian_nb.to_jsonable(state) == gaussian_nb.to_jsonable(_ref_gnb_fit(x, y))
    assert gaussian_nb.scores(state, x_new).tobytes() == _ref_gnb_scores(
        _ref_gnb_fit(x, y), x_new).tobytes()


def test_gaussian_nb_stack_matches_per_slice():
    x, y = _xy(70, 30, seed=7)
    projections = rpensemble.sample_projections(
        30, 4, [np.random.default_rng(s) for s in range(6)])
    z = np.matmul(x, projections.transpose(0, 2, 1))
    z_tr, z_ho, y_tr, y_ho = z[:, :50], z[:, 50:], y[:50], y[50:]
    errors = models.holdout_errors(models.ModelSpec("gaussian_nb"), z_tr, y_tr,
                                   z_ho, y_ho)
    spec = models.ModelSpec("gaussian_nb")
    for b in range(6):
        fitted = models.fit(spec, z_tr[b], y_tr)
        assert errors[b] == np.mean(models.predict_labels(fitted, z_ho[b]) != y_ho)
        assert (np.matmul(x, projections.transpose(0, 2, 1))[b].tobytes()
                == (x @ projections[b].T).tobytes())


def test_gaussian_nb_holdout_zero_score_votes_class_1():
    # equal class statistics and priors score every row exactly 0, which the
    # threshold (>= 0) labels class 1 in the stack as in predict_labels
    spec = models.ModelSpec("gaussian_nb")
    z_tr, y_tr = np.array([[[-1.0], [1.0], [-1.0], [1.0]]]), np.array([0, 0, 1, 1])
    z_ho, y_ho = np.array([[[0.3], [5.0]]]), np.array([1, 1])
    assert models.predict_labels(models.fit(spec, z_tr[0], y_tr), z_ho[0]).tolist() == [1, 1]
    assert models.holdout_errors(spec, z_tr, y_tr, z_ho, y_ho).tolist() == [0.0]


def test_holdout_errors_rejects_non_finite_stack():
    x, y = _xy(30, 6, seed=8)
    z = np.stack([x, x])
    z[1, 3, 2] = np.nan
    with pytest.raises(DataError, match="non-finite"):
        models.holdout_errors(models.ModelSpec("gaussian_nb"), z, y, z, y)


# --- t-SNE --------------------------------------------------------------------

def _tsne_table(n, seed, duplicated=0):
    """n distinct patients; ``duplicated`` of them repeat earlier rows."""
    x = np.random.default_rng(seed).normal(0, 1, (n - duplicated, 12))
    x = np.vstack([x, x[:duplicated]])
    return FeatureMatrix([f"p{i:03d}" for i in range(n)],
                         [f"g{j}" for j in range(12)], x)


# (n, output_dims, iterations, early_exaggeration_iters, duplicated rows);
# 300 iterations pass the momentum switch at 250
TSNE_CASES = [
    (40, 1, 60, 20, 0), (40, 2, 60, 20, 0), (40, 3, 60, 20, 0),
    (40, 15, 30, 10, 0),
    (40, 2, 60, 0, 0), (40, 2, 60, 60, 0), (40, 2, 60, 100, 0),
    (40, 3, 1, 250, 0), (40, 2, 1, 0, 0),
    (5, 2, 50, 10, 0), (150, 3, 300, 250, 0),
    (40, 2, 80, 20, 10),
]


def _assert_close(got, want, rtol=1e-12):
    """Agreement to ``rtol`` relative to the largest entry of ``want``."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= rtol * np.abs(want).max()


def _tsne_config(n, dims, iterations, exaggerated):
    return project.TsneConfig(output_dims=dims,
                              perplexity={5: 1.2, 40: 10.0}.get(n, 30.0),
                              iterations=iterations,
                              early_exaggeration_iters=exaggerated, seed=3)


@pytest.mark.parametrize("n, dims, iterations, exaggerated, duplicated", TSNE_CASES)
def test_tsne_matches_allocating_loop(monkeypatch, n, dims, iterations, exaggerated,
                                      duplicated):
    """The iterates are chaotic in rounding, so the loops are compared over
    their first iterations only; the full run must end on a trace entry that
    is ``kl_divergence`` of its coordinates."""
    features = _tsne_table(n, seed=n + dims, duplicated=duplicated)
    config = _tsne_config(n, dims, iterations, exaggerated)
    p = project.input_affinities(features, config.perplexity)

    first = replace(config, iterations=1)
    _assert_close(project.tsne(features, first).coords,
                  _ref_tsne(features, first)[0])

    coords = project._init_coords(features.patient_ids, dims, config.seed)
    for at in (coords, np.random.default_rng(n).normal(0, 2, (n, dims))):
        q, num = _ref_q_matrix(at)
        _assert_close(project.kl_gradient(p, at), _ref_gradient(p, q, num, at))
        _assert_close(project._kl_pass(p, at, 12.0)[0],
                      _ref_gradient(12.0 * p, q, num, at))

    if iterations > project._MOMENTUM_SWITCH_ITER:
        # the case that passes the momentum switch passes it within the
        # compared iterations
        monkeypatch.setattr(project, "_MOMENTUM_SWITCH_ITER", 2)
    # a run's last iteration is always recorded
    few = replace(config, iterations=min(iterations, 3))
    ends = [project.tsne(features, replace(config, iterations=k)).kl_trace[-1]
            for k in range(1, few.iterations + 1)]
    np.testing.assert_allclose(ends, _ref_tsne(features, few)[1], rtol=1e-12, atol=0)
    monkeypatch.undo()

    got = project.tsne(features, config)
    assert got.coords.shape == (n, dims)
    assert got.kl_trace.shape == (-(-iterations // project._KL_EVERY),)
    np.testing.assert_allclose(got.kl_trace[-1],
                               project.kl_divergence(p, got.coords),
                               rtol=1e-12, atol=0)


@pytest.mark.parametrize("dims, duplicated", [(2, 0), (15, 0), (2, 10), (15, 10)])
def test_tsne_pass_does_not_depend_on_the_block_size(monkeypatch, dims, duplicated):
    """At each of ten iterates, block pairs of 1, 7, n - 1 (with a 1-row
    block) and at least n rows give one gradient, sum P log(1 + d^2) and Z.
    Whole runs are not compared: GEMM rounding varies with a block's row
    count, and a 2-D embedding amplifies that to about 1e-10 within ten
    iterations."""
    n = 40
    features = _tsne_table(n, seed=dims + duplicated, duplicated=duplicated)
    config = _tsne_config(n, dims, iterations=10, exaggerated=5)
    kl_pass, passes = project._kl_pass_packed, []

    def recording(packed, blocks, coords, exaggeration=1.0, *, with_kl=True):
        result = kl_pass(packed, blocks, coords, exaggeration, with_kl=with_kl)
        # each pass is replayed below with the KL term, which the loop takes
        # only on recorded iterations
        passes.append((coords, exaggeration,
                       kl_pass(packed, blocks, coords, exaggeration)))
        return result

    monkeypatch.setattr(project, "_kl_pass_packed", recording)
    project.tsne(features, config)
    assert len(passes) == 11
    p = project.input_affinities(features, config.perplexity)
    for rows in (1, 7, n - 1, 3 * n):
        blocks = project._row_blocks(n, rows)
        packed = project._pack_pairs(p, blocks)
        for coords, exaggeration, (grad, p_log, z) in passes:
            got_grad, got_p_log, got_z = kl_pass(packed, blocks, coords, exaggeration,
                                                 with_kl=True)
            _assert_close(got_grad, grad)
            # sum P log(1 + d^2) is about 1e-8 at the first iterates, where
            # 1 + d^2 keeps 8 of its digits, so it is compared as part of
            # the KL it enters
            np.testing.assert_allclose([got_p_log + np.log(got_z), got_z],
                                       [p_log + np.log(z), z], rtol=1e-12, atol=0)


@pytest.mark.parametrize("iterations, recorded", [(49, [49]), (50, [50]),
                                                   (120, [50, 100, 120])])
def test_kl_trace_records_every_50th_and_the_last_iteration(monkeypatch, iterations,
                                                            recorded):
    """Only the passes after the recorded iterations take the KL term, and
    each entry is ``kl_divergence`` of the coordinates at its iteration."""
    features = _tsne_table(40, seed=4)
    config = _tsne_config(40, 2, iterations, exaggerated=20)
    kl_pass, with_kl = project._kl_pass_packed, []

    def counting(*args, **kwargs):
        with_kl.append(kwargs.get("with_kl", True))
        return kl_pass(*args, **kwargs)

    monkeypatch.setattr(project, "_kl_pass_packed", counting)
    got = project.tsne(features, config)
    monkeypatch.undo()
    # pass k follows iteration k; pass 0 gives the first gradient
    assert len(with_kl) == iterations + 1
    assert [k for k, on in enumerate(with_kl) if on] == recorded
    p = project.input_affinities(features, config.perplexity)
    want = [project.kl_divergence(
                p, project.tsne(features, replace(config, iterations=k)).coords)
            for k in recorded]
    np.testing.assert_allclose(got.kl_trace, want, rtol=1e-12, atol=0)


def test_pair_packing_holds_each_upper_block_once():
    p = np.arange(49.0).reshape(7, 7)
    blocks = project._row_blocks(7, 3)
    want = np.concatenate([p[rows, cols].ravel() for a, rows in enumerate(blocks)
                           for cols in blocks[a:]])
    assert project._pack_pairs(p, blocks).tobytes() == want.tobytes()
    in_place = p.copy()
    assert project._pack_pairs(in_place, blocks,
                               out=in_place.reshape(-1)).tobytes() == want.tobytes()


@pytest.mark.parametrize("n, blocks", [(40, 1), (150, 1), (191, 1), (192, 2),
                                       (300, 2), (1000, 8), (3533, 28)])
def test_pair_blocks_are_about_128_rows(n, blocks):
    got = project._pair_blocks(n)
    assert len(got) == blocks
    assert got[0].start == 0 and got[-1].stop == n
    sizes = [block.stop - block.start for block in got]
    assert len(set(sizes[:-1])) <= 1 and sizes[-1] <= sizes[0]
    assert blocks == 1 or 96 <= sizes[0] <= 192


def test_pairwise_distances_match_reference():
    x = np.random.default_rng(9).normal(0, 3, (30, 200))
    x = np.vstack([x, x[:5]])
    assert project._pairwise_sq_dists(x).tobytes() == _ref_pairwise_sq_dists(x).tobytes()


def test_kl_gradient_and_divergence_match_reference():
    features = _tsne_table(30, seed=10, duplicated=4)
    p = project.input_affinities(features, 6.0)
    coords = np.random.default_rng(11).normal(0, 2, (30, 3))
    q, num = _ref_q_matrix(coords)
    _assert_close(project.kl_gradient(p, coords), _ref_gradient(p, q, num, coords))
    mask = p > 0
    np.testing.assert_allclose(project.kl_divergence(p, coords),
                               _ref_kl(p[mask], q[mask]), rtol=1e-12, atol=0)


# --- reference input affinities: one bandwidth search per point ---------------

def _ref_conditional_row(d2_row, beta):
    logits = -beta * d2_row
    logits -= logits.max()
    p = np.exp(logits)
    z = p.sum()
    p /= z
    h_nats = -np.sum(p * np.log(np.maximum(p, 1e-12)))
    return p, float(np.exp(h_nats))


def _ref_input_affinities(x, perplexity, tol=1e-4):
    n = x.shape[0]
    d2 = _ref_pairwise_sq_dists(x)
    cond = np.zeros((n, n))
    for i in range(n):
        row = np.delete(d2[i], i)
        lo, hi = 0.0, 1.0
        for _ in range(64):
            _, perp = _ref_conditional_row(row, hi)
            if perp <= perplexity:
                break
            lo, hi = hi, hi * 4.0
        else:
            raise DataError(f"failed to bracket bandwidth for point {i}")
        p, perp = _ref_conditional_row(row, hi)
        for _ in range(200):
            if abs(perp - perplexity) < tol:
                break
            mid = 0.5 * (lo + hi)
            p, perp = _ref_conditional_row(row, mid)
            if perp > perplexity:
                lo = mid
            else:
                hi = mid
        if abs(perp - perplexity) >= tol:
            raise DataError(
                f"bandwidth search did not reach perplexity tolerance for point {i}"
            )
        cond[i, np.arange(n) != i] = p
    return (cond + cond.T) / (2.0 * n)


def _clustered(n, twins, first):
    """n points in 12-D, rows first .. first + twins - 1 all equal."""
    x = np.random.default_rng(n + twins).normal(0, 1, (n, 12))
    x[first:first + twins] = x[first]
    return x


@pytest.mark.parametrize("n, perplexity, duplicated", [
    (5, 1.2, 0), (60, 10.0, 0), (60, 10.0, 12), (127, 30.0, 0),
    (300, 30.0, 0), (300, 5.0, 40)])
def test_affinities_match_point_by_point_search(n, perplexity, duplicated):
    x = _tsne_table(n, seed=n + duplicated, duplicated=duplicated).values
    got = project.input_affinities(x, perplexity)
    assert got.tobytes() == _ref_input_affinities(x, perplexity).tobytes()


@pytest.mark.parametrize("block", [1, 150, 1000])
def test_affinities_do_not_depend_on_the_block_size(monkeypatch, block):
    # 59 off-diagonal distances per row: one row, two and 16 rows per block
    monkeypatch.setattr(project, "_BLOCK_ELEMENTS", block)
    x = _tsne_table(60, seed=15, duplicated=8).values
    assert project.input_affinities(x, 10.0).tobytes() == _ref_input_affinities(
        x, 10.0).tobytes()


@pytest.mark.parametrize("first, tol, message", [
    # 20 equal points keep a perplexity near 19 at any bandwidth
    (0, 1e-4, "failed to bracket bandwidth for point 0"),
    (7, 1e-4, "failed to bracket bandwidth for point 7"),
    (0, 0.0, "failed to bracket bandwidth for point 0"),
    (7, 0.0, "did not reach perplexity tolerance for point 0"),
])
def test_affinity_errors_name_the_first_failing_point(first, tol, message):
    x = _clustered(60, 20, first)
    with pytest.raises(DataError, match=message):
        _ref_input_affinities(x, 5.0, tol)
    with pytest.raises(DataError, match=message):
        project.input_affinities(x, 5.0, tol)


# --- reference svm_rbf: SMO over Q with fresh masks and temporaries per step -

def _ref_rbf_kernel(a, b, gamma):
    d2 = (
        np.sum(a * a, axis=1)[:, None]
        + np.sum(b * b, axis=1)[None, :]
        - 2.0 * (a @ b.T)
    )
    return np.exp(-gamma * np.maximum(d2, 0.0))


def _ref_index_sets(alpha, y_pm, c):
    up = ((alpha < c - 1e-12) & (y_pm > 0)) | ((alpha > 1e-12) & (y_pm < 0))
    low = ((alpha < c - 1e-12) & (y_pm < 0)) | ((alpha > 1e-12) & (y_pm > 0))
    return up, low


def _ref_svm_fit(x, y, params):
    """(alphas, bias, final violation, steps taken)."""
    c, tol = params["C"], params["tol"]
    gamma = 1.0 / x.shape[1] if params["gamma"] is None else params["gamma"]
    y_pm = np.where(y == 1, 1.0, -1.0)
    n = len(y_pm)
    k = _ref_rbf_kernel(x, x, gamma)
    q = np.outer(y_pm, y_pm) * k
    alpha = np.zeros(n)
    grad = -np.ones(n)
    steps = 0
    for _ in range(params["max_iter"]):
        yg = -y_pm * grad
        up, low = _ref_index_sets(alpha, y_pm, c)
        if not up.any() or not low.any():
            break
        i = int(np.flatnonzero(up)[np.argmax(yg[up])])
        j = int(np.flatnonzero(low)[np.argmin(yg[low])])
        if yg[i] - yg[j] <= tol:
            break
        quad = max(k[i, i] + k[j, j] - 2.0 * k[i, j], 1e-12)
        step = (yg[i] - yg[j]) / quad
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
        steps += 1
    yg = -y_pm * grad
    up, low = _ref_index_sets(alpha, y_pm, c)
    if up.any() and low.any():
        m_up, m_low = float(np.max(yg[up])), float(np.min(yg[low]))
        violation, bias = m_up - m_low, 0.5 * (m_up + m_low)
    else:
        violation = 0.0
        bias = float(np.mean(y_pm - (alpha * y_pm) @ k)) if alpha.any() else 0.0
    return alpha, bias, violation, steps


SVM_DATA = {
    "continuous": lambda: _xy(60, 12, seed=1),
    "rounded": lambda: _xy(80, 5, seed=2, decimals=0),
    "duplicated_rows": _duplicated_rows,
    "constant_columns": _constant_columns,
}

# C, gamma, tol, max_iter; 1e-3 puts every alpha at the box, below 1e-12 no
# coordinate can move; tol 0 runs to the max_iter cap
SVM_PARAMS = [
    {"C": 1.0, "gamma": None, "tol": 1e-3, "max_iter": 20000},
    {"C": 10.0, "gamma": 0.5, "tol": 1e-3, "max_iter": 20000},
    {"C": 1e-3, "gamma": 0.1, "tol": 1e-3, "max_iter": 20000},
    {"C": 1e-13, "gamma": None, "tol": 1e-3, "max_iter": 20000},
    {"C": 100.0, "gamma": 2.0, "tol": 0.0, "max_iter": 150},
]


@pytest.mark.parametrize("params", SVM_PARAMS)
@pytest.mark.parametrize("data", sorted(SVM_DATA))
def test_svm_matches_allocating_smo(data, params):
    x, y = SVM_DATA[data]()
    state = svm.fit(x, y, dict(params), seed=0)
    alpha, bias, violation, steps = _ref_svm_fit(x, y, params)
    assert state.alphas.tobytes() == alpha.tobytes()
    assert np.float64(state.bias).tobytes() == np.float64(bias).tobytes()
    assert state.final_violation == violation
    assert state.iterations == steps
    assert state.converged == (violation <= params["tol"])
    sv = alpha > 1e-12
    assert state.support_x.tobytes() == x[sv].tobytes()
    assert state.dual_coef.tobytes() == (alpha * np.where(y == 1, 1.0, -1.0))[sv].tobytes()


def test_svm_box_fixture_puts_every_alpha_at_a_bound():
    x, y = SVM_DATA["continuous"]()
    alphas = svm.fit(x, y, dict(SVM_PARAMS[2]), seed=0).alphas
    assert np.isin(alphas, (0.0, 1e-3)).all() and (alphas == 1e-3).any()


def test_svm_default_fit_converges_in_the_reference_steps():
    x, y = _xy(90, 30, seed=8)
    params = models.read_params("svm_rbf", {})
    state = svm.fit(x, y, params, seed=0)
    assert state.converged is True
    assert state.iterations == _ref_svm_fit(x, y, params)[3] > 0


@pytest.mark.parametrize("block", [1 << 16, 7, 100])
def test_rbf_kernel_matches_fresh_temporaries(monkeypatch, block):
    monkeypatch.setattr(svm, "_BLOCK_ELEMENTS", block)
    x = np.random.default_rng(12).normal(0, 2, (35, 20))
    x = np.vstack([x, x[:4]])
    k = svm.rbf_kernel(x, x, 0.05)
    assert k.tobytes() == _ref_rbf_kernel(x, x, 0.05).tobytes()
    assert (k == k.T).all()
    z = np.random.default_rng(13).normal(0, 2, (9, 20))
    assert svm.rbf_kernel(z, x, 0.05).tobytes() == _ref_rbf_kernel(z, x, 0.05).tobytes()


# --- reference MLP: SGD computing the loss and fresh arrays at every step ---

def _ref_forward(weights, biases, x):
    acts = [x]
    h = x
    for i, (w, b) in enumerate(zip(weights, biases)):
        z = h @ w + b
        h = z if i == len(weights) - 1 else np.tanh(z)
        acts.append(h)
    return acts


def _ref_loss_and_output_grad(out, y, task):
    n = len(y)
    if task == "classify":
        y_pm = 2.0 * y - 1.0
        margins = y_pm * out
        loss = float(np.mean(np.logaddexp(0.0, -margins)))
        sig = 1.0 / (1.0 + np.exp(np.clip(margins, -500, 500)))
        dout = -(y_pm * sig) / n
    else:
        resid = y - out
        loss = float(np.mean(resid ** 2))
        dout = -2.0 * resid / n
    return loss, dout


def _ref_backward(weights, acts, dout):
    gw = [None] * len(weights)
    gb = [None] * len(weights)
    delta = dout[:, None]
    for i in range(len(weights) - 1, -1, -1):
        gw[i] = acts[i].T @ delta
        gb[i] = delta.sum(axis=0)
        if i > 0:
            delta = (delta @ weights[i].T) * (1.0 - acts[i] ** 2)
    return gw, gb


def _ref_loss_and_gradients(weights, biases, x, y, task):
    acts = _ref_forward(weights, biases, x)
    loss, dout = _ref_loss_and_output_grad(acts[-1][:, 0], y, task)
    return (loss, *_ref_backward(weights, acts, dout))


def _ref_mlp_fit(x, y, params, seed, task):
    lr, batch_size = params["learning_rate"], params["batch_size"]
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0]))
    weights, biases = mlp._init_params(x.shape[1], params["width"],
                                       params["n_hidden_layers"], rng)
    yf = y.astype(np.float64)
    n = len(y)
    shuffle_rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
    for _ in range(params["epochs"]):
        order = shuffle_rng.permutation(n)
        for start in range(0, n, batch_size):
            idx = order[start:start + batch_size]
            _, gw, gb = _ref_loss_and_gradients(weights, biases, x[idx], yf[idx], task)
            for w, b, dw, db in zip(weights, biases, gw, gb):
                w -= lr * dw
                b -= lr * db
    return weights, biases


# n_hidden_layers, width, epochs, learning_rate, batch_size; 45 rows leave a
# final batch of 13 at batch_size 32, and of 1 at 4
MLP_PARAMS = [
    {"n_hidden_layers": 2, "width": 16, "epochs": 20, "learning_rate": 0.01,
     "batch_size": 32},
    {"n_hidden_layers": 0, "width": 8, "epochs": 20, "learning_rate": 0.05,
     "batch_size": 32},
    {"n_hidden_layers": 1, "width": 5, "epochs": 10, "learning_rate": 0.3,
     "batch_size": 4},
    {"n_hidden_layers": 3, "width": 32, "epochs": 5, "learning_rate": 0.01,
     "batch_size": 45},
]


@pytest.mark.parametrize("params", MLP_PARAMS)
@pytest.mark.parametrize("task", ["classify", "regress"])
def test_mlp_matches_allocating_sgd(task, params):
    x, y = _xy(45, 7, seed=14)
    target = y if task == "classify" else 3.0 * y + x[:, 2]
    state = mlp.fit(x, target, params, seed=4, task=task)
    weights, biases = _ref_mlp_fit(x, target, params, 4, task)
    assert len(state.weights) == params["n_hidden_layers"] + 1
    for got, ref in zip(state.weights + state.biases, weights + biases):
        assert got.tobytes() == ref.tobytes()
    # the loss and gradients of the trained net, as the gradient checks read them
    loss, gw, gb = mlp.loss_and_gradients(state, x, target.astype(np.float64))
    ref_loss, ref_gw, ref_gb = _ref_loss_and_gradients(
        weights, biases, x, target.astype(np.float64), task)
    assert loss == ref_loss
    for got, ref in zip(gw + gb, ref_gw + ref_gb):
        assert got.tobytes() == ref.tobytes()
    assert mlp.scores(state, x).tobytes() == _ref_forward(
        weights, biases, x)[-1][:, 0].tobytes()


# --- joint fits: fit_folds against one reference fit per training subset ----

def _cv_train_sets(y, k, seed=0):
    """The training rows of each fold of a stratified k-fold split."""
    folds = evaluation.stratified_kfold(y, evaluation.CvPlan(k_folds=k, seed=seed))
    return [np.setdiff1d(np.arange(len(y)), test) for test in folds]


# (n, m, seed, k): 10 folds of 139 rows train on 124 to 126 rows, 3 of 80 on 53 or 54
RP_FOLD_DATA = [(139, 301, 1, 10), (80, 7, 3, 3), (60, 12, 5, 5)]


@pytest.mark.parametrize("n, m, seed, k", RP_FOLD_DATA)
@pytest.mark.parametrize("dim", [1, 5])
@pytest.mark.parametrize("base", [("gaussian_nb", {}),
                                  ("l1_logistic", {"lambda": 0.05, "max_sweeps": 20})])
def test_rp_fit_folds_matches_separate_fits(n, m, seed, k, dim, base):
    # projected_dim 1 projects by matrix-vector products, whose rounding
    # depends on a row's position, so a slice of one all-rows projection
    # would not match here
    family, hyperparameters = base
    x, y = _xy(n, m, seed=seed, decimals=0 if seed == 5 else None)
    spec = models.ModelSpec("rp_ensemble", {
        "b1_groups": 3, "b2_per_group": 4, "projected_dim": dim,
        "base_family": family, "base_hyperparameters": hyperparameters}, seed)
    params = models.read_params("rp_ensemble", spec.hyperparameters)
    train_sets = _cv_train_sets(y, k)
    assert len({len(rows) for rows in train_sets}) >= 2
    joint = list(models.fit_folds(spec, x, y, train_sets))
    for rows, model in zip(train_sets, joint):
        want = _ref_rp_train(x[rows], y[rows], params, seed)
        assert json.dumps(rpensemble.to_jsonable(model.state)) == json.dumps(
            rpensemble.to_jsonable(want))
        assert model.state.group_errors.tobytes() == want.group_errors.tobytes()
        assert model.state.selected_indices.tolist() == want.selected_indices.tolist()
        assert (models.predict_scores(model, x).tobytes()
                == rpensemble.predict_scores(want, x).tobytes())


@pytest.mark.parametrize("dim", [1, 3])
def test_rp_fit_folds_projects_each_subsets_own_rows(monkeypatch, dim):
    # group errors are rates and can hide a rounding change in the projected
    # stacks, so the stacks each subset is scored on are checked directly
    x, y = _xy(139, 301, seed=1)
    params = models.read_params("rp_ensemble", {
        "b1_groups": 2, "b2_per_group": 4, "projected_dim": dim})
    train_sets = _cv_train_sets(y, 10)
    seen = []
    monkeypatch.setattr(models, "holdout_errors", lambda spec, z_tr, y_tr, z_ho, y_ho: (
        seen.append((z_tr, z_ho)) or np.zeros(len(z_tr))))
    rpensemble.fit_folds(x, y, train_sets, params, 2)
    for g in range(2):
        stack = rpensemble.sample_projections(301, dim, [
            np.random.default_rng(np.random.SeedSequence([2, g, b])) for b in range(4)])
        for s, rows in enumerate(train_sets):
            split_rng = np.random.default_rng(np.random.SeedSequence([2, 999]))
            tr, ho = rpensemble._stratified_holdout(y[rows], 0.2, split_rng)
            x_f = x[rows]
            z_tr, z_ho = seen[g * len(train_sets) + s]
            assert z_tr.tobytes() == np.matmul(x_f[tr], stack.transpose(0, 2, 1)).tobytes()
            assert z_ho.tobytes() == np.matmul(x_f[ho], stack.transpose(0, 2, 1)).tobytes()


# 45 rows in folds of 4, 3 and 2 rows train on 41, 42 and 43: final batches of
# 1, 2 and 3 rows at batch_size 4
MLP_TRAIN_SETS = [np.setdiff1d(np.arange(45), test) for test in (
    [0, 5, 9, 30], [1, 2, 40], [3, 44], [4, 6, 7], [8, 10, 11, 12])]


@pytest.mark.parametrize("n_hidden_layers", [0, 1, 2, 3])
@pytest.mark.parametrize("batch_size", [4, 32])
@pytest.mark.parametrize("task", ["classify", "regress"])
def test_mlp_fit_folds_matches_separate_fits(task, batch_size, n_hidden_layers):
    x, y = _xy(45, 7, seed=14)
    target = y if task == "classify" else 3.0 * y + x[:, 2]
    params = {"n_hidden_layers": n_hidden_layers, "width": 6, "epochs": 4,
              "learning_rate": 0.05, "batch_size": batch_size}
    family = {"classify": "rectangle_mlp", "regress": "mlp_regressor"}[task]
    spec = models.ModelSpec(family, params, 4)
    joint = list(models.fit_folds(spec, x, target, MLP_TRAIN_SETS))
    for rows, model in zip(MLP_TRAIN_SETS, joint):
        weights, biases = _ref_mlp_fit(x[rows], target[rows], params, 4, task)
        state = model.state
        assert len(state.weights) == n_hidden_layers + 1
        for got, ref in zip(state.weights + state.biases, weights + biases):
            assert got.tobytes() == ref.tobytes()
        assert (models.predict_scores(model, x).tobytes()
                == _ref_forward(weights, biases, x)[-1][:, 0].tobytes())


def _first_failure(spec, x, y, train_sets):
    """(number, error) of the lowest-numbered subset whose separate fit fails."""
    for i, rows in enumerate(train_sets):
        try:
            models.fit(spec, x[rows], y[rows])
        except Exception as exc:  # noqa: BLE001
            return i, exc
    raise AssertionError("no subset fails")


def _assert_fails_at(spec, x, y, train_sets, number, message):
    """``fit_folds`` hands out the models of the subsets before ``number``,
    then raises that subset's error, as separate fits would."""
    assert _first_failure(spec, x, y, train_sets)[0] == number
    assert str(_first_failure(spec, x, y, train_sets)[1]) == message
    fitted = models.fit_folds(spec, x, y, train_sets)
    for _ in range(number):
        next(fitted)
    with pytest.raises(DataError, match=f"^{message}$"):
        next(fitted)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflowing row
def test_rp_fit_folds_raises_the_lowest_failing_subsets_error():
    # Subset 1 trains on a row whose projections overflow, so a group fit
    # fails; subset 2 fits; subset 3 holds one row of class 1, so its holdout
    # split fails before any group is drawn; subset 4 holds no class 1 at all.
    x, y = _xy(40, 6, seed=8)
    x[3] = 1.7e308
    everything_but_3 = np.setdiff1d(np.arange(40), [3])
    one_of_class_1 = np.concatenate([np.flatnonzero(y == 0), np.flatnonzero(y == 1)[:1]])
    train_sets = [everything_but_3, np.arange(40), everything_but_3[1:],
                  one_of_class_1, np.flatnonzero(y == 0)]
    spec = models.ModelSpec("rp_ensemble", {"b1_groups": 3, "b2_per_group": 2,
                                            "projected_dim": 2}, 1)
    _assert_fails_at(spec, x, y, train_sets, 1, "non-finite training features")
    _assert_fails_at(spec, x, y, train_sets[2:], 1,
                     "holdout split leaves a single-class training set")
    # a separate fit checks the data before the family's own checks
    too_wide = models.ModelSpec("rp_ensemble", {"projected_dim": 7}, 1)
    _assert_fails_at(too_wide, x, y, train_sets[4:] + train_sets[:1], 0,
                     "single-class training set")


@pytest.mark.parametrize("family", ["rectangle_mlp", "mlp_regressor"])
def test_mlp_fit_folds_raises_the_lowest_failing_subsets_error(family):
    x, y = _xy(40, 6, seed=9)
    x[5, 2] = np.nan
    clean = np.setdiff1d(np.arange(40), [5])
    single_class = np.flatnonzero(y == 0)[:-1]
    spec = models.ModelSpec(family, {"epochs": 2, "width": 3}, 0)
    _assert_fails_at(spec, x, y, [clean, np.arange(40), single_class, clean], 1,
                     "non-finite training features")
    # the regressor takes any targets, so only the non-finite row fails it
    number, message = ((1, "single-class training set") if family == "rectangle_mlp"
                       else (2, "non-finite training features"))
    _assert_fails_at(spec, x, y, [clean, single_class, np.arange(40), clean], number,
                     message)
