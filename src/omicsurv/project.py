"""Exact O(N^2) t-SNE to arbitrary output dimension.

Input affinities use per-point Gaussian bandwidths found by bisection on the
precision until each conditional's perplexity matches the target. The
embedding is optimized by plain gradient descent with momentum (0.5 for the
first 250 iterations, 0.8 after) and early exaggeration. Initial coordinates
are drawn per point from a generator keyed by (seed, patient-id hash), so
permuting the input rows permutes the embedding identically.

Each iteration is one pass over row blocks of P (``_BLOCK_ELEMENTS // n``
rows), and no n x n array but P is ever built. One GEMM of
[y, 1, |y|^2 + 1] with [-2y, |y|^2, 1] gives a block's 1 + d^2; its log
gives the block's share of sum P log(1 + d^2), and its reciprocal the
Student-t kernel (diagonal zeroed) and the block's share of Z. Then
(P * kernel) @ [y, 1] gives the attraction and kernel^2 @ [y, 1] the
repulsion, so the gradient is 4 (f attraction - repulsion / Z) with the early
exaggeration f scaling the attraction, and
KL(P||Q) = sum P log P + sum P log(1 + d^2) + sum P log Z. The entropy term
and sum P are computed once. ``kl_gradient`` and ``kl_divergence`` make the
same pass, so the loop's last KL trace entry is ``kl_divergence`` of the
returned coordinates.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .dataio import ClinicalRecord, FeatureMatrix
from .errors import ConfigError, DataError

_EPS = 1e-12
# elements of each row-block temporary of the bandwidth search and of the
# t-SNE pass (512 KiB: a block stays in cache through the passes made over it)
_BLOCK_ELEMENTS = 1 << 16
_MOMENTUM_SWITCH_ITER = 250


@dataclass(frozen=True)
class TsneConfig:
    output_dims: int = 2
    perplexity: float = 30.0
    learning_rate: float = 200.0
    iterations: int = 1000
    early_exaggeration_factor: float = 12.0
    early_exaggeration_iters: int = 250
    seed: int = 0

    def __post_init__(self):
        if self.output_dims < 1:
            raise ConfigError(f"output_dims must be >= 1, got {self.output_dims}")
        # written "not x > 0" so that NaN fails too
        if not self.perplexity > 0:
            raise ConfigError(f"perplexity must be > 0, got {self.perplexity}")
        if not self.learning_rate > 0:
            raise ConfigError(f"learning_rate must be > 0, got {self.learning_rate}")
        if self.iterations < 1:
            raise ConfigError(f"iterations must be >= 1, got {self.iterations}")
        if self.early_exaggeration_iters < 0:
            raise ConfigError("early_exaggeration_iters must be >= 0, "
                              f"got {self.early_exaggeration_iters}")
        if not self.early_exaggeration_factor >= 1:
            raise ConfigError("early_exaggeration_factor must be >= 1, "
                              f"got {self.early_exaggeration_factor}")


@dataclass(frozen=True)
class Embedding:
    patient_ids: list[str]
    coords: np.ndarray      # (N, output_dims)
    kl_trace: np.ndarray    # KL divergence recorded at every iteration


def _pairwise_sq_dists(x: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between the rows of ``x``."""
    sq = np.sum(x * x, axis=1)
    d2 = sq[:, None] + sq[None, :]
    gram = x @ x.T
    gram *= 2.0
    d2 -= gram
    np.fill_diagonal(d2, 0.0)
    return np.maximum(d2, 0.0, out=d2)


def _conditional_rows(d2: np.ndarray, beta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Conditional distribution of each row of ``d2`` at its precision in
    ``beta``, and each row's perplexity 2^H."""
    p = -beta[:, None] * d2
    p -= p.max(axis=1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=1, keepdims=True)
    plogp = np.maximum(p, _EPS)
    np.log(plogp, out=plogp)
    plogp *= p
    return p, np.exp(-plogp.sum(axis=1))


def _bandwidth_search(d2: np.ndarray, perplexity: float, tol: float) -> np.ndarray:
    """Conditional distributions at the target perplexity, one row per point
    of the (n, n - 1) off-diagonal squared distances ``d2``.

    Every row's precision is bracketed and then bisected at once: each step
    evaluates the rows still searching, a block of rows at a time, and a row
    leaves once it is done. The errors name the first failing point, as a
    point-by-point search would."""
    n = len(d2)
    cond = np.empty_like(d2)
    perp = np.empty(n)
    lo, hi = np.zeros(n), np.ones(n)
    block = max(1, _BLOCK_ELEMENTS // d2.shape[1])

    def evaluate(rows, beta):
        for start in range(0, len(rows), block):
            part = rows[start:start + block]
            cond[part], perp[part] = _conditional_rows(
                d2[part], beta[start:start + block])

    # expand each bracket until it contains the target perplexity
    rows = np.arange(n)
    for _ in range(64):
        evaluate(rows, hi[rows])
        rows = rows[~(perp[rows] <= perplexity)]
        if not len(rows):
            break
        lo[rows] = hi[rows]
        hi[rows] *= 4.0
    unbracketed = rows

    searching = np.setdiff1d(np.arange(n), unbracketed)
    for _ in range(200):
        searching = searching[~(np.abs(perp[searching] - perplexity) < tol)]
        if not len(searching):
            break
        mid = 0.5 * (lo[searching] + hi[searching])
        evaluate(searching, mid)
        above = perp[searching] > perplexity
        lo[searching[above]] = mid[above]
        hi[searching[~above]] = mid[~above]
    unconverged = searching[np.abs(perp[searching] - perplexity) >= tol]

    if len(unbracketed) and (not len(unconverged) or unbracketed[0] < unconverged[0]):
        raise DataError(f"failed to bracket bandwidth for point {unbracketed[0]}")
    if len(unconverged):
        raise DataError(
            f"bandwidth search did not reach perplexity tolerance for point "
            f"{unconverged[0]}"
        )
    return cond


def input_affinities(features: FeatureMatrix | np.ndarray,
                     perplexity: float,
                     tol: float = 1e-4) -> np.ndarray:
    """Symmetric t-SNE affinity matrix P (zero diagonal, sums to 1)."""
    x = features.values if isinstance(features, FeatureMatrix) else np.asarray(features)
    n = x.shape[0]
    if n < 4:
        raise DataError("input_affinities needs at least 4 points")
    if perplexity >= (n - 1) / 3:
        raise ConfigError(
            f"perplexity {perplexity} too large for {n} points "
            f"(must be < (N-1)/3)"
        )
    off_diagonal = ~np.eye(n, dtype=bool)
    cond = _bandwidth_search(_pairwise_sq_dists(x)[off_diagonal].reshape(n, n - 1),
                             perplexity, tol)
    p = np.zeros((n, n))
    p[off_diagonal] = cond.ravel()
    del cond
    sym = p + p.T
    sym /= 2.0 * n
    return sym


def _row_blocks(n: int):
    rows = max(1, _BLOCK_ELEMENTS // n)
    return [slice(start, min(start + rows, n)) for start in range(0, n, rows)]


def _kl_pass(p: np.ndarray, coords: np.ndarray,
             exaggeration: float = 1.0) -> tuple[np.ndarray, float, float]:
    """One pass over row blocks of P at ``coords``: the KL gradient with the
    attraction scaled by ``exaggeration``, sum P log(1 + d^2), and Z."""
    n, d = coords.shape
    sq = np.sum(coords * coords, axis=1)
    left = np.column_stack([coords, np.ones(n), sq + 1.0])
    right = np.column_stack([-2.0 * coords, sq, np.ones(n)])
    y1 = left[:, :d + 1]  # [y, 1]
    blocks = _row_blocks(n)
    kernel = np.empty((blocks[0].stop, n))
    work = np.empty_like(kernel)
    attraction = np.empty((n, d + 1))
    repulsion = np.empty((n, d + 1))
    p_log, z = 0.0, 0.0
    for block in blocks:
        rows = block.stop - block.start
        t, w, pb = kernel[:rows], work[:rows], p[block]
        np.matmul(left[block], right.T, out=t)
        np.maximum(t, 1.0, out=t)  # 1 + d^2, which rounding may put below 1
        np.log(t, out=w)
        p_log += np.vdot(pb, w)
        np.reciprocal(t, out=t)
        t.reshape(-1)[block.start::n + 1] = 0.0  # the block's diagonal
        z += t.sum()
        np.multiply(pb, t, out=w)
        np.matmul(w, y1, out=attraction[block])
        np.multiply(t, t, out=t)
        np.matmul(t, y1, out=repulsion[block])
    attract = attraction[:, d:] * coords - attraction[:, :d]
    repel = repulsion[:, d:] * coords - repulsion[:, :d]
    return 4.0 * (exaggeration * attract - repel / z), float(p_log), float(z)


def _entropy_and_mass(p: np.ndarray) -> tuple[float, float]:
    """sum_{p>0} p log p and sum p, a row block at a time."""
    entropy = 0.0
    for block in _row_blocks(p.shape[0]):
        pb = p[block]
        entropy += np.vdot(pb, np.log(pb, out=np.zeros_like(pb), where=pb > 0))
    return float(entropy), float(p.sum())


def kl_divergence(p: np.ndarray, coords: np.ndarray) -> float:
    entropy, mass = _entropy_and_mass(p)
    _, p_log, z = _kl_pass(p, coords)
    return float(entropy + p_log + mass * np.log(z))


def kl_gradient(p: np.ndarray, coords: np.ndarray) -> np.ndarray:
    """Gradient of KL(P||Q) with the Student-t(1) low-dimensional kernel."""
    if p.shape[0] != coords.shape[0]:
        raise DataError("P and coords disagree on the number of points")
    return _kl_pass(p, coords)[0]


def _init_coords(patient_ids: list[str], dims: int, seed: int) -> np.ndarray:
    """Per-point Gaussian init keyed by (seed, patient id hash): row order
    does not matter."""
    coords = np.empty((len(patient_ids), dims))
    for i, pid in enumerate(patient_ids):
        digest = hashlib.blake2b(pid.encode("utf-8"), digest_size=8).digest()
        rng = np.random.default_rng(
            np.random.SeedSequence([seed, int.from_bytes(digest, "big")])
        )
        coords[i] = 1e-4 * rng.standard_normal(dims)
    return coords


def tsne(features: FeatureMatrix, config: TsneConfig) -> Embedding:
    """Run exact t-SNE; the returned trace records KL(P||Q) per iteration
    against the un-exaggerated P."""
    p = input_affinities(features, config.perplexity)
    entropy, mass = _entropy_and_mass(p)
    coords = _init_coords(features.patient_ids, config.output_dims, config.seed)
    velocity = np.zeros_like(coords)
    trace = np.empty(config.iterations)

    def exaggeration(it):
        return (config.early_exaggeration_factor
                if it < config.early_exaggeration_iters else 1.0)

    # the pass that gives each iteration's KL trace entry gives the next
    # iteration's gradient
    grad, _, _ = _kl_pass(p, coords, exaggeration(0))
    for it in range(config.iterations):
        momentum = 0.5 if it < _MOMENTUM_SWITCH_ITER else 0.8
        velocity = momentum * velocity - config.learning_rate * grad
        coords = coords + velocity
        grad, p_log, z = _kl_pass(p, coords, exaggeration(it + 1))
        trace[it] = entropy + p_log + mass * np.log(z)
    return Embedding(patient_ids=list(features.patient_ids), coords=coords,
                     kl_trace=trace)


def project_with_age(features: FeatureMatrix,
                     clinical: list[ClinicalRecord] | None,
                     config: TsneConfig) -> FeatureMatrix:
    """t-SNE the features into columns ``tsne_k``; with clinical records,
    append the raw age column."""
    names = [f"tsne_{k}" for k in range(config.output_dims)]
    age_column = []
    if clinical is not None:
        ages = {r.patient_id: r.age_years for r in clinical}
        missing = [pid for pid in features.patient_ids if ages.get(pid) is None]
        if missing:
            raise DataError(f"age missing for patient {missing[0]}")
        age_column = [np.array([[ages[pid]] for pid in features.patient_ids])]
        names.append("age")
    values = np.hstack([tsne(features, config).coords, *age_column])
    return FeatureMatrix(patient_ids=list(features.patient_ids),
                         feature_names=names, values=values)
