"""Exact O(N^2) t-SNE to arbitrary output dimension.

Input affinities use per-point Gaussian bandwidths found by bisection on the
precision until each conditional's perplexity matches the target. The
embedding is optimized by plain gradient descent with momentum (0.5 for the
first 250 iterations, 0.8 after) and early exaggeration. Initial coordinates
are drawn per point from a generator keyed by (seed, patient-id hash), so
permuting the input rows permutes the embedding identically.

The iteration loop allocates its n x n arrays (the kernel, Q and one scratch
for the gram matrix, the gradient weights and the log) once and rewrites them
in place with the same elementwise operations, in the same order, as fresh
arrays would get. Its KL trace is sum_{p>0} p log p - <P, log max(Q, eps)>:
the entropy term is computed once, and each iteration takes one log and one
dot product over the full matrix, since P is zero wherever the masked form
drops an entry. That equals KL(P||Q) to within rounding. ``kl_divergence``
keeps the masked per-entry formula, which cancels less.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .dataio import ClinicalRecord, FeatureMatrix
from .errors import ConfigError, DataError

_EPS = 1e-12
# elements of each temporary of the bandwidth search (512 KiB: a block stays
# in cache through the dozen passes one evaluation makes over it)
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


def _pairwise_sq_dists(x: np.ndarray, out: np.ndarray | None = None,
                       scratch: np.ndarray | None = None) -> np.ndarray:
    """Squared Euclidean distances, written into ``out`` (using ``scratch``
    for the gram matrix) when the n x n buffers are given."""
    sq = np.sum(x * x, axis=1)
    d2 = np.add(sq[:, None], sq[None, :], out=out)
    gram = np.matmul(x, x.T, out=scratch)
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


def _q_matrix(coords: np.ndarray, num: np.ndarray | None = None,
              q: np.ndarray | None = None,
              scratch: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Q and its unnormalized Student-t kernel; written into the n x n
    buffers ``num``, ``q`` and ``scratch`` when given, fresh arrays if not."""
    num = _pairwise_sq_dists(coords, out=num, scratch=scratch)
    num += 1.0
    np.divide(1.0, num, out=num)
    np.fill_diagonal(num, 0.0)
    q = np.divide(num, num.sum(), out=q)
    return q, num


def _kl(p_pos: np.ndarray, q_pos: np.ndarray) -> float:
    """KL(P||Q) over the entries where P is positive."""
    return float(np.sum(p_pos * np.log(p_pos / np.maximum(q_pos, _EPS))))


def _gradient(p, q, num, coords: np.ndarray,
              out: np.ndarray | None = None) -> np.ndarray:
    w = np.subtract(p, q, out=out)
    w *= num
    return 4.0 * (w.sum(axis=1)[:, None] * coords - w @ coords)


def kl_divergence(p: np.ndarray, coords: np.ndarray) -> float:
    q, _ = _q_matrix(coords)
    mask = p > 0
    return _kl(p[mask], q[mask])


def kl_gradient(p: np.ndarray, coords: np.ndarray) -> np.ndarray:
    """Gradient of KL(P||Q) with the Student-t(1) low-dimensional kernel."""
    if p.shape[0] != coords.shape[0]:
        raise DataError("P and coords disagree on the number of points")
    q, num = _q_matrix(coords)
    return _gradient(p, q, num, coords)


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
    p_exaggerated = (p * config.early_exaggeration_factor
                     if config.early_exaggeration_iters else p)
    p_pos = p[p > 0]
    entropy_term = float(np.sum(p_pos * np.log(p_pos)))
    coords = _init_coords(features.patient_ids, config.output_dims, config.seed)
    velocity = np.zeros_like(coords)
    trace = np.empty(config.iterations)
    n = p.shape[0]
    num, q, scratch = np.empty((n, n)), np.empty((n, n)), np.empty((n, n))
    # the Q of each iteration's KL trace entry is the next iteration's Q
    _q_matrix(coords, num, q, scratch)
    for it in range(config.iterations):
        p_eff = p_exaggerated if it < config.early_exaggeration_iters else p
        grad = _gradient(p_eff, q, num, coords, out=scratch)
        momentum = 0.5 if it < _MOMENTUM_SWITCH_ITER else 0.8
        velocity = momentum * velocity - config.learning_rate * grad
        coords = coords + velocity
        _q_matrix(coords, num, q, scratch)
        # KL(P||Q) as sum_{p>0} p log p - <P, log max(Q, eps)>
        np.maximum(q, _EPS, out=scratch)
        np.log(scratch, out=scratch)
        trace[it] = entropy_term - np.vdot(p, scratch)
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
