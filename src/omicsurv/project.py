"""Exact O(N^2) t-SNE to arbitrary output dimension.

Input affinities use per-point Gaussian bandwidths found by bisection on the
precision until each conditional's perplexity matches the target. One n x n
buffer holds the distances, then the conditionals, then P. The embedding is
optimized by plain gradient descent with momentum (0.5 for the first 250
iterations, 0.8 after) and early exaggeration. Initial coordinates are drawn
per point from a generator keyed by (seed, patient-id hash), so permuting
the input rows permutes the embedding identically.

Each iteration is one pass over the block pairs I <= J of P's upper triangle
(blocks of about 128 rows, one block up to 191 points), which
``packed_affinities`` packs once, in place, so that each pair's block of P is
contiguous. No other n x n array is built. For each pair, one GEMM of
[y, 1, |y|^2 + 1] with [-2y, |y|^2, 1] gives 1 + d^2; its reciprocal gives the
Student-t kernel (diagonal zeroed) and the pair's share of Z. Then
(P * kernel) @ [y, 1] gives the attraction and kernel^2 @ [y, 1] the
repulsion of rows I; an off-diagonal pair also gives rows J theirs through
the transposed blocks, and it counts twice in both sums. The gradient is
4 (f attraction - repulsion / Z) with the early exaggeration f scaling the
attraction.

KL(P||Q) = sum P log P + sum P log(1 + d^2) + sum P log Z. Only the middle
term needs a logarithm per point pair, so a pass takes it only when asked:
``tsne`` records the KL after every ``_KL_EVERY``-th iteration and after the
last, as scikit-learn's t-SNE does. The entropy term and sum P depend on P
alone and are computed once per P, which several runs at different output
dimensions may share. ``kl_gradient`` and ``kl_divergence`` make the same
pass over a packed copy of P, so the last KL trace entry is
``kl_divergence`` of the returned coordinates.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .dataio import ClinicalRecord, FeatureMatrix
from .errors import ConfigError, DataError

_EPS = 1e-12
# elements of each row-block temporary of the bandwidth search and of the
# t-SNE pass (512 KiB: a block stays in cache through the passes made over it)
_BLOCK_ELEMENTS = 1 << 16
_MOMENTUM_SWITCH_ITER = 250
# KL(P||Q) is recorded after every _KL_EVERY-th iteration and after the last
_KL_EVERY = 50


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
    # KL(P||Q) after iterations _KL_EVERY, 2 _KL_EVERY, ... and after the
    # last: ceil(iterations / _KL_EVERY) entries
    kl_trace: np.ndarray


def _row_blocks(n: int, rows: int | None = None) -> list[slice]:
    """Consecutive blocks of ``rows`` rows, ``_BLOCK_ELEMENTS // n`` by default."""
    rows = rows or max(1, _BLOCK_ELEMENTS // n)
    return [slice(start, min(start + rows, n)) for start in range(0, n, rows)]


def _pairwise_sq_dists(x: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between the rows of ``x``, formed a row
    block at a time over the Gram matrix, the one n x n array made."""
    sq = np.sum(x * x, axis=1)
    d2 = x @ x.T
    d2 *= 2.0
    for block in _row_blocks(len(x)):
        part = sq[block, None] + sq[None, :]
        part -= d2[block]
        d2[block] = part
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
    """The precision at which each row of the (n, n - 1) off-diagonal squared
    distances ``d2`` has the target perplexity: the last one evaluated.

    Every row's precision is bracketed and then bisected at once: each step
    evaluates the rows still searching, a block of rows at a time, and a row
    leaves once it is done. The errors name the first failing point, as a
    point-by-point search would."""
    n = len(d2)
    perp = np.empty(n)
    last = np.empty(n)
    lo, hi = np.zeros(n), np.ones(n)
    block = max(1, _BLOCK_ELEMENTS // d2.shape[1])

    def evaluate(rows, beta):
        last[rows] = beta
        for start in range(0, len(rows), block):
            part = rows[start:start + block]
            perp[part] = _conditional_rows(d2[part], beta[start:start + block])[1]

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
    return last


def input_affinities(features: FeatureMatrix | np.ndarray,
                     perplexity: float,
                     tol: float = 1e-4) -> np.ndarray:
    """Symmetric t-SNE affinity matrix P (zero diagonal, sums to 1).

    One n x n buffer holds every stage. The distances are packed in place
    into its first n (n - 1) elements, row-major without the diagonal: the
    (n, n - 1) table the bandwidth search reads. The conditionals at the
    searched precisions are written over it a row block at a time, unpacked
    in place around a zero diagonal, and symmetrized a block pair at a time."""
    x = features.values if isinstance(features, FeatureMatrix) else np.asarray(features)
    n = x.shape[0]
    if n < 4:
        raise DataError("input_affinities needs at least 4 points")
    if perplexity >= (n - 1) / 3:
        raise ConfigError(
            f"perplexity {perplexity} too large for {n} points "
            f"(must be < (N-1)/3)"
        )
    p = _pairwise_sq_dists(x)
    flat = p.reshape(-1)
    off = flat[:n * (n - 1)].reshape(n, n - 1)
    # packed row i starts i elements before full row i, so packing the rows
    # first to last, and unpacking them last to first, overwrites only rows
    # already moved
    for i in range(n):
        flat[i * (n - 1):(i + 1) * (n - 1)] = np.concatenate(
            [flat[i * n:i * n + i], flat[i * n + i + 1:(i + 1) * n]])
    beta = _bandwidth_search(off, perplexity, tol)
    for block in _row_blocks(n):
        off[block] = _conditional_rows(off[block], beta[block])[0]
    for i in range(n - 1, -1, -1):
        row = flat[i * (n - 1):(i + 1) * (n - 1)].copy()
        flat[i * n:i * n + i] = row[:i]
        flat[i * n + i] = 0.0
        flat[i * n + i + 1:(i + 1) * n] = row[i:]
    scale = 2.0 * n
    blocks = _row_blocks(n)
    for a, rows in enumerate(blocks):
        for cols in blocks[a:]:
            sym = p[rows, cols] + p[cols, rows].T
            sym /= scale
            p[rows, cols] = sym
            p[cols, rows] = sym.T
    return p


def _pair_blocks(n: int) -> list[slice]:
    """Row blocks of the t-SNE pass: n cut into round(n / r) blocks of about
    r = sqrt(_BLOCK_ELEMENTS) / 2 = 128 rows, so that up to 191 points are
    one block."""
    count = max(1, round(n / (math.isqrt(_BLOCK_ELEMENTS) // 2)))
    return _row_blocks(n, -(-n // count))


def _pack_pairs(p: np.ndarray, blocks: list[slice],
                out: np.ndarray | None = None) -> np.ndarray:
    """The blocks P[I, J], I <= J, each C-contiguous and in row-major order of
    (I, J), one after another in ``out``, a new array by default.

    ``out`` may be P's own buffer, ``p.reshape(-1)``: block row I packs into
    elements that only rows of blocks I and earlier held, and it is copied
    out before it is written."""
    n = p.shape[0]
    if out is None:
        out = np.empty(sum((rows.stop - rows.start) * (n - rows.start)
                           for rows in blocks))
    offset = 0
    for a, rows in enumerate(blocks):
        block_row = p[rows, rows.start:].copy()
        for cols in blocks[a:]:
            part = block_row[:, cols.start - rows.start:cols.stop - rows.start]
            out[offset:offset + part.size].reshape(part.shape)[...] = part
            offset += part.size
    return out[:offset]


def _kl_pass_packed(packed: np.ndarray, blocks: list[slice], coords: np.ndarray,
                    exaggeration: float = 1.0, *,
                    with_kl: bool = True) -> tuple[np.ndarray, float, float]:
    """One pass over the block pairs I <= J of P, packed by ``_pack_pairs``,
    at ``coords``: the KL gradient with the attraction scaled by
    ``exaggeration``, sum P log(1 + d^2) (NaN unless ``with_kl``), and Z."""
    n, d = coords.shape
    left = np.empty((n, d + 2))  # [y, 1, |y|^2 + 1]
    right = np.empty((n, d + 2))  # [-2y, |y|^2, 1]
    left[:, :d] = coords
    left[:, d] = 1.0
    np.einsum("ij,ij->i", coords, coords, out=right[:, d])
    np.add(right[:, d], 1.0, out=left[:, d + 1])
    np.multiply(coords, -2.0, out=right[:, :d])
    right[:, d + 1] = 1.0
    y1 = left[:, :d + 1]
    size = (blocks[0].stop - blocks[0].start) ** 2
    products, ones = np.empty(2 * size), np.ones(size)
    forces = np.zeros((2, n, d + 1))  # attraction, repulsion
    p_log = 0.0 if with_kl else math.nan
    z, offset = 0.0, 0
    for a, rows in enumerate(blocks):
        for b in range(a, len(blocks)):
            cols = blocks[b]
            shape = (rows.stop - rows.start, cols.stop - cols.start)
            count = shape[0] * shape[1]
            pb = packed[offset:offset + count].reshape(shape)
            offset += count
            both = products[:2 * count].reshape(2 * shape[0], shape[1])
            w, t = both[:shape[0]], both[shape[0]:]
            # an off-diagonal pair also stands for its mirror (J, I)
            twice = 1.0 if b == a else 2.0
            np.matmul(left[rows], right[cols].T, out=t)
            np.maximum(t, 1.0, out=t)  # 1 + d^2, which rounding may put below 1
            if with_kl:
                np.log(t, out=w)
                p_log += twice * np.vdot(pb, w)
            np.reciprocal(t, out=t)
            if b == a:
                t.reshape(-1)[::shape[0] + 1] = 0.0
            z += twice * np.vdot(t, ones[:count])
            np.multiply(pb, t, out=w)
            np.multiply(t, t, out=t)
            forces[:, rows] += (both @ y1[cols]).reshape(2, shape[0], d + 1)
            if b != a:
                forces[0, cols] += w.T @ y1[rows]
                forces[1, cols] += t.T @ y1[rows]
    # row i of a force is sum_j f_ij (y_i - y_j): the last column of its
    # product with [y, 1] times y_i, less its first d columns
    forces[0] *= exaggeration
    forces[1] /= -z
    net = forces[0] + forces[1]
    grad = net[:, d:] * coords
    grad -= net[:, :d]
    grad *= 4.0
    return grad, float(p_log), float(z)


def _kl_pass(p: np.ndarray, coords: np.ndarray, exaggeration: float = 1.0, *,
             with_kl: bool = True) -> tuple[np.ndarray, float, float]:
    """``_kl_pass_packed`` of a dense symmetric P."""
    blocks = _pair_blocks(p.shape[0])
    return _kl_pass_packed(_pack_pairs(p, blocks), blocks, coords, exaggeration,
                           with_kl=with_kl)


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
    return _kl_pass(p, coords, with_kl=False)[0]


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


@dataclass(frozen=True)
class Affinities:
    """P of a table, packed for the t-SNE pass, and the KL terms that depend
    on P alone. A t-SNE run reads it and leaves it as it is."""

    packed: np.ndarray  # the block pairs I <= J of P, laid out by _pack_pairs
    blocks: list[slice]
    entropy: float  # sum P log P
    mass: float  # sum P


def packed_affinities(features: FeatureMatrix, perplexity: float) -> Affinities:
    """``input_affinities`` of ``features``, packed in place."""
    p = input_affinities(features, perplexity)
    entropy, mass = _entropy_and_mass(p)
    blocks = _pair_blocks(p.shape[0])
    return Affinities(_pack_pairs(p, blocks, out=p.reshape(-1)), blocks, entropy, mass)


def tsne(features: FeatureMatrix, config: TsneConfig,
         affinities: Affinities | None = None) -> Embedding:
    """Run exact t-SNE from ``affinities``, the ``packed_affinities`` of
    ``features`` at ``config.perplexity``, computed here when not given. The
    returned trace records KL(P||Q) against the un-exaggerated P after every
    ``_KL_EVERY``-th iteration and after the last."""
    if affinities is None:
        affinities = packed_affinities(features, config.perplexity)
    p, blocks = affinities.packed, affinities.blocks
    entropy, mass = affinities.entropy, affinities.mass
    coords = _init_coords(features.patient_ids, config.output_dims, config.seed)
    velocity = np.zeros_like(coords)
    trace = np.empty(-(-config.iterations // _KL_EVERY))

    def exaggeration(it):
        return (config.early_exaggeration_factor
                if it < config.early_exaggeration_iters else 1.0)

    # the pass after iteration it gives iteration it + 1's gradient and,
    # on a recorded iteration, its KL
    grad = _kl_pass_packed(p, blocks, coords, exaggeration(0), with_kl=False)[0]
    for it in range(config.iterations):
        momentum = 0.5 if it < _MOMENTUM_SWITCH_ITER else 0.8
        velocity = momentum * velocity - config.learning_rate * grad
        coords = coords + velocity
        record = (it + 1) % _KL_EVERY == 0 or it + 1 == config.iterations
        grad, p_log, z = _kl_pass_packed(p, blocks, coords, exaggeration(it + 1),
                                         with_kl=record)
        if record:
            trace[it // _KL_EVERY] = entropy + p_log + mass * np.log(z)
    return Embedding(patient_ids=list(features.patient_ids), coords=coords,
                     kl_trace=trace)


def project_with_age(features: FeatureMatrix,
                     clinical: list[ClinicalRecord] | None,
                     config: TsneConfig,
                     affinities: Affinities | None = None) -> FeatureMatrix:
    """t-SNE the features into columns ``tsne_k``, from ``affinities`` when
    given (see ``tsne``); with clinical records, append the raw age column."""
    names = [f"tsne_{k}" for k in range(config.output_dims)]
    age_column = []
    if clinical is not None:
        ages = {r.patient_id: r.age_years for r in clinical}
        missing = [pid for pid in features.patient_ids if ages.get(pid) is None]
        if missing:
            raise DataError(f"age missing for patient {missing[0]}")
        age_column = [np.array([[ages[pid]] for pid in features.patient_ids])]
        names.append("age")
    values = np.hstack([tsne(features, config, affinities).coords, *age_column])
    return FeatureMatrix(patient_ids=list(features.patient_ids),
                         feature_names=names, values=values)
