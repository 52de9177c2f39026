import tracemalloc

import numpy as np
import pytest
from scipy import optimize

from omicsurv import dataio, project
from omicsurv.dataio import FeatureMatrix
from omicsurv.errors import ConfigError, DataError

from conftest import record


def fm(values, ids=None):
    values = np.asarray(values, dtype=np.float64)
    ids = ids or [f"p{i}" for i in range(values.shape[0])]
    return FeatureMatrix(ids, [f"f{j}" for j in range(values.shape[1])], values)


def oracle_affinities(x, perplexity):
    """Independent conditional-affinity oracle using scipy root finding."""
    n = len(x)
    d2 = np.sum((x[:, None, :] - x[None, :, :]) ** 2, axis=2)
    cond = np.zeros((n, n))
    for i in range(n):
        row = np.delete(d2[i], i)

        def perp_gap(beta):
            logits = -beta * row
            logits = logits - logits.max()
            p = np.exp(logits)
            p /= p.sum()
            h = -np.sum(p * np.log(np.maximum(p, 1e-300)))
            return np.exp(h) - perplexity

        hi = 1.0
        while perp_gap(hi) > 0:
            hi *= 4.0
        beta = optimize.brentq(perp_gap, 1e-20, hi, xtol=1e-14)
        logits = -beta * row
        logits = logits - logits.max()
        p = np.exp(logits)
        cond[i, np.arange(n) != i] = p / p.sum()
    return (cond + cond.T) / (2.0 * n)


class TestInputAffinities:
    def test_structure_invariants(self, rng):
        x = rng.normal(0, 1, (30, 5))
        p = project.input_affinities(x, perplexity=5.0)
        assert abs(p.sum() - 1.0) < 1e-10
        assert np.abs(p - p.T).max() < 1e-12
        assert np.abs(np.diag(p)).max() == 0.0
        assert (p >= 0).all()

    def test_matches_independent_oracle(self, rng):
        x = rng.normal(0, 1, (25, 4))
        ours = project.input_affinities(x, perplexity=6.0)
        oracle = oracle_affinities(x, 6.0)
        assert np.abs(ours - oracle).max() < 1e-6

    def test_achieved_perplexity(self, rng):
        x = rng.normal(0, 1, (40, 6))
        target = 8.0
        p = project.input_affinities(x, perplexity=target)
        # recover the conditionals: p_sym = (cond + cond.T) / 2n and each
        # conditional row sums to 1, so 2n * p_sym gives cond + cond.T; a
        # direct check instead recomputes each row's entropy from the oracle
        oracle = oracle_affinities(x, target)
        assert np.abs(p - oracle).max() < 1e-6

    def test_two_far_clusters_mass(self, rng):
        a = rng.normal(0, 0.1, (20, 3))
        b = rng.normal(1000, 0.1, (20, 3))
        x = np.vstack([a, b])
        p = project.input_affinities(x, perplexity=5.0)
        within = p[:20, :20].sum() + p[20:, 20:].sum()
        assert within > 0.99

    def test_too_few_points(self):
        with pytest.raises(DataError):
            project.input_affinities(np.zeros((3, 2)), perplexity=1.0)

    def test_perplexity_too_large(self, rng):
        with pytest.raises(ConfigError, match="perplexity"):
            project.input_affinities(rng.normal(0, 1, (10, 2)), perplexity=5.0)


class TestKlGradient:
    def test_symmetric_two_points_stationary(self):
        # 4 points at the corners of a square: P by perplexity ~ uniform-ish;
        # use a configuration where P equals Q by symmetry
        coords = np.array([[1.0, 0.0], [-1.0, 0.0]])
        p = np.array([[0.0, 0.5], [0.5, 0.0]])
        grad = project.kl_gradient(p, coords)
        assert np.abs(grad).max() < 1e-12

    def test_finite_differences(self, rng):
        step = 1e-6
        for trial in range(20):
            gen = np.random.default_rng(trial)
            x = gen.normal(0, 1, (10, 3))
            p = project.input_affinities(x, perplexity=2.5)
            coords = gen.normal(0, 1, (10, 2))
            grad = project.kl_gradient(p, coords)
            numeric = np.zeros_like(coords)
            for i in range(coords.shape[0]):
                for d in range(coords.shape[1]):
                    up = coords.copy()
                    up[i, d] += step
                    down = coords.copy()
                    down[i, d] -= step
                    numeric[i, d] = (project.kl_divergence(p, up)
                                     - project.kl_divergence(p, down)) / (2 * step)
            denom = np.maximum(np.abs(numeric), 1e-6)
            assert (np.abs(grad - numeric) / denom).max() < 1e-4

    def test_translation_invariance(self, rng):
        x = rng.normal(0, 1, (12, 4))
        p = project.input_affinities(x, perplexity=3.0)
        coords = rng.normal(0, 1, (12, 2))
        grad = project.kl_gradient(p, coords)
        assert np.abs(grad.sum(axis=0)).max() < 1e-9

    def test_shape_mismatch(self):
        with pytest.raises(DataError):
            project.kl_gradient(np.zeros((3, 3)), np.zeros((4, 2)))


class TestTsne:
    def blobs(self, n=100, dims=50, seed=0):
        gen = np.random.default_rng(seed)
        a = gen.normal(0, 1, (n // 2, dims))
        b = gen.normal(8, 1, (n // 2, dims))
        return fm(np.vstack([a, b])), np.array([0] * (n // 2) + [1] * (n // 2))

    def test_blob_separation(self):
        features, y = self.blobs()
        emb = project.tsne(features, project.TsneConfig(seed=0))
        mu0 = emb.coords[y == 0].mean(axis=0)
        mu1 = emb.coords[y == 1].mean(axis=0)
        proj = emb.coords @ (mu1 - mu0)
        assert proj[y == 1].min() > proj[y == 0].max()

    def test_determinism(self):
        features, _ = self.blobs(n=24, dims=5)
        config = project.TsneConfig(iterations=60, perplexity=5.0, seed=3)
        a = project.tsne(features, config)
        b = project.tsne(features, config)
        assert (a.coords == b.coords).all()

    def test_kl_trace_nonnegative_and_improves(self, monkeypatch):
        monkeypatch.setattr(project, "_EARLY_ITERS", 100)
        features, _ = self.blobs(n=60, dims=10)
        config = project.TsneConfig(iterations=400, perplexity=10.0, seed=1)
        emb = project.tsne(features, config)
        assert (emb.kl_trace >= 0).all()
        # entry 1 is the KL after iteration 100
        assert emb.kl_trace[-1] <= emb.kl_trace[1]

    def test_permutation_equivariance(self):
        # short run: permuting rows changes float summation order, and the
        # gradient dynamics amplify that noise exponentially over iterations
        features, _ = self.blobs(n=20, dims=4)
        config = project.TsneConfig(iterations=5, perplexity=4.0, seed=2)
        base = project.tsne(features, config)
        perm = np.arange(20)[::-1]
        shuffled = FeatureMatrix(
            [features.patient_ids[i] for i in perm],
            features.feature_names, features.values[perm].copy())
        again = project.tsne(shuffled, config)
        np.testing.assert_allclose(again.coords, base.coords[perm],
                                   rtol=1e-7, atol=1e-10)

    def test_sq_distances_sum_norms_by_row_block(self):
        """No a * a over the whole table: the distances and block temporaries."""
        a = np.random.default_rng(5).normal(0, 1, (300, 2000))
        tracemalloc.start()
        try:
            d2 = project.sq_distances(a, a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < d2.nbytes + 4 * 8 * dataio.BLOCK_CELLS

    def test_iterations_hold_less_than_one_more_square_matrix(self):
        """The loop keeps P and O(block * n): no exaggerated copy of P, no
        n x n kernel or Q."""
        n = 1000
        features = fm(np.random.default_rng(4).normal(0, 1, (n, 12)))
        config = project.TsneConfig(output_dims=3, iterations=2)

        def peak(fn):
            tracemalloc.start()
            try:
                fn()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        affinities = peak(lambda: project.input_affinities(features, config.perplexity))
        assert peak(lambda: project.tsne(features, config)) - affinities < n * n * 8


@pytest.mark.parametrize("key, value, message", [
    ("perplexity", float("nan"), "perplexity must be > 0, got nan"),
    ("perplexity", 0.0, "perplexity must be > 0, got 0.0"),
    ("output_dims", 0, "output_dims must be >= 1, got 0"),
])
def test_tsne_config_rejects_out_of_range(key, value, message):
    with pytest.raises(ConfigError) as excinfo:
        project.TsneConfig(**{key: value})
    assert str(excinfo.value) == message


class TestProjectWithAge:
    def features(self, n=24):
        gen = np.random.default_rng(5)
        return fm(gen.normal(0, 1, (n, 6)))

    def test_output_shape_and_age(self):
        features = self.features()
        clinical = [record(pid, age=30.0 + i)
                    for i, pid in enumerate(features.patient_ids)]
        config = project.TsneConfig(output_dims=3, perplexity=5.0,
                                    iterations=40, seed=0)
        out = project.project_with_age(features, clinical, config)
        assert out.feature_names == ["tsne_0", "tsne_1", "tsne_2", "age"]
        np.testing.assert_allclose(out.values[:, 3],
                                   30.0 + np.arange(len(features.patient_ids)))

    def test_missing_age(self):
        features = self.features(n=5)
        with pytest.raises(DataError, match="age missing"):
            project.project_with_age(
                features, [], project.TsneConfig(perplexity=1.0, iterations=2))

    @pytest.mark.parametrize("dims", [3, 5, 10, 15, 40, 70])
    def test_dims_sweep_accepted(self, dims):
        features = self.features()
        config = project.TsneConfig(output_dims=dims, perplexity=5.0,
                                    iterations=5, seed=0)
        emb = project.tsne(features, config)
        assert emb.coords.shape == (24, dims)
