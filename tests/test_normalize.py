import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import stats

from omicsurv import dataio, normalize, synth
from omicsurv.errors import DataError

from conftest import expr


class TestLog2:
    def test_anchor_values(self):
        m = expr([[0.0, 1.0, 3.0]])
        out = normalize.log2_transform(m)
        np.testing.assert_allclose(out.values, [[0.0, 1.0, 2.0]])

    def test_rejects_log2_input(self):
        """A log-scale table is rejected by the negative value it holds, which
        log2(v + 1) cannot take; the message names platform, patient and gene."""
        m = expr([[1.0, 0.5], [2.0, -0.25]], platform="micro")
        with pytest.raises(DataError) as info:
            normalize.log2_transform(m)
        assert str(info.value) == ("micro: patient 'p1', gene 'g1': "
                                   "log2(v + 1) needs v >= 0, got -0.25")


class TestQuantileMap:
    def test_equal_size_rank_mapping(self):
        out = normalize.quantile_map(np.array([10.0, 20.0, 30.0, 40.0]),
                                     np.array([1.0, 2.0, 3.0, 4.0]))
        np.testing.assert_allclose(out, [1.0, 2.0, 3.0, 4.0])

    def test_identity(self):
        v = np.array([3.0, 1.0, 2.0])
        np.testing.assert_allclose(normalize.quantile_map(v, v), v)

    def test_three_onto_two_interpolation(self):
        # target ranks 0,1,2 -> probs 1/6, 3/6, 5/6; reference points at
        # probs 0.25 -> 0 and 0.75 -> 10; hand interpolation gives 0, 5, 10
        out = normalize.quantile_map(np.array([7.0, 8.0, 9.0]),
                                     np.array([0.0, 10.0]))
        np.testing.assert_allclose(out, [0.0, 5.0, 10.0])

    def test_reference_needs_two(self):
        with pytest.raises(DataError):
            normalize.quantile_map(np.array([1.0]), np.array([1.0]))

    @given(hnp.arrays(np.float64, st.integers(3, 30),
                      elements=st.floats(-100, 100)),
           hnp.arrays(np.float64, st.integers(2, 30),
                      elements=st.floats(-100, 100)))
    @settings(max_examples=50, deadline=None)
    def test_rank_preservation_and_range(self, target, reference):
        out = normalize.quantile_map(target, reference)
        # ties map to ties, order is preserved
        for i in range(len(target)):
            for j in range(len(target)):
                if target[i] < target[j]:
                    assert out[i] <= out[j]
                if target[i] == target[j]:
                    assert out[i] == out[j]
        assert out.min() >= reference.min() - 1e-12
        assert out.max() <= reference.max() + 1e-12


class TestFsqn:
    def test_idempotent_on_reference(self, rng):
        ref = expr(rng.random((10, 4)))
        out = normalize.fsqn(ref, ref)
        np.testing.assert_allclose(out.values, ref.values)

    def test_equal_size_sorted_multiset(self, rng):
        ref = expr(rng.random((8, 3)), platform="ref")
        tgt = expr(rng.random((8, 3)) * 50, platform="tgt")
        out = normalize.fsqn(tgt, ref)
        for j in range(3):
            np.testing.assert_allclose(np.sort(out.values[:, j]),
                                       np.sort(ref.values[:, j]))

    def test_gene_set_mismatch(self, rng):
        ref = expr(rng.random((4, 2)), genes=["g1", "g2"])
        tgt = expr(rng.random((4, 2)), genes=["g1", "g3"])
        with pytest.raises(DataError, match="identical gene-id sets"):
            normalize.fsqn(tgt, ref)

    def test_gene_order_independent(self, rng):
        values = rng.random((6, 3))
        ref = expr(values, genes=["g1", "g2", "g3"], platform="ref")
        ref_shuffled = expr(values[:, [2, 0, 1]], genes=["g3", "g1", "g2"],
                            platform="ref")
        tgt = expr(rng.random((5, 3)), genes=["g1", "g2", "g3"])
        a = normalize.fsqn(tgt, ref)
        b = normalize.fsqn(tgt, ref_shuffled)
        np.testing.assert_allclose(a.values, b.values)


def _fsqn_tables(kind, n_genes):
    """(target, reference) pairs on which fsqn must equal quantile_map."""
    gen = np.random.default_rng(n_genes)
    genes = [f"g{j}" for j in range(n_genes)]
    ref_values = gen.normal(5, 2, (23, n_genes))
    if kind == "ties":
        target = gen.poisson(2, (31, n_genes)).astype(float)
    elif kind == "constant":
        target = gen.normal(0, 1, (19, n_genes))
        target[:, n_genes // 2] = 4.0
        ref_values[:, 0] = -1.0
    elif kind == "one_patient":
        target = gen.normal(0, 1, (1, n_genes))
    elif kind == "more_rows":
        target = gen.normal(0, 1, (57, n_genes))
    else:
        target = gen.gamma(2, 2, (23, n_genes))
    ref_genes = genes[::-1] if kind == "reordered" else genes
    reference = expr(ref_values, genes=ref_genes, platform="ref")
    return expr(target, genes=genes, platform="tgt"), reference


class TestFsqnBlocks:
    """fsqn ranks, sorts and maps a block of genes at a time; every gene's
    bits are quantile_map's, whatever the block width."""

    @pytest.mark.parametrize("kind", ["ties", "constant", "one_patient",
                                      "more_rows", "reordered"])
    @pytest.mark.parametrize("per_row", [1, 3, 64])
    def test_matches_quantile_map_bit_for_bit(self, monkeypatch, kind, per_row):
        for n_genes in (per_row - 1, per_row, per_row + 1, 2 * per_row + 1):
            if n_genes < 1:
                continue
            target, reference = _fsqn_tables(kind, n_genes)
            rows = max(target.n_patients, reference.n_patients)
            monkeypatch.setattr(normalize, "_BLOCK_CELLS", per_row * rows)
            out = normalize.fsqn(target, reference).values
            ref_cols = dataio.positions(reference.gene_ids, target.gene_ids, "genes")
            for j, col in enumerate(ref_cols):
                want = normalize.quantile_map(target.values[:, j],
                                              reference.values[:, col])
                assert (out[:, j].view(np.uint64) == want.view(np.uint64)).all()

    def test_peak_memory_is_blocked(self):
        gen = np.random.default_rng(3)
        target = expr(gen.normal(0, 1, (400, 1500)), platform="tgt")
        reference = expr(gen.normal(0, 1, (400, 1500)), platform="ref")
        tracemalloc.start()
        try:
            out = normalize.fsqn(target, reference)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < out.values.nbytes + 8 * 2**20

    def test_output_check_makes_no_table_sized_mask(self, monkeypatch):
        """The output's values are checked a block of rows at a time, so with
        small gene blocks the peak beyond the output stays below the size of
        one bool mask of it (1 MB here)."""
        monkeypatch.setattr(normalize, "_BLOCK_CELLS", 1 << 12)
        gen = np.random.default_rng(4)
        target = expr(gen.normal(0, 1, (1000, 1000)), platform="tgt")
        reference = expr(gen.normal(0, 1, (1000, 1000)), platform="ref")
        tracemalloc.start()
        try:
            values = normalize.fsqn(target, reference).values
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        extra, mask = peak - values.nbytes, values.size
        assert extra < mask


class TestIntegrate:
    def test_single_source_identical_to_reference(self, rng):
        ref = expr(rng.random((5, 3)), platform="ref")
        copy = expr(ref.values.copy(), platform="copy")
        out = normalize.integrate([ref, copy], 0)
        # identical patient ids resolve to the reference copy
        assert out.patient_ids == ref.patient_ids
        np.testing.assert_allclose(out.values, ref.values)

    def test_reference_only(self, rng):
        ref = expr(rng.random((5, 3)))
        out = normalize.integrate([ref], 0)
        np.testing.assert_allclose(out.values, ref.values)

    def test_reference_gene_order(self):
        a = expr([[2, 1], [4, 3]], ["a1", "a2"], ["g1", "g2"], platform="a")
        ref = expr([[7, 6, 5], [10, 9, 8]], ["r1", "r2"], ["g2", "g9", "g1"],
                   platform="r")
        out = normalize.integrate([a, ref], 1)
        assert out.gene_ids == ["g2", "g1"]
        assert out.patient_ids == ["r1", "r2", "a1", "a2"]
        # a's g2 (1, 3) maps onto the reference's (7, 10), its g1 (2, 4) onto (5, 8)
        np.testing.assert_array_equal(out.values, [[7, 5], [10, 8], [7, 5], [10, 8]])

    def test_ordered_reference_is_not_copied(self, rng, monkeypatch):
        ref = expr(rng.random((5, 3)), platform="ref")
        other = expr(rng.random((4, 3)), platform="other",
                     patients=[f"q{i}" for i in range(4)])
        seen = []
        fsqn = normalize.fsqn

        def spy(target, reference):
            seen.append(reference)
            return fsqn(target, reference)

        monkeypatch.setattr(normalize, "fsqn", spy)
        out = normalize.integrate([ref, other], 0)
        assert np.shares_memory(seen[0].values, ref.values)
        np.testing.assert_array_equal(out.values[:5], ref.values)

    def test_two_platform_ks(self):
        config = synth.SynthConfig(n_patients=600, n_genes=20,
                                   n_informative_genes=0, seed=1)
        cohort = synth.gen_two_platform(config)
        micro = normalize.log2_transform(cohort.microarray)
        rnaseq = normalize.log2_transform(cohort.rnaseq)
        normalized = normalize.fsqn(
            _restrict_like(rnaseq, micro), _restrict_like(micro, micro))
        for j in range(20):
            ks = stats.ks_2samp(normalized.values[:, j],
                                micro.values[:, j]).statistic
            assert ks <= 0.05

    def test_three_sources_pairwise_agreement(self):
        gen = np.random.default_rng(7)
        genes = [f"g{j}" for j in range(5)]
        ref = expr(gen.normal(0, 1, (300, 5)), genes=genes, platform="r",
                   patients=[f"r{i}" for i in range(300)])
        s1 = expr(gen.gamma(2, 2, (300, 5)), genes=genes, platform="a",
                  patients=[f"a{i}" for i in range(300)])
        s2 = expr(gen.exponential(3, (300, 5)), genes=genes, platform="b",
                  patients=[f"b{i}" for i in range(300)])
        out = normalize.integrate([ref, s1, s2], 0)
        a_rows = [i for i, p in enumerate(out.patient_ids) if p.startswith("a")]
        b_rows = [i for i, p in enumerate(out.patient_ids) if p.startswith("b")]
        for j in range(5):
            ks = stats.ks_2samp(out.values[a_rows, j],
                                out.values[b_rows, j]).statistic
            assert ks <= 0.08


def _restrict_like(m, reference):
    pos = {g: j for j, g in enumerate(m.gene_ids)}
    idx = np.array([pos[g] for g in reference.gene_ids])
    return dataio.ExpressionMatrix(
        platform_id=m.platform_id, patient_ids=m.patient_ids,
        gene_ids=list(reference.gene_ids), values=m.values[:, idx].copy())
