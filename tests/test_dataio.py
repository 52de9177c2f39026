import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omicsurv import dataio
from omicsurv.errors import DataError

from conftest import expr, record


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadExpression:
    def test_well_formed_3x2(self, tmp_path):
        p = write(tmp_path / "e.csv",
                  "patient_id,g1,g2\np1,1.0,2.0\np2,3.0,4.0\np3,5.0,6.0\n")
        m = dataio.load_expression(p)
        assert m.n_patients == 3 and m.n_genes == 2
        assert m.patient_ids == ["p1", "p2", "p3"]
        assert m.gene_ids == ["g1", "g2"]
        np.testing.assert_array_equal(m.values, [[1, 2], [3, 4], [5, 6]])

    def test_non_numeric_cell(self, tmp_path):
        p = write(tmp_path / "e.csv", "patient_id,g1\np1,NA\n p2,2.0\n")
        with pytest.raises(DataError, match=r"non-numeric cell at \(0,0\)"):
            dataio.load_expression(p)

    def test_duplicate_gene_header(self, tmp_path):
        p = write(tmp_path / "e.csv", "patient_id,g1,g1\np1,1,2\n")
        with pytest.raises(DataError, match="duplicate column ids"):
            dataio.load_expression(p)

    def test_genes_as_rows_transposed(self, tmp_path):
        p = write(tmp_path / "e.csv", "gene_id,p1,p2\ng1,1,2\ng2,3,4\n")
        m = dataio.load_expression(p, orientation="genes_as_rows")
        assert m.patient_ids == ["p1", "p2"]
        assert m.gene_ids == ["g1", "g2"]
        np.testing.assert_array_equal(m.values, [[1, 3], [2, 4]])

    def test_ragged_row(self, tmp_path):
        p = write(tmp_path / "e.csv", "patient_id,g1,g2\np1,1\n")
        with pytest.raises(DataError, match="ragged row"):
            dataio.load_expression(p)

    def test_negative_linear_value_rejected(self):
        with pytest.raises(DataError, match=">= 0"):
            expr([[-1.0]])


class TestCna:
    def test_all_neutral_valid(self):
        m = dataio.CnaMatrix(["p1"], ["g1", "g2"],
                             np.zeros((1, 2), dtype=np.int64))
        assert (m.values == 0).all()

    def test_value_3_lists_categories(self):
        with pytest.raises(DataError, match=r"\[-2, -1, 0, 1, 2\]"):
            dataio.CnaMatrix(["p1"], ["g1"], np.array([[3]]))

    def test_homozygous_deletion_accepted(self):
        m = dataio.CnaMatrix(["p1"], ["g1"], np.array([[-2]]))
        assert m.values[0, 0] == -2

    def test_load_rejects_fractional(self, tmp_path):
        p = write(tmp_path / "c.csv", "patient_id,g1\np1,0.5\n")
        with pytest.raises(DataError, match="non-integer"):
            dataio.load_cna(p)


class TestClinical:
    def test_full_row(self, tmp_path):
        p = write(tmp_path / "c.csv",
                  "patient_id,time_months,event,age,group\np1,70.0,1,55,IC1\n")
        (r,) = dataio.load_clinical(p)
        assert r.patient_id == "p1"
        assert r.observed_time_months == 70.0
        assert r.event is True
        assert r.age_years == 55.0
        assert r.group_label == "IC1"

    def test_negative_time(self, tmp_path):
        p = write(tmp_path / "c.csv",
                  "patient_id,time_months,event,age,group\np1,-3,1,55,\n")
        with pytest.raises(DataError, match="negative observed time"):
            dataio.load_clinical(p)

    def test_empty_age_is_none(self, tmp_path):
        p = write(tmp_path / "c.csv",
                  "patient_id,time_months,event,age,group\np1,10,0,,\n")
        (r,) = dataio.load_clinical(p)
        assert r.age_years is None and r.group_label is None

    def test_bad_event(self, tmp_path):
        p = write(tmp_path / "c.csv",
                  "patient_id,time_months,event,age,group\np1,10,2,,\n")
        with pytest.raises(DataError, match="event must be 0 or 1"):
            dataio.load_clinical(p)

    def test_wrong_header(self, tmp_path):
        p = write(tmp_path / "c.csv", "id,time,event,age,group\np1,1,1,,\n")
        with pytest.raises(DataError, match="expected header"):
            dataio.load_clinical(p)

    def test_duplicate_patient_id(self, tmp_path):
        p = write(tmp_path / "c.csv", "patient_id,time_months,event,age,group\n"
                  "p1,10,0,,\np2,20,1,,\np1,30,1,,\n")
        with pytest.raises(DataError) as info:
            dataio.load_clinical(p)
        assert str(p) in str(info.value)
        assert "duplicate patient_id 'p1' at row 2 (first at row 0)" in str(info.value)


class TestMerge:
    def a(self):
        return expr([[1, 2, 3], [4, 5, 6]], ["p1", "p2"],
                    ["g1", "g2", "g3"], platform="A")

    def b(self):
        return expr([[7, 8, 9], [10, 11, 12]], ["p2", "p3"],
                    ["g2", "g3", "g4"], platform="B")

    def test_union_intersection_priority(self):
        merged, report = dataio.merge([self.a(), self.b()])
        assert merged.patient_ids == ["p1", "p2", "p3"]
        assert merged.gene_ids == ["g2", "g3"]
        # p2 taken from A (first source wins)
        np.testing.assert_array_equal(merged.values[1], [5, 6])
        assert report.resolutions == {"p2": "A"}
        assert report.union_patient_count == 3
        assert report.intersection_gene_count == 2

    def test_idempotence(self):
        a = self.a()
        a2 = expr(a.values, a.patient_ids, a.gene_ids, platform="A2")
        merged, report = dataio.merge([a, a2])
        assert merged.patient_ids == a.patient_ids
        assert merged.gene_ids == a.gene_ids
        np.testing.assert_array_equal(merged.values, a.values)
        assert set(report.resolutions) == set(a.patient_ids)
        assert set(report.resolutions.values()) == {"A"}

    def test_empty_intersection(self):
        a = expr([[1.0]], ["p1"], ["g1"])
        b = expr([[1.0]], ["p2"], ["g2"])
        with pytest.raises(DataError, match="empty gene intersection"):
            dataio.merge([a, b])

    def test_scale_mismatch(self):
        a = expr([[1.0]], ["p1"], ["g1"], scale="linear")
        b = expr([[1.0]], ["p2"], ["g1"], scale="log2")
        with pytest.raises(DataError, match="scale mismatch"):
            dataio.merge([a, b])

    def test_winning_source_values(self):
        merged, _ = dataio.merge([self.a(), self.b()])
        a, b = self.a(), self.b()
        # p3 exists only in B
        np.testing.assert_array_equal(merged.values[2], b.values[1, [0, 1]])
        # p1 exists only in A
        np.testing.assert_array_equal(merged.values[0], a.values[0, [1, 2]])

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_associativity_of_sets(self, seed):
        gen = np.random.default_rng(seed)

        def random_matrix(tag):
            pats = sorted(gen.choice(10, size=gen.integers(1, 5),
                                     replace=False))
            genes = sorted(gen.choice(6, size=gen.integers(2, 5),
                                      replace=False))
            return expr(gen.random((len(pats), len(genes))),
                        [f"p{i}" for i in pats], [f"g{j}" for j in genes],
                        platform=tag)

        a, b, c = (random_matrix(t) for t in "abc")
        common = (set(a.gene_ids) & set(b.gene_ids) & set(c.gene_ids))
        if not common or not (set(a.gene_ids) & set(b.gene_ids)):
            return
        flat, _ = dataio.merge([a, b, c])
        ab, _ = dataio.merge([a, b])
        nested, _ = dataio.merge([ab, c])
        assert set(flat.patient_ids) == set(nested.patient_ids)
        assert set(flat.gene_ids) == set(nested.gene_ids)


class TestRoundTrip:
    def test_expression_bit_identical(self, tmp_path, rng):
        m = expr(rng.random((4, 3)) * 1e3)
        path = tmp_path / "e.csv"
        dataio.save_expression(m, path)
        again = dataio.load_expression(path)
        assert again.patient_ids == m.patient_ids
        assert again.gene_ids == m.gene_ids
        assert (again.values == m.values).all()
        dataio.save_expression(again, tmp_path / "e2.csv")
        assert (tmp_path / "e.csv").read_bytes() == (tmp_path / "e2.csv").read_bytes()

    def test_clinical_round_trip(self, tmp_path):
        records = [record("p1", 70.5, True, 55.25, "IC1"),
                   record("p2", 3.0, False, None, None)]
        path = tmp_path / "c.csv"
        dataio.save_clinical(records, path)
        again = dataio.load_clinical(path)
        assert again == records

    def test_cna_round_trip(self, tmp_path):
        m = dataio.CnaMatrix(["p1", "p2"], ["g1"],
                             np.array([[-2], [2]], dtype=np.int64))
        path = tmp_path / "c.csv"
        dataio.save_cna(m, path)
        again = dataio.load_cna(path)
        assert (again.values == m.values).all()


class TestBuildFeatures:
    def test_age_appended(self):
        e = expr([[1, 2], [3, 4]], ["p1", "p2"], ["g1", "g2"])
        clinical = [record("p1", age=5.0), record("p2", age=7.0)]
        f = dataio.build_features(e, clinical, include_age=True)
        assert f.values.shape == (2, 3)
        assert f.feature_names == ["g1", "g2", "age"]
        np.testing.assert_array_equal(f.values[:, 2], [5.0, 7.0])

    def test_identity_without_age(self):
        e = expr([[1, 2], [3, 4]])
        f = dataio.build_features(e, [], include_age=False)
        np.testing.assert_array_equal(f.values, e.values)

    def test_clinical_intersection(self):
        e = expr([[1, 2], [3, 4]], ["p1", "p2"], ["g1", "g2"])
        f = dataio.build_features(e, [record("p1", age=50.0)],
                                  include_age=True)
        assert f.patient_ids == ["p1"]
        assert f.values.shape == (1, 3)

    def test_cna_columns_prefixed(self):
        e = expr([[1.0]], ["p1"], ["g1"])
        cna = dataio.CnaMatrix(["p1"], ["g1"], np.array([[-1]]))
        f = dataio.build_features(e, [], cna=cna)
        assert f.feature_names == ["g1", "cna:g1"]
        np.testing.assert_array_equal(f.values, [[1.0, -1.0]])

    def test_missing_age_raises(self):
        e = expr([[1.0]], ["p1"], ["g1"])
        with pytest.raises(DataError, match="age missing"):
            dataio.build_features(e, [record("p1", age=None)],
                                  include_age=True)


class TestSubsetPatients:
    def test_order_and_values(self):
        e = expr([[1], [2], [3]], ["p1", "p2", "p3"], ["g1"])
        s = dataio.subset_patients(e, ["p3", "p1"])
        assert s.patient_ids == ["p3", "p1"]
        np.testing.assert_array_equal(s.values[:, 0], [3, 1])

    def test_missing_patient(self):
        e = expr([[1.0]], ["p1"], ["g1"])
        with pytest.raises(DataError, match="not in matrix"):
            dataio.subset_patients(e, ["p9"])
