import csv
import functools
import math
import os
import threading
import time
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omicsurv import cli, dataio
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

    def test_ragged_row(self, tmp_path):
        p = write(tmp_path / "e.csv", "patient_id,g1,g2\np1,1\n")
        with pytest.raises(DataError, match="ragged row"):
            dataio.load_expression(p)

    def test_negative_linear_value_rejected(self, tmp_path):
        p = write(tmp_path / "e.csv", "patient_id,g1\np1,-1.0\n")
        with pytest.raises(DataError, match=">= 0"):
            dataio.load_expression(p, nonnegative=True)

    def test_negative_value_accepted(self, tmp_path):
        """A table on a log scale may hold negative values; only a caller that
        takes log2 asks for them to be >= 0."""
        p = write(tmp_path / "e.csv", "patient_id,g1,g2\np1,-1.5,0.25\n")
        np.testing.assert_array_equal(dataio.load_expression(p).values, [[-1.5, 0.25]])
        np.testing.assert_array_equal(expr([[-1.0]]).values, [[-1.0]])


class TestLocatedErrors:
    """Every cell-level error a matrix loader raises names the file and the
    1-based line and column of the cell (the id column is column 1)."""

    @pytest.mark.parametrize("load, text, where", [
        (dataio.load_expression, "patient_id,g1,g2\np1,1,2\np2,3,nan\n",
         "line 3, column 3: expression values must be finite, got nan"),
        (dataio.load_expression, "patient_id,g1,g2\n\np1,1,-inf\n",
         "line 3, column 3: expression values must be finite, got -inf"),
        (functools.partial(dataio.load_expression, nonnegative=True),
         "patient_id,g1,g2\r\np1,1,2\r\np2,-3,4\r\n",
         "line 3, column 2: linear-scale expression values must be >= 0, got -3.0"),
        (dataio.load_features, "patient_id,f1,f2\np1,1,inf\n",
         "line 2, column 3: feature values must be finite, got inf"),
        (dataio.load_features, "patient_id,f1,f2\np1,1,2\np2,-inf,2\n",
         "line 3, column 2: feature values must be finite, got -inf"),
        (dataio.load_cna, "patient_id,g1,g2\np1,0,1\np2,2,0.5\n",
         "line 3, column 3: non-integer CNA cell, got 0.5"),
        (dataio.load_cna, "patient_id,g1,g2\np1,0,1\np2,3,0\n",
         "line 3, column 2: CNA value is not one of the GISTIC categories "
         "[-2, -1, 0, 1, 2], got 3.0"),
        (dataio.load_cna, "patient_id,g1\np1,inf\n",
         "line 2, column 2: CNA value is not one of the GISTIC categories "
         "[-2, -1, 0, 1, 2], got inf"),
        (dataio.load_features, "patient_id,f1\np1,1\np2,2\np1,3\n",
         "line 4, column 1: duplicate row ids: ['p1']"),
        (dataio.load_cna, "patient_id,g1,g2,g1,g2\np1,0,0,0,0\n",
         "line 1, column 4: duplicate column ids: ['g1', 'g2']"),
        (dataio.load_features, 'patient_id,f1\n"p,1",1\n"p,1",2\n',
         "line 3, column 1: duplicate row ids: ['p,1']"),
        (dataio.load_features, "patient_id,f1\np1,1\np2,x\n",
         "line 3, column 2: non-numeric cell at (1,0): 'x'"),
    ], ids=["nan", "minus_inf_after_blank_line", "negative_linear_crlf",
            "feature_inf", "feature_minus_inf", "cna_fraction", "cna_category",
            "cna_inf", "duplicate_row", "duplicate_column",
            "duplicate_quoted_row", "non_numeric"])
    def test_message(self, tmp_path, load, text, where):
        p = write(tmp_path / "m.csv", text)
        with pytest.raises(DataError) as info:
            load(p)
        assert str(info.value) == f"{p}: {where}"

    def test_cli_normalize_nan(self, tmp_path, capsys):
        good = write(tmp_path / "good.csv", "patient_id,g1,g2\np1,1,2\np2,3,4\n")
        bad = write(tmp_path / "bad.csv", "patient_id,g1,g2\np1,1,2\np2,3,nan\n")
        code = cli.main(["normalize", "--target", str(bad), "--reference",
                         str(good), "--log2", "--output", str(tmp_path / "o.csv")])
        assert code == 3
        assert capsys.readouterr().err == (
            f"data error: {bad}: line 3, column 3: "
            "expression values must be finite, got nan\n")

    def test_cli_project_inf_exits_before_any_work(self, tmp_path, capsys):
        rows = [f"p{i},{i},{i % 3}" for i in range(6)]
        rows[4] = "p4,inf,1"
        bad = write(tmp_path / "f.csv", "patient_id,f1,f2\n" + "\n".join(rows))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(["project", "--features", str(bad), "--dims", "2",
                             "--output", str(tmp_path / "o.csv")])
        assert code == 3
        assert capsys.readouterr().err == (
            f"data error: {bad}: line 6, column 2: "
            "feature values must be finite, got inf\n")


class TestMatrixChecks:
    def test_duplicate_ids_found_in_linear_time(self):
        ids = [f"g{k:05d}" for k in range(20_000)]
        ids[12_345] = ids[7]
        values = np.zeros((1, len(ids)))
        start = time.perf_counter()
        with pytest.raises(DataError) as info:
            dataio.FeatureMatrix(["p1"], ids, values)
        assert time.perf_counter() - start < 1.0
        assert str(info.value) == "duplicate column ids: ['g00007']"

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_feature_matrix_rejects_non_finite(self, bad):
        with pytest.raises(DataError, match="feature values must be finite"):
            dataio.FeatureMatrix(["p1"], ["f1", "f2"], np.array([[1.0, bad]]))


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
        assert str(info.value) == (
            f"{p}: line 4: duplicate patient_id 'p1' (first at line 2)")


class TestLabels:
    def test_round_trip(self, tmp_path):
        labels = {"p2": 1, "p0": 0, "a,b": 1}
        path = tmp_path / "labels.csv"
        dataio.save_labels(labels, path)
        again = dataio.load_labels(path)
        assert again == labels and list(again) == list(labels)
        dataio.save_labels(again, tmp_path / "again.csv")
        assert (tmp_path / "again.csv").read_bytes() == path.read_bytes()

    def test_literal_crlf_file_written_back_byte_for_byte(self, tmp_path):
        text = b'patient_id,label\r\np3,1\r\np1,0\r\n"x,y",1\r\n'
        path = tmp_path / "labels.csv"
        path.write_bytes(text)
        labels = dataio.load_labels(path)
        assert labels == {"p3": 1, "p1": 0, "x,y": 1}
        dataio.save_labels(labels, tmp_path / "out.csv")
        assert (tmp_path / "out.csv").read_bytes() == text

    def test_label_whitespace_and_extra_columns(self, tmp_path):
        p = write(tmp_path / "l.csv", "patient_id,label,note\n\np1, 1 ,x\np2,0\n")
        assert dataio.load_labels(p) == {"p1": 1, "p2": 0}

    @pytest.mark.parametrize("text, what", [
        ("id,label\np1,1\n", "expected header patient_id,label"),
        ("patient_id,label\n", "no data rows"),
        ("patient_id,label\np1,1\np2,yes\n", "line 3: label must be 0 or 1, got 'yes'"),
        ("patient_id,label\np1\n", "line 2: label must be 0 or 1, got ''"),
        ("patient_id,label\np1,1\n\np1,0\n",
         "line 4: duplicate patient id 'p1' (first at line 2)"),
    ])
    def test_errors_name_file_and_line(self, tmp_path, text, what):
        p = write(tmp_path / "l.csv", text)
        with pytest.raises(DataError) as info:
            dataio.load_labels(p)
        assert str(info.value) == f"{p}: {what}"


CLINICAL_HEAD = "patient_id,time_months,event,age,group\n"


class TestClinicalCliErrors:
    """``omicsurv label`` on a bad clinical row exits 3 naming the file and
    the 1-based line (the header is line 1), with no traceback."""

    @pytest.mark.parametrize("row, what", [
        ("p1,10,1,abc,", "non-numeric age 'abc'"),
        ("p1,ten,1,40,", "non-numeric time 'ten'"),
        ("p1,nan,1,40,", "observed time for p1 must be finite, got nan"),
        ("p1,inf,0,40,", "observed time for p1 must be finite, got inf"),
        ("p1,-3,1,40,", "negative observed time for p1: -3.0"),
        ("p1,10,1,nan,", "age for p1 must be finite, got nan"),
        ("p1,10,1,-inf,", "age for p1 must be finite, got -inf"),
        ("p1,10,1,-2,", "negative age for p1"),
        ("p1,10,2,40,", "event must be 0 or 1, got '2'"),
        ("p1,10,1,40", "ragged row (4 cells, expected 5)"),
        (",10,1,40,", "patient_id must be non-empty"),
        ("p0,10,1,40,", "duplicate patient_id 'p0' (first at line 2)"),
    ], ids=["age_text", "time_text", "time_nan", "time_inf", "time_negative",
            "age_nan", "age_minus_inf", "age_negative", "event", "ragged",
            "no_id", "duplicate"])
    def test_label_exits_3_naming_line(self, tmp_path, capsys, row, what):
        p = write(tmp_path / "clinical.csv",
                  CLINICAL_HEAD + "p0,70,0,50,\n\n" + row + "\np9,5,1,,\n")
        code = cli.main(["label", "--clinical", str(p), "--t", "60",
                         "--output", str(tmp_path / "labels.csv")])
        assert code == 3
        assert capsys.readouterr().err == f"data error: {p}: line 4: {what}\n"


class TestNotUtf8:
    """A Latin-1 byte in any table read as text is a data error (exit 3)
    naming the file, not a UnicodeDecodeError traceback."""

    def latin1(self, path, text):
        path.write_bytes(text.encode("latin-1"))
        return path

    def test_normalize_gene_name(self, tmp_path, capsys):
        good = write(tmp_path / "good.csv", "patient_id,g1,g2\np1,1,2\np2,3,4\n")
        bad = self.latin1(tmp_path / "bad.csv", "patient_id,g\xe91,g2\np1,1,2\np2,3,4\n")
        code = cli.main(["normalize", "--target", str(bad), "--reference",
                         str(good), "--log2", "--output", str(tmp_path / "o.csv")])
        assert code == 3
        assert capsys.readouterr().err == (
            f"data error: {bad}: not UTF-8 text (byte 0xe9 at offset 12)\n")

    def test_label_clinical_group(self, tmp_path, capsys):
        bad = self.latin1(tmp_path / "c.csv", CLINICAL_HEAD + "p1,70,0,50,caf\xe9\n")
        code = cli.main(["label", "--clinical", str(bad), "--t", "60",
                         "--output", str(tmp_path / "labels.csv")])
        assert code == 3
        assert capsys.readouterr().err == (
            f"data error: {bad}: not UTF-8 text (byte 0xe9 at offset 53)\n")

    def test_train_labels_file(self, tmp_path, capsys):
        features = write(tmp_path / "f.csv", "patient_id,f1\np1,1\np2,2\n")
        bad = self.latin1(tmp_path / "labels.csv", "patient_id,label\np\xe9,1\n")
        code = cli.main(["train", "--family", "gaussian_nb", "--features",
                         str(features), "--labels", str(bad), "--model-out",
                         str(tmp_path / "model.json")])
        assert code == 3
        assert capsys.readouterr().err == (
            f"data error: {bad}: not UTF-8 text (byte 0xe9 at offset 18)\n")


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

    def test_winning_source_values(self):
        merged, _ = dataio.merge([self.a(), self.b()])
        a, b = self.a(), self.b()
        # p3 exists only in B
        np.testing.assert_array_equal(merged.values[2], b.values[1, [0, 1]])
        # p1 exists only in A
        np.testing.assert_array_equal(merged.values[0], a.values[0, [1, 2]])

    def test_first_source_gene_order(self):
        a = expr([[1, 2, 3]], ["p1"], ["g3", "g1", "g2"], platform="A")
        b = expr([[4, 5, 6, 7]], ["p2"], ["g1", "g4", "g2", "g3"], platform="B")
        merged, _ = dataio.merge([a, b])
        assert merged.gene_ids == ["g3", "g1", "g2"]
        np.testing.assert_array_equal(merged.values, [[1, 2, 3], [7, 4, 6]])

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

    def test_one_array_same_bytes(self, rng):
        n, genes = 600, 2000
        e = expr(rng.random((n, genes)), genes=[f"g{j}" for j in range(genes)])
        cna = dataio.CnaMatrix([f"p{i}" for i in range(n)][::-1], ["c1", "c2"],
                               rng.integers(-2, 3, (n, 2)))
        clinical = [record(f"p{i}", age=float(20 + i % 50)) for i in range(0, n, 2)]
        keep = [f"p{i}" for i in range(0, n, 2)]
        rows = dataio.positions(e.patient_ids, keep, "patients")
        cna_rows = dataio.positions(cna.patient_ids, keep, "patients")
        want = np.hstack([e.values[rows], cna.values[cna_rows].astype(np.float64),
                          np.array([[r.age_years] for r in clinical])])
        tracemalloc.start()
        try:
            f = dataio.build_features(e, clinical, include_age=True, cna=cna)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert f.patient_ids == keep
        assert f.values.tobytes() == want.tobytes()
        # the result, FeatureMatrix's finiteness mask (a byte a cell) and one
        # block of rows, not a second copy of the result
        assert peak < f.values.nbytes + f.values.size + 2 * 8 * dataio._COPY_BLOCK_CELLS

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


# --- reference code: the per-cell reader and the csv.writer writer that the
# block reader and the row-join writer replaced. Loaded values must match
# them bit for bit, written files byte for byte, and errors word for word
# apart from the line (and, for a cell, the column) that the loader names.

def ref_read(path, kind="float"):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = [row for row in csv.reader(fh) if row]
    if len(rows) < 2:
        raise DataError(f"{path}: no data rows")
    width = len(rows[0])
    for row in rows:
        if len(row) != width:
            raise DataError(f"{path}: ragged row ({len(row)} cells, expected {width})")
    out = np.empty((len(rows) - 1, width - 1), dtype=np.float64)
    for i, row in enumerate(rows[1:]):
        for j, cell in enumerate(row[1:]):
            try:
                out[i, j] = float(cell)
            except ValueError:
                raise DataError(
                    f"{path}: non-numeric cell at ({i},{j}): {cell!r}") from None
    if kind == "int" and not np.all(out == np.round(out)):
        raise DataError(f"{path}: non-integer CNA cell")
    return rows[0][1:], [row[0] for row in rows[1:]], out


def ref_write(path, col_ids, row_ids, values, fmt):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["patient_id", *col_ids])
        for pid, row in zip(row_ids, values):
            writer.writerow([pid, *(fmt(v) for v in row)])


def ref_float(v):
    return repr(float(v))


def ref_int(v):
    return str(int(v))


def write_bytes(path, text):
    path.write_bytes(text.encode("utf-8"))
    return path


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


# text, whether the block parse takes it
READ_CASES = {
    "specials": ("patient_id,a,b,c\np1,-0.0,5e-324,1e300\n"
                 "p2,1e-300,-1e+300,3\np3,2.0,1e16,123456789012345678\n", True),
    "whitespace": ("patient_id,a,b\n p1, 1.5 ,\t2\np2,3 ,  4\n", True),
    "underscore": ("patient_id,a,b\np1,1_0,2\np2,3,4\n", False),
    "quoted_ids": ('patient_id,"g,1","g""2",g3\n"p,1",1,2,3\n"p""2",4,5,6\n', False),
    "lf": ("patient_id,a,b\np1,1,2\np2,3,4\n", True),
    "crlf": ("patient_id,a,b\r\np1,1,2\r\np2,3,4\r\n", True),
    "blank_lines": ("\npatient_id,a,b\n\np1,1,2\r\n\r\n\np2,3,4", True),
    "lone_cr": ("patient_id,a,b\rp1,1,2\rp2,3,4\r", False),
    "mixed_breaks": ("patient_id,a,b\np1,1,2\rp2,3,4\r\np3,5,6\n", False),
    "doubled_cr": ("patient_id,a\r\r\np1,1\r\r\np2,2\r\n", False),
    "one_column": ("patient_id,a\np1,1\np2,2\n", True),
    "one_row": ("patient_id,a,b,c\np1,1,2,3\n", True),
}


# text, value kind, the row's or cell's location, what the message gains at its end
ERROR_CASES = {
    "no_data_rows": ("patient_id,a\n\n", "float", "", ""),
    "ragged": ("patient_id,a,b\np1,1,2\np2,3\n", "float", "line 3: ", ""),
    "ragged_after_bad_cell": ("patient_id,a,b\np1,x,2\np2,3\n", "float",
                              "line 3: ", ""),
    "ragged_after_blank_line": ("patient_id,a,b\np1,1,2\n\np2,3\n", "float",
                                "line 4: ", ""),
    "header_only_id_wide": ("patient_id,a,b\np1,1,2,3\n", "float", "line 2: ", ""),
    "non_numeric": ("patient_id,a,b\np1,1,2\n\np2,3,NA\n", "float",
                    "line 4, column 3: ", ""),
    "empty_cell": ("patient_id,a,b\np1,1,\n", "float", "line 2, column 3: ", ""),
    "blank_cell": ("patient_id,a,b\np1, ,2\n", "float", "line 2, column 2: ", ""),
    "no_comma": ("patient_id,a\np1\np2,1\n", "float", "line 2: ", ""),
    "unit_separator": ("patient_id,a\np1,1\x1f\n", "float", "line 2, column 2: ", ""),
    "hash": ("patient_id,a\np1,1#2\n", "float", "line 2, column 2: ", ""),
    "ids_only": ("patient_id,a\np1\np2\n", "float", "line 2: ", ""),
    "quoted_non_numeric": ('patient_id,"a,b"\n"p,1",x\n', "float",
                           "line 2, column 2: ", ""),
    "cna_fraction": ("patient_id,a,b\np1,1,0.5\n", "int", "line 2, column 3: ",
                     ", got 0.5"),
}


def check_read_case(path, text):
    """Ids and values of ``text`` loaded match the per-cell oracle's bits."""
    p = write_bytes(path, text)
    col_ids, row_ids, values = ref_read(p)
    m = dataio.load_features(p)
    assert (m.feature_names, m.patient_ids) == (col_ids, row_ids)
    assert same_bits(m.values, values)


def check_error_case(path, text, kind, where, tail):
    """Loading ``text`` fails with the oracle's message, located."""
    p = write_bytes(path, text)
    with pytest.raises(DataError) as ref:
        ref_read(p, kind)
    load = dataio.load_cna if kind == "int" else dataio.load_features
    with pytest.raises(DataError) as new:
        load(p)
    assert str(new.value) == str(ref.value).replace(
        f"{p}: ", f"{p}: {where}", 1) + tail


class TestBlockReaderOracle:
    @pytest.mark.parametrize("name", READ_CASES)
    def test_values_and_ids_match_per_cell_parse(self, tmp_path, name):
        check_read_case(tmp_path / "m.csv", READ_CASES[name][0])

    def test_cna_matches_per_cell_parse(self, tmp_path):
        p = write_bytes(tmp_path / "c.csv",
                        "patient_id,g1,g2,g3\r\np1,-2,-1,0\r\n\r\np2,1,2,-0\r\n")
        col_ids, row_ids, values = ref_read(p, kind="int")
        m = dataio.load_cna(p)
        assert (m.gene_ids, m.patient_ids) == (col_ids, row_ids)
        assert m.values.dtype == np.int64
        np.testing.assert_array_equal(m.values, values.astype(np.int64))

    def test_per_cell_parse_runs_only_when_block_parse_rejects(self, tmp_path,
                                                               monkeypatch):
        calls = []
        per_cell = dataio._parse_cells

        def counted(*args):
            calls.append(args)
            return per_cell(*args)

        monkeypatch.setattr(dataio, "_parse_cells", counted)
        for name, (text, block) in READ_CASES.items():
            calls.clear()
            dataio.load_features(write_bytes(tmp_path / f"{name}.csv", text))
            assert len(calls) == (0 if block else 1), name

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("name", ERROR_CASES)
    def test_fallback_error_messages_unchanged(self, tmp_path, name):
        check_error_case(tmp_path / "m.csv", *ERROR_CASES[name])


@pytest.mark.parametrize("text, where", [
    ("patient_id,a\np\r1,5\n", "line 2: "),
    ("patient_id,a\r\np1,5\r\np\r2,6\r\n", "line 3: "),
    ("patient_id\r,a\np1,5\n", "line 2: "),
], ids=["in_an_id", "in_a_later_id", "in_the_header"])
def test_lone_cr_before_a_line_end_goes_to_the_csv_module(tmp_path, text, where):
    """A \r that does not end a line, with other text between it and the
    line's end, ends a row for the csv module, so the file leaves the block
    parse."""
    check_error_case(tmp_path / "m.csv", text, "float", where, "")


class TestOneLineBlocks:
    """A block budget of one byte makes every line a block of its own."""

    @pytest.fixture(autouse=True)
    def one_line_blocks(self, monkeypatch):
        monkeypatch.setattr(dataio, "_READ_BLOCK_BYTES", 1)

    @pytest.mark.parametrize("name", READ_CASES)
    def test_values_and_ids_match_per_cell_parse(self, tmp_path, name):
        check_read_case(tmp_path / "m.csv", READ_CASES[name][0])

    def test_per_cell_parse_runs_only_when_block_parse_rejects(self, tmp_path,
                                                               monkeypatch):
        calls = []
        per_cell = dataio._parse_cells
        monkeypatch.setattr(dataio, "_parse_cells",
                            lambda *args: calls.append(args) or per_cell(*args))
        for name, (text, block) in READ_CASES.items():
            calls.clear()
            dataio.load_features(write_bytes(tmp_path / f"{name}.csv", text))
            assert len(calls) == (0 if block else 1), name

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("name", ERROR_CASES)
    def test_error_messages_unchanged(self, tmp_path, name):
        check_error_case(tmp_path / "m.csv", *ERROR_CASES[name])

    @pytest.mark.parametrize("last", ['"p3",5,6\r\n', "p3,5,6\r", "p3,5,6\rp4,7,8\r\n"],
                             ids=["quote", "lone_cr_ending", "lone_cr_between_rows"])
    def test_csv_only_text_on_the_last_line(self, tmp_path, last):
        check_read_case(tmp_path / "m.csv",
                        "patient_id,a,b\r\np1,1,2\r\np2,3,4\r\n" + last)

    def test_non_utf8_byte_on_the_last_line(self, tmp_path):
        head = "patient_id,a,b\r\np1,1,2\r\np\u00e9,3,4\r\n".encode("utf-8")
        p = tmp_path / "m.csv"
        p.write_bytes(head + b"p3,5,\xff6\r\n")
        with pytest.raises(DataError) as info:
            dataio.load_features(p)
        assert str(info.value) == (f"{p}: not UTF-8 text (byte 0xff at offset "
                                   f"{len(head) + 5})")


def per_cell_calls(monkeypatch) -> list:
    """The list to which each later call of the per-cell parse adds its
    arguments."""
    calls = []
    per_cell = dataio._parse_cells
    monkeypatch.setattr(dataio, "_parse_cells",
                        lambda *args: calls.append(args) or per_cell(*args))
    return calls


def read_cells(path, cells: list[str], monkeypatch) -> tuple[np.ndarray, bool]:
    """The values a 1-row table of ``cells`` loads to, unchecked, and whether
    the block parse read them."""
    text = "patient_id," + ",".join(f"c{j}" for j in range(len(cells))) + "\r\n"
    p = write_bytes(path, text + "p1," + ",".join(cells) + "\r\n")
    calls = per_cell_calls(monkeypatch)
    return dataio._read_matrix(p).values[0], not calls


def float_bits(cells):
    return np.array([float(c) for c in cells]).view(np.uint64)


decimal = st.builds(
    lambda sign, digits, point, exponent: (
        f"{sign}{digits[:point] or '0'}.{digits[point:] or '0'}e{exponent}"),
    st.sampled_from(["", "-"]), st.text("0123456789", min_size=15, max_size=45),
    st.integers(0, 45), st.integers(-330, 330))


class TestJsonNumberReader:
    """The block parse reads a block's numbers with one ``orjson.loads``: every
    number it takes gives the bits ``float`` gives, and text that JSON reads
    differently from ``float``, or not at all, goes to the per-cell path."""

    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=12),
           st.lists(st.floats(-1e20, 1e20), max_size=12))
    @settings(max_examples=200, deadline=None)
    def test_raw_bit_patterns(self, tmp_path_factory, bits, near_one):
        """Raw 64-bit patterns, most of whose exponents are far from 0, and
        doubles of magnitude below 1e20, in ``repr``'s text and in ``%.17e``."""
        with pytest.MonkeyPatch.context() as monkeypatch:
            x = np.array(bits, dtype=np.uint64).view(np.float64)
            x = np.concatenate([x[np.isfinite(x)], near_one])
            texts = [repr(v) for v in x.tolist()] + [f"{v:.17e}" for v in x.tolist()]
            if not texts:
                return
            got, block = read_cells(tmp_path_factory.mktemp("b") / "m.csv", texts,
                                    monkeypatch)
        assert block
        assert (got.view(np.uint64) == float_bits(texts)).all()

    @given(st.lists(decimal, min_size=1, max_size=12))
    @settings(max_examples=300, deadline=None)
    def test_long_decimals(self, tmp_path_factory, texts):
        with pytest.MonkeyPatch.context() as monkeypatch:
            got, block = read_cells(tmp_path_factory.mktemp("d") / "m.csv", texts,
                                    monkeypatch)
        assert (got.view(np.uint64) == float_bits(texts)).all()
        # JSON has no leading zeros, and a sum beyond the largest double
        # is read by float alone
        assert block or any(t.lstrip("-").startswith("0") and t.lstrip("-")[1] != "."
                            or math.isinf(float(t)) for t in texts)

    def test_halfway_points(self, tmp_path, monkeypatch):
        """The exact decimal midpoint of two adjacent doubles, normal and
        subnormal, and the decimals one unit in its last digit below and
        above it."""
        gen = np.random.default_rng(5)
        x = np.abs(gen.normal(size=60)) * 10.0 ** gen.integers(-300, 300, 60)
        x = np.concatenate([x, [5e-324, 3e-310, 1.0, 2.0**53, 1.7976931348623155e308]])
        texts = []
        for v in x.tolist():
            mid = (Fraction(v) + Fraction(float(np.nextafter(v, math.inf)))) / 2
            k = mid.denominator.bit_length() - 1  # a power of two
            digits = mid.numerator * 5**k
            texts += [f"{digits + d}e-{k}" for d in (-1, 0, 1)]
        got, block = read_cells(tmp_path / "m.csv", texts, monkeypatch)
        assert block
        assert (got.view(np.uint64) == float_bits(texts)).all()

    @pytest.mark.parametrize("cell, block", [
        ("-0", False), ("-00", False), ("+1", False), (".5", False), ("1.", False),
        ("01.5", False), ("1_0", False), ("1e400", False), ("-1e400", False),
        ("1e-400", True), ("-1e-400", True), ("-0.0", True), ("-0e5", True),
        (str(2**53 + 1), True), (str(2**63), True), (str(2**63 + 1025), True),
        (str(2**64), True), (str(2**64 + 2049), True),
        pytest.param("1" * 400, False, id="400_digit_integer"),
        ("NaN", False), ("nan", False), ("Infinity", False), ("-inf", False),
        (" 1.5", True), ("1.5 ", True), ("\t1.5\t", True), ("  -2e-3 \t", True),
        ("\x0b1.5", False), ("\xa01.5", False), ("1 5", False), ("- 1", False),
        ("1e5", True), ("1E+5", True), ("1e-05", True), ("-1E-05", True),
        ("1e-0", True), ("-0e-05", True), ("-0E0", True), ("", False), (" ", False),
        ("x", False), ("0x10", False), ("true", False), ("null", False),
    ])
    def test_cells_where_json_and_float_differ(self, tmp_path, monkeypatch, cell, block):
        """``float``'s bits, or today's located error, and the path taken."""
        p = write_bytes(tmp_path / "m.csv", f"patient_id,a,b\r\np1,1.5,{cell}\r\np2,2,3\r\n")
        calls = per_cell_calls(monkeypatch)
        try:
            want = float(cell)
        except ValueError:
            with pytest.raises(DataError) as info:
                dataio.load_features(p)
            assert str(info.value) == (f"{p}: line 2, column 3: "
                                       f"non-numeric cell at (0,1): {cell!r}")
        else:
            if math.isfinite(want):
                got = dataio.load_features(p).values[0, 1]
                assert np.float64(got).view(np.uint64) == np.float64(want).view(np.uint64)
            else:
                with pytest.raises(DataError) as info:
                    dataio.load_features(p)
                assert str(info.value) == (f"{p}: line 2, column 3: "
                                           f"feature values must be finite, got {want!r}")
        assert len(calls) == (0 if block else 1)


IDS = ["p1", "", "p,1", 'p"2', "p\r\n3", "p\n4", " p5 ", "é\x1c", "'p6'"]


class TestRowJoinWriterOracle:
    @pytest.mark.parametrize("values", [
        [[-0.0, 5e-324, 1e300], [1e-300, -1e-300, 2.0], [1e16, 3.0, 0.1]],
        [[1, 2, 3], [4, 5, 6], [7, 8, 9]],
    ], ids=["specials", "integral_ints"])
    def test_expression_bytes_match_csv_writer(self, tmp_path, values):
        values = np.array(values)
        genes = ["g,1", 'g"2', "g 3"]
        for pids in (IDS[:3], IDS[3:6], IDS[6:]):
            m = dataio.FeatureMatrix(pids, genes, values)
            dataio.save_expression(m, tmp_path / "new.csv")
            ref_write(tmp_path / "ref.csv", genes, pids, values, ref_float)
            assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
            again = dataio.load_features(tmp_path / "new.csv")
            assert again.patient_ids == pids and again.feature_names == genes
            assert same_bits(again.values, values.astype(np.float64))

    def test_cna_bytes_match_csv_writer(self, tmp_path):
        values = np.array([[-2, -1, 0], [1, 2, 0], [0, 0, -2]])
        m = dataio.CnaMatrix(IDS[:3], ["a", "b,c", 'd"'], values)
        dataio.save_cna(m, tmp_path / "new.csv")
        ref_write(tmp_path / "ref.csv", m.gene_ids, m.patient_ids, values, ref_int)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
        np.testing.assert_array_equal(dataio.load_cna(tmp_path / "new.csv").values,
                                      values)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_round_trip(self, tmp_path_factory, data):
        tmp = tmp_path_factory.mktemp("rt")
        n, k = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 5))
        names = st.text(st.characters(codec="utf-8"), max_size=4)
        pids = data.draw(st.lists(names, min_size=n, max_size=n, unique=True))
        genes = data.draw(st.lists(names, min_size=k, max_size=k, unique=True))
        values = np.array(data.draw(st.lists(
            st.lists(st.floats(allow_nan=False, allow_infinity=False),
                     min_size=k, max_size=k), min_size=n, max_size=n)))
        dataio.save_expression(dataio.FeatureMatrix(pids, genes, values), tmp / "new.csv")
        ref_write(tmp / "ref.csv", genes, pids, values, ref_float)
        assert (tmp / "new.csv").read_bytes() == (tmp / "ref.csv").read_bytes()
        again = dataio.load_features(tmp / "new.csv")
        assert (again.feature_names, again.patient_ids) == (genes, pids)
        assert same_bits(again.values, values)
        assert same_bits(again.values, ref_read(tmp / "new.csv")[2])


class TestWriteBlocks:
    """A matrix is written a block of rows at a time: a budget of 1 or 7
    cells, one row or the whole table gives the bytes csv.writer writes."""

    @pytest.mark.parametrize("width", [1, 3, 5])
    @pytest.mark.parametrize("budget", ["1", "7", "row", "table"])
    def test_bytes_match_csv_writer(self, tmp_path, monkeypatch, width, budget):
        gen = np.random.default_rng(width)
        rows = 6
        values = gen.normal(size=(rows, width)) * 10.0 ** gen.integers(-8, 20, (rows, width))
        ids = ["p0", "p,1", "p2", 'p"3', "p4", "é5"]
        genes = [f"g{j}" for j in range(width)]
        cna = gen.integers(-2, 3, (rows, width))
        cells = {"1": 1, "7": 7, "row": width, "table": rows * width}[budget]
        monkeypatch.setattr(dataio, "_WRITE_BLOCK_CELLS", cells)
        dataio.save_expression(dataio.FeatureMatrix(ids, genes, values), tmp_path / "new.csv")
        ref_write(tmp_path / "ref.csv", genes, ids, values, ref_float)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
        dataio.save_cna(dataio.CnaMatrix(ids, genes, cna), tmp_path / "new_cna.csv")
        ref_write(tmp_path / "ref_cna.csv", genes, ids, cna, ref_int)
        assert (tmp_path / "new_cna.csv").read_bytes() == (tmp_path / "ref_cna.csv").read_bytes()


class TestPipes:
    """A matrix read from a pipe, which cannot seek, gives what the file gives;
    both parses read the piped bytes, which arrive once."""

    @staticmethod
    def fifo(path, data: bytes) -> threading.Thread:
        """A FIFO at ``path`` that a thread fills with ``data`` once it is opened."""
        os.mkfifo(path)

        def feed():
            with open(path, "wb") as fh:
                fh.write(data)

        thread = threading.Thread(target=feed, daemon=True)
        thread.start()
        return thread

    @pytest.fixture
    def cohort(self, tmp_path):
        assert cli.main(["synth", "--n-patients", "12", "--n-genes", "4",
                         "--n-informative", "2", "--censoring", "0.2", "--seed", "0",
                         "--out-dir", str(tmp_path / "data")]) == 0
        return tmp_path / "data"

    def run_both(self, tmp_path, argv, flag, source):
        """The bytes ``argv`` writes to ``--output`` with ``source`` given as
        ``flag``: from the file, then from a FIFO."""

        def run(path, written):
            assert cli.main([*argv, flag, str(path), "--output", str(written)]) == 0
            return written.read_bytes()

        file = run(source, tmp_path / "file.csv")
        pipe = tmp_path / f"{source.stem}.fifo"
        feeder = self.fifo(pipe, source.read_bytes())
        piped = run(pipe, tmp_path / "pipe.csv")
        feeder.join(timeout=10)
        assert not feeder.is_alive()
        return file, piped

    def test_normalize_reference_and_project_features(self, tmp_path, cohort):
        file, pipe = self.run_both(
            tmp_path, ["normalize", "--target", str(cohort / "rnaseq.csv"), "--log2"],
            "--reference", cohort / "microarray.csv")
        assert pipe == file
        normalized = tmp_path / "normalized.csv"
        normalized.write_bytes(file)
        file, pipe = self.run_both(
            tmp_path, ["project", "--dims", "2", "--iterations", "20",
                       "--perplexity", "3"], "--features", normalized)
        assert pipe == file

    def test_every_read_case_matches_the_file(self, tmp_path):
        """Block-parsed and csv-only texts alike."""
        for name, (text, _) in READ_CASES.items():
            want = dataio.load_features(write_bytes(tmp_path / f"{name}.csv", text))
            pipe = tmp_path / f"{name}.fifo"
            feeder = self.fifo(pipe, text.encode("utf-8"))
            got = dataio.load_features(pipe)
            feeder.join(timeout=10)
            assert not feeder.is_alive()
            assert (got.feature_names, got.patient_ids) == (want.feature_names,
                                                            want.patient_ids), name
            assert same_bits(got.values, want.values), name

    @pytest.mark.parametrize("text, where", [
        (b"patient_id,g1,g2\np1,1,2\np2,3,x\n",
         "line 3, column 3: non-numeric cell at (1,1): 'x'"),
        (b"patient_id,g\xe91,g2\np1,1,2\np2,3,4\n",
         "not UTF-8 text (byte 0xe9 at offset 12)"),
    ], ids=["cell", "not_utf8"])
    def test_malformed_pipe_error_names_it(self, tmp_path, capsys, text, where):
        good = write(tmp_path / "good.csv", "patient_id,g1,g2\np1,1,2\np2,3,4\n")
        pipe = tmp_path / "bad.fifo"
        feeder = self.fifo(pipe, text)
        code = cli.main(["normalize", "--target", str(good), "--reference", str(pipe),
                         "--log2", "--output", str(tmp_path / "o.csv")])
        feeder.join(timeout=10)
        assert not feeder.is_alive()
        assert code == 3
        assert capsys.readouterr().err == f"data error: {pipe}: {where}\n"
