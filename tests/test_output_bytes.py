"""The exact bytes of the tables the CLI writes, on a tiny fixed cohort, and
the cell rules of ``dataio.save_rows``: any change to a float's digits, a
line end or the quoting fails here.
"""

import ast
import hashlib
from pathlib import Path

import numpy as np
import pytest
import yaml

import omicsurv
from omicsurv import cli, dataio, project
from omicsurv.dataio import ClinicalRecord
from omicsurv.errors import DataError

# Two named groups (one that needs quotes), patients without a group,
# integer times, tied times and a censoring at a death time.
KM_INPUT = (
    "patient_id,time_months,event,age,group\r\n"
    'a,12,1,40,"ER+, HER2-"\r\n'
    'b,30.5,0,,"ER+, HER2-"\r\n'
    'c,30.5,1,55,"ER+, HER2-"\r\n'
    "d,7,1,61.5,B\r\n"
    "e,7,1,,B\r\n"
    "f,20.25,0,48,B\r\n"
    "g,3,1,50,\r\n"
    "h,3,0,50,\r\n"
    "i,9.75,1,47,\r\n"
)


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """{file name: bytes} of synth, km, train, cv, search and report."""
    d = tmp_path_factory.mktemp("bytes")
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(d)  # relative paths: the cv report names its features file

        def run(*argv):
            assert cli.main([str(a) for a in argv]) == 0, argv

        run("synth", "--n-patients", 12, "--n-genes", 4, "--n-informative", 2,
            "--censoring", 0.2, "--seed", 0, "--out-dir", "data")
        run("label", "--clinical", "data/clinical.csv", "--t", 60,
            "--output", "labels.csv")
        with open("km_input.csv", "w", newline="", encoding="utf-8") as fh:
            fh.write(KM_INPUT)
        run("km", "--clinical", "km_input.csv", "--group-by", "--output", "km.csv")
        xy = ["--features", "data/microarray.csv", "--labels", "labels.csv"]
        run("train", "--family", "rp_ensemble", "--param", "b1_groups=3",
            "--param", "b2_per_group=2", "--param", "projected_dim=2", *xy,
            "--model-out", "model.json", "--importance", "importance.csv")
        run("cv", "--family", "gaussian_nb", *xy, "--k", 3, "--output", "cv.csv")
        run("search", "--family", "svm_rbf", "--param", "C=loguniform:0.1,10", *xy,
            "--budget", 3, "--k", 3, "--output", "search.csv")
        config = {
            "data": {"sources": [{"path": "data/microarray.csv", "name": "micro"},
                                 {"path": "data/rnaseq.csv", "name": "rna"}],
                     "clinical": "data/clinical.csv", "projection_dims": []},
            "models": [{"family": "gaussian_nb"},
                       {"family": "svm_rbf", "params": {"C": "loguniform:0.1,10"},
                        "budget": 2}],
            "cv": {"k_folds": 3}, "output": "out"}
        with open("config.yaml", "w", encoding="utf-8") as fh:
            yaml.safe_dump(config, fh)
        run("report", "--config", "config.yaml")
        return {name: (d / name).read_bytes() for name in EXPECTED}


EXPECTED = {
    "data/truth.csv": (
        b'patient_id,true_death_time,true_risk\r\n'
        b'p00000,193.55579742203147,0.1257302210933933\r\n'
        b'p00001,49.82852382135818,-0.1321048632913019\r\n'
        b'p00002,54.71710513509435,0.6404226504432821\r\n'
        b'p00003,34.18806992561506,0.10490011715303971\r\n'
        b'p00004,60.961885737016296,-0.535669373161111\r\n'
        b'p00005,54.07277230293452,0.36159505490948474\r\n'
        b'p00006,18.33582614402178,1.3040000451301372\r\n'
        b'p00007,15.515523797727642,0.9470809631292422\r\n'
        b'p00008,969.970245794298,-0.7037352358069926\r\n'
        b'p00009,835.9102999982442,-1.2654214710460525\r\n'
        b'p00010,145.24470980789852,-0.6232744625373522\r\n'
        b'p00011,107.482994415447,0.0413259793472436\r\n'
    ),
    "km.csv": (
        b'group,time,survival,at_risk\r\n'
        b'B,7.0,0.33333333333333337,3\r\n'
        b'"ER+, HER2-",12.0,0.6666666666666667,3\r\n'
        b'"ER+, HER2-",30.5,0.33333333333333337,2\r\n'
        b',3.0,0.6666666666666667,3\r\n'
        b',9.75,0.0,1\r\n'
    ),
    "importance.csv": (
        b'feature,importance\r\n'
        b'g0001,0.9086167571986882\r\n'
        b'g0002,0.05957881875791532\r\n'
        b'g0003,0.018476730219295107\r\n'
        b'g0000,0.013327693824101405\r\n'
    ),
    "cv.csv": (
        b'model,data,fold,auc,n_test\r\n'
        b'gaussian_nb,data/microarray.csv,0,0.5,4\r\n'
        b'gaussian_nb,data/microarray.csv,1,1.0,4\r\n'
        b'gaussian_nb,data/microarray.csv,2,0.75,4\r\n'
        b'\r\n'
        b'model,data,mean_auc,std_auc,\r\n'
        b'gaussian_nb,data/microarray.csv,0.75,0.2041241452319315,\r\n'
    ),
    "search.csv": (
        b'trial,mean_auc,params\r\n'
        b'0,0.5833333333333334,"{""C"": 1.878985266149949}"\r\n'
        b'1,0.5833333333333334,"{""C"": 6.018351965254262}"\r\n'
        b'2,0.6666666666666666,"{""C"": 0.1450935405253144}"\r\n'
    ),
    "out/trials.csv": (
        b'model,data,trial,mean_auc,params\r\n'
        b'gaussian_nb,RNA raw age t=60,0,0.6666666666666666,{}\r\n'
        b'svm_rbf,RNA raw age t=60,0,0.16666666666666666,"{""C"": 2.1572951256730915}"\r\n'
        b'svm_rbf,RNA raw age t=60,1,0.16666666666666666,"{""C"": 2.3404624370510216}"\r\n'
    ),
}


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_cli_table_bytes(outputs, name):
    assert outputs[name] == EXPECTED[name]


def test_save_clinical_writes_int_time_and_age_as_floats(tmp_path):
    path = tmp_path / "clinical.csv"
    dataio.save_clinical([ClinicalRecord("p1", 12, True, 40, "A"),
                          ClinicalRecord("p2", 0, False, None, None),
                          ClinicalRecord("p,3", 7.5, True, 61.25, "x y")], path)
    assert path.read_bytes() == (b"patient_id,time_months,event,age,group\r\n"
                                 b"p1,12.0,1,40.0,A\r\n"
                                 b"p2,0.0,0,,\r\n"
                                 b'"p,3",7.5,1,61.25,x y\r\n')


def test_save_rows_cells(tmp_path):
    path = tmp_path / "t.csv"
    dataio.save_rows(path, ["float", "np64", "np32", "int", "i64", "none", "text"], [
        [0.1, np.float64(1) / 3, np.float32(0.1), 3, np.int64(-4), None,
         'say "hi", bye'],
        [1.0, np.float64(2), np.float32(2), 0, np.int64(0), None, "plain"],
    ])
    assert path.read_bytes() == (
        b"float,np64,np32,int,i64,none,text\r\n"
        b'0.1,0.3333333333333333,0.10000000149011612,3,-4,,"say ""hi"", bye"\r\n'
        b"1.0,2.0,2.0,0,0,,plain\r\n")


def test_positions():
    assert dataio.positions(["a", "b", "c"], ["c", "a"], "genes").tolist() == [2, 0]
    with pytest.raises(DataError) as info:
        dataio.positions(["a"], ["a", "x", "y", "z", "v", "w", "u"], "genes")
    assert str(info.value) == "genes not in matrix: ['x', 'y', 'z', 'v', 'w']"


def test_only_dataio_imports_csv():
    """The CSV format lives in one module: no other module imports csv."""
    root = Path(omicsurv.__file__).parent
    importers = set()
    for path in root.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module]
            else:
                continue
            if "csv" in modules:
                importers.add(path.relative_to(root).as_posix())
    assert importers == {"dataio.py"}


@pytest.fixture(scope="module")
def matrix_outputs(tmp_path_factory):
    """{file name: SHA-256} of the matrices that synth, merge, normalize and
    project write for the cohort of ``outputs``."""
    d = tmp_path_factory.mktemp("matrices")

    def run(*argv):
        assert cli.main([str(a) for a in argv]) == 0, argv

    run("synth", "--n-patients", 12, "--n-genes", 4, "--n-informative", 2,
        "--censoring", 0.2, "--seed", 0, "--out-dir", d / "data")
    run("merge", d / "data/microarray.csv", d / "data/rnaseq.csv",
        "--output", d / "merged.csv")
    run("normalize", "--target", d / "data/rnaseq.csv",
        "--reference", d / "data/microarray.csv", "--log2",
        "--output", d / "normalized.csv")
    run("project", "--features", d / "normalized.csv", "--dims", 2,
        "--iterations", 20, "--perplexity", 3, "--output", d / "projected.csv")
    return {name: hashlib.sha256((d / name).read_bytes()).hexdigest()
            for name in MATRIX_SHA256}


MATRIX_SHA256 = {
    "data/microarray.csv":
        "70b5cc7edab5089c5150a108169b60a3f3c826143d35503574911f2f6d5c34fc",
    "data/rnaseq.csv":
        "7f10b85dc1ccb7942f5fb67f880194c8c6739abfe94cee40e93711e855e8038a",
    "merged.csv":
        "70b5cc7edab5089c5150a108169b60a3f3c826143d35503574911f2f6d5c34fc",
    "normalized.csv":
        "96ce9695e3703092ff4d037d2f18e758ccea688bf7091ffda51ddecf24ef00b5",
    "projected.csv":
        "ffb05185d1edb098e9ffb2c4339d9d327d3c4befc8dc8e4103aca4889167ae7e",
}


@pytest.mark.parametrize("name", sorted(MATRIX_SHA256))
def test_cli_matrix_bytes(matrix_outputs, name):
    assert matrix_outputs[name] == MATRIX_SHA256[name]


def test_report_projects_every_dimension_from_one_p(tmp_path, monkeypatch):
    """Two t-SNE dimensions share one P, and the report keeps the bytes it
    had when each dimension computed its own."""
    calls = []
    affinities = project.input_affinities

    def counting(*args, **kwargs):
        calls.append(args)
        return affinities(*args, **kwargs)

    monkeypatch.setattr(project, "input_affinities", counting)
    monkeypatch.chdir(tmp_path)
    assert cli.main(["synth", "--n-patients", "12", "--n-genes", "4",
                     "--n-informative", "2", "--censoring", "0.2", "--seed", "0",
                     "--out-dir", "data"]) == 0
    config = {
        "data": {"sources": [{"path": "data/microarray.csv", "name": "micro"},
                             {"path": "data/rnaseq.csv", "name": "rna"}],
                 "clinical": "data/clinical.csv", "projection_dims": [2, 3],
                 "tsne": {"perplexity": 3, "iterations": 60}},
        "models": [{"family": "gaussian_nb"}],
        "cv": {"k_folds": 3}, "output": "out"}
    Path("config.yaml").write_text(yaml.safe_dump(config), encoding="utf-8")
    assert cli.main(["report", "--config", "config.yaml"]) == 0
    assert len(calls) == 1
    assert {name: hashlib.sha256(Path("out", name).read_bytes()).hexdigest()
            for name in ("report.csv", "trials.csv")} == {
        "report.csv": "a65c116bab489c70374aca1a7ed1ee4131ddb6652fe3b7a78fa1366989f42ec1",
        "trials.csv": "481efad0d59b17c358feac7d4e3f90ce779682321dc6711277497524977affb9",
    }
