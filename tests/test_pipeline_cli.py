import ast
import csv
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from omicsurv import cli, dataio, models, normalize, pipeline, survival
from omicsurv.dataio import ClinicalRecord
from omicsurv.errors import ConfigError


def make_cohort(tmp_path, n_patients=60, n_genes=12, seed=0):
    out = tmp_path / "data"
    code = cli.main([
        "synth", "--n-patients", str(n_patients), "--n-genes", str(n_genes),
        "--n-informative", "3", "--censoring", "0.2", "--seed", str(seed),
        "--out-dir", str(out),
    ])
    assert code == 0
    return out


def write_config(tmp_path, data_dir, **overrides):
    config = {
        "data": {
            "sources": [
                {"path": str(data_dir / "microarray.csv"), "name": "micro"},
                {"path": str(data_dir / "rnaseq.csv"), "name": "rna"},
            ],
            "clinical": str(data_dir / "clinical.csv"),
            "reference": 0,
            "log2": True,
            "include_age": True,
            "projection_dims": [],
        },
        "labels": {"horizons": [60]},
        "models": [
            {"family": "gaussian_nb"},
            {"family": "l1_logistic",
             "params": {"lambda": "loguniform:0.001,0.1", "max_sweeps": 30},
             "budget": 2},
        ],
        "cv": {"k_folds": 3},
        "search": {"budget": 1},
        "seed": 0,
        "output": str(tmp_path / "out"),
    }
    config.update(overrides)
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(config), encoding="utf-8")
    return path


class TestLoadConfig:
    def test_unknown_key(self, tmp_path, ):
        path = tmp_path / "c.yaml"
        path.write_text("bogus: 1\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="unknown config key 'bogus'"):
            pipeline.load_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            pipeline.load_config(tmp_path / "missing.yaml")

    def test_negative_horizon_rejected_before_work(self, tmp_path):
        data = make_cohort(tmp_path)
        path = write_config(tmp_path, data, labels={"horizons": [-5]})
        with pytest.raises(ConfigError) as info:
            pipeline.load_config(path)
        assert str(info.value) == "labels.horizons[0] must be > 0, got -5.0"

    def test_no_models(self, tmp_path):
        data = make_cohort(tmp_path)
        path = write_config(tmp_path, data, models=[])
        with pytest.raises(ConfigError, match="no models"):
            pipeline.load_config(path)

    def test_dotted_override(self, tmp_path):
        data = make_cohort(tmp_path)
        path = write_config(tmp_path, data)
        config = pipeline.load_config(path, {"cv.k_folds": 5, "seed": 9})
        assert config.plan.k_folds == 5
        assert config.seed == 9
        # an empty section (`cv:` alone, read as null) takes overrides too
        path = write_config(tmp_path, data, cv=None)
        assert pipeline.load_config(path, {"cv.k_folds": 4}).plan.k_folds == 4

    def test_distribution_params_parsed(self, tmp_path):
        data = make_cohort(tmp_path)
        path = write_config(tmp_path, data)
        config = pipeline.load_config(path)
        lam = config.models[1].params["lambda"]
        assert hasattr(lam, "sample")
        assert [m.budget for m in config.models] == [1, 2]

    def test_built_config_is_checked(self, tmp_path):
        data = make_cohort(tmp_path)
        config = pipeline.load_config(write_config(tmp_path, data))
        with pytest.raises(ConfigError, match="reference index 5"):
            dataclasses.replace(config, reference=5)


def config_error(dotted, value):
    """The ConfigError message of a config that sets only ``dotted``."""
    for part in reversed(dotted.split(".")):
        value = {part: value}
    with pytest.raises(ConfigError) as info:
        pipeline._config_from_dict(value)
    return str(info.value)


def accepted_config_keys(section=""):
    """The dotted keys ``_config_from_dict`` accepts, read from the valid keys
    that each section's unknown-key error lists; a list of mappings
    (``models``, ``data.sources``) is one key."""
    prefix = f"{section}." if section else ""
    message = config_error(f"{prefix}no_such_key", 1)
    assert message.startswith(f"unknown config key '{prefix}no_such_key'"), message
    keys = []
    for key in ast.literal_eval(message.split("valid keys: ")[1]):
        if config_error(f"{prefix}{key}.no_such_key", 1).startswith("unknown config key"):
            keys += accepted_config_keys(prefix + key)
        else:
            keys.append(prefix + key)
    return keys


def test_readme_config_table_matches_reader():
    """The key column of the README's experiment config table lists every
    key the config reader accepts, and no other."""
    lines = (Path(__file__).parents[1] / "README.md").read_text(
        encoding="utf-8").splitlines()
    start = lines.index("| key | type | default |") + 2
    documented = []
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        documented.append(line.split("|")[1].strip().strip("`"))
    assert sorted(documented) == sorted(accepted_config_keys())


class TestRunExperiment:
    def run(self, tmp_path, **overrides):
        data = make_cohort(tmp_path)
        path = write_config(tmp_path, data, **overrides)
        config = pipeline.load_config(path)
        return pipeline.run_experiment(config), config

    def test_report_rows_complete(self, tmp_path):
        result, config = self.run(tmp_path)
        report = result["report"]
        keys = {(r.model, r.data) for r in report.rows}
        assert keys == {
            ("gaussian_nb", "RNA raw age t=60"),
            ("l1_logistic", "RNA raw age t=60"),
        }
        for key in keys:
            folds = [r.fold for r in report.rows
                     if (r.model, r.data) == key]
            assert sorted(folds) == [0, 1, 2]
        manifest = json.loads(
            (tmp_path / "out" / "MANIFEST.json").read_text(encoding="utf-8"))
        assert manifest["complete"] is True
        assert set(manifest["outputs"]) == {"report.csv", "trials.csv"}

    def test_rerun_bit_identical(self, tmp_path):
        result, config = self.run(tmp_path)
        first = (tmp_path / "out" / "report.csv").read_bytes()
        pipeline.run_experiment(config)
        assert (tmp_path / "out" / "report.csv").read_bytes() == first

    def test_trials_csv_budget(self, tmp_path):
        result, _ = self.run(tmp_path)
        with open(result["trials_path"], newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))[1:]
        by_model = {}
        for row in rows:
            by_model.setdefault(row[0], []).append(row)
        assert len(by_model["gaussian_nb"]) == 1   # global budget
        assert len(by_model["l1_logistic"]) == 2   # per-model budget

    def test_joint_fold_families_bit_identical_at_any_worker_count(self, tmp_path):
        # rp_ensemble and the MLPs fit a trial's folds together, in one task or
        # in runs of folds that keep the workers busy (budget 1 at 4 workers
        # gives 3 tasks of one fold each)
        data = make_cohort(tmp_path)
        models_section = [
            {"family": "rp_ensemble", "budget": 2,
             "params": {"b1_groups": 3, "b2_per_group": 2, "projected_dim": 2}},
            {"family": "rectangle_mlp", "budget": 2,
             "params": {"epochs": 3, "width": "cat:4,8"}},
            {"family": "mlp_regressor", "params": {"epochs": 3, "width": 4}},
        ]
        outputs = set()
        for workers in (1, 2, 4):
            out = tmp_path / f"out{workers}"
            path = write_config(tmp_path, data, models=models_section,
                                workers=workers, output=str(out))
            assert cli.main(["report", "--config", str(path)]) == 0
            outputs.add(tuple((out / name).read_bytes()
                              for name in ("report.csv", "trials.csv")))
        assert len(outputs) == 1

    def test_failure_writes_manifest(self, tmp_path):
        data = make_cohort(tmp_path)
        path = write_config(tmp_path, data)
        config = pipeline.load_config(path)
        config.clinical_path = str(data / "missing.csv")
        with pytest.raises(Exception, match="stage 'load' failed"):
            pipeline.run_experiment(config)
        manifest = json.loads(
            (tmp_path / "out" / "MANIFEST.json").read_text(encoding="utf-8"))
        assert manifest["complete"] is False
        assert "load" in manifest["error"]


class TestCli:
    def test_synth_writes_all_files(self, tmp_path):
        out = make_cohort(tmp_path)
        for name in ("microarray.csv", "rnaseq.csv", "cna.csv",
                     "clinical.csv", "truth.csv"):
            assert (out / name).exists(), name

    def test_merge(self, tmp_path, capsys):
        data = make_cohort(tmp_path)
        out = tmp_path / "merged.csv"
        code = cli.main(["merge", str(data / "microarray.csv"),
                         str(data / "rnaseq.csv"), "--output", str(out)])
        assert code == 0
        merged = dataio.load_expression(out)
        assert merged.n_patients == 60
        assert "merged 60 patients" in capsys.readouterr().out

    def test_normalize(self, tmp_path):
        data = make_cohort(tmp_path)
        out = tmp_path / "norm.csv"
        code = cli.main(["normalize", "--target", str(data / "rnaseq.csv"),
                         "--reference", str(data / "microarray.csv"),
                         "--output", str(out), "--log2"])
        assert code == 0
        assert dataio.load_expression(out).n_genes == 12

    def test_label_and_km(self, tmp_path):
        data = make_cohort(tmp_path)
        labels = tmp_path / "labels.csv"
        assert cli.main(["label", "--clinical", str(data / "clinical.csv"),
                         "--t", "60", "--output", str(labels)]) == 0
        with open(labels, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["patient_id", "label"]
        assert all(row[1] in ("0", "1") for row in rows[1:])

        km = tmp_path / "km.csv"
        assert cli.main(["km", "--clinical", str(data / "clinical.csv"),
                         "--output", str(km)]) == 0
        with open(km, newline="", encoding="utf-8") as fh:
            km_rows = list(csv.reader(fh))
        assert km_rows[0] == ["group", "time", "survival", "at_risk"]
        survs = [float(r[2]) for r in km_rows[1:]]
        assert all(b <= a for a, b in zip(survs, survs[1:]))

    def test_project(self, tmp_path):
        data = make_cohort(tmp_path, n_patients=30, n_genes=6)
        out = tmp_path / "proj.csv"
        code = cli.main(["project", "--features", str(data / "microarray.csv"),
                         "--dims", "2", "--perplexity", "5",
                         "--iterations", "30", "--output", str(out)])
        assert code == 0
        proj = dataio.load_features(out)
        assert proj.feature_names == ["tsne_0", "tsne_1"]
        assert proj.n_patients == 30

    def test_project_iterations_below_one(self, tmp_path, capsys):
        data = make_cohort(tmp_path, n_patients=30, n_genes=6)
        out = tmp_path / "proj.csv"
        code = cli.main(["project", "--features", str(data / "microarray.csv"),
                         "--iterations", "0", "--output", str(out)])
        assert code == 2
        assert capsys.readouterr().err == (
            "config error: --iterations must be >= 1, got 0\n")
        assert not out.exists()

    def test_project_nan_perplexity_before_features_are_read(self, tmp_path, capsys):
        out = tmp_path / "proj.csv"
        code = cli.main(["project", "--features", str(tmp_path / "missing.csv"),
                         "--perplexity", "nan", "--output", str(out)])
        assert code == 2
        assert capsys.readouterr().err == (
            "config error: perplexity must be > 0, got nan\n")
        assert not out.exists()

    def test_project_nan_perplexity(self, tmp_path, capsys):
        data = make_cohort(tmp_path, n_patients=30, n_genes=6)
        out = tmp_path / "proj.csv"
        code = cli.main(["project", "--features", str(data / "microarray.csv"),
                         "--perplexity", "nan", "--output", str(out)])
        assert code == 2
        assert capsys.readouterr().err == (
            "config error: perplexity must be > 0, got nan\n")
        assert not out.exists()

    def labels_for(self, tmp_path, data):
        labels = tmp_path / "labels.csv"
        cli.main(["label", "--clinical", str(data / "clinical.csv"),
                  "--t", "60", "--output", str(labels)])
        return labels

    def test_train_and_reload(self, tmp_path):
        data = make_cohort(tmp_path)
        labels = self.labels_for(tmp_path, data)
        model_path = tmp_path / "model.json"
        code = cli.main(["train", "--family", "gaussian_nb",
                         "--features", str(data / "microarray.csv"),
                         "--labels", str(labels),
                         "--model-out", str(model_path)])
        assert code == 0
        payload = json.loads(model_path.read_text(encoding="utf-8"))
        assert payload["format_version"] == 2
        assert payload["family"] == "gaussian_nb"

    def test_train_rp_with_importance(self, tmp_path, monkeypatch):
        data = make_cohort(tmp_path)
        labels = self.labels_for(tmp_path, data)
        imp = tmp_path / "imp.csv"
        features = str(data / "microarray.csv")
        loads = []
        load_features = dataio.load_features
        monkeypatch.setattr(dataio, "load_features",
                            lambda path: loads.append(path) or load_features(path))
        code = cli.main(["train", "--family", "rp_ensemble",
                         "--features", features,
                         "--labels", str(labels),
                         "--param", "b1_groups=3", "--param", "b2_per_group=2",
                         "--param", "projected_dim=3",
                         "--model-out", str(tmp_path / "rp.json"),
                         "--importance", str(imp)])
        assert code == 0
        with open(imp, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))[1:]
        values = [float(r[1]) for r in rows]
        assert values == sorted(values, reverse=True)
        assert abs(sum(values) - 1.0) < 1e-9
        assert loads == [features]  # the features CSV is parsed once
        assert sorted(r[0] for r in rows) == sorted(load_features(features).feature_names)

    def test_rp_ensemble_cv_train_and_reload(self, tmp_path):
        data = make_cohort(tmp_path)
        labels = self.labels_for(tmp_path, data)
        features = str(data / "microarray.csv")
        inputs = ["--features", features, "--labels", str(labels)]
        params = ["--param", "b2_per_group=2", "--param", "projected_dim=3"]
        assert cli.main(["cv", "--family", "rp_ensemble", *params,
                         "--param", "b1_groups=3", "--k", "3",
                         "--output", str(tmp_path / "cv.csv"), *inputs]) == 0
        model_path = tmp_path / "rp.json"
        assert cli.main(["train", "--family", "rp_ensemble", *params,
                         "--param", "b1_groups=7",
                         "--model-out", str(model_path), *inputs]) == 0
        loaded = models.load_model(model_path)
        assert len(loaded.state.projections) == 7
        x, y, _ = cli._load_xy(features, labels)
        trained = models.fit(loaded.spec, x, y)
        np.testing.assert_array_equal(models.predict_scores(loaded, x),
                                      models.predict_scores(trained, x))

    def test_cv(self, tmp_path, capsys):
        data = make_cohort(tmp_path)
        labels = self.labels_for(tmp_path, data)
        out = tmp_path / "cv.csv"
        code = cli.main(["cv", "--family", "gaussian_nb",
                         "--features", str(data / "microarray.csv"),
                         "--labels", str(labels), "--k", "3",
                         "--output", str(out)])
        assert code == 0
        assert "mean AUC" in capsys.readouterr().out
        assert out.exists()

    def test_search(self, tmp_path, capsys):
        data = make_cohort(tmp_path)
        labels = self.labels_for(tmp_path, data)
        out = tmp_path / "trials.csv"
        code = cli.main(["search", "--family", "l1_logistic",
                         "--param", "lambda=loguniform:0.001,0.1",
                         "--param", "max_sweeps=20",
                         "--features", str(data / "microarray.csv"),
                         "--labels", str(labels), "--budget", "3",
                         "--k", "3", "--output", str(out)])
        assert code == 0
        assert "best trial" in capsys.readouterr().out
        with open(out, newline="", encoding="utf-8") as fh:
            assert len(list(csv.reader(fh))) == 4

    def test_report_subcommand(self, tmp_path, capsys):
        data = make_cohort(tmp_path)
        config_path = write_config(tmp_path, data)
        code = cli.main(["report", "--config", str(config_path),
                         "--output", str(tmp_path / "out2")])
        assert code == 0
        assert (tmp_path / "out2" / "report.csv").exists()

    def test_exit_codes(self, tmp_path, capsys):
        # config error -> 2
        assert cli.main(["report", "--config",
                         str(tmp_path / "missing.yaml")]) == 2
        # data error -> 3
        bad = tmp_path / "bad.csv"
        bad.write_text("id,time\np1,1\n", encoding="utf-8")
        assert cli.main(["label", "--clinical", str(bad), "--t", "60",
                         "--output", str(tmp_path / "o.csv")]) == 3
        capsys.readouterr()

    @pytest.mark.parametrize("flag, env, message", [
        (["--workers", "0"], {}, "--workers must be >= 1, got 0"),
    ])
    def test_search_worker_count_error_names_its_source(self, tmp_path, monkeypatch,
                                                        capsys, flag, env, message):
        for key, value in env.items():
            monkeypatch.setenv(key, value)
        # rejected before either input file is read
        code = cli.main(["search", "--family", "gaussian_nb",
                         "--features", str(tmp_path / "missing.csv"),
                         "--labels", str(tmp_path / "missing_labels.csv"), *flag])
        assert code == 2
        assert capsys.readouterr().err == f"config error: {message}\n"

    @pytest.mark.parametrize("flag, config, message", [
        (["--workers", "0"], {}, "--workers must be >= 1, got 0"),
        (["--override", "workers=0"], {}, "workers must be >= 1, got 0"),
        ([], {"workers": 0}, "workers must be >= 1, got 0"),
    ], ids=["flag", "override", "config_key"])
    def test_report_worker_count_error_names_its_source(self, tmp_path, capsys,
                                                        flag, config, message):
        # the data files do not exist: rejected before any of them is read
        path = write_config(tmp_path, tmp_path / "missing", **config)
        assert cli.main(["report", "--config", str(path), *flag]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("label, env, code", [
    ("yes", {}, 3),                          # non-integer label
    ("2", {}, 3),                            # label outside {0, 1}
    ("1", {"OMICSURV_WORKERS": "abc"}, 0),   # an exported variable is ignored
])
def test_bad_input_exit_code_without_traceback(tmp_path, label, env, code):
    data = make_cohort(tmp_path, n_patients=30, n_genes=6)
    ids = dataio.load_features(data / "microarray.csv").patient_ids
    rows = [f"{pid},{i % 2}" for i, pid in enumerate(ids)]
    rows[4] = f"{ids[4]},{label}"
    labels = tmp_path / "labels.csv"
    labels.write_text("patient_id,label\n" + "\n".join(rows) + "\n",
                      encoding="utf-8")
    environ = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]),
                   **env)
    result = subprocess.run(
        [sys.executable, "-m", "omicsurv.cli", "search", "--family",
         "gaussian_nb", "--features", str(data / "microarray.csv"),
         "--labels", str(labels), "--budget", "1", "--k", "3"],
        capture_output=True, text=True, env=environ)
    assert result.returncode == code
    assert "Traceback" not in result.stderr
    if code == 3:
        assert f"{labels}: line 6" in result.stderr


@pytest.fixture(scope="module")
def cohort(tmp_path_factory):
    return make_cohort(tmp_path_factory.mktemp("cohort"))


@pytest.mark.parametrize("key, value, named", [
    ("cv.k_folds", "abc", "cv.k_folds"),
    ("cv.k_folds", 1, "cv: k_folds"),
    ("cv.kfolds", 5, "cv.kfolds"),
    ("models", [{"family": "svm"}], "'svm'"),
    ("data.tsne", {"perplexty": 5}, "data.tsne.perplexty"),
    ("data.log2", "false", "data.log2"),
    ("models", [{"family": "svm_rbf", "params": {"C": "abc"}}], "svm_rbf: 'C'"),
    ("models", [{"family": "l1_logistic", "params": {"lamda": 100}}],
     "l1_logistic: unknown config key 'lamda'"),
    ("models", [{"family": "l1_logistic",
                 "params": {"lamda": "loguniform:0.001,0.1"}}],
     "l1_logistic: unknown config key 'lamda'"),
    ("models", [{"family": "random_forest", "params": {"max_depth": "uniform:2,8"}}],
     "random_forest: 'max_depth' must be int"),
    ("models", [{"family": "rp_ensemble",
                 "params": {"base_hyperparameters": {"bogus": 1}}}],
     "rp_ensemble: gaussian_nb: unknown config key 'bogus'"),
    ("models", [{"family": "random_forest", "params": {"mtry": 0}}],
     "random_forest: mtry must be >= 1, got 0"),
    ("models", [{"family": "random_forest", "params": {"n_trees": 0}}],
     "random_forest: n_trees must be >= 1, got 0"),
    ("models", [{"family": "random_forest", "params": {"mtry": -1}}],
     "random_forest: mtry must be >= 1, got -1"),
    ("models", [{"family": "random_forest", "params": {"max_depth": "int:-1,8"}}],
     "random_forest: max_depth must be >= 0, got -1"),
    ("models", [{"family": "svm_rbf", "params": {"C": -1}}],
     "svm_rbf: C must be > 0, got -1.0"),
    ("models", [{"family": "l1_logistic", "params": {"max_sweeps": 0}}],
     "l1_logistic: max_sweeps must be >= 1, got 0"),
    ("models", [{"family": "rectangle_mlp", "params": {"batch_size": 0}}],
     "rectangle_mlp: batch_size must be >= 1, got 0"),
    ("models", [{"family": "svm_rbf", "params": {"C": "uniform:5,1"}}],
     "uniform needs low <= high, got 5.0,1.0"),
    ("models", [{"family": "random_forest", "params": {"max_depth": "int:3,1"}}],
     "int needs low <= high, got 3,1"),
    ("models", [{"family": "rp_ensemble",
                 "params": {"selection_holdout_fraction": "uniform:0.5,1.5"}}],
     "rp_ensemble: selection_holdout_fraction must lie in (0,1)"),
    ("labels.horizons", [float("nan")],
     "config error: labels.horizons[0] must be > 0, got nan\n"),
    ("models", [{"family": "svm_rbf", "params": {"gamma": "uniform:5,1"}}],
     "config error: models[0]: gamma: uniform needs low <= high, got 5.0,1.0\n"),
    ("data.tsne", {"iterations": 0},
     "config error: data.tsne: iterations must be >= 1, got 0\n"),
    ("search.budget", 0, "config error: search.budget must be >= 1, got 0\n"),
    ("models", [{"family": "gaussian_nb", "budget": 0}],
     "config error: models[0].budget must be >= 1, got 0\n"),
    ("labels.horizons", [60, 30, 60.0],
     "config error: labels.horizons[2]: 60.0 is already listed at labels.horizons[0]\n"),
    ("data.projection_dims", [2, 2],
     "config error: data.projection_dims[1]: 2 is already listed at "
     "data.projection_dims[0]\n"),
    ("models", [{"family": "l1_logistic", "params": {"lambda": 0.001}},
                {"family": "l1_logistic", "params": {"lambda": 0.5}}],
     "config error: models[1]: family l1_logistic is already listed at models[0]\n"),
    ("seed", -2, "config error: seed must be >= 0, got -2\n"),
    ("models", [{"family": "svm_rbf", "params": {"C": "loguniform:1,inf"}}],
     "config error: models[0]: C: loguniform needs a finite high, got 1.0,inf\n"),
    ("cv.stratified", False,
     "config error: unknown config key 'cv.stratified'; valid keys: ['k_folds']\n"),
    ("data.projection_dims", [3, 0],
     "config error: data.projection_dims[1] must be >= 1, got 0\n"),
    ("labels.horizons", [], "config error: config lists no label horizons\n"),
    ("data.tsne", {"learning_rate": 200.0},
     "config error: unknown config key 'data.tsne.learning_rate'; "
     "valid keys: ['iterations', 'perplexity']\n"),
])
def test_report_config_error_before_any_work(tmp_path, cohort, capsys,
                                             key, value, named):
    path = write_config(tmp_path, cohort)
    config = yaml.safe_load(path.read_text(encoding="utf-8"))
    *parents, last = key.split(".")
    node = config
    for part in parents:
        node = node.setdefault(part, {})
    node[last] = value
    path.write_text(yaml.safe_dump(config), encoding="utf-8")
    assert cli.main(["report", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert named in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


FLAG_ARGV = {
    "synth": ["synth", "--out-dir", "{tmp}/out"],
    "project": ["project", "--features", "{tmp}/missing.csv", "--output", "{tmp}/out"],
    **{command: [command, "--family", "random_forest", "--features", "{tmp}/missing.csv",
                 "--labels", "{tmp}/missing_labels.csv", out_flag, "{tmp}/out"]
       for command, out_flag in (("train", "--model-out"), ("cv", "--output"),
                                 ("search", "--output"))},
    "report": ["report", "--config", "{tmp}/config.yaml"],
}

# (command, flag, bad value, least value); the --seed cases are named by
# their command alone
FLAG_CASES = [
    *[(command, "--seed", -1, 0) for command in FLAG_ARGV],
    ("synth", "--n-patients", 0, 1), ("synth", "--n-genes", 0, 1),
    ("synth", "--n-informative", -1, 0),
    ("project", "--dims", 0, 1), ("project", "--iterations", 0, 1),
    ("cv", "--k", 1, 2), ("search", "--k", 1, 2), ("search", "--budget", 0, 1),
    ("search", "--workers", 0, 1), ("report", "--workers", 0, 1),
]


@pytest.mark.parametrize("command, flag, value, least", FLAG_CASES, ids=[
    command if flag == "--seed" else f"{command}{flag}"
    for command, flag, _, _ in FLAG_CASES])
def test_negative_seed_flag_is_config_error_before_any_input_is_read(
        tmp_path, capsys, command, flag, value, least):
    """The input files do not exist: an integer flag below its minimum is
    rejected (exit 2) first, by name."""
    write_config(tmp_path, tmp_path / "missing")
    argv = [arg.format(tmp=tmp_path) for arg in FLAG_ARGV[command]]
    assert cli.main([*argv, flag, str(value)]) == 2
    err = capsys.readouterr().err
    assert err == f"config error: {flag} must be >= {least}, got {value}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv, path", [
    (["merge", "{tmp}/missing.csv", "{data}/rnaseq.csv"], "missing.csv"),
    (["normalize", "--target", "{data}/rnaseq.csv", "--reference",
      "{tmp}/missing.csv"], "missing.csv"),
    (["label", "--clinical", "{tmp}/missing.csv", "--t", "60"], "missing.csv"),
    (["km", "--clinical", "{tmp}/missing.csv"], "missing.csv"),
    (["project", "--features", "{tmp}/missing.csv"], "missing.csv"),
    (["train", "--family", "gaussian_nb", "--features", "{tmp}/missing.csv",
      "--labels", "{tmp}/labels.csv"], "missing.csv"),
    (["cv", "--family", "gaussian_nb", "--features", "{data}/microarray.csv",
      "--labels", "{tmp}/missing.csv"], "missing.csv"),
    (["search", "--family", "gaussian_nb", "--features", "{data}/microarray.csv",
      "--labels", "{tmp}/missing.csv"], "missing.csv"),
    (["km", "--clinical", "{tmp}"], ""),  # a directory
], ids=["merge", "normalize", "label", "km", "project", "train", "cv", "search",
        "km_directory"])
def test_unreadable_input_is_data_error_naming_the_file(tmp_path, cohort, capsys,
                                                        argv, path):
    (tmp_path / "labels.csv").write_text("patient_id,label\nP0001,1\n",
                                         encoding="utf-8")
    argv = [arg.format(tmp=tmp_path, data=cohort) for arg in argv]
    out = tmp_path / "out.csv"
    out_flag = "--model-out" if argv[0] == "train" else "--output"
    assert cli.main([*argv, out_flag, str(out)]) == 3
    err = capsys.readouterr().err
    reason = "Is a directory" if path == "" else "No such file or directory"
    assert err == f"data error: {tmp_path / path}: {reason}\n"
    assert not out.exists()


def test_report_missing_source_is_data_error_naming_the_file(tmp_path, cohort, capsys):
    path = write_config(tmp_path, cohort)
    config = yaml.safe_load(path.read_text(encoding="utf-8"))
    missing = tmp_path / "missing.csv"
    config["data"]["sources"][1]["path"] = str(missing)
    path.write_text(yaml.safe_dump(config), encoding="utf-8")
    assert cli.main(["report", "--config", str(path)]) == 3
    err = capsys.readouterr().err
    assert err == (f"data error: stage 'load' failed: {missing}: "
                   "No such file or directory\n")
    manifest = json.loads((tmp_path / "out" / "MANIFEST.json").read_text())
    assert manifest["complete"] is False and str(missing) in manifest["error"]


def write_log_scale_sources(tmp_path, cohort):
    """Centred log2 tables of the cohort's two platforms, on disjoint halves
    of its patients: a log-scale source with negative cells, as a lab
    publishes one."""
    paths = []
    for name, rows in (("microarray", slice(0, 30)), ("rnaseq", slice(30, None))):
        m = dataio.load_expression(cohort / f"{name}.csv")
        values = np.log2(m.values[rows] + 1.0)
        values -= values.mean(axis=0)
        paths.append(tmp_path / f"{name}_log.csv")
        dataio.save_expression(dataio.ExpressionMatrix(
            name, m.patient_ids[rows], m.gene_ids, values), paths[-1])
    return paths


def log_scale_config(tmp_path, cohort, paths, log2):
    path = write_config(tmp_path, cohort, models=[{"family": "gaussian_nb"}])
    config = yaml.safe_load(path.read_text(encoding="utf-8"))
    config["data"]["sources"] = [{"path": str(p), "name": p.stem} for p in paths]
    config["data"]["log2"] = log2
    path.write_text(yaml.safe_dump(config), encoding="utf-8")
    return path


def test_report_without_log2_reads_log_scale_sources(tmp_path, cohort, monkeypatch):
    """With ``log2: false`` a negative cell is a log-scale value, and the raw
    variant's expression columns are the FSQN integration of the sources."""
    paths = write_log_scale_sources(tmp_path, cohort)
    built = []
    build_features = dataio.build_features

    def recording(*args, **kwargs):
        built.append(build_features(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(dataio, "build_features", recording)
    path = log_scale_config(tmp_path, cohort, paths, log2=False)
    assert cli.main(["report", "--config", str(path)]) == 0
    sources = [dataio.load_expression(p, platform_id=p.stem) for p in paths]
    assert min(s.values.min() for s in sources) < 0
    want = normalize.integrate(sources, 0)
    raw = built[0]
    want = dataio.subset_patients(want, raw.patient_ids)
    assert raw.feature_names[:want.n_genes] == want.gene_ids
    assert raw.values[:, :want.n_genes].tobytes() == want.values.tobytes()


def test_report_with_log2_rejects_a_negative_cell_naming_it(tmp_path, cohort, capsys):
    paths = write_log_scale_sources(tmp_path, cohort)
    path = log_scale_config(tmp_path, cohort, paths, log2=True)
    assert cli.main(["report", "--config", str(path)]) == 3
    values = dataio.load_expression(paths[0]).values
    row, col = np.argwhere(values < 0)[0]
    assert capsys.readouterr().err == (
        f"data error: stage 'load' failed: {paths[0]}: line {row + 2}, column "
        f"{col + 2}: linear-scale expression values must be >= 0, "
        f"got {float(values[row, col])!r}\n")


def test_merge_reads_log_scale_sources(tmp_path, cohort, capsys):
    paths = write_log_scale_sources(tmp_path, cohort)
    out = tmp_path / "merged.csv"
    assert cli.main(["merge", *map(str, paths), "--output", str(out)]) == 0
    assert "merged 60 patients" in capsys.readouterr().out
    want, _ = dataio.merge([dataio.load_expression(p, platform_id=str(p)) for p in paths])
    assert dataio.load_expression(out).values.tobytes() == want.values.tobytes()


def test_report_missing_config_is_config_error_naming_the_file(tmp_path, capsys):
    path = tmp_path / "missing.yaml"
    assert cli.main(["report", "--config", str(path)]) == 2
    assert capsys.readouterr().err == f"config error: config file not found: {path}\n"


@pytest.mark.parametrize("flag, config", [
    (["--override", "seed=-1"], {}), ([], {"seed": -1})],
    ids=["override", "config_key"])
def test_report_negative_seed_key_is_config_error_before_any_data_is_read(
        tmp_path, capsys, flag, config):
    path = write_config(tmp_path, tmp_path / "missing", **config)
    assert cli.main(["report", "--config", str(path), *flag]) == 2
    assert capsys.readouterr().err == "config error: seed must be >= 0, got -1\n"
    assert not (tmp_path / "out").exists()


def test_report_rp_ensemble_regressor_base_exits_before_reading_data(tmp_path, capsys):
    """The data files do not exist: a base family with no hard-label
    threshold is rejected (exit 2) before they are read (exit 3)."""
    path = write_config(tmp_path, tmp_path / "missing", models=[
        {"family": "rp_ensemble", "params": {"base_family": "mlp_regressor"}}])
    assert cli.main(["report", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert ("rp_ensemble: base family 'mlp_regressor' has no hard-label threshold"
            in err and "Traceback" not in err)
    assert not (tmp_path / "out").exists()


def test_report_tsne_variant_too_narrow_exits_before_reading_data(tmp_path, capsys):
    """A 3-D projection with age has 4 columns, fewer than rp_ensemble's
    default projected_dim of 5: exit 2 before the missing data is read."""
    data = write_config(tmp_path, tmp_path / "missing")
    config = yaml.safe_load(data.read_text(encoding="utf-8"))
    config["data"]["projection_dims"] = [3]
    config["models"] = [{"family": "gaussian_nb"}, {"family": "rp_ensemble"}]
    data.write_text(yaml.safe_dump(config), encoding="utf-8")
    assert cli.main(["report", "--config", str(data)]) == 2
    err = capsys.readouterr().err
    assert err == ("config error: rp_ensemble needs at least 5 feature columns "
                   "with these parameters; 'RNA TSNE 3 age' has 4\n")
    assert not (tmp_path / "out").exists()


def test_report_raw_variant_too_narrow_fails_before_any_search(tmp_path, monkeypatch):
    data = make_cohort(tmp_path, n_patients=30, n_genes=3)
    path = write_config(tmp_path, data, models=[
        {"family": "rp_ensemble", "params": {"b1_groups": 2}}])
    monkeypatch.setattr(pipeline.search, "random_search", None)  # never reached
    with pytest.raises(ConfigError) as info:
        pipeline.run_experiment(pipeline.load_config(path))
    assert str(info.value) == (
        "stage 'project' failed: rp_ensemble needs at least 5 feature columns "
        "with these parameters; 'RNA raw age' has 4")


# After the import, then after `normalize` and `project` run in the same
# process: no module that neither command uses has run. The CLI registers its
# modules for loading on first use; such a module becomes a plain module when
# it runs.
UNUSED_MODULES = """
import sys, types
from omicsurv import cli
def loaded(names):
    return sorted(name for name in names if type(sys.modules.get(name)) is types.ModuleType)
print(loaded({"yaml", "concurrent.futures", "multiprocessing", "omicsurv.synth",
              "omicsurv.dataio", "omicsurv.models", "omicsurv.pipeline",
              "omicsurv.project", "omicsurv.rpensemble"}))
data, out = sys.argv[1:]
assert cli.main(["normalize", "--target", f"{data}/rnaseq.csv", "--reference",
                 f"{data}/microarray.csv", "--log2", "--output", f"{out}/n.csv"]) == 0
assert cli.main(["project", "--features", f"{out}/n.csv", "--dims", "2",
                 "--iterations", "20", "--perplexity", "3", "--append-age",
                 "--clinical", f"{data}/clinical.csv", "--output", f"{out}/p.csv"]) == 0
print(loaded({"yaml", "numpy.ma", "omicsurv.typed", "omicsurv.rpensemble",
              "omicsurv.models", "omicsurv.models.forest", "omicsurv.models.mlp",
              "omicsurv.pipeline", "omicsurv.search", "omicsurv.evaluation",
              "omicsurv.survival"}))
"""


def test_cli_import_leaves_unused_modules_unloaded(tmp_path):
    data = make_cohort(tmp_path, n_patients=12, n_genes=4)
    environ = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    result = subprocess.run([sys.executable, "-c", UNUSED_MODULES, str(data),
                             str(tmp_path)], capture_output=True, text=True,
                            env=environ, check=True)
    assert result.stdout == "[]\n[]\n"


def test_train_non_numeric_param_is_config_error(tmp_path, cohort, capsys):
    labels = tmp_path / "labels.csv"
    assert cli.main(["label", "--clinical", str(cohort / "clinical.csv"),
                     "--t", "60", "--output", str(labels)]) == 0
    code = cli.main(["train", "--family", "svm_rbf", "--param", "C=abc",
                     "--features", str(cohort / "microarray.csv"),
                     "--labels", str(labels),
                     "--model-out", str(tmp_path / "model.json")])
    assert code == 2
    err = capsys.readouterr().err
    assert "svm_rbf" in err and "'C'" in err
    assert not (tmp_path / "model.json").exists()


@pytest.mark.parametrize("command, param, named", [
    ("train", "mtry=0", "mtry must be >= 1, got 0"),
    ("cv", "n_trees=0", "n_trees must be >= 1, got 0"),
    ("train", "mtry=-1", "mtry must be >= 1, got -1"),
    ("cv", "max_depth=-1", "max_depth must be >= 0, got -1"),
])
def test_forest_param_out_of_range_before_data_is_read(tmp_path, capsys, command,
                                                      param, named):
    """The input files do not exist: the parameter is rejected (exit 2) before
    they are read (exit 3)."""
    out_flag = "--model-out" if command == "train" else "--output"
    code = cli.main([command, "--family", "random_forest", "--param", param,
                     "--features", str(tmp_path / "missing.csv"),
                     "--labels", str(tmp_path / "missing_labels.csv"),
                     out_flag, str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert f"random_forest: {named}" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, family, param, named", [
    ("train", "rectangle_mlp", "batch_size=0", "rectangle_mlp: batch_size must be >= 1, got 0"),
    ("cv", "svm_rbf", "C=0", "svm_rbf: C must be > 0, got 0.0"),
    ("search", "svm_rbf", "C=loguniform:1e-13,1", "svm_rbf: C must be > 1e-12, got 1e-13"),
    ("cv", "l1_logistic", "lambda=-1", "l1_logistic: lambda must be >= 0, got -1.0"),
    ("search", "rectangle_mlp", "learning_rate=uniform:-1,1",
     "rectangle_mlp: learning_rate must be > 0, got -1.0"),
    ("search", "svm_rbf", "C=uniform:5,1", "C: uniform needs low <= high, got 5.0,1.0"),
    ("search", "random_forest", "max_depth=int:3,1",
     "max_depth: int needs low <= high, got 3,1"),
    ("search", "rp_ensemble", "selection_holdout_fraction=uniform:0.5,1.5",
     "rp_ensemble: selection_holdout_fraction must lie in (0,1)"),
    ("search", "svm_rbf", "gamma=loguniform:1,0.5",
     "gamma: loguniform needs 0 < low < high, got 1.0,0.5"),
    ("search", "svm_rbf", "C=loguniform:1,inf", "C: loguniform needs a finite high, got 1.0,inf"),
    ("search", "svm_rbf", "C=loguniform:nan,1", "C: loguniform needs 0 < low < high, got nan,1.0"),
    ("search", "svm_rbf", "C=uniform:1,inf",
     "C: uniform needs finite low, high and high - low, got 1.0,inf"),
    ("search", "svm_rbf", "gamma=uniform:-inf,1",
     "gamma: uniform needs finite low, high and high - low, got -inf,1.0"),
    ("search", "svm_rbf", "C=uniform:-1e308,1e308",
     "C: uniform needs finite low, high and high - low, got -1e+308,1e+308"),
    ("search", "svm_rbf", "C=uniform:nan,1", "C: uniform needs low <= high, got nan,1.0"),
    *[(command, "bogus", "C=1", f"unknown model family 'bogus'; valid: {models.FAMILIES}")
      for command in ("train", "cv", "search")],
])
def test_param_out_of_range_before_data_is_read(tmp_path, capsys, command, family,
                                                param, named):
    """As for the forest above: exit 2 before the missing inputs are read."""
    out_flag = "--model-out" if command == "train" else "--output"
    code = cli.main([command, "--family", family, "--param", param,
                     "--features", str(tmp_path / "missing.csv"),
                     "--labels", str(tmp_path / "missing_labels.csv"),
                     out_flag, str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert err == f"config error: {named}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("t", ["0", "-5", "nan"])
def test_label_nonpositive_horizon_is_config_error_before_reading(tmp_path, capsys, t):
    out = tmp_path / "labels.csv"
    code = cli.main(["label", "--clinical", str(tmp_path / "missing.csv"),
                     "--t", t, "--output", str(out)])
    assert code == 2
    assert capsys.readouterr().err == (
        f"config error: --t must be positive, got {float(t)}\n")
    assert not out.exists()


def test_label_writes_kept_patients_in_clinical_order(tmp_path):
    clinical = tmp_path / "clinical.csv"
    dataio.save_clinical([ClinicalRecord("p2", 70.0, False),   # survived
                          ClinicalRecord("p0", 10.0, False),   # dropped
                          ClinicalRecord("p1", 60.0, True)],   # died
                         clinical)
    out = tmp_path / "labels.csv"
    assert cli.main(["label", "--clinical", str(clinical), "--t", "60",
                     "--output", str(out)]) == 0
    assert out.read_bytes() == b"patient_id,label\r\np2,1\r\np1,0\r\n"


@pytest.mark.parametrize("command, output_flag", [
    ("train", "--model-out"), ("cv", "--output"), ("search", "--output")])
def test_unknown_param_is_config_error(tmp_path, cohort, capsys, command,
                                       output_flag):
    labels = tmp_path / "labels.csv"
    assert cli.main(["label", "--clinical", str(cohort / "clinical.csv"),
                     "--t", "60", "--output", str(labels)]) == 0
    code = cli.main([command, "--family", "l1_logistic", "--param", "lamda=100",
                     "--features", str(cohort / "microarray.csv"),
                     "--labels", str(labels), output_flag, str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert "l1_logistic: unknown config key 'lamda'" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_train_importance_of_family_without_importances(tmp_path, cohort, capsys):
    labels = tmp_path / "labels.csv"
    assert cli.main(["label", "--clinical", str(cohort / "clinical.csv"),
                     "--t", "60", "--output", str(labels)]) == 0
    code = cli.main(["train", "--family", "gaussian_nb",
                     "--features", str(cohort / "microarray.csv"),
                     "--labels", str(labels),
                     "--model-out", str(tmp_path / "model.json"),
                     "--importance", str(tmp_path / "imp.csv")])
    assert code == 2
    assert capsys.readouterr().err == (
        "config error: gaussian_nb reports no feature importances\n")
    assert not (tmp_path / "model.json").exists()
    assert not (tmp_path / "imp.csv").exists()


def test_no_label_overlap_names_both_files(tmp_path, cohort, capsys):
    labels = tmp_path / "labels.csv"
    labels.write_text("patient_id,label\nnobody,0\nnoone,1\n", encoding="utf-8")
    features = cohort / "microarray.csv"
    code = cli.main(["cv", "--family", "gaussian_nb", "--features", str(features),
                     "--labels", str(labels), "--output", str(tmp_path / "out")])
    assert code == 3
    assert capsys.readouterr().err == (
        f"data error: no overlap between features {features} and labels {labels}\n")


def test_report_folds_beyond_minority_class_is_data_error(tmp_path, cohort, capsys):
    labels = [survival.make_label(record, 60).value
              for record in dataio.load_clinical(cohort / "clinical.csv")]
    minority = min(labels.count(0), labels.count(1))
    path = write_config(tmp_path, cohort, cv={"k_folds": 50})
    assert cli.main(["report", "--config", str(path)]) == 3
    assert capsys.readouterr().err == (
        "data error: stage 'evaluate' failed: k_folds=50 exceeds minority "
        f"class count {minority}\n")
    assert not (tmp_path / "out" / "report.csv").exists()


@pytest.mark.parametrize("command, extra", [
    ("cv", []), ("search", ["--budget", "3", "--workers", "1"]),
    ("search", ["--budget", "3", "--workers", "2"])],
    ids=["cv", "search-1-worker", "search-2-workers"])
def test_folds_beyond_minority_class_fail_once(tmp_path, cohort, capsys,
                                              command, extra):
    ids = dataio.load_features(cohort / "microarray.csv").patient_ids
    labels = tmp_path / "labels.csv"
    labels.write_text("patient_id,label\n" + "".join(
        f"{pid},{i % 2}\n" for i, pid in enumerate(ids[:20])), encoding="utf-8")
    code = cli.main([command, "--family", "gaussian_nb", "--k", "30", *extra,
                     "--features", str(cohort / "microarray.csv"),
                     "--labels", str(labels), "--output", str(tmp_path / "out")])
    assert code == 3
    assert capsys.readouterr().err == (
        "data error: k_folds=30 exceeds minority class count 10\n")
    assert not (tmp_path / "out").exists()


def test_report_config_not_utf8_is_config_error(tmp_path, cohort, capsys):
    path = write_config(tmp_path, cohort)
    offset = path.stat().st_size + len(b"# caf")
    with open(path, "ab") as fh:
        fh.write(b"# caf\xe9\n")
    assert cli.main(["report", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err == (f"config error: {path}: not UTF-8 text "
                   f"(byte 0xe9 at offset {offset})\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, output_flag", [
    ("train", "--model-out"), ("cv", "--output"), ("search", "--output")])
def test_duplicate_label_id_is_located_data_error(tmp_path, cohort, capsys,
                                                   command, output_flag):
    ids = dataio.load_features(cohort / "microarray.csv").patient_ids
    rows = [f"{pid},{i % 2}" for i, pid in enumerate(ids[:20])]
    rows.insert(6, "")  # a blank line still counts
    rows.append(f"{ids[1]},0")
    labels = tmp_path / "labels.csv"
    labels.write_text("patient_id,label\n" + "\n".join(rows) + "\n",
                      encoding="utf-8")
    code = cli.main([command, "--family", "gaussian_nb",
                     "--features", str(cohort / "microarray.csv"),
                     "--labels", str(labels), output_flag, str(tmp_path / "out")])
    assert code == 3
    assert capsys.readouterr().err == (
        f"data error: {labels}: line 23: duplicate patient id {ids[1]!r} "
        f"(first at line 3)\n")
    assert not (tmp_path / "out").exists()

class TestProjectionVariantNames(object):
    def test_tsne_variant_descriptor(self, tmp_path):
        data = make_cohort(tmp_path, n_patients=40, n_genes=8)
        path = write_config(
            tmp_path, data,
            data={
                "sources": [
                    {"path": str(data / "microarray.csv"), "name": "micro"},
                    {"path": str(data / "rnaseq.csv"), "name": "rna"},
                ],
                "clinical": str(data / "clinical.csv"),
                "log2": True,
                "include_age": True,
                "projection_dims": [2],
                "tsne": {"perplexity": 5, "iterations": 40},
            },
            models=[{"family": "gaussian_nb"}],
        )
        config = pipeline.load_config(path)
        result = pipeline.run_experiment(config)
        names = {r.data for r in result["report"].rows}
        assert names == {"RNA raw age t=60", "RNA TSNE 2 age t=60"}

    def test_tsne_variant_keeps_raw_patients_when_age_is_requested(self, tmp_path,
                                                                   monkeypatch):
        """A patient without a clinical record leaves the raw variant and
        therefore the t-SNE variant too, instead of failing the projection.
        The t-SNE input is a view of the raw variant's expression columns."""
        data = make_cohort(tmp_path, n_patients=40, n_genes=8)
        clinical = dataio.load_clinical(data / "clinical.csv")
        dataio.save_clinical(clinical[1:], data / "clinical.csv")
        path = write_config(
            tmp_path, data,
            data={
                "sources": [{"path": str(data / "microarray.csv"), "name": "micro"}],
                "clinical": str(data / "clinical.csv"),
                "include_age": True,
                "projection_dims": [2],
                "tsne": {"perplexity": 5, "iterations": 40},
            },
            models=[{"family": "gaussian_nb"}],
        )
        assert cli.main(["report", "--config", str(path)]) == 0
        config = pipeline.load_config(path)
        merged = normalize.log2_transform(dataio.load_expression(
            data / "microarray.csv", platform_id="micro"))
        inputs = []
        packed_affinities = pipeline.project.packed_affinities
        monkeypatch.setattr(pipeline.project, "packed_affinities",
                            lambda features, perplexity: inputs.append(features)
                            or packed_affinities(features, perplexity))
        raw, projected = pipeline._build_variants(config, merged, clinical[1:], None)
        assert clinical[0].patient_id not in raw.features.patient_ids
        assert projected.features.patient_ids == raw.features.patient_ids
        [tsne_input] = inputs
        assert np.shares_memory(tsne_input.values, raw.features.values)
        assert tsne_input.values.tobytes() == raw.features.values[:, :-1].tobytes()
