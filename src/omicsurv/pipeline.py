"""Experiment orchestration: config parsing, the load->normalize->label->
project->search->evaluate DAG, and report emission.

The config is a single YAML file with reserved top-level keys
{data, labels, models, cv, search, output, seed, workers}; CLI flags override
individual keys. Every output is a pure function of the config content, and
trial seeds depend only on (global seed, trial index), so reports are
bit-identical across reruns and worker counts.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from . import dataio, evaluation, normalize, project, search, survival
from .errors import ConfigError, DataError, OmicsurvError

WORKERS_ENV_VAR = "OMICSURV_WORKERS"


def default_workers() -> int:
    """Worker count from the OMICSURV_WORKERS environment variable, else 1."""
    text = os.environ.get(WORKERS_ENV_VAR, "1")
    try:
        return int(text)
    except ValueError:
        raise ConfigError(
            f"{WORKERS_ENV_VAR} must be an integer, got {text!r}") from None


@dataclass
class ModelEntry:
    family: str
    params: dict = field(default_factory=dict)
    budget: int | None = None


@dataclass
class ExperimentConfig:
    sources: list[dict]                 # [{path, name}]
    clinical_path: str
    reference: int = 0
    log2: bool = True
    cna_path: str | None = None
    include_age: bool = True
    projection_dims: list[int] = field(default_factory=list)
    tsne_options: dict = field(default_factory=dict)
    horizons: list[float] = field(default_factory=lambda: [60.0])
    models: list[ModelEntry] = field(default_factory=list)
    k_folds: int = 3
    stratified: bool = True
    budget: int = 1
    worker_count: int = 1
    seed: int = 0
    output_dir: str = "out"

    def validate(self):
        if not self.sources:
            raise ConfigError("config needs at least one data source")
        if not 0 <= self.reference < len(self.sources):
            raise ConfigError(f"reference index {self.reference} out of range")
        if not self.horizons or any(t <= 0 for t in self.horizons):
            raise ConfigError("label horizons must be positive")
        if not self.models:
            raise ConfigError("config lists no models")
        if self.budget < 1:
            raise ConfigError("search budget must be >= 1")
        if self.worker_count < 1:
            raise ConfigError("worker count must be >= 1")
        if any(d < 1 for d in self.projection_dims):
            raise ConfigError("projection dims must be >= 1")


_RESERVED_KEYS = {"data", "labels", "models", "cv", "search", "output", "seed",
                  "workers"}


def load_config(path, overrides: dict | None = None) -> ExperimentConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = yaml.safe_load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except yaml.YAMLError as exc:
        raise ConfigError(f"malformed config: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError("config must be a mapping")
    unknown = set(raw) - _RESERVED_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    for key, value in (overrides or {}).items():
        _apply_override(raw, key, value)
    return _config_from_dict(raw)


def _apply_override(raw: dict, dotted: str, value):
    """Set a possibly nested key like ``cv.k_folds`` from a CLI flag."""
    parts = dotted.split(".")
    node = raw
    for part in parts[:-1]:
        node = node.setdefault(part, {})
        if not isinstance(node, dict):
            raise ConfigError(f"cannot override through non-mapping key {part!r}")
    node[parts[-1]] = value


def _config_from_dict(raw: dict) -> ExperimentConfig:
    data = raw.get("data") or {}
    labels = raw.get("labels") or {}
    cv = raw.get("cv") or {}
    search_cfg = raw.get("search") or {}

    entries = []
    for m in raw.get("models") or []:
        entries.append(ModelEntry(
            family=m.get("family", ""),
            params={k: _parse_param(v) for k, v in (m.get("params") or {}).items()},
            budget=m.get("budget"),
        ))

    workers = raw["workers"] if "workers" in raw else default_workers()
    config = ExperimentConfig(
        sources=list(data.get("sources") or []),
        clinical_path=data.get("clinical", ""),
        reference=int(data.get("reference", 0)),
        log2=bool(data.get("log2", True)),
        cna_path=data.get("cna"),
        include_age=bool(data.get("include_age", True)),
        projection_dims=[int(d) for d in data.get("projection_dims") or []],
        tsne_options=dict(data.get("tsne") or {}),
        horizons=[float(t) for t in labels.get("horizons") or [60.0]],
        models=entries,
        k_folds=int(cv.get("k_folds", 3)),
        stratified=bool(cv.get("stratified", True)),
        budget=int(search_cfg.get("budget", 1)),
        worker_count=int(workers),
        seed=int(raw.get("seed", 0)),
        output_dir=str(raw.get("output", "out")),
    )
    config.validate()
    if not config.clinical_path:
        raise ConfigError("data.clinical path is required")
    return config


def _parse_param(value):
    """A param is a literal, a ``{dist: ..., ...}`` mapping, or a spec string."""
    if isinstance(value, dict):
        kind = value.get("dist")
        if kind in ("uniform", "loguniform"):
            cls = search.Uniform if kind == "uniform" else search.LogUniform
            return cls(float(value["low"]), float(value["high"]))
        if kind == "int":
            return search.IntUniform(int(value["low"]), int(value["high"]))
        if kind == "cat":
            return search.Categorical(tuple(value["choices"]))
        raise ConfigError(f"unknown distribution {kind!r}")
    if isinstance(value, str) and ":" in value:
        return search.parse_distribution(value)
    return value


def _config_fingerprint(config: ExperimentConfig) -> str:
    blob = json.dumps(config, default=lambda o: o.__dict__, sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@dataclass
class _Variant:
    descriptor: str
    features: dataio.FeatureMatrix


def _stage(name: str):
    """Decorator-free stage wrapper: re-raise with the failing stage named."""
    class _Ctx:
        def __enter__(self):
            return self

        def __exit__(self, exc_type, exc, tb):
            if exc is not None and isinstance(exc, OmicsurvError):
                raise type(exc)(f"stage {name!r} failed: {exc}") from exc
            if exc is not None:
                raise OmicsurvError(f"stage {name!r} failed: {exc}") from exc
    return _Ctx()


def _build_variants(config: ExperimentConfig, merged, clinical, cna) -> list[_Variant]:
    variants = []
    age_suffix = " age" if config.include_age else ""
    raw = dataio.build_features(merged, clinical, include_age=config.include_age)
    variants.append(_Variant(descriptor=f"RNA raw{age_suffix}", features=raw))
    if cna is not None:
        combined = dataio.build_features(merged, clinical,
                                         include_age=config.include_age, cna=cna)
        variants.append(_Variant(descriptor=f"RNA+CNA raw{age_suffix}",
                                 features=combined))
    expr_only = dataio.build_features(merged, clinical, include_age=False)
    for dim in config.projection_dims:
        tsne_config = project.TsneConfig(
            output_dims=dim,
            perplexity=float(config.tsne_options.get("perplexity", 30.0)),
            learning_rate=float(config.tsne_options.get("learning_rate", 200.0)),
            iterations=int(config.tsne_options.get("iterations", 1000)),
            early_exaggeration_factor=float(
                config.tsne_options.get("early_exaggeration_factor", 12.0)),
            early_exaggeration_iters=int(
                config.tsne_options.get("early_exaggeration_iters", 250)),
            seed=config.seed,
        )
        if config.include_age:
            projected = project.project_with_age(expr_only, clinical, tsne_config)
            descriptor = f"RNA TSNE {dim} age"
        else:
            embedding = project.tsne(expr_only, tsne_config)
            projected = dataio.FeatureMatrix(
                patient_ids=embedding.patient_ids,
                feature_names=[f"tsne_{k}" for k in range(dim)],
                values=embedding.coords,
            )
            descriptor = f"RNA TSNE {dim}"
        variants.append(_Variant(descriptor=descriptor, features=projected))
    return variants


def run_experiment(config: ExperimentConfig) -> dict:
    """Execute the full DAG and write report.csv, trials.csv and MANIFEST.json.

    Returns a dict with the output paths and the assembled EvalReport.
    """
    config.validate()
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = {
        "config_sha256": _config_fingerprint(config),
        "seed": config.seed,
        "workers": config.worker_count,
        "complete": False,
        "outputs": [],
    }
    manifest_path = out_dir / "MANIFEST.json"

    def flush_manifest():
        with open(manifest_path, "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)

    try:
        with _stage("load"):
            sources = [
                dataio.load_expression(s["path"], platform_id=s.get("name", s["path"]))
                for s in config.sources
            ]
            clinical = dataio.load_clinical(config.clinical_path)
            cna = dataio.load_cna(config.cna_path) if config.cna_path else None
        with _stage("normalize"):
            if config.log2:
                sources = [normalize.log2_transform(s) for s in sources]
            if len(sources) > 1:
                merged = normalize.integrate(sources, config.reference)
            else:
                merged = sources[0]
        with _stage("project"):
            variants = _build_variants(config, merged, clinical, cna)

        report = evaluation.EvalReport()
        trial_rows = []
        with _stage("evaluate"):
            plan = evaluation.CvPlan(k_folds=config.k_folds,
                                     stratified=config.stratified,
                                     seed=config.seed)
            for horizon in config.horizons:
                for variant in variants:
                    dataset, _ = survival.make_labeled_dataset(
                        variant.features, clinical, horizon)
                    data_name = f"{variant.descriptor} t={horizon:g}"
                    fold_sizes = [len(f) for f in evaluation.stratified_kfold(
                        dataset.labels, plan)]
                    for model_idx, entry in enumerate(config.models):
                        space = search.SearchSpace(family=entry.family,
                                                   params=entry.params)
                        stream = int(np.random.SeedSequence(
                            [config.seed, model_idx,
                             _stable_hash(data_name)]).generate_state(1)[0])
                        best, trials = search.random_search(
                            space, dataset.features.values, dataset.labels,
                            plan, entry.budget or config.budget, stream,
                            worker_count=config.worker_count)
                        for t in trials:
                            trial_rows.append([
                                entry.family, data_name, t.index,
                                repr(t.mean_auc),
                                json.dumps(t.params, sort_keys=True),
                            ])
                        for fold, fold_auc in enumerate(best.fold_aucs):
                            report.rows.append(evaluation.EvalRow(
                                model=entry.family, data=data_name,
                                fold=fold, auc=fold_auc,
                                n_test=fold_sizes[fold],
                            ))

        with _stage("report"):
            report_path = out_dir / "report.csv"
            report.to_csv(report_path)
            trials_path = out_dir / "trials.csv"
            with open(trials_path, "w", newline="", encoding="utf-8") as fh:
                writer = csv.writer(fh)
                writer.writerow(["model", "data", "trial", "mean_auc", "params"])
                writer.writerows(trial_rows)
            manifest["outputs"] = [report_path.name, trials_path.name]
            manifest["complete"] = True
            flush_manifest()
    except Exception as exc:
        manifest["error"] = str(exc)
        flush_manifest()
        raise

    return {"report": report, "report_path": str(report_path),
            "trials_path": str(trials_path), "manifest_path": str(manifest_path)}


def _stable_hash(text: str) -> int:
    return int.from_bytes(
        hashlib.blake2b(text.encode("utf-8"), digest_size=4).digest(), "big"
    )
