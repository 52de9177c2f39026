"""Experiment orchestration: config parsing, the load->normalize->label->
project->search->evaluate DAG, and report emission.

The config is a single YAML file with reserved top-level keys
{data, labels, models, cv, search, output, seed, workers}; CLI flags override
individual keys. Every output is a pure function of the config content, and
trial seeds depend only on (global seed, trial index), so reports are
bit-identical across reruns and worker counts.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import dataio, evaluation, normalize, project, search, survival
from .errors import ConfigError, DataError, OmicsurvError
from .typed import read_section

@dataclass
class ExperimentConfig:
    """A parsed experiment: the objects that ``run_experiment`` runs."""

    sources: list[dict]                 # [{path, name}]
    clinical_path: str
    reference: int
    log2: bool
    cna_path: str | None
    include_age: bool
    projection_dims: list[int]
    tsne: project.TsneConfig            # output_dims is set per projection
    horizons: list[float]
    models: list[search.SearchSpace]
    plan: evaluation.CvPlan
    worker_count: int
    seed: int
    output_dir: str

    def __post_init__(self):
        if not self.sources:
            raise ConfigError("config needs at least one data source")
        if not all(s["path"] for s in self.sources):
            raise ConfigError("every data source needs a path")
        if not 0 <= self.reference < len(self.sources):
            raise ConfigError(f"reference index {self.reference} out of range")
        if not self.clinical_path:
            raise ConfigError("data.clinical path is required")
        if not self.horizons:
            raise ConfigError("config lists no label horizons")
        if not self.models:
            raise ConfigError("config lists no models")
        _check_unique("labels.horizons", self.horizons)
        _check_unique("data.projection_dims", self.projection_dims)
        _check_unique("models", [space.family for space in self.models], "family ")
        for dim in self.projection_dims:
            _check_width(self.models, _tsne_descriptor(dim, self.include_age),
                         dim + int(self.include_age))


def _check_unique(key: str, values: list, what: str = "") -> None:
    """A ConfigError naming the first entry of ``key`` that repeats an earlier
    one: each would run, and fill the report, twice."""
    first = {}
    for i, value in enumerate(values):
        if value in first:
            raise ConfigError(f"{key}[{i}]: {what}{value} is already listed "
                              f"at {key}[{first[value]}]")
        first[value] = i


def load_config(path, overrides: dict | None = None) -> ExperimentConfig:
    import yaml  # only the report command reads a config

    try:
        raw = yaml.safe_load(dataio.read_text(path))
    except DataError as exc:  # read_text's errors name the file
        if isinstance(exc.__cause__, FileNotFoundError):
            raise ConfigError(f"config file not found: {path}") from None
        raise ConfigError(str(exc)) from None
    except yaml.YAMLError as exc:
        raise ConfigError(f"malformed config: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError("config must be a mapping")
    for key, value in (overrides or {}).items():
        _apply_override(raw, key, value)
    return _config_from_dict(raw)


def _apply_override(raw: dict, dotted: str, value):
    """Set a possibly nested key like ``cv.k_folds`` from a CLI flag."""
    parts = dotted.split(".")
    node = raw
    for part in parts[:-1]:
        if node.get(part) is None:
            node[part] = {}
        node = node[part]
        if not isinstance(node, dict):
            raise ConfigError(f"cannot override through non-mapping key {part!r}")
    node[parts[-1]] = value


def _search_space(family: str, params: dict, budget: int) -> search.SearchSpace:
    return search.SearchSpace(family, search.parse_params(params), budget)


def _config_from_dict(raw: dict) -> ExperimentConfig:
    top = read_section(raw, "", {
        "data": (dict, {}), "labels": (dict, {}), "models": (list[dict], []),
        "cv": (dict, {}), "search": (dict, {}), "output": (str, "out"),
        "seed": (int, 0, ">= 0"), "workers": (int, 1, ">= 1")})
    seed = top["seed"]
    data = read_section(top["data"], "data", {
        "sources": (list[dict], []), "clinical": (str, ""),
        "reference": (int, 0), "log2": (bool, True), "cna": (str, None),
        "include_age": (bool, True), "projection_dims": (list[int], [], ">= 1"),
        "tsne": (dict, {})})
    tsne = read_section(data["tsne"], "data.tsne", {
        "perplexity": (float, 30.0), "iterations": (int, 1000),
    }, functools.partial(project.TsneConfig, seed=seed))
    plan = read_section(top["cv"], "cv", {"k_folds": (int, 3)},
                        functools.partial(evaluation.CvPlan, seed=seed))
    budget = read_section(top["search"], "search",
                          {"budget": (int, 1, ">= 1")})["budget"]
    return ExperimentConfig(
        sources=[read_section(
            source, f"data.sources[{i}]", {"path": (str, ""), "name": (str, None)},
            lambda path, name: {"path": path, "name": name or path},
        ) for i, source in enumerate(data["sources"])],
        clinical_path=data["clinical"],
        reference=data["reference"],
        log2=data["log2"],
        cna_path=data["cna"],
        include_age=data["include_age"],
        projection_dims=data["projection_dims"],
        tsne=tsne,
        horizons=read_section(top["labels"], "labels",
                               {"horizons": (list[float], [60.0], "> 0")})["horizons"],
        models=[read_section(model, f"models[{i}]", {
            "family": (str, ""), "params": (dict, {}), "budget": (int, budget, ">= 1"),
        }, _search_space) for i, model in enumerate(top["models"])],
        plan=plan,
        worker_count=top["workers"],
        seed=seed,
        output_dir=top["output"],
    )


def _config_fingerprint(config: ExperimentConfig) -> str:
    blob = json.dumps(config, default=lambda o: o.__dict__, sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _tsne_descriptor(dim: int, include_age: bool) -> str:
    return f"RNA TSNE {dim}{' age' if include_age else ''}"


def _check_width(spaces: list[search.SearchSpace], descriptor: str, width: int) -> None:
    """A ConfigError if a model cannot fit the ``width`` columns of a variant."""
    for space in spaces:
        space.check_width(width, repr(descriptor))


@dataclass
class _Variant:
    descriptor: str
    features: dataio.FeatureMatrix


@contextlib.contextmanager
def _stage(name: str):
    """Re-raise a failure inside the block with the failing stage named."""
    try:
        yield
    except OmicsurvError as exc:
        raise type(exc)(f"stage {name!r} failed: {exc}") from exc
    except Exception as exc:
        raise OmicsurvError(f"stage {name!r} failed: {exc}") from exc


def _build_variants(config: ExperimentConfig, merged, clinical, cna) -> list[_Variant]:
    age_suffix = " age" if config.include_age else ""
    raw = dataio.build_features(merged, clinical, include_age=config.include_age,
                                clinical_source=config.clinical_path)
    variants = [_Variant(descriptor=f"RNA raw{age_suffix}", features=raw)]
    if cna is not None:
        combined = dataio.build_features(merged, clinical,
                                         include_age=config.include_age, cna=cna,
                                         clinical_source=config.clinical_path)
        variants.append(_Variant(descriptor=f"RNA+CNA raw{age_suffix}",
                                 features=combined))
    # the t-SNE variants' widths were checked with the config
    for variant in variants:
        _check_width(config.models, variant.descriptor, variant.features.n_features)
    # t-SNE sees the raw variant's expression columns, a view: with age, only
    # the patients with a clinical record
    expr_only = dataio.FeatureMatrix(raw.patient_ids, merged.gene_ids,
                                     raw.values[:, :merged.n_genes])
    age_records = clinical if config.include_age else None
    # one P serves every output dimension
    affinities = (project.packed_affinities(expr_only, config.tsne.perplexity)
                  if config.projection_dims else None)
    for dim in config.projection_dims:
        projected = project.project_with_age(
            expr_only, age_records, replace(config.tsne, output_dims=dim), affinities)
        variants.append(_Variant(descriptor=_tsne_descriptor(dim, config.include_age),
                                 features=projected))
    return variants


def run_experiment(config: ExperimentConfig) -> dict:
    """Execute the full DAG and write report.csv, trials.csv and MANIFEST.json.

    Returns a dict with the output paths and the assembled EvalReport.
    """
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
                dataio.load_expression(s["path"], platform_id=s["name"],
                                       nonnegative=config.log2)
                for s in config.sources
            ]
            clinical = dataio.load_clinical(config.clinical_path)
            cna = dataio.load_cna(config.cna_path) if config.cna_path else None
        with _stage("normalize"):
            if config.log2:
                sources = [normalize.log2_transform(s) for s in sources]
            merged = normalize.integrate(sources, config.reference)
        with _stage("project"):
            variants = _build_variants(config, merged, clinical, cna)

        report = evaluation.EvalReport()
        trial_rows = []
        with _stage("evaluate"):
            for horizon in config.horizons:
                for variant in variants:
                    dataset = survival.make_labeled_dataset(
                        variant.features, clinical, horizon)
                    data_name = f"{variant.descriptor} t={horizon:g}"
                    for model_idx, space in enumerate(config.models):
                        stream = int(np.random.SeedSequence(
                            [config.seed, model_idx,
                             _stable_hash(data_name)]).generate_state(1)[0])
                        best, trials = search.random_search(
                            space, dataset.features.values, dataset.labels,
                            config.plan, space.budget, stream,
                            worker_count=config.worker_count)
                        for t in trials:
                            trial_rows.append([
                                space.family, data_name, t.index, t.mean_auc,
                                json.dumps(t.params, sort_keys=True),
                            ])
                        report.rows.extend(replace(row, data=data_name)
                                           for row in best.rows)

        with _stage("report"):
            report_path = out_dir / "report.csv"
            report.to_csv(report_path)
            trials_path = out_dir / "trials.csv"
            dataio.save_rows(trials_path,
                             ["model", "data", "trial", "mean_auc", "params"], trial_rows)
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
