"""Batch command-line interface.

Subcommands: synth, merge, normalize, label, project, train, cv, search,
report, km. Exit codes: 0 success, 2 config error, 3 data error, 4 runtime
failure.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import sys
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, OmicsurvError, check_bound


def _lazy(name: str):
    """The submodule ``name`` of this package, in ``sys.modules`` at once and
    executed on its first attribute access."""
    full = f"{__package__}.{name}"
    if full in sys.modules:
        return sys.modules[full]
    spec = importlib.util.find_spec(full)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[full] = module
    setattr(sys.modules[__package__], name, module)
    spec.loader.exec_module(module)
    return module


# Every module that perfbench/tracing.py instruments is registered here, so
# that the tracer finds it and rebinds its functions, but a command runs only
# the modules it uses; synth is imported by the command that uses it.
(dataio, evaluation, models, normalize, pipeline, project, rpensemble, search,
 survival) = map(_lazy, ("dataio", "evaluation", "models", "normalize", "pipeline",
                         "project", "rpensemble", "search", "survival"))


def _parse_kv(pairs: list[str]) -> dict:
    out = {}
    for pair in pairs or []:
        key, sep, value = pair.partition("=")
        if not sep:
            raise ConfigError(f"expected key=value, got {pair!r}")
        out[key] = search.coerce(value)
    return out


def _cmd_synth(args) -> int:
    from . import synth

    config = synth.SynthConfig(
        n_patients=args.n_patients,
        n_genes=args.n_genes,
        n_informative_genes=args.n_informative,
        seed=args.seed,
        censoring_fraction_target=args.censoring,
    )
    latent = synth.gen_latent(config)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    dataio.save_expression(synth.gen_microarray(config, latent), out / "microarray.csv")
    dataio.save_expression(synth.gen_rnaseq(config, latent), out / "rnaseq.csv")
    dataio.save_cna(synth.gen_cna(config, latent), out / "cna.csv")
    records, truth = synth.gen_clinical(config, latent)
    dataio.save_clinical(records, out / "clinical.csv")
    dataio.save_rows(out / "truth.csv", ["patient_id", "true_death_time", "true_risk"],
                     ([pid, float(death), float(risk)] for pid, death, risk
                      in zip(truth.patient_ids, truth.death_times, truth.risk)))
    print(f"wrote synthetic cohort to {out}")
    return 0


def _cmd_merge(args) -> int:
    sources = [dataio.load_expression(p, platform_id=p) for p in args.inputs]
    merged, report = dataio.merge(sources)
    dataio.save_expression(merged, args.output)
    print(f"merged {report.union_patient_count} patients x "
          f"{report.intersection_gene_count} genes; "
          f"{len(report.resolutions)} duplicate patients resolved")
    return 0


def _cmd_normalize(args) -> int:
    target = dataio.load_expression(args.target, nonnegative=args.log2)
    reference = dataio.load_expression(args.reference, nonnegative=args.log2)
    if args.log2:
        target = normalize.log2_transform(target)
        reference = normalize.log2_transform(reference)
    dataio.save_expression(normalize.fsqn(target, reference), args.output)
    return 0


def _cmd_label(args) -> int:
    if not args.t > 0:
        raise ConfigError(f"--t must be positive, got {args.t}")
    records = dataio.load_clinical(args.clinical)
    dataio.save_labels(survival.horizon_labels(records, args.t), args.output)
    return 0


def _cmd_km(args) -> int:
    records = dataio.load_clinical(args.clinical)
    curves = survival.kaplan_meier(records, group_by=args.group_by)
    dataio.save_rows(args.output, ["group", "time", "survival", "at_risk"], (
        [curve.group_label, float(t), float(s), int(r)] for curve in curves
        for t, s, r in zip(curve.event_times, curve.survival_probabilities,
                           curve.at_risk_counts)))
    return 0


def _cmd_project(args) -> int:
    if args.append_age and not args.clinical:
        raise ConfigError("--append-age requires --clinical")
    config = project.TsneConfig(
        output_dims=args.dims,
        perplexity=args.perplexity,
        iterations=args.iterations,
        seed=args.seed,
    )
    features = dataio.load_features(args.features)
    clinical = dataio.load_clinical(args.clinical) if args.append_age else None
    dataio.save_expression(project.project_with_age(features, clinical, config),
                           args.output)
    return 0


def _load_xy(features_path, labels_path):
    """(x, y, feature names) of the feature rows the labels file labels."""
    features = dataio.load_features(features_path)
    dataset = survival.select_labeled(
        features, dataio.load_labels(labels_path),
        f"no overlap between features {features_path} and labels {labels_path}")
    return dataset.features.values, dataset.labels, features.feature_names


def _checked_spec(args) -> models.ModelSpec:
    """The ModelSpec of --family, --param and --seed, its hyperparameters
    checked before any data is read."""
    spec = models.ModelSpec(family=args.family,
                            hyperparameters=_parse_kv(args.param), seed=args.seed)
    models.read_params(spec.family, spec.hyperparameters)
    return spec


def _cmd_train(args) -> int:
    spec = _checked_spec(args)
    x, y, names = _load_xy(args.features, args.labels)
    model = models.fit(spec, x, y)
    importance = getattr(model.state, "feature_importance", None)
    if args.importance and importance is None:
        raise ConfigError(f"{args.family} reports no feature importances")
    models.save_model(model, args.model_out)
    if args.importance:
        dataio.save_rows(args.importance, ["feature", "importance"],
                         ([names[j], float(importance[j])]
                          for j in np.argsort(-importance)))
    print(f"saved {args.family} model to {args.model_out}")
    return 0


def _cmd_cv(args) -> int:
    spec = _checked_spec(args)
    x, y, _ = _load_xy(args.features, args.labels)
    plan = evaluation.CvPlan(k_folds=args.k, seed=args.seed)
    report = evaluation.cross_validate(spec, (x, y), plan,
                                       data_descriptor=args.features)
    report.to_csv(args.output)
    for key, (mean, std) in report.aggregates().items():
        print(f"{key[0]}: mean AUC {mean:.4f} +- {std:.4f}")
    return 0


def _cmd_search(args) -> int:
    space = search.SearchSpace(family=args.family,
                               params=search.parse_params(_parse_kv(args.param)),
                               budget=args.budget)
    x, y, _ = _load_xy(args.features, args.labels)
    plan = evaluation.CvPlan(k_folds=args.k, seed=args.seed)
    best, trials = search.random_search(space, x, y, plan, space.budget,
                                        args.seed, worker_count=args.workers)
    print(f"best trial {best.index}: mean AUC {best.mean_auc:.4f} "
          f"params {json.dumps(best.params, sort_keys=True)}")
    if args.output:
        dataio.save_rows(args.output, ["trial", "mean_auc", "params"],
                         ([t.index, t.mean_auc, json.dumps(t.params, sort_keys=True)]
                          for t in trials))
    return 0


def _cmd_report(args) -> int:
    overrides = _parse_kv(args.override)
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.workers is not None:
        overrides["workers"] = args.workers
    if args.output is not None:
        overrides["output"] = args.output
    config = pipeline.load_config(args.config, overrides)
    result = pipeline.run_experiment(config)
    print(f"report written to {result['report_path']}")
    return 0


# The bound of each integer flag, by argparse dest.
_BOUNDS = {"seed": ">= 0", "workers": ">= 1", "k": ">= 2", "budget": ">= 1",
           "dims": ">= 1", "iterations": ">= 1", "n_patients": ">= 1",
           "n_genes": ">= 1", "n_informative": ">= 0"}


def _check_counts(args) -> None:
    """A ConfigError naming the first integer flag outside its bound, before
    the command reads any input."""
    for dest, bound in _BOUNDS.items():
        value = getattr(args, dest, None)
        if value is not None:
            check_bound("--" + dest.replace("_", "-"), value, bound)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="omicsurv")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic cohort")
    p.add_argument("--n-patients", type=int, default=400)
    p.add_argument("--n-genes", type=int, default=100)
    p.add_argument("--n-informative", type=int, default=5)
    p.add_argument("--censoring", type=float, default=0.446)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("merge", help="merge expression matrices")
    p.add_argument("inputs", nargs="+")
    p.add_argument("--output", required=True)
    p.set_defaults(func=_cmd_merge)

    p = sub.add_parser("normalize", help="FSQN a target onto a reference")
    p.add_argument("--target", required=True)
    p.add_argument("--reference", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--log2", action="store_true",
                   help="log2(v+1)-transform both matrices before FSQN")
    p.set_defaults(func=_cmd_normalize)

    p = sub.add_parser("label", help="censoring-aware horizon labels")
    p.add_argument("--clinical", required=True)
    p.add_argument("--t", type=float, required=True, help="horizon in months")
    p.add_argument("--output", required=True)
    p.set_defaults(func=_cmd_label)

    p = sub.add_parser("km", help="Kaplan-Meier curves")
    p.add_argument("--clinical", required=True)
    p.add_argument("--group-by", action="store_true")
    p.add_argument("--output", required=True)
    p.set_defaults(func=_cmd_km)

    p = sub.add_parser("project", help="t-SNE projection")
    p.add_argument("--features", required=True)
    p.add_argument("--dims", type=int, default=2)
    p.add_argument("--perplexity", type=float, default=30.0)
    p.add_argument("--iterations", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--append-age", action="store_true")
    p.add_argument("--clinical")
    p.add_argument("--output", required=True)
    p.set_defaults(func=_cmd_project)

    p = sub.add_parser("train", help="train one model")
    p.add_argument("--family", required=True)
    p.add_argument("--param", action="append", metavar="KEY=VALUE")
    p.add_argument("--features", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--model-out", default="model.json")
    p.add_argument("--importance", help="write rp_ensemble importances CSV here")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("cv", help="cross-validate one model")
    p.add_argument("--family", required=True)
    p.add_argument("--param", action="append", metavar="KEY=VALUE")
    p.add_argument("--features", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", default="cv_report.csv")
    p.set_defaults(func=_cmd_cv)

    p = sub.add_parser("search", help="seeded random hyperparameter search")
    p.add_argument("--family", required=True)
    p.add_argument("--param", action="append", metavar="KEY=SPEC",
                   help="fixed value or distribution, e.g. C=loguniform:0.01,100")
    p.add_argument("--features", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--budget", type=int, default=10)
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1,
                   help="processes that run trials in parallel")
    p.add_argument("--output")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("report", help="run a full experiment from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--workers", type=int)
    p.add_argument("--output")
    p.add_argument("--override", action="append", metavar="KEY=VALUE",
                   help="override any config key, e.g. cv.k_folds=5")
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_counts(args)
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except (OmicsurvError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
