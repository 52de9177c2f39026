#!/usr/bin/env python3
"""Time model training on one synthetic cohort, printing for each model the
best-of-3 wall time and the SHA-256 of the trained model's JSON, so a speed-up
can be checked to leave the model unchanged:

- the rp_ensemble fit with its defaults (100 groups x 20 projections, dim 5,
  Gaussian-NB base, seed 0), whose JSON is the model file's ``state``;
- the random_forest fit with 50 trees of max_depth 8 (seed 0), whose JSON is
  the model file's, format_version included;
- the l1_logistic fit at lambda 0.01 with the default max_sweeps and tol,
  also printing the sweeps run and whether they converged, whose JSON is the
  model file's ``state``;
- the svm_rbf fit with its default PARAMS (seed 0), also printing the SMO
  steps taken and whether they converged, whose JSON is the model file's
  ``state``;
- the rectangle_mlp fit with its default PARAMS (seed 0), whose JSON is the
  model file's ``state``;
- a 10-fold cross-validation trial, as a search runs one, of rp_ensemble with
  10 groups (otherwise its defaults, seed 0) and of rectangle_mlp with its
  defaults (seed 0), whose JSON is the trial's fold rows (fold, AUC, test
  size).

The cohort is drawn in memory with omicsurv.synth (seed 0). The features are
the log2 microarray table, labelled at a 60-month horizon as
`omicsurv report` labels them; censored patients without a label are dropped.

Before numpy loads, the script sets the BLAS/OpenMP thread variables that
perfbench/run.py sets to 1, overriding any exported value: the svm_rbf
model's gram matrix, and so its SHA-256, changes with the thread count.

Usage: python scripts/time_model_layers.py [--patients N] [--genes M]
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import time  # noqa: E402

from omicsurv import dataio, evaluation, models, normalize, survival, synth  # noqa: E402


def best_of_3(fn):
    times = []
    for _ in range(3):
        start = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - start)
    return min(times), result


def sha256_of(payload) -> str:
    return hashlib.sha256(json.dumps(payload).encode("utf-8")).hexdigest()


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--patients", type=int, default=300)
    parser.add_argument("--genes", type=int, default=500)
    args = parser.parse_args()

    config = synth.SynthConfig(n_patients=args.patients, n_genes=args.genes,
                               n_informative_genes=min(5, args.genes), seed=0)
    latent = synth.gen_latent(config)
    micro = normalize.log2_transform(synth.gen_microarray(config, latent))
    clinical, _ = synth.gen_clinical(config, latent)
    dataset = survival.make_labeled_dataset(
        dataio.build_features(micro, clinical), clinical, 60.0)
    x, y = dataset.features.values, dataset.labels
    print(f"cohort: {args.patients} patients x {args.genes} genes, "
          f"{len(y)} labelled ({int(y.sum())} class 1)")

    spec = models.ModelSpec("rp_ensemble", {}, seed=0)
    seconds, model = best_of_3(lambda: models.fit(spec, x, y))
    params = model.state.params
    print(f"rp_ensemble      {seconds:8.3f} s  "
          f"({params['b1_groups']} x {params['b2_per_group']} projections, "
          f"dim {params['projected_dim']})")
    print(f"model json sha256 {sha256_of(models.to_jsonable(model)['state'])}")

    spec = models.ModelSpec("random_forest", {"n_trees": 50, "max_depth": 8}, seed=0)
    seconds, model = best_of_3(lambda: models.fit(spec, x, y))
    print(f"random_forest    {seconds:8.3f} s  (50 trees, max_depth 8)")
    print(f"model json sha256 {sha256_of(models.to_jsonable(model))}")

    spec = models.ModelSpec("l1_logistic", {"lambda": 0.01}, seed=0)
    seconds, model = best_of_3(lambda: models.fit(spec, x, y))
    state = model.state
    print(f"l1_logistic      {seconds:8.3f} s  "
          f"(lambda 0.01, {state.sweeps} sweeps, converged {state.converged})")
    print(f"model json sha256 {sha256_of(models.to_jsonable(model)['state'])}")

    spec = models.ModelSpec("svm_rbf", {}, seed=0)
    seconds, model = best_of_3(lambda: models.fit(spec, x, y))
    state = model.state
    print(f"svm_rbf          {seconds:8.3f} s  "
          f"(default params, {state.iterations} SMO steps, "
          f"converged {state.converged})")
    print(f"model json sha256 {sha256_of(models.to_jsonable(model)['state'])}")

    spec = models.ModelSpec("rectangle_mlp", {}, seed=0)
    seconds, model = best_of_3(lambda: models.fit(spec, x, y))
    print(f"rectangle_mlp    {seconds:8.3f} s  (default params)")
    print(f"model json sha256 {sha256_of(models.to_jsonable(model)['state'])}")

    plan = evaluation.CvPlan(k_folds=10, seed=0)
    for family, hyperparameters, note in (
            ("rp_ensemble", {"b1_groups": 10}, "10 x 20 projections, dim 5"),
            ("rectangle_mlp", {}, "default params")):
        spec = models.ModelSpec(family, hyperparameters, seed=0)
        seconds, report = best_of_3(
            lambda: evaluation.cross_validate(spec, (x, y), plan))
        print(f"{family:<16} {seconds:8.3f} s  (10-fold trial, {note})")
        print(f"fold rows sha256 "
              f"{sha256_of([[r.fold, r.auc, r.n_test] for r in report.rows])}")


if __name__ == "__main__":
    main()
