"""Directional synthetic benchmarks shared by the acceptance tests and the
runnable scripts.

Three comparative effects are reproduced on generated cohorts with known
ground truth:

* integration benefit — a classifier trained on the FSQN-combined two-platform
  cohort beats the same classifier trained on either platform alone,
* projection benefit — a linear classifier on 3D t-SNE coordinates beats the
  same classifier on the raw 500-dimensional features when the signal lives
  on a low-dimensional nonlinear manifold,
* ensemble benefit — the random-projection ensemble beats the mean
  single-projection base classifier on misclassification, and its feature
  importances single out the truly informative genes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import dataio, evaluation, models, normalize, project, rpensemble
from . import survival, synth
from .dataio import FeatureMatrix

HORIZON_MONTHS = 60.0


@dataclass(frozen=True)
class ComparisonResult:
    """Mean AUC (or error) of the treatment arm vs the baseline arm(s)."""

    seed: int
    treatment: float
    baselines: dict[str, float]


def _mean_cv_auc(spec, x, y, seed: int, k: int = 5) -> float:
    plan = evaluation.CvPlan(k_folds=k, seed=seed)
    report = evaluation.cross_validate(spec, (x, y), plan)
    return float(np.mean([row.auc for row in report.rows]))


def integration_benefit(seed: int, n_patients: int = 800, n_genes: int = 500,
                        n_informative: int = 5, k: int = 5) -> ComparisonResult:
    """FSQN-combined training vs single-platform training.

    One latent cohort is measured half on a microarray-like platform and half
    on an RNA-seq-like platform. All arms are scored on the same stratified
    test folds of the pooled cohort; the combined arm trains on the
    FSQN-integrated features, each single-platform arm trains only on its own
    platform's patients (raw log2 features).
    """
    config = synth.SynthConfig(
        n_patients=n_patients, n_genes=n_genes,
        n_informative_genes=n_informative, seed=seed,
        censoring_fraction_target=0.3,
    )
    cohort = synth.gen_two_platform(config)
    micro = normalize.log2_transform(cohort.microarray)
    rnaseq = normalize.log2_transform(cohort.rnaseq)
    combined = normalize.integrate([micro, rnaseq], 0)
    pooled, _ = dataio.merge([micro, rnaseq])

    ds_pool = survival.make_labeled_dataset(
        dataio.build_features(pooled, cohort.clinical), cohort.clinical,
        HORIZON_MONTHS)
    ds_comb = survival.make_labeled_dataset(
        dataio.build_features(combined, cohort.clinical), cohort.clinical,
        HORIZON_MONTHS)
    assert ds_pool.features.patient_ids == ds_comb.features.patient_ids

    y = ds_pool.labels
    micro_ids = set(micro.patient_ids)
    rna_ids = set(rnaseq.patient_ids)
    in_micro = np.array([p in micro_ids for p in ds_pool.features.patient_ids])
    in_rna = np.array([p in rna_ids for p in ds_pool.features.patient_ids])

    plan = evaluation.CvPlan(k_folds=k, seed=seed)
    folds = evaluation.stratified_kfold(y, plan)
    spec = models.ModelSpec("gaussian_nb", {}, seed)

    arms = {"combined": [], "microarray": [], "rnaseq": []}
    for test_idx in folds:
        test_mask = np.zeros(len(y), dtype=bool)
        test_mask[test_idx] = True
        for name, x, member in (
            ("combined", ds_comb.features.values, np.ones(len(y), dtype=bool)),
            ("microarray", ds_pool.features.values, in_micro),
            ("rnaseq", ds_pool.features.values, in_rna),
        ):
            train = member & ~test_mask
            fitted = models.fit(spec, x[train], y[train])
            scores = models.predict_scores(fitted, x[test_mask])
            arms[name].append(evaluation.auc(scores, y[test_mask]))

    means = {name: float(np.mean(v)) for name, v in arms.items()}
    return ComparisonResult(
        seed=seed,
        treatment=means.pop("combined"),
        baselines=means,
    )


def manifold_cohort(seed: int, n_patients: int = 240, n_features: int = 500,
                    corner_offset: float = 3.0, corner_spread: float = 0.6,
                    embed_scale: float = 3.0,
                    noise_sd: float = 1.0) -> tuple[FeatureMatrix, np.ndarray]:
    """High-dimensional cohort whose signal is a 2D four-cluster XOR layout.

    The latent plane holds four Gaussian clusters at the corners of a square;
    the label is the XOR of the corner signs, so no linear functional of the
    latent plane (nor of any linear embedding of it) separates the classes.
    The plane is embedded into n_features dimensions by a random orthonormal
    basis plus isotropic noise.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 42]))
    corner = rng.integers(0, 4, n_patients)
    sx = np.where(corner % 2 == 0, 1.0, -1.0)
    sy = np.where(corner // 2 == 0, 1.0, -1.0)
    latent = (np.column_stack([sx, sy]) * corner_offset
              + rng.normal(0.0, corner_spread, (n_patients, 2)))
    y = ((sx * sy) > 0).astype(np.int64)
    basis, _ = np.linalg.qr(rng.standard_normal((n_features, 2)))
    values = embed_scale * latent @ basis.T + rng.normal(
        0.0, noise_sd, (n_patients, n_features))
    features = FeatureMatrix(
        patient_ids=[f"p{i:05d}" for i in range(n_patients)],
        feature_names=[f"f{j:04d}" for j in range(n_features)],
        values=values,
    )
    return features, y


def projection_benefit(seed: int, k: int = 5) -> ComparisonResult:
    """Linear classifier on 3D t-SNE coordinates vs on raw features.

    On the XOR manifold cohort a linear logit is blind in the raw space (every
    linear functional has identical class-conditional distributions), while
    t-SNE places the four clusters at generic 3D positions where the two
    two-cluster classes are linearly separable.
    """
    features, y = manifold_cohort(seed)
    embedding = project.tsne(features, project.TsneConfig(
        output_dims=3, perplexity=30.0, iterations=1000, seed=seed))
    spec = models.ModelSpec("l1_logistic", {"lambda": 0.01, "max_sweeps": 100},
                            seed)
    return ComparisonResult(
        seed=seed,
        treatment=_mean_cv_auc(spec, embedding.coords, y, seed, k),
        baselines={"raw": _mean_cv_auc(spec, features.values, y, seed, k)},
    )


@dataclass(frozen=True)
class RpBenchmarkResult:
    seed: int
    ensemble_error: float
    mean_single_error: float
    informative_importance: float
    background_importance: float

    @property
    def importance_separated(self) -> bool:
        return self.informative_importance > self.background_importance


def rp_benefit(seed: int, n_patients: int = 400, n_genes: int = 500,
               n_informative: int = 5, b1: int = 100, b2: int = 20,
               d: int = 5) -> RpBenchmarkResult:
    """Random-projection ensemble vs single-projection base classifiers.

    A microarray-like cohort is labeled at the 5-year horizon and split into
    a stratified 75/25 train/test partition. The ensemble's test
    misclassification is compared against the mean over b2 independent
    single-projection base classifiers, and the ensemble's feature importance
    is summarized for the informative genes vs the rest.
    """
    config = synth.SynthConfig(
        n_patients=n_patients, n_genes=n_genes,
        n_informative_genes=n_informative, seed=seed,
        censoring_fraction_target=0.3,
    )
    latent = synth.gen_latent(config)
    micro = normalize.log2_transform(synth.gen_microarray(config, latent))
    clinical, _ = synth.gen_clinical(config, latent)
    dataset = survival.make_labeled_dataset(
        dataio.build_features(micro, clinical), clinical, HORIZON_MONTHS)
    x, y = dataset.features.values, dataset.labels

    plan = evaluation.CvPlan(k_folds=4, seed=seed)
    test_idx = evaluation.stratified_kfold(y, plan)[0]
    train_mask = np.ones(len(y), dtype=bool)
    train_mask[test_idx] = False
    x_tr, y_tr = x[train_mask], y[train_mask]
    x_te, y_te = x[test_idx], y[test_idx]

    model = models.fit(models.ModelSpec(
        "rp_ensemble", {"b1_groups": b1, "b2_per_group": b2, "projected_dim": d},
        seed), x_tr, y_tr)
    ensemble_error = float(np.mean(models.predict_labels(model, x_te) != y_te))

    stack_t = rpensemble.sample_projections(x.shape[1], d, [
        np.random.default_rng(np.random.SeedSequence([seed, 12345, b]))
        for b in range(b2)]).transpose(0, 2, 1)
    single_errors = models.holdout_errors(models.ModelSpec("gaussian_nb", {}, seed),
                                          x_tr @ stack_t, y_tr, x_te @ stack_t, y_te)

    # the informative genes occupy the first n_informative feature columns
    informative = model.state.feature_importance[:n_informative]
    background = model.state.feature_importance[n_informative:]
    return RpBenchmarkResult(
        seed=seed,
        ensemble_error=ensemble_error,
        mean_single_error=float(np.mean(single_errors)),
        informative_importance=float(np.mean(informative)),
        background_importance=float(np.mean(background)),
    )
