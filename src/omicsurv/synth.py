"""Synthetic multi-platform expression + clinical data with known ground truth.

Microarray-like intensities are gamma-distributed; RNA-seq-like counts are
negative binomial (gamma-Poisson). A shared per-patient latent risk score
drives both the informative genes and an exponential survival model, so the
whole downstream pipeline can be validated against a known signal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataio import ClinicalRecord, CnaMatrix, ExpressionMatrix
from .errors import ConfigError

# log-hazard slope per unit of latent risk
RISK_HAZARD_COEF = 1.0
# microarray intensities: gamma shape and rate before the signal shift
GAMMA_SHAPE = 2.0
GAMMA_RATE = 1.0
# RNA-seq counts: negative-binomial dispersion and mean before the signal shift
NB_DISPERSION = 5.0
NB_MEAN = 100.0
# median survival at zero latent risk
BASELINE_MEDIAN_SURVIVAL_MONTHS = 60.0
# loading magnitude on informative genes
SIGNAL_SCALE = 1.0


@dataclass(frozen=True)
class SynthConfig:
    n_patients: int = 400
    n_genes: int = 100
    n_informative_genes: int = 5
    seed: int = 0
    censoring_fraction_target: float = 0.446

    def __post_init__(self):
        if self.n_patients <= 0 or self.n_genes <= 0:
            raise ConfigError("n_patients and n_genes must be positive")
        if not 0 <= self.n_informative_genes <= self.n_genes:
            raise ConfigError("n_informative_genes must be in [0, n_genes]")
        if not 0 <= self.censoring_fraction_target <= 1:
            raise ConfigError("censoring_fraction_target must be in [0,1]")


@dataclass(frozen=True)
class LatentFactors:
    """Per-patient risk scores and per-gene loadings."""

    risk: np.ndarray       # shape (n_patients,)
    loadings: np.ndarray   # shape (n_genes,), nonzero on informative genes


@dataclass(frozen=True)
class ClinicalTruth:
    """Generator-internal ground truth kept for verification."""

    patient_ids: list[str]
    death_times: np.ndarray
    censor_times: np.ndarray
    risk: np.ndarray


def _rng(config: SynthConfig, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([config.seed, stream]))


def patient_ids(config: SynthConfig) -> list[str]:
    return [f"p{i:05d}" for i in range(config.n_patients)]


def gene_ids(config: SynthConfig) -> list[str]:
    return [f"g{j:04d}" for j in range(config.n_genes)]


def gen_latent(config: SynthConfig) -> LatentFactors:
    """Draw latent risk scores; the first n_informative genes get alternating
    +-SIGNAL_SCALE loadings, all other loadings are exactly zero."""
    rng = _rng(config, 0)
    risk = rng.standard_normal(config.n_patients)
    loadings = np.zeros(config.n_genes)
    k = config.n_informative_genes
    loadings[:k] = SIGNAL_SCALE * np.where(np.arange(k) % 2 == 0, 1.0, -1.0)
    return LatentFactors(risk=risk, loadings=loadings)


def _signal(latent: LatentFactors) -> np.ndarray:
    # multiplicative mean shift, 1.0 wherever the loading is zero
    return np.exp(np.outer(latent.risk, latent.loadings))


def gen_microarray(config: SynthConfig, latent: LatentFactors) -> ExpressionMatrix:
    """Gamma intensities; informative genes get a risk-dependent mean shift."""
    _check_latent(config, latent)
    rng = _rng(config, 1)
    base_scale = 1.0 / GAMMA_RATE
    values = rng.gamma(GAMMA_SHAPE, base_scale * _signal(latent))
    return ExpressionMatrix(
        platform_id="synth_microarray",
        patient_ids=patient_ids(config),
        gene_ids=gene_ids(config),
        values=values,
    )


def gen_rnaseq(config: SynthConfig, latent: LatentFactors) -> ExpressionMatrix:
    """Negative-binomial counts via the gamma-Poisson mixture, stored as reals."""
    _check_latent(config, latent)
    rng = _rng(config, 2)
    mu = NB_MEAN * _signal(latent)
    r = NB_DISPERSION
    lam = rng.gamma(r, mu / r)
    values = rng.poisson(lam).astype(np.float64)
    return ExpressionMatrix(
        platform_id="synth_rnaseq",
        patient_ids=patient_ids(config),
        gene_ids=gene_ids(config),
        values=values,
    )


def gen_cna(config: SynthConfig, latent: LatentFactors) -> CnaMatrix:
    """GISTIC categories; informative genes skew away from neutral with risk."""
    _check_latent(config, latent)
    rng = _rng(config, 3)
    noise = rng.normal(0.0, 0.7, size=(config.n_patients, config.n_genes))
    shift = 0.5 * np.outer(latent.risk, np.sign(latent.loadings))
    values = np.clip(np.rint(noise + shift), -2, 2).astype(np.int64)
    return CnaMatrix(patient_ids=patient_ids(config),
                     gene_ids=gene_ids(config), values=values)


def gen_clinical(config: SynthConfig,
                 latent: LatentFactors) -> tuple[list[ClinicalRecord], ClinicalTruth]:
    """Exponential survival with log-linear risk, independently censored.

    The censoring rate is calibrated by bisection against the realized sample
    so the censored fraction lands within +-5 points of the configured target.
    """
    _check_latent(config, latent)
    rng = _rng(config, 4)
    base_rate = np.log(2.0) / BASELINE_MEDIAN_SURVIVAL_MONTHS
    rates = base_rate * np.exp(RISK_HAZARD_COEF * latent.risk)
    death = rng.exponential(1.0 / rates)

    target = config.censoring_fraction_target
    if target == 0.0:
        censor = np.full_like(death, np.inf)
    else:
        u = rng.random(config.n_patients)
        # censored fraction is monotone increasing in the censoring rate
        lo, hi = 1e-12, 1.0
        while np.mean(-np.log(u) / hi < death) < target and hi < 1e6:
            hi *= 2.0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if np.mean(-np.log(u) / mid < death) < target:
                lo = mid
            else:
                hi = mid
        censor = -np.log(u) / (0.5 * (lo + hi))

    ids = patient_ids(config)
    age_rng = _rng(config, 5)
    ages = np.clip(age_rng.normal(60.0, 12.0, config.n_patients), 18.0, None)
    records = [
        ClinicalRecord(
            patient_id=pid,
            observed_time_months=float(min(d, c)),
            event=bool(d <= c),
            age_years=float(a),
        )
        for pid, d, c, a in zip(ids, death, censor, ages)
    ]
    truth = ClinicalTruth(patient_ids=ids, death_times=death,
                          censor_times=censor, risk=latent.risk)
    return records, truth


def _check_latent(config: SynthConfig, latent: LatentFactors) -> None:
    if latent.risk.shape != (config.n_patients,):
        raise ConfigError("latent risk length does not match config.n_patients")
    if latent.loadings.shape != (config.n_genes,):
        raise ConfigError("latent loadings length does not match config.n_genes")


@dataclass(frozen=True)
class TwoPlatformCohort:
    """A split cohort: first half measured on microarray, second on RNA-seq."""

    microarray: ExpressionMatrix
    rnaseq: ExpressionMatrix
    clinical: list[ClinicalRecord]
    truth: ClinicalTruth
    latent: LatentFactors


def gen_two_platform(config: SynthConfig) -> TwoPlatformCohort:
    """Generate one latent cohort and measure disjoint halves on each platform."""
    from .dataio import subset_patients

    latent = gen_latent(config)
    micro_full = gen_microarray(config, latent)
    rnaseq_full = gen_rnaseq(config, latent)
    ids = patient_ids(config)
    half = config.n_patients // 2
    micro = subset_patients(micro_full, ids[:half])
    rnaseq = subset_patients(rnaseq_full, ids[half:])
    records, truth = gen_clinical(config, latent)
    return TwoPlatformCohort(microarray=micro, rnaseq=rnaseq,
                             clinical=records, truth=truth, latent=latent)
