import numpy as np
import pytest
from scipy import stats

from omicsurv import evaluation, survival, synth
from omicsurv.errors import ConfigError


def cfg(**kw):
    base = dict(n_patients=50, n_genes=20, n_informative_genes=5, seed=0)
    base.update(kw)
    return synth.SynthConfig(**base)


class TestLatent:
    def test_no_informative_genes_constant_signal(self):
        latent = synth.gen_latent(cfg(n_informative_genes=0))
        assert (latent.loadings == 0).all()
        signal = np.exp(np.outer(latent.risk, latent.loadings))
        assert (signal == 1.0).all()

    def test_exact_informative_count(self):
        latent = synth.gen_latent(cfg(n_informative_genes=5))
        assert np.count_nonzero(latent.loadings) == 5

    def test_determinism_and_seed_sensitivity(self):
        a = synth.gen_latent(cfg(seed=3))
        b = synth.gen_latent(cfg(seed=3))
        c = synth.gen_latent(cfg(seed=4))
        assert (a.risk == b.risk).all()
        assert not (a.risk == c.risk).all()

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            cfg(n_informative_genes=21)
        with pytest.raises(ConfigError):
            cfg(n_patients=0)
        with pytest.raises(ConfigError):
            cfg(censoring_fraction_target=1.5)


class TestMicroarray:
    def test_gamma_mean(self):
        c = cfg(n_patients=200, n_genes=10, n_informative_genes=0)
        m = synth.gen_microarray(c, synth.gen_latent(c))
        assert m.values.size == 2000
        assert abs(m.values.mean() - 2.0) / 2.0 < 0.05

    def test_zero_loadings_ks_indistinguishable(self):
        c = cfg(n_patients=400, n_genes=10, n_informative_genes=0)
        m = synth.gen_microarray(c, synth.gen_latent(c))
        # "informative" slots (first 5 genes) vs the rest
        _, p = stats.ks_2samp(m.values[:, :5].ravel(), m.values[:, 5:].ravel())
        assert p > 0.01

    def test_non_negative(self):
        c = cfg()
        m = synth.gen_microarray(c, synth.gen_latent(c))
        assert (m.values >= 0).all()

    def test_latent_shape_checked(self):
        c = cfg()
        other = synth.gen_latent(cfg(n_patients=7))
        with pytest.raises(ConfigError):
            synth.gen_microarray(c, other)


class TestRnaseq:
    def test_non_negative_integers(self):
        c = cfg()
        m = synth.gen_rnaseq(c, synth.gen_latent(c))
        assert (m.values >= 0).all()
        assert (m.values == np.round(m.values)).all()

    def test_overdispersion(self):
        c = cfg(n_patients=200, n_genes=10, n_informative_genes=0)
        m = synth.gen_rnaseq(c, synth.gen_latent(c))
        pooled = m.values.ravel()
        assert pooled.var() > pooled.mean()

    def test_determinism(self):
        c = cfg()
        latent = synth.gen_latent(c)
        a = synth.gen_rnaseq(c, latent)
        b = synth.gen_rnaseq(c, latent)
        assert (a.values == b.values).all()


class TestCna:
    def test_categories(self):
        c = cfg()
        m = synth.gen_cna(c, synth.gen_latent(c))
        assert np.isin(m.values, [-2, -1, 0, 1, 2]).all()


class TestClinical:
    def test_zero_censoring_all_events(self):
        c = cfg(censoring_fraction_target=0.0)
        records, _ = synth.gen_clinical(c, synth.gen_latent(c))
        assert all(r.event for r in records)

    def test_censoring_calibration(self):
        c = cfg(n_patients=3000, censoring_fraction_target=0.446)
        records, _ = synth.gen_clinical(c, synth.gen_latent(c))
        censored = np.mean([not r.event for r in records])
        assert 0.396 <= censored <= 0.496

    def test_risk_deciles_monotone(self):
        c = cfg(n_patients=2000, censoring_fraction_target=0.0)
        latent = synth.gen_latent(c)
        records, truth = synth.gen_clinical(c, latent)
        times = np.array([r.observed_time_months for r in records])
        deciles = np.quantile(truth.risk, [0.1, 0.9])
        high = times[truth.risk >= deciles[1]]
        low = times[truth.risk <= deciles[0]]
        assert high.mean() < low.mean()

    def test_truth_consistency(self):
        c = cfg()
        records, truth = synth.gen_clinical(c, synth.gen_latent(c))
        for r, d, cen in zip(records, truth.death_times, truth.censor_times):
            assert r.observed_time_months == pytest.approx(min(d, cen))
            assert r.event == (d <= cen)


class TestSignalRecoverable:
    def test_best_informative_gene_univariate_auc(self):
        c = synth.SynthConfig()  # default config
        latent = synth.gen_latent(c)
        m = synth.gen_microarray(c, latent)
        records, _ = synth.gen_clinical(c, latent)
        by_id = {r.patient_id: r for r in records}
        labels, keep = [], []
        for i, pid in enumerate(m.patient_ids):
            lab = survival.make_label(by_id[pid], 60.0)
            if lab is not survival.SurvivalLabel.DROPPED:
                keep.append(i)
                labels.append(lab.value)
        y = np.array(labels)
        x = m.values[np.array(keep)]
        best = max(
            max(evaluation.auc(x[:, j], y), 1 - evaluation.auc(x[:, j], y))
            for j in range(c.n_informative_genes)
        )
        assert best > 0.6


class TestTwoPlatform:
    def test_disjoint_halves_shared_latent(self):
        c = cfg(n_patients=40)
        cohort = synth.gen_two_platform(c)
        assert len(cohort.microarray.patient_ids) == 20
        assert len(cohort.rnaseq.patient_ids) == 20
        assert not (set(cohort.microarray.patient_ids)
                    & set(cohort.rnaseq.patient_ids))
        assert len(cohort.clinical) == 40
