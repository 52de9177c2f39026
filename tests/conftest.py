import numpy as np
import pytest

from omicsurv.dataio import ClinicalRecord, ExpressionMatrix


def expr(values, patients=None, genes=None, platform="test"):
    values = np.asarray(values, dtype=np.float64)
    patients = patients or [f"p{i}" for i in range(values.shape[0])]
    genes = genes or [f"g{j}" for j in range(values.shape[1])]
    return ExpressionMatrix(platform_id=platform, patient_ids=list(patients),
                            gene_ids=list(genes), values=values)


def record(pid="p1", time=10.0, event=True, age=60.0, group=None):
    return ClinicalRecord(patient_id=pid, observed_time_months=time,
                          event=event, age_years=age, group_label=group)


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def separable_xy(n_per_class=20, n_features=3, gap=10.0, seed=0):
    """Two well-separated Gaussian blobs; class 1 shifted by ``gap``."""
    gen = np.random.default_rng(seed)
    x0 = gen.normal(0.0, 1.0, (n_per_class, n_features))
    x1 = gen.normal(gap, 1.0, (n_per_class, n_features))
    x = np.vstack([x0, x1])
    y = np.array([0] * n_per_class + [1] * n_per_class)
    return x, y
