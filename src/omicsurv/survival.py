"""Censoring-aware survival labels and Kaplan-Meier curves.

A patient with observed time C and horizon t is labeled:

* Survived (y=1) when C > t,
* Died (y=0) when C <= t and the death was observed,
* Dropped when the patient was lost before t (label unknowable).

The boundary C == t falls in the C <= t branch: survival requires strictly
outliving the horizon.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .dataio import ClinicalRecord, FeatureMatrix
from .errors import DataError
from .ranks import tie_groups


class SurvivalLabel(enum.Enum):
    DIED = 0
    SURVIVED = 1
    DROPPED = "dropped"


@dataclass(frozen=True)
class ClassPriors:
    p_died: float
    p_survived: float

    def __post_init__(self):
        if not (0 <= self.p_died <= 1 and 0 <= self.p_survived <= 1):
            raise DataError("priors must lie in [0,1]")
        if abs(self.p_died + self.p_survived - 1.0) > 1e-12:
            raise DataError("priors must sum to 1")


@dataclass(frozen=True)
class LabeledDataset:
    features: FeatureMatrix
    labels: np.ndarray  # binary, aligned with feature rows
    horizon_months: float

    def __post_init__(self):
        if len(self.labels) != self.features.n_patients:
            raise DataError("label count does not match feature rows")


@dataclass(frozen=True)
class SurvivalCurve:
    """Product-limit estimate: one (time, survival, at-risk) step per death time."""

    group_label: str | None
    event_times: np.ndarray
    survival_probabilities: np.ndarray
    at_risk_counts: np.ndarray


def make_label(record: ClinicalRecord, t: float) -> SurvivalLabel:
    if t <= 0:
        raise DataError(f"horizon must be positive, got {t}")
    if record.observed_time_months > t:
        return SurvivalLabel.SURVIVED
    if record.event:
        return SurvivalLabel.DIED
    return SurvivalLabel.DROPPED


def make_labeled_dataset(features: FeatureMatrix, clinical: list[ClinicalRecord],
                         t: float) -> tuple[LabeledDataset, ClassPriors]:
    """Label each feature row and drop censored-before-horizon patients.

    Patients without a clinical record are dropped as well; priors are
    computed over the retained labels.
    """
    by_id = {r.patient_id: r for r in clinical}
    keep_idx: list[int] = []
    labels: list[int] = []
    for i, pid in enumerate(features.patient_ids):
        record = by_id.get(pid)
        if record is None:
            continue
        label = make_label(record, t)
        if label is SurvivalLabel.DROPPED:
            continue
        keep_idx.append(i)
        labels.append(label.value)
    if not keep_idx:
        raise DataError(f"every patient was dropped at horizon t={t}")
    idx = np.array(keep_idx)
    kept = FeatureMatrix(
        patient_ids=[features.patient_ids[i] for i in keep_idx],
        feature_names=features.feature_names,
        values=features.values[idx].copy(),
    )
    y = np.array(labels, dtype=np.int64)
    priors = ClassPriors(p_died=float(np.mean(y == 0)),
                         p_survived=float(np.mean(y == 1)))
    return LabeledDataset(features=kept, labels=y, horizon_months=t), priors


def _km_single(records: list[ClinicalRecord], group: str | None) -> SurvivalCurve:
    if not records:
        raise DataError(f"empty group {group!r}")
    times = np.array([r.observed_time_months for r in records])
    events = np.array([r.event for r in records])
    order = np.argsort(times, kind="stable")
    times, events = times[order], events[order]

    starts, _ = tie_groups(times)
    deaths = np.add.reduceat(events.astype(np.int64), starts)
    at_risk = len(times) - starts  # everyone observed at or after the time
    # deaths at a tied time are processed before censorings at it
    steps = deaths > 0
    at_risk = at_risk[steps]
    survival = np.cumprod(1.0 - deaths[steps] / at_risk)
    return SurvivalCurve(
        group_label=group,
        event_times=times[starts[steps]],
        survival_probabilities=survival,
        at_risk_counts=at_risk,
    )


def kaplan_meier(records: list[ClinicalRecord],
                 group_by: bool = False) -> list[SurvivalCurve]:
    """One pooled curve, or one curve per group_label when group_by is set."""
    if not records:
        raise DataError("kaplan_meier needs at least one record")
    if not group_by:
        return [_km_single(records, None)]
    groups: dict[str | None, list[ClinicalRecord]] = {}
    for r in records:
        groups.setdefault(r.group_label, []).append(r)
    return [_km_single(rs, g) for g, rs in sorted(groups.items(),
                                                  key=lambda kv: (kv[0] is None, kv[0]))]


def survival_at(curve: SurvivalCurve, t: float) -> float:
    """Step-function lookup: probability at the largest event time <= t."""
    if t < 0:
        raise DataError("time must be non-negative")
    idx = np.searchsorted(curve.event_times, t, side="right") - 1
    if idx < 0:
        return 1.0
    return float(curve.survival_probabilities[idx])
