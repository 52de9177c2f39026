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
class LabeledDataset:
    features: FeatureMatrix
    labels: np.ndarray  # binary, aligned with feature rows

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
    if not t > 0:
        raise DataError(f"horizon must be positive, got {t}")
    if record.observed_time_months > t:
        return SurvivalLabel.SURVIVED
    if record.event:
        return SurvivalLabel.DIED
    return SurvivalLabel.DROPPED


def select_labeled(features: FeatureMatrix, labels: dict[str, int],
                   none_labeled: str) -> LabeledDataset:
    """The feature rows whose patient ``labels`` labels 0 or 1, in feature
    order; a DataError ``none_labeled`` if there is none."""
    keep = [i for i, pid in enumerate(features.patient_ids) if pid in labels]
    if not keep:
        raise DataError(none_labeled)
    ids = [features.patient_ids[i] for i in keep]
    return LabeledDataset(
        features=FeatureMatrix(ids, features.feature_names, features.values[keep]),
        labels=np.array([labels[pid] for pid in ids], dtype=np.int64))


def horizon_labels(clinical: list[ClinicalRecord], t: float) -> dict[str, int]:
    """``{patient_id: 0 or 1}`` at horizon ``t``, dropped patients left out."""
    labels = {r.patient_id: make_label(r, t) for r in clinical}
    return {pid: label.value for pid, label in labels.items()
            if label is not SurvivalLabel.DROPPED}


def make_labeled_dataset(features: FeatureMatrix, clinical: list[ClinicalRecord],
                         t: float) -> LabeledDataset:
    """Label each feature row at horizon ``t``; patients censored before it or
    without a clinical record are dropped."""
    return select_labeled(features, horizon_labels(clinical, t),
                          f"every patient was dropped at horizon t={t}")


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
