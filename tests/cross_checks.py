"""Independent cross-checks used only by the tests: the ROC curve and its
trapezoidal area (against ``evaluation.auc``), the Kaplan-Meier step lookup,
and the L1 logistic objective (against the solver)."""

from dataclasses import dataclass

import numpy as np

from omicsurv import evaluation
from omicsurv.errors import DataError
from omicsurv.models.logistic import LogisticState
from omicsurv.ranks import tie_groups
from omicsurv.survival import SurvivalCurve


@dataclass(frozen=True)
class RocCurve:
    thresholds: np.ndarray  # descending, one per distinct score
    fpr: np.ndarray         # starts at 0, ends at 1
    tpr: np.ndarray


def roc_curve(scores, labels) -> RocCurve:
    """One point per distinct threshold, endpoints (0,0) and (1,1) included."""
    scores = evaluation._finite_scores(scores)
    labels = np.asarray(labels, dtype=np.int64)
    n_pos, n_neg = evaluation._class_counts(labels)
    order = np.argsort(-scores, kind="stable")
    s, y = scores[order], labels[order]
    starts, ends = tie_groups(s)
    tp = np.cumsum(y)[ends - 1]
    fp = ends - tp
    return RocCurve(thresholds=np.concatenate(([np.inf], s[starts])),
                    fpr=np.concatenate(([0.0], fp / n_neg)),
                    tpr=np.concatenate(([0.0], tp / n_pos)))


_trapezoid = getattr(np, "trapezoid", None) or np.trapz


def roc_auc(curve: RocCurve) -> float:
    """Trapezoidal area under the ROC curve."""
    return float(_trapezoid(curve.tpr, curve.fpr))


def survival_at(curve: SurvivalCurve, t: float) -> float:
    """Step-function lookup: probability at the largest event time <= t."""
    if t < 0:
        raise DataError("time must be non-negative")
    idx = np.searchsorted(curve.event_times, t, side="right") - 1
    if idx < 0:
        return 1.0
    return float(curve.survival_probabilities[idx])


def logistic_objective(state: LogisticState, x: np.ndarray, y: np.ndarray) -> float:
    """Mean logistic loss plus lambda * ||w||_1, the quantity the solver
    minimizes."""
    z = x @ state.weights + state.intercept
    margins = np.where(y == 1, z, -z)
    loss = float(np.mean(np.logaddexp(0.0, -margins)))
    return loss + state.lam * float(np.sum(np.abs(state.weights)))
