"""Tie groups and average ranks, shared by FSQN, AUC/ROC and Kaplan-Meier.
Average ranks are exact halves, so they match a per-element tie loop bit for bit.
"""

from __future__ import annotations

import numpy as np


def tie_groups(sorted_values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Start and end (exclusive) positions of each run of equal values in an
    already sorted array."""
    breaks = np.flatnonzero(sorted_values[1:] != sorted_values[:-1]) + 1
    return (np.concatenate(([0], breaks)),
            np.concatenate((breaks, [len(sorted_values)])))


def average_ranks(x: np.ndarray) -> np.ndarray:
    """0-based ranks; tied values share the average of their positions."""
    order = np.argsort(x, kind="stable")
    starts, ends = tie_groups(x[order])
    ranks = np.empty(len(x))
    ranks[order] = np.repeat(0.5 * (starts + ends - 1), ends - starts)
    return ranks
