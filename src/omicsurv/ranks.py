"""Tie groups and average ranks, shared by FSQN, AUC/ROC and Kaplan-Meier, and
the dense ranks by which the random forest orders each feature's values.
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


def dense_ranks(rows: np.ndarray) -> np.ndarray:
    """0-based dense ranks within each row of a C-contiguous 2-D array, as
    int32: equal values share a rank and the ranks of a row have no gaps."""
    k, n = rows.shape
    # the stable sort is the one average_ranks runs, so a process that ranks
    # scores too loads no second sort kernel
    order = np.argsort(rows, axis=1, kind="stable")
    order += (np.arange(k) * n)[:, None]
    sorted_rows = rows.take(order)
    steps = np.empty((k, n), dtype=np.int32)
    steps[:, :1] = 0
    np.not_equal(sorted_rows[:, 1:], sorted_rows[:, :-1], out=steps[:, 1:])
    del sorted_rows
    np.cumsum(steps, axis=1, out=steps)
    ranks = np.empty(k * n, dtype=np.int32)
    ranks[order] = steps
    return ranks.reshape(k, n)
