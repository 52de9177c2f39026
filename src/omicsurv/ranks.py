"""Tie groups (Kaplan-Meier), average ranks (FSQN and AUC) and the dense ranks
by which the random forest orders each feature's values. One kernel ranks a
block of rows for FSQN; ``average_ranks`` is its one-row case. Average ranks
are exact halves, so they match a per-element tie loop bit for bit.
"""

from __future__ import annotations

import numpy as np


def tie_groups(sorted_values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Start and end (exclusive) positions of each run of equal values in an
    already sorted array."""
    breaks = np.flatnonzero(sorted_values[1:] != sorted_values[:-1]) + 1
    return (np.concatenate(([0], breaks)),
            np.concatenate((breaks, [len(sorted_values)])))


def _sorted_runs(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's argsort, and a mask of the sorted positions at which a run
    of equal values starts. Neither rank below depends on the order inside a
    run, so numpy's default sort serves both."""
    order = np.argsort(rows, axis=1)
    sorted_rows = np.take_along_axis(rows, order, axis=1)
    first = np.empty(rows.shape, dtype=bool)
    first[:, :1] = True
    np.not_equal(sorted_rows[:, 1:], sorted_rows[:, :-1], out=first[:, 1:])
    return order, first


def sorted_average_ranks(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For each row of a 2-D array: the row's argsort, and the 0-based average
    rank of the value at each sorted position (tied values share the average
    of their positions)."""
    k, n = rows.shape
    order, first = _sorted_runs(rows)
    starts = np.flatnonzero(first)
    del first
    ends = np.empty_like(starts)
    ends[:-1] = starts[1:]
    ends[-1:] = k * n
    # start + end - 1 of each run counted within its own row, so the same
    # integers, and the same halves, as ranking the row alone
    row_starts = starts - starts % n
    sums = starts + ends - 1 - 2 * row_starts
    ranks = np.repeat(0.5 * sums, ends - starts).reshape(k, n)
    return order, ranks


def average_ranks(x: np.ndarray) -> np.ndarray:
    """0-based ranks; tied values share the average of their positions."""
    order, sorted_ranks = sorted_average_ranks(x.reshape(1, -1))
    ranks = np.empty(len(x))
    ranks[order[0]] = sorted_ranks[0]
    return ranks


def dense_ranks(rows: np.ndarray) -> np.ndarray:
    """0-based dense ranks within each row of a 2-D array, as int32: equal
    values share a rank and the ranks of a row have no gaps."""
    order, first = _sorted_runs(rows)
    steps = np.cumsum(first, axis=1, dtype=np.int32)
    steps -= 1
    ranks = np.empty_like(steps)
    np.put_along_axis(ranks, order, steps, axis=1)
    return ranks
