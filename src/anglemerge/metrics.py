"""Clustering quality metrics: clustering error under optimal one-one label
reassignment, and normalized mutual information."""

from __future__ import annotations

import numpy as np

from .errors import DegenerateInputError


def _dense_pair(truth, pred):
    truth = np.asarray(truth).ravel()
    pred = np.asarray(pred).ravel()
    if truth.shape != pred.shape or truth.size == 0:
        raise DegenerateInputError("label arrays must be non-empty and equal-length")
    # Compact both sides to dense ids; every metric here is invariant to
    # relabeling, so this only normalizes the input.
    _, truth = np.unique(truth, return_inverse=True)
    _, pred = np.unique(pred, return_inverse=True)
    return truth, pred


def _confusion(truth: np.ndarray, pred: np.ndarray) -> np.ndarray:
    n_pred = int(pred.max()) + 1
    n_true = int(truth.max()) + 1
    counts = np.bincount(pred * n_true + truth, minlength=n_pred * n_true)
    return counts.reshape(n_pred, n_true)


def _max_weight_matching(table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows and columns of a maximum-weight matching on a table of
    non-negative integer counts that pairs every row or every column,
    whichever side is shorter, by shortest augmenting paths (Kuhn 1955;
    Jonker & Volgenant 1987).

    The shorter side becomes the rows, and the matching minimizes
    cost = max - count. Each row's potential u starts at its minimum cost,
    and each column's potential v at 0. Each row then takes its first free
    column of zero reduced cost, cost - u - v. Every row left over is
    matched by a Dijkstra search over the columns, vectorised across them,
    which ends at a free column; the potentials keep every reduced cost
    non-negative and every matched pair's at zero.

    The column potentials start at 0 and only fall, and a column falls only
    once it is matched, so a column left free keeps v = 0. A full-row
    matching on a table with more columns than rows is optimal only under
    that condition, v <= 0 with equality on the free columns. Reducing the
    columns by their minima, as a square solver may, breaks it.

    Every cost, path length and potential is an integer within 3 * max of
    0, so int64 holds each exactly and no tie or comparison is rounded: u
    starts at 0 or more, never falls, and stays at most cost[i, j] for a
    free column j, whose v is 0; v = cost - u on a matched pair; and a
    search's length, which it adds to u of its starting row, is at most
    max.
    """
    flip = table.shape[0] > table.shape[1]
    counts = table.T if flip else table
    cost = counts.max() - counts
    n_rows, n_cols = cost.shape
    u = cost.min(axis=1)
    v = np.zeros(n_cols, dtype=cost.dtype)
    col_of = np.full(n_rows, -1)
    row_of = np.full(n_cols, -1)
    for i in range(n_rows):
        free = np.flatnonzero((cost[i] == u[i]) & (row_of < 0))
        if free.size:
            col_of[i], row_of[free[0]] = free[0], i
    unreached = np.iinfo(cost.dtype).max
    for start in np.flatnonzero(col_of < 0):
        shortest = np.full(n_cols, unreached)
        path = np.empty(n_cols, dtype=np.int64)  # each column's row on its path
        done = np.zeros(n_cols, dtype=bool)
        i, dist = start, 0
        while True:
            reach = dist + cost[i] - u[i] - v
            better = ~done & (reach < shortest)
            shortest[better] = reach[better]
            path[better] = i
            # The nearest column not yet done, a free one first among equals.
            j = int(np.argmin(np.where(done, unreached, 2 * shortest + (row_of >= 0))))
            dist = shortest[j]
            done[j] = True
            if row_of[j] < 0:
                break
            i = row_of[j]
        scanned = np.flatnonzero(done)
        v[scanned] -= dist - shortest[scanned]
        matched = scanned[scanned != j]
        u[row_of[matched]] += dist - shortest[matched]
        u[start] += dist
        while True:
            i = path[j]
            row_of[j] = i
            col_of[i], j = j, col_of[i]
            if i == start:
                break
    rows = np.arange(n_rows)
    return (col_of, rows) if flip else (rows, col_of)


def clustering_error(truth, pred) -> float:
    """Fraction of points misclassified under the best one-one relabeling.

    The predicted label ids are reassigned to true ids by a maximum-weight
    full matching on the confusion table, which pairs min(rows, cols)
    clusters: when there are more predicted clusters than true ones, the
    unmatched predicted clusters count entirely as errors.
    """
    truth, pred = _dense_pair(truth, pred)
    table = _confusion(truth, pred)
    rows, cols = _max_weight_matching(table)
    return 1.0 - table[rows, cols].sum() / truth.size


def _entropy(counts: np.ndarray) -> float:
    # The nonzero counts are summed in sorted order, so that two tables
    # holding the same counts give bitwise-equal entropies.
    counts = np.sort(counts[counts > 0])
    p = counts / counts.sum()
    return float(-(p * np.log(p)).sum())


def nmi(truth, pred) -> float:
    """Normalized mutual information with plug-in entropies (natural log),
    normalized by the mean of the two partition entropies, in [0, 1].

    The mutual information is H(pred) + H(truth) - H(pred, truth). Two
    partitions that are equal up to relabeling have the same sorted cluster
    sizes in all three terms, so their NMI is exactly 1, and swapping the
    arguments gives the same bits. When both partitions are trivial (a
    single cluster each) the ratio is 0/0 and is defined as 1: identical
    partitions deserve full credit.
    """
    truth, pred = _dense_pair(truth, pred)
    table = _confusion(truth, pred)
    h_pred, h_true = _entropy(table.sum(axis=1)), _entropy(table.sum(axis=0))
    denom = 0.5 * (h_pred + h_true)
    if denom == 0.0:
        return 1.0
    info = h_pred + h_true - _entropy(table)
    return min(max(info / denom, 0.0), 1.0)


def abs_cluster_count_error(l_true: int, l_hat: int) -> int:
    """Absolute error on the estimated number of clusters, |L - L_hat|."""
    return abs(int(l_true) - int(l_hat))
