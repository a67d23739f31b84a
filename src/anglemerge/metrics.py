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


def clustering_error(truth, pred) -> float:
    """Fraction of points misclassified under the best one-one relabeling.

    The predicted label ids are reassigned to true ids by a maximum-weight
    full matching on the confusion table, which pairs min(rows, cols)
    clusters: when there are more predicted clusters than true ones, the
    unmatched predicted clusters count entirely as errors. Every full
    matching has the same number of edges, so adding 1 to each count keeps
    the optimum and makes every weight nonzero, as the sparse solver needs.
    """
    # Imported here, not with the module: only a run scored against known
    # labels needs the matching. On top of scipy.sparse, which a clustering
    # loads anyway, csgraph costs about 0.05 s and 11 MB to load, where
    # scipy.optimize's dense solver would cost 0.2 s and 27 MB.
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import min_weight_full_bipartite_matching

    truth, pred = _dense_pair(truth, pred)
    table = _confusion(truth, pred)
    rows, cols = min_weight_full_bipartite_matching(csr_matrix(table + 1.0), maximize=True)
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
