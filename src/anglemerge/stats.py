"""Angle-set sufficient statistics and the empirical Bhattacharyya distance.

Within-cluster and between-cluster angle sets are never materialized during
merging; they are carried as (sum, sum of squares, count) triples, which
combine additively when clusters merge. Raw sums rather than streaming
mean/M2 pairs keep that combination exact. ``moments`` and ``bhattacharyya``
are elementwise, so the engine's whole-matrix build and its per-merge row
updates evaluate the same two formulas.
"""

from __future__ import annotations

import numpy as np

from .errors import TooFewAnglesError

# Variance floor in rad^2. A cluster of duplicated points has zero empirical
# variance, which would divide by zero in the distance; flooring keeps the
# distance finite and very large, correctly flagging the degenerate cluster
# as far from everything.
VAR_FLOOR = 1e-12


def moments(total, total_sq, count):
    """Sample mean and variance from sufficient statistics, elementwise.

    Variance uses the (count - 1) divisor and is clamped below at VAR_FLOOR.
    Every count must be >= 2; callers check that.
    """
    mean = total / count
    var = np.maximum((total_sq - total**2 / count) / (count - 1), VAR_FLOOR)
    return mean, var


def bhattacharyya(mean_w, var_w, mean_b, var_b):
    """Bhattacharyya distance between Gaussians given by moments, elementwise.

    d = 1/4 * [ (mu_w - mu_b)^2 / (var_w + var_b)
                + ln( (var_w/var_b + var_b/var_w)/4 + 1/2 ) ]

    Non-negative; zero exactly when the two moment pairs coincide.
    """
    gap = (mean_w - mean_b) ** 2 / (var_w + var_b)
    shape = np.log(0.25 * (var_w / var_b + var_b / var_w) + 0.5)
    return 0.25 * (gap + shape)


def t_pair(size_i: int, size_j: int) -> int:
    """Independent-sample budget for a cluster pair: min(floor(w_i/2), w_j).

    This is the number of mutually independent angles one can draw when at
    most two angles may share a data point; it calibrates the merge
    threshold, not the moment estimates (those use all angles).
    """
    if size_i < 1 or size_j < 1:
        raise TooFewAnglesError("cluster sizes must be >= 1")
    return min(size_i // 2, size_j)
