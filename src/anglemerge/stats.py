"""Angle-set sufficient statistics and the empirical Bhattacharyya distance.

Within-cluster and between-cluster angle sets are never materialized during
merging; they are carried as (sum, sum of squares, count) triples, which
combine additively when clusters merge. Raw sums rather than streaming
mean/M2 pairs keep that combination exact. ``moments`` and ``bhattacharyya``
are elementwise, so the scalar ``cluster_distance`` and the engine's
matrix and row updates all evaluate the same two formulas.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import TooFewAnglesError
from .geometry import AngleCache

# Variance floor in rad^2. A cluster of duplicated points has zero empirical
# variance, which would divide by zero in the distance; flooring keeps the
# distance finite and very large, correctly flagging the degenerate cluster
# as far from everything.
VAR_FLOOR = 1e-12


@dataclass
class PairStats:
    """Sufficient statistics (sum, sum of squares, count) of an angle set."""

    total: float = 0.0
    total_sq: float = 0.0
    count: int = 0

    def __add__(self, other: "PairStats") -> "PairStats":
        return PairStats(
            self.total + other.total,
            self.total_sq + other.total_sq,
            self.count + other.count,
        )

    @classmethod
    def from_values(cls, values: np.ndarray) -> "PairStats":
        values = np.asarray(values, dtype=np.float64)
        return cls(float(values.sum()), float(np.square(values).sum()), int(values.size))


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


def within_stats(cluster: np.ndarray, angles: AngleCache) -> PairStats:
    """Sufficient statistics over all C(|cluster|, 2) within-cluster angles."""
    return PairStats.from_values(angles.within_values(cluster))


def between_stats(cluster_k: np.ndarray, cluster_l: np.ndarray, angles: AngleCache) -> PairStats:
    """Sufficient statistics over all |k| * |l| cross-cluster angles."""
    return PairStats.from_values(angles.cross_values(cluster_k, cluster_l))


def cluster_distance(within_k: PairStats, between_kl: PairStats) -> float:
    """Distance from cluster k to cluster l.

    Compares the within-k angle distribution against the k-to-l cross-angle
    distribution, each estimated from all available angles. Asymmetric by
    construction: the reverse direction compares against within-l instead.
    Raises TooFewAnglesError when either set has fewer than two angles.
    """
    for stats in (within_k, between_kl):
        if stats.count < 2:
            raise TooFewAnglesError(f"need >= 2 angles to estimate moments, got {stats.count}")
    return float(
        bhattacharyya(
            *moments(within_k.total, within_k.total_sq, within_k.count),
            *moments(between_kl.total, between_kl.total_sq, between_kl.count),
        )
    )
