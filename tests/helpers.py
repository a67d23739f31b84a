"""Shared helpers for the test suite."""

import numpy as np


def unit_sphere_points(rng, n_points, dim):
    """I.i.d. uniform points on the unit sphere in R^dim."""
    points = rng.standard_normal((n_points, dim))
    return points / np.linalg.norm(points, axis=1, keepdims=True)


def angle_oracle(points):
    """Dense pairwise-angle matrix of unit rows, arccos(clip(X X^T)),
    computed without the library's angle cache."""
    return np.arccos(np.clip(points @ points.T, -1.0, 1.0))


def acute_matrix(cache):
    """The N x N acute-angle matrix of an AngleCache, assembled one
    ``acute_row`` at a time (+inf on the diagonal)."""
    return np.array([cache.acute_row(i) for i in range(cache.n_points)])
