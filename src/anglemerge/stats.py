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
# The formulas' constants as float64 arrays: numpy takes a Python float
# operand through a slower path on every call.
_ONE, _HALF, _QUARTER, _FLOOR = (np.array(c) for c in (1.0, 0.5, 0.25, VAR_FLOOR))


def moments(total, total_sq, count, out=None):
    """Sample mean and variance from sufficient statistics, elementwise.

    Variance uses the (count - 1) divisor and is clamped below at VAR_FLOOR.
    Every count must be >= 2; callers check that. The two are written into
    ``out[0]`` and ``out[1]`` when it is given, a 2 x (broadcast shape)
    array that shares no memory with the inputs, so that a loop can
    evaluate the formula with no allocation.
    """
    given = out is not None
    if not given:
        out = np.empty((2, *np.broadcast_shapes(np.shape(total), np.shape(total_sq),
                                                np.shape(count))))
    mean, var = out[0, ...], out[1, ...]
    # var = max((total_sq - total**2 / count) / (count - 1), VAR_FLOOR),
    # one operation at a time; mean holds count - 1 until it is overwritten.
    np.square(total, var)
    np.divide(var, count, var)
    np.subtract(total_sq, var, var)
    np.subtract(count, _ONE, mean)
    np.divide(var, mean, var)
    np.maximum(var, _FLOOR, out=var)
    np.divide(total, count, mean)
    return (mean, var) if given else (mean[()], var[()])


def bhattacharyya(mean_w, var_w, mean_b, var_b, out=None, scratch=None):
    """Bhattacharyya distance between Gaussians given by moments, elementwise.

    d = 1/4 * [ (mu_w - mu_b)^2 / (var_w + var_b)
                + ln( (var_w/var_b + var_b/var_w)/4 + 1/2 ) ]

    Non-negative; zero exactly when the two moment pairs coincide. The
    distance is written into ``out`` when it is given, of the broadcast
    shape, and the two intermediate terms into ``scratch``, 2 x that shape,
    which must then be given too; neither may share memory with the inputs.
    Without ``out`` both are allocated.
    """
    given = out is not None
    if not given:
        dims = np.broadcast_shapes(*map(np.shape, (mean_w, var_w, mean_b, var_b)))
        out, scratch = np.empty(dims), np.empty((2, *dims))
    shape, var_sum = scratch[0, ...], scratch[1, ...]
    # The shape term, then the gap term in out, one operation at a time.
    np.divide(var_w, var_b, shape)
    np.divide(var_b, var_w, var_sum)
    np.add(shape, var_sum, shape)
    np.multiply(shape, _QUARTER, shape)
    np.add(shape, _HALF, shape)
    np.log(shape, shape)
    np.add(var_w, var_b, var_sum)
    np.subtract(mean_w, mean_b, out)
    np.square(out, out)
    np.divide(out, var_sum, out)
    np.add(out, shape, out)
    np.multiply(out, _QUARTER, out)
    return out if given else out[()]


def t_pair(size_i: int, size_j: int) -> int:
    """Independent-sample budget for a cluster pair: min(floor(w_i/2), w_j).

    This is the number of mutually independent angles one can draw when at
    most two angles may share a data point; it calibrates the merge
    threshold, not the moment estimates (those use all angles).
    """
    if size_i < 1 or size_j < 1:
        raise TooFewAnglesError("cluster sizes must be >= 1")
    return min(size_i // 2, size_j)
