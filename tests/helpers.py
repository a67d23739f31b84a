"""Shared helpers for the test suite."""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
# `import numpy` leaves numpy.random to load at its first use; loaded here,
# it is not counted in the first call a test traces with `traced_peak`.
import numpy.random  # noqa: F401

import anglemerge
from anglemerge import geometry

# Seconds a fresh interpreter may run before the test fails; none of them
# needs more than a few, and a hung one must fail instead of hanging the suite.
SUBPROCESS_TIMEOUT = 120


def unit_sphere_points(rng, n_points, dim):
    """I.i.d. uniform points on the unit sphere in R^dim."""
    points = rng.standard_normal((n_points, dim))
    return points / np.linalg.norm(points, axis=1, keepdims=True)


def angle_oracle(points):
    """Dense pairwise-angle matrix of unit rows, arccos(clip(X X^T)),
    computed without the library's angle cache."""
    return np.arccos(np.clip(points @ points.T, -1.0, 1.0))


def ally_key(cache):
    """-|x . y| for every pair of an AngleCache's points, +inf on the
    diagonal, so that a stable sort of a row ranks its allies: larger
    |x . y| (smaller acute angle) first, then the smaller index. The rows
    come from the same _BLOCK-row products ``two_nearest`` forms, so the
    key is bit-consistent with the library."""
    points, block = cache._points, geometry._BLOCK
    key = -np.abs(np.vstack([points[start : start + block] @ points.T
                             for start in range(0, len(points), block)]))
    np.fill_diagonal(key, np.inf)
    return key


def unpacked(store, within_sq):
    """The symmetric sums and sums-of-squares matrices that a packed store
    and its within squares hold: the store has the sums on and above its
    diagonal and the squares transposed below it, and the within squares
    come in a vector of their own."""
    sums = np.triu(store) + np.triu(store, 1).T
    squares = np.tril(store, -1)
    sumsqs = squares + squares.T + np.diag(within_sq)
    return sums, sumsqs


def grouped_matrices(cache, assignment, n_groups):
    """``cache.grouped_sums`` unpacked into the symmetric sums and
    sums-of-squares matrices."""
    return unpacked(*cache.grouped_sums(assignment, n_groups))


def traced_peak(call, *args):
    """``call(*args)`` and the most memory it held at once beyond what was
    allocated before, in bytes, as tracemalloc sees it (numpy reports its
    arrays there)."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = call(*args)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    return result, peak


def run_python(code, **env):
    """stdout of ``code`` run in a fresh interpreter that imports this
    package, with ``env`` added to the environment."""
    src = str(Path(anglemerge.__file__).resolve().parents[1])
    env = {**os.environ, **env,
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env=env, check=True, timeout=SUBPROCESS_TIMEOUT)
    return result.stdout.strip()
