"""Numeric core: unit-sphere normalization and the pairwise-angle cache.

Every downstream stage works on angles between unit vectors, never on the
raw coordinates, so the angle cache computed here is the single source of
geometric truth for the whole pipeline. Computing it costs O(N^2 * n);
the seeding reads after it cost O(N^2) each and make no N x N temporary:
``two_nearest`` finds each point's two allies by a partial sort of a block
of rows at a time, and ``grouped_sums`` aggregates the angle moments of a
partition through a sparse one-hot matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix

from .errors import DegenerateInputError, ZeroRowError

# Rows whose norm lies in this range are normalized by their norm as it is.
_NORM_RANGE = (2.0**-500, 2.0**500)
# Rows (or columns) of the angle matrix handled at a time by the O(N^2) passes.
_BLOCK = 256


@dataclass
class DataSet:
    """Points in R^n, one per row, with optional integer ground-truth labels.

    Invariants: at least 3 points, ambient dimension at least 2, finite
    coordinates, and when labels are present they have one entry per point.
    """

    points: np.ndarray
    labels: np.ndarray | None = None

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=np.float64)
        if self.points.ndim != 2:
            raise DegenerateInputError(f"points must be 2-D, got shape {self.points.shape}")
        n_points, dim = self.points.shape
        if n_points < 3:
            raise DegenerateInputError(f"need at least 3 points, got {n_points}")
        if dim < 2:
            raise DegenerateInputError(f"need ambient dimension >= 2, got {dim}")
        bad = np.flatnonzero(~np.isfinite(self.points).all(axis=1))
        if bad.size:
            raise DegenerateInputError(f"row {bad[0]} has a NaN or infinite coordinate")
        if self.labels is not None:
            labels = np.asarray(self.labels)
            if labels.shape != (n_points,):
                raise DegenerateInputError(
                    f"labels shape {labels.shape} does not match {n_points} points"
                )
            if labels.dtype.kind not in "iub":
                value = labels.astype(np.float64)
                bad = np.flatnonzero(~(np.abs(value) < 2.0**63) | (value != np.trunc(value)))
                if bad.size:
                    raise DegenerateInputError(
                        f"row {bad[0]} has a non-integer label {labels[bad[0]]}"
                    )
            self.labels = labels.astype(np.int64)

    @property
    def n_points(self) -> int:
        return self.points.shape[0]

    @property
    def ambient_dim(self) -> int:
        return self.points.shape[1]


def normalize_rows(data: DataSet) -> DataSet:
    """Project every point onto the unit sphere, preserving labels.

    A row whose norm lies outside _NORM_RANGE, where its squares overflow
    or lose bits to underflow, is first scaled by a power of two, which is
    exact, so that its largest coordinate lies in [0.5, 1). Raises
    ZeroRowError for a row that is all zero.
    """
    points = data.points
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(points, axis=1)
    odd = np.flatnonzero(~((norms >= _NORM_RANGE[0]) & (norms <= _NORM_RANGE[1])))
    if odd.size:
        points = points.copy()
        _, exponent = np.frexp(np.abs(points[odd]).max(axis=1))
        points[odd] = np.ldexp(points[odd], -exponent[:, None])
        norms[odd] = np.linalg.norm(points[odd], axis=1)
        zero = odd[norms[odd] == 0.0]
        if zero.size:
            raise ZeroRowError(int(zero[0]))
    return DataSet(points=points / norms[:, None], labels=data.labels)


class AngleCache:
    """Dense symmetric store of all pairwise angles.

    One N x N float64 matrix ``theta`` with theta[i, j] = arccos(x_i . x_j)
    in [0, pi] and a zero diagonal. Inner products are clamped to [-1, 1]
    before arccos, so near-parallel rows never yield NaN. The matrix is
    bitwise symmetric, so (i, j) and (j, i) read the same value.

    ``reads`` counts accessor calls; the merge loop must leave it untouched
    once the initial statistics are built, which test builds assert.
    """

    def __init__(self, theta: np.ndarray):
        if theta.ndim != 2 or theta.shape[0] != theta.shape[1]:
            raise DegenerateInputError("angle matrix must be square")
        self._theta = theta
        self.reads = 0

    @property
    def n_points(self) -> int:
        return self._theta.shape[0]

    def _acute_rows(self, start: int, stop: int) -> np.ndarray:
        """Rows start:stop of min(theta, pi - theta), with +inf where a row
        meets its own point, so neighbour searches skip the point itself."""
        rows = self._theta[start:stop]
        acute = np.subtract(np.pi, rows)
        np.minimum(acute, rows, out=acute)
        acute[np.arange(stop - start), np.arange(start, stop)] = np.inf
        return acute

    def acute_row(self, i: int) -> np.ndarray:
        """One row of acute angles min(theta, pi - theta), +inf at i itself."""
        self.reads += 1
        return self._acute_rows(i, i + 1)[0]

    def two_nearest(self) -> np.ndarray:
        """Each point's two nearest neighbours under the acute angle, N x 2.

        Ties resolve to the smaller point index, exactly as a stable sort of
        the whole row would. Works on blocks of rows: a partial sort finds
        three candidates per row in O(N), which are then ordered by (angle,
        index). A row with more than two angles at or below its second
        candidate's (a tie at the boundary) is stable-sorted on its own.
        O(N^2) in all, with no N x N temporary.
        """
        self.reads += 1
        n = self.n_points
        allies = np.empty((n, 2), dtype=np.int64)
        for start in range(0, n, _BLOCK):
            stop = min(start + _BLOCK, n)
            acute = self._acute_rows(start, stop)
            cand = np.argpartition(acute, 2, axis=1)[:, :3]
            values = np.take_along_axis(acute, cand, axis=1)
            order = np.lexsort((cand, values))
            cand = np.take_along_axis(cand, order, axis=1)
            second = np.take_along_axis(values, order[:, 1:2], axis=1)
            allies[start:stop] = cand[:, :2]
            for r in np.flatnonzero(np.count_nonzero(acute <= second, axis=1) > 2):
                allies[start + r] = np.argsort(acute[r], kind="stable")[:2]
        return allies

    def cross_values(self, idx_a: np.ndarray, idx_b: np.ndarray) -> np.ndarray:
        """All angles between one index set and another (disjoint) one.

        Returned in ascending order, so swapping the two arguments yields a
        bitwise-identical array.
        """
        self.reads += 1
        return np.sort(self._theta[np.ix_(idx_a, idx_b)], axis=None)

    def within_values(self, idx: np.ndarray) -> np.ndarray:
        """All C(len(idx), 2) angles among one index set."""
        self.reads += 1
        idx = np.asarray(idx, dtype=np.int64)
        pos_i, pos_j = np.triu_indices(idx.size, k=1)
        return self._theta[idx[pos_i], idx[pos_j]]

    def grouped_sums(self, assignment: np.ndarray, n_groups: int):
        """Angle sums and squared sums aggregated over a partition.

        Returns (sum_matrix, sumsq_matrix), both n_groups x n_groups and
        symmetric. Off-diagonal entry (k, l) aggregates every cross angle
        between groups k and l once; diagonal entry (k, k) aggregates every
        within-group angle of k once.

        The one-hot P x N matrix is sparse, so onehot @ theta @ onehot.T
        costs O(N^2) whatever the number of groups P. theta is walked in
        column blocks, squared one block at a time, so no N x N temporary
        is made. The upper triangle is mirrored into the lower one, which
        makes both results bitwise symmetric.
        """
        self.reads += 1
        n = self.n_points
        assignment = np.asarray(assignment, dtype=np.int64)
        if assignment.shape != (n,):
            raise DegenerateInputError("assignment must have one entry per point")
        onehot = csr_matrix((np.ones(n), (assignment, np.arange(n))), shape=(n_groups, n))
        left = np.empty((n_groups, n))
        left_sq = np.empty((n_groups, n))
        for start in range(0, n, _BLOCK):
            cols = self._theta[:, start : start + _BLOCK]
            left[:, start : start + _BLOCK] = onehot @ cols
            left_sq[:, start : start + _BLOCK] = onehot @ np.square(cols)
        lower = np.tri(n_groups, k=-1, dtype=bool)
        sums = []
        for half in (left, left_sq):
            total = half @ onehot.T
            np.copyto(total, total.T, where=lower)
            # The bilinear form double-counts within-group pairs (i, j) and (j, i).
            np.fill_diagonal(total, np.diagonal(total) / 2.0)
            sums.append(total)
        return tuple(sums)


def compute_angles(data: DataSet) -> AngleCache:
    """Compute all pairwise angles of an already-normalized dataset.

    Builds the dense store in place: Gram matrix, clamp to [-1, 1], arccos,
    zero diagonal. Deterministic for fixed input. numpy evaluates X @ X.T
    as a symmetric rank-k update and mirrors one triangle, so the store is
    bitwise symmetric.
    """
    theta = data.points @ data.points.T
    np.clip(theta, -1.0, 1.0, out=theta)
    np.arccos(theta, out=theta)
    np.fill_diagonal(theta, 0.0)
    return AngleCache(theta)


def load_points_csv(path, labeled: bool = False) -> DataSet:
    """Read a dataset from CSV: one point per row, comma-separated reals.

    With ``labeled=True`` the final column is the ground-truth label, which
    ``DataSet`` checks to be an integer.
    """
    try:
        raw = np.loadtxt(path, delimiter=",", ndmin=2)
    except ValueError as err:
        raise DegenerateInputError(f"cannot parse points CSV {path}: {err}") from err
    if labeled:
        if raw.shape[1] < 3:
            raise DegenerateInputError("labeled CSV needs >= 2 feature columns plus a label")
        return DataSet(points=raw[:, :-1], labels=raw[:, -1])
    return DataSet(points=raw)


def save_points_csv(path, data: DataSet) -> None:
    """Write a dataset as CSV, appending the label column when present."""
    if data.labels is not None:
        out = np.hstack([data.points, data.labels[:, None].astype(np.float64)])
    else:
        out = data.points
    np.savetxt(path, out, delimiter=",")
