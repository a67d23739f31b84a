"""Numeric core: unit-sphere normalization and the pairwise-angle cache.

Every downstream stage works on angles between unit vectors, never on the
raw coordinates, so the angle cache built here is the single source of
geometric truth for the whole pipeline. It holds only the N x n unit
points and computes angles a block of rows at a time, when a pass reads
them; no N x N array is ever made. Seeding makes two passes of
O(N^2 * n) each: ``two_nearest`` over full rows of inner products, with
no arccos, and ``grouped_sums`` over the upper triangle of the angles,
with arccos of N^2 / 2 entries. Besides the points, ``two_nearest`` holds
O(_BLOCK * N) products at a time, and ``grouped_sums`` one tile of
O(_BLOCK * _TILE_ROWS) angles beside the one P x P float64 store it
returns for P groups, which packs both statistics.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, ZeroRowError

# Rows whose norm lies in this range are normalized by their norm as it is.
_NORM_RANGE = (2.0**-500, 2.0**500)
# Rows of the angle matrix formed at a time by the O(N^2) passes.
_BLOCK = 256
# Fewest rows of a tile of a block's angles that ``grouped_sums`` forms at
# a time, unless the block's rows fit in one tile; a tile holds fewer than
# twice as many, plus the rest of a group that straddles its end. At least
# _BLOCK, so that only a block's first tile holds the block's own rows.
_TILE_ROWS = 2 * _BLOCK
# Rows of a labeled dataset that ``save_points_csv`` joins to their labels
# and writes at a time.
_CSV_ROWS = 1024


@dataclass
class DataSet:
    """Points in R^n, one per row, with optional integer ground-truth labels.

    Invariants: at least 3 points, ambient dimension at least 2, real and
    finite coordinates, and when labels are present they have one entry per
    point.
    """

    points: np.ndarray
    labels: np.ndarray | None = None

    def __post_init__(self):
        points = np.asarray(self.points)
        # A complex array would cast to float64 with a warning and lose its
        # imaginary parts: a silent wrong answer.
        if points.dtype.kind == "c":
            raise DegenerateInputError(f"points must be real, got dtype {points.dtype}")
        self.points = np.asarray(points, dtype=np.float64)
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
            self.labels = integer_labels(self.labels, n_points)

    @property
    def n_points(self) -> int:
        return self.points.shape[0]

    @property
    def ambient_dim(self) -> int:
        return self.points.shape[1]


def integer_labels(labels, n_points: int) -> np.ndarray:
    """Per-point labels as int64, one entry per point. Raises
    DegenerateInputError for a wrong shape or for a label that is not a
    finite integer value in int64 range; integer-valued floats are cast."""
    labels = np.asarray(labels)
    if labels.shape != (n_points,):
        raise DegenerateInputError(f"labels shape {labels.shape} does not match {n_points} points")
    if labels.dtype.kind not in "iub":
        value = labels.astype(np.float64)
        bad = np.flatnonzero(~(np.abs(value) < 2.0**63) | (value != np.trunc(value)))
        if bad.size:
            raise DegenerateInputError(f"row {bad[0]} has a non-integer label {labels[bad[0]]}")
    return labels.astype(np.int64)


def exact_float_labels(labels: np.ndarray, what: str) -> np.ndarray:
    """``labels`` (int64) as they are, when a float64 holds each one exactly.

    A float holds every integer below 2**53 in magnitude, and a larger one
    could round onto its neighbour, silently merging two clusters. So a
    label of magnitude >= 2**53 raises DegenerateInputError naming its row
    in ``what``. The bounds are compared on int64: ``abs`` of -2**63
    overflows.
    """
    big = np.flatnonzero((labels >= 2**53) | (labels <= -(2**53)))
    if big.size:
        raise DegenerateInputError(
            f"row {big[0]} of {what} has a label of magnitude >= 2**53, "
            "which a float cannot hold exactly"
        )
    return labels


def _is_integer(value) -> bool:
    """The package's one integer rule for a scalar argument: a Python or
    numpy integer, and not a float or a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def integer_seed(seed) -> int:
    """``seed`` as an int. Raises DegenerateInputError unless it is a
    non-negative integer (``_is_integer``)."""
    if not _is_integer(seed) or seed < 0:
        raise DegenerateInputError(f"seed must be a non-negative integer, got {seed!r}")
    return int(seed)


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
    """Pairwise angles of unit rows, computed one block of rows at a time.

    Holds only the N x n normalized points. theta[i, j] = arccos(x_i . x_j)
    lies in [0, pi], with theta[i, i] = 0; inner products are clamped to
    [-1, 1] before arccos, so near-parallel rows never yield NaN. No N x N
    array is ever made: each accessor computes the rows it needs as one
    matrix product of a block of at most _BLOCK rows against the points,
    so the working memory is O(N * n + _BLOCK * N) besides what an
    accessor returns. ``grouped_sums`` forms that product a tile of rows
    at a time, O(_BLOCK * _TILE_ROWS).

    ``reads`` counts accessor calls; the merge loop must leave it untouched
    once the initial statistics are built, which test builds assert.
    """

    def __init__(self, points: np.ndarray):
        if points.ndim != 2:
            raise DegenerateInputError("points must be 2-D")
        self._points = np.ascontiguousarray(points, dtype=np.float64)
        self.reads = 0

    @property
    def n_points(self) -> int:
        return self._points.shape[0]

    def _theta(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Angles between two sets of rows of the points, len(rows) x len(cols)."""
        return _arccos(self._points[rows] @ self._points[cols].T)

    def two_nearest(self) -> np.ndarray:
        """Each point's two nearest neighbours under the acute angle, N x 2.

        The acute angle min(theta, pi - theta) = arccos|x . y| falls as
        |x . y| grows, so the allies are the two largest |x . y| in the row,
        the point itself left out: two argmax passes per block of rows, the
        first occurrence (the smaller index) winning a tie. O(N^2 * n).
        """
        self.reads += 1
        allies = np.empty((self.n_points, 2), dtype=np.int64)
        for start in range(0, self.n_points, _BLOCK):
            score = self._points[start : start + _BLOCK] @ self._points.T
            np.abs(score, out=score)
            rows = np.arange(score.shape[0])
            score[rows, start + rows] = -np.inf
            first = np.argmax(score, axis=1)
            score[rows, first] = -np.inf
            allies[start + rows] = np.column_stack((first, np.argmax(score, axis=1)))
            del score  # freed before the next block's product is formed
        return allies

    def cross_values(self, idx_a: np.ndarray, idx_b: np.ndarray) -> np.ndarray:
        """All angles between one index set and another (disjoint) one.

        Returned in ascending order. Both sets are sorted, and the set with
        the smaller first index forms the rows of the product, so swapping
        the two arguments yields a bitwise-identical array.
        """
        self.reads += 1
        rows, cols = sorted((np.sort(idx_a), np.sort(idx_b)), key=lambda idx: idx[:1].tolist())
        return np.sort(self._theta(rows, cols), axis=None)

    def within_values(self, idx: np.ndarray) -> np.ndarray:
        """All C(len(idx), 2) angles among one index set, in row-major
        upper-triangle order, formed a block of rows at a time."""
        self.reads += 1
        idx = np.asarray(idx, dtype=np.int64)
        parts = [np.empty(0)]
        for start in range(0, idx.size, _BLOCK):
            block = self._theta(idx[start : start + _BLOCK], idx[start:])
            parts.append(block[np.triu_indices(block.shape[0], 1, block.shape[1])])
        return np.concatenate(parts)

    def grouped_sums(self, assignment: np.ndarray, n_groups: int):
        """Angle sums and squared sums aggregated over a partition.

        Returns one n_groups x n_groups float64 store and one n_groups
        vector ``within_sq``. For groups k < l, store[k, l] sums every
        cross angle between k and l once and store[l, k] their squares;
        store[k, k] sums every within-group angle of k once, and
        within_sq[k] their squares. This is the packed store a
        ``Clustering`` holds as it is filled here: one P x P array for both
        statistics, no mirror of either.

        The points are taken in the order of a stable sort by group, so a
        block of rows I holds one contiguous range of groups g0..g1, and a
        tile of rows J one range h0..h1. One pass over the upper triangle
        of theta in that order, a block at a time, each block's angles
        against the rows from its own first one on formed a tile at a
        time: the angles theta[i, j] with i in I, j in J and j > i (the
        diagonal and everything left of it zeroed, since arccos(x . x)
        need not be exactly 0) are summed through a sparse one-hot matrix,
        onehot[g0:g1, I] @ theta[I, J] @ onehot[h0:h1, J].T, into rows
        g0..g1 and columns h0..h1 of the store, and their squares into the
        transposed place, rows h0..h1 and columns g0..g1. Since j > i, a
        tile's sum for groups (g, h) with g > h is exactly 0, so each half
        adds +0.0 to the other's entries, which leaves them as they are;
        the squares of groups on both sides of a tile go to ``within_sq``.
        A tile is cut only at a group's first row (``_tile_stop``), so a
        group's angles to a block are summed whole, in the order of the
        points, in one tile, and the store does not depend on the tile
        size. The pass costs O(N^2 * n) for the products, with arccos on
        the N^2 / 2 angles, and holds one tile of fewer than
        2 * _TILE_ROWS x _BLOCK angles, unless one group is longer than
        _TILE_ROWS, and a (g1 - g0) x (h1 - h0) array at a time.
        """
        # Imported here, not with the module: scipy.sparse takes about 0.2 s
        # to load, which a process that never clusters (`anglemerge synth`,
        # `eval`, `bounds`) should not pay.
        from scipy.sparse import csc_matrix

        self.reads += 1
        n = self.n_points
        assignment = np.asarray(assignment, dtype=np.int64)
        if assignment.shape != (n,):
            raise DegenerateInputError("assignment must have one entry per point")
        order = np.argsort(assignment, kind="stable")
        labels = assignment[order]
        # Labels already in group order (as caller-supplied labels often
        # are) need no N x n permuted copy of the points.
        points = self._points if np.array_equal(labels, assignment) else self._points[order]
        onehot = csc_matrix((np.ones(n), (labels, np.arange(n))), shape=(n_groups, n))
        store = np.zeros((n_groups, n_groups))
        within_sq = np.zeros(n_groups)
        for start in range(0, n, _BLOCK):
            stop = min(start + _BLOCK, n)
            size = stop - start
            g0, g1 = labels[start], labels[stop - 1] + 1
            rows = onehot[g0:g1, start:stop]
            tile_start = start
            while tile_start < n:
                tile_stop = _tile_stop(labels, tile_start)
                # theta[tile, start:stop], the transpose of the block's rows
                # theta[start:stop, tile]: the sparse product reads it by rows.
                tile = _arccos(points[tile_start:tile_stop] @ points[start:stop].T)
                if tile_start == start:  # the block's rows begin its first tile, and no other
                    np.copyto(tile[:size], 0.0, where=~np.tri(size, k=-1, dtype=bool))
                h0, h1 = labels[tile_start], labels[tile_stop - 1] + 1
                cols = onehot[h0:h1, tile_start:tile_stop]
                # scipy copies a dense operand that is not C-ordered while that
                # operand and the result are alive; copied here, the untransposed
                # product is freed before the result is allocated.
                store[g0:g1, h0:h1] += rows @ np.ascontiguousarray((cols @ tile).T)
                np.square(tile, out=tile)
                squares = rows @ np.ascontiguousarray((cols @ tile).T)
                # Groups h0..g1 - 1 lie on both sides: their within squares
                # go to within_sq, and +0.0 to the sums on the diagonal.
                shared = np.arange(h0, min(g1, h1))
                within_sq[shared] += squares[shared - g0, shared - h0]
                squares[shared - g0, shared - h0] = 0.0
                store[h0:h1, g0:g1] += squares.T
                del tile  # freed before the next tile's product is formed
                tile_start = tile_stop
        return store, within_sq


def _tile_stop(labels: np.ndarray, start: int) -> int:
    """End of the tile of group-ordered rows that begins at ``start``: the
    first group's first row at least _TILE_ROWS rows on, or the end of the
    rows when fewer than _TILE_ROWS would be left after the tile. A group
    thus lies in one tile, and no tile of a block that spans several is
    short. The tiles' angles must equal the rows of the block's whole
    product bit for bit, and BLAS may round a product of a few rows in
    another kernel: OpenBLAS rounds a product of one row, or of up to four
    rows of 256 columns, otherwise than a longer one."""
    n = len(labels)
    if n - start < 2 * _TILE_ROWS:
        return n
    cut = int(np.searchsorted(labels, labels[start + _TILE_ROWS - 1], side="right"))
    return cut if n - cut >= _TILE_ROWS else n


def _arccos(gram: np.ndarray) -> np.ndarray:
    """arccos of inner products clamped to [-1, 1], in place."""
    np.clip(gram, -1.0, 1.0, out=gram)
    return np.arccos(gram, out=gram)


def compute_angles(data: DataSet) -> AngleCache:
    """The angle cache of an already-normalized dataset.

    Keeps the points and computes no angle yet: each accessor forms the
    angles it reads, a block of rows at a time. Deterministic for fixed
    input.
    """
    return AngleCache(data.points)


def read_numbers(path, what: str, **options) -> np.ndarray:
    """``np.loadtxt(path, **options)``, where unparsable text or a file with
    no data raises DegenerateInputError naming ``what``."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)  # loadtxt warns on no data
            return np.loadtxt(path, **options)
    except UserWarning as err:
        raise DegenerateInputError(f"{what} {path} has no data") from err
    except ValueError as err:
        raise DegenerateInputError(f"cannot parse {what} {path}: {err}") from err


def load_points_csv(path, labeled: bool = False) -> DataSet:
    """Read a dataset from CSV: one point per row, comma-separated reals.

    With ``labeled=True`` the final column is the ground-truth label, which
    must be an integer of magnitude below 2**53: the column is read as
    floats, which hold no larger integer exactly.
    """
    raw = read_numbers(path, "points CSV", delimiter=",", ndmin=2)
    if labeled:
        if raw.shape[1] < 3:
            raise DegenerateInputError("labeled CSV needs >= 2 feature columns plus a label")
        data = DataSet(points=raw[:, :-1], labels=raw[:, -1])
        exact_float_labels(data.labels, f"points CSV {path}")
        return data
    return DataSet(points=raw)


def save_points_csv(path, data: DataSet) -> None:
    """Write a dataset as CSV, appending the label column when present.

    Each value is written in 17 significant digits, the fewest that read
    back as the same float64 for every value, so ``load_points_csv``
    returns the points and labels bit for bit. Labels share the float
    column, so one of magnitude >= 2**53 raises DegenerateInputError
    before the file is opened. The label column joins the points
    _CSV_ROWS rows at a time, so the writer holds no N x (n + 1) copy.
    """
    if data.labels is not None:
        exact_float_labels(data.labels, "the dataset")
    with open(path, "w") as handle:
        for start in range(0, data.n_points, _CSV_ROWS):
            rows = data.points[start : start + _CSV_ROWS]
            if data.labels is not None:
                rows = np.column_stack((rows, data.labels[start : start + _CSV_ROWS]))
            np.savetxt(handle, rows, delimiter=",", fmt="%.17g")
