"""Synthetic dataset generators: unions of random subspaces and a
Dirichlet-process mixture.

All generators are deterministic given the spec's seed and attach
ground-truth labels. Points are returned un-normalized; the clustering
pipeline projects onto the unit sphere itself.

A subspace generator writes each subspace's coefficient product straight
into its rows of one N x n points array, so a call holds the points and
one subspace's coefficients; the DP generator adds each point's centroid
into its noise in place, a chunk of rows at a time, so a call holds about
one N x n array. In every generator a drawn row that is exactly zero, the
one row the sphere projection cannot take, is drawn again
(``_nonzero_rows``); any other row is kept, however small or large its
norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError
from .geometry import DataSet, integer_seed

# Rows of centroids ``gen_dp`` gathers at a time to add into its noise.
_GATHER_ROWS = 1024


@dataclass
class SubspaceSpec:
    """Union-of-subspaces layout: L subspaces of dimension r in R^n, with N
    points split as evenly as possible across them."""

    n: int
    r: int
    L: int
    N: int
    seed: int = 0

    def __post_init__(self):
        integer_seed(self.seed)
        if not 2 <= self.r < self.n:
            raise DegenerateInputError(f"need 2 <= r < n, got r={self.r}, n={self.n}")
        if self.L < 1:
            raise DegenerateInputError(f"need L >= 1, got {self.L}")
        if self.N < 3 * self.L:
            raise DegenerateInputError(
                f"need N >= 3L so clusters can have >= 3 points, got N={self.N}, L={self.L}"
            )


@dataclass
class DPSpec:
    """Dirichlet-process mixture layout: centroid spread rho, within-cluster
    spread sigma, concentration alpha."""

    n: int
    N: int
    rho: float
    sigma: float
    alpha: float = 1.0
    seed: int = 0

    def __post_init__(self):
        integer_seed(self.seed)
        if self.n < 2:
            raise DegenerateInputError(f"need n >= 2, got {self.n}")
        for name in ("rho", "sigma", "alpha"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise DegenerateInputError(f"{name} must be finite and positive, got {value}")
        if self.N < 3:
            raise DegenerateInputError(f"need N >= 3, got {self.N}")


def _group_counts(total: int, groups: int) -> list[int]:
    base, extra = divmod(total, groups)
    return [base + (1 if i < extra else 0) for i in range(groups)]


def _haar_basis(rng: np.random.Generator, n: int, r: int) -> np.ndarray:
    """Orthonormal n x r basis of a uniformly random r-dimensional subspace
    (QR of a standard Gaussian matrix)."""
    q, _ = np.linalg.qr(rng.standard_normal((n, r)))
    return q


def _nonzero_rows(count: int, draw) -> np.ndarray:
    # count rows from draw(mask), which returns a fresh row for each True
    # entry of mask; the (probability-zero) rows that are exactly zero are
    # drawn again.
    rows = draw(np.ones(count, dtype=bool))
    bad = ~rows.any(axis=1)
    while bad.any():
        rows[bad] = draw(bad)
        bad = ~rows.any(axis=1)
    return rows


def _subspace_dataset(spec: SubspaceSpec, rng: np.random.Generator, basis, sample) -> DataSet:
    # The L subspaces' points in label order. For each, basis(rng) draws its
    # n x r basis, then sample(rng, shape) its coefficients, whose product
    # with the basis is written into the subspace's rows of points.
    counts = _group_counts(spec.N, spec.L)
    points = np.empty((spec.N, spec.n))
    stop = 0
    for count in counts:
        q = basis(rng)
        start, stop = stop, stop + count
        coef = _nonzero_rows(count, lambda mask: sample(rng, (int(mask.sum()), spec.r)))
        np.matmul(coef, q.T, out=points[start:stop])
    labels = np.repeat(np.arange(spec.L, dtype=np.int64), counts)
    return DataSet(points=points, labels=labels)


def gen_subspace_normal(spec: SubspaceSpec) -> DataSet:
    """Fully-random model: Haar-uniform subspaces, standard-normal
    coordinates (uniform on the subspace sphere after normalization)."""
    return _subspace_dataset(spec, np.random.default_rng(spec.seed),
                             lambda rng: _haar_basis(rng, spec.n, spec.r),
                             np.random.Generator.standard_normal)


def gen_subspace_uniform(spec: SubspaceSpec) -> DataSet:
    """Haar-uniform subspaces with standard-uniform (U[0,1], uncentered)
    coordinates; within-subspace angles skew below pi/2."""
    return _subspace_dataset(spec, np.random.default_rng(spec.seed),
                             lambda rng: _haar_basis(rng, spec.n, spec.r),
                             np.random.Generator.random)


def gen_subspace_dependent(spec: SubspaceSpec) -> DataSet:
    """Dependent subspaces drawn from a shared basis pool.

    One global orthonormal basis of R^n (a Haar rotation of the canonical
    one, to avoid axis-aligned artifacts); each subspace takes r pool
    vectors without replacement, drawn fresh per subspace, so subspaces
    share basis vectors whenever r * L approaches n. Coordinates are
    standard uniform.
    """
    rng = np.random.default_rng(spec.seed)
    pool = _haar_basis(rng, spec.n, spec.n)
    return _subspace_dataset(
        spec, rng, lambda rng: pool[:, rng.choice(spec.n, size=spec.r, replace=False)],
        np.random.Generator.random)


def gen_dp(spec: DPSpec) -> DataSet:
    """Dirichlet-process mixture via the Chinese-restaurant sequence.

    Point i opens a new cluster with probability alpha / (i + alpha),
    otherwise joins an existing cluster proportionally to its size. Each
    new cluster gets a centroid ~ N(0, rho^2 I); each point is its
    centroid plus N(0, sigma^2 I) noise.
    """
    rng = np.random.default_rng(spec.seed)
    labels = np.empty(spec.N, dtype=np.int64)
    counts: list[int] = []
    for i in range(spec.N):
        if i == 0 or rng.uniform() < spec.alpha / (i + spec.alpha):
            labels[i] = len(counts)
            counts.append(1)
        else:
            probs = np.asarray(counts, dtype=np.float64) / i
            k = int(rng.choice(len(counts), p=probs))
            labels[i] = k
            counts[k] += 1

    def draw(mask):
        # The masked points' noise, with their centroids added in place a
        # chunk of rows at a time, so no gathered copy of all of them is made.
        noise = rng.normal(0.0, spec.sigma, size=(int(mask.sum()), spec.n))
        rows = labels[mask]
        for start in range(0, rows.size, _GATHER_ROWS):
            noise[start : start + _GATHER_ROWS] += centroids[rows[start : start + _GATHER_ROWS]]
        return noise

    # A huge spread may overflow a coordinate to inf, or to nan where two
    # infinities of opposite signs add; the check below rejects both. A tiny
    # spread's rows, whose squares underflow to 0, are kept for
    # normalize_rows to scale.
    with np.errstate(over="ignore", invalid="ignore"):
        centroids = rng.normal(0.0, spec.rho, size=(len(counts), spec.n))
        points = _nonzero_rows(spec.N, draw)
    if not np.isfinite(points).all():
        raise DegenerateInputError(f"rho={spec.rho}, sigma={spec.sigma} overflow a coordinate")
    return DataSet(points=points, labels=labels)
