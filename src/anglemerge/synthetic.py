"""Synthetic dataset generators: unions of random subspaces and a
Dirichlet-process mixture.

All generators are deterministic given the spec's seed and attach
ground-truth labels. Points are returned un-normalized; the clustering
pipeline projects onto the unit sphere itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError
from .geometry import DataSet

# Generated rows with norm below this are drawn again.
ZERO_NORM_EPS = 1e-300


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
        if not 2 <= self.r < self.n:
            raise DegenerateInputError(f"need 2 <= r < n, got r={self.r}, n={self.n}")
        if self.L < 1:
            raise DegenerateInputError(f"need L >= 1, got {self.L}")
        if self.N < 3 * self.L:
            raise DegenerateInputError(f"need N >= 3L so clusters can have >= 3 points")


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


def _draw_coefficients(rng: np.random.Generator, count: int, r: int, kind: str) -> np.ndarray:
    # Redraw any (probability-zero) all-zero coordinate rows so downstream
    # normalization never sees a zero vector.
    if kind == "normal":
        draw = lambda c: rng.standard_normal((c, r))
    elif kind == "uniform":
        draw = lambda c: rng.uniform(0.0, 1.0, size=(c, r))
    else:
        raise DegenerateInputError(f"unknown coefficient distribution {kind!r}")
    coef = draw(count)
    bad = np.linalg.norm(coef, axis=1) < ZERO_NORM_EPS
    while bad.any():
        coef[bad] = draw(int(bad.sum()))
        bad = np.linalg.norm(coef, axis=1) < ZERO_NORM_EPS
    return coef


def _subspace_dataset(spec: SubspaceSpec, coefficient_kind: str) -> DataSet:
    rng = np.random.default_rng(spec.seed)
    blocks, labels = [], []
    for k, count in enumerate(_group_counts(spec.N, spec.L)):
        basis = _haar_basis(rng, spec.n, spec.r)
        coef = _draw_coefficients(rng, count, spec.r, coefficient_kind)
        blocks.append(coef @ basis.T)
        labels.extend([k] * count)
    return DataSet(points=np.vstack(blocks), labels=np.array(labels, dtype=np.int64))


def gen_subspace_normal(spec: SubspaceSpec) -> DataSet:
    """Fully-random model: Haar-uniform subspaces, standard-normal
    coordinates (uniform on the subspace sphere after normalization)."""
    return _subspace_dataset(spec, "normal")


def gen_subspace_uniform(spec: SubspaceSpec) -> DataSet:
    """Haar-uniform subspaces with standard-uniform (U[0,1], uncentered)
    coordinates; within-subspace angles skew below pi/2."""
    return _subspace_dataset(spec, "uniform")


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
    blocks, labels = [], []
    for k, count in enumerate(_group_counts(spec.N, spec.L)):
        picks = rng.choice(spec.n, size=spec.r, replace=False)
        basis = pool[:, picks]
        coef = _draw_coefficients(rng, count, spec.r, "uniform")
        blocks.append(coef @ basis.T)
        labels.extend([k] * count)
    return DataSet(points=np.vstack(blocks), labels=np.array(labels, dtype=np.int64))


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
    centroids = rng.normal(0.0, spec.rho, size=(len(counts), spec.n))
    points = centroids[labels] + rng.normal(0.0, spec.sigma, size=(spec.N, spec.n))
    bad = np.linalg.norm(points, axis=1) < ZERO_NORM_EPS
    while bad.any():
        points[bad] = centroids[labels[bad]] + rng.normal(
            0.0, spec.sigma, size=(int(bad.sum()), spec.n)
        )
        bad = np.linalg.norm(points, axis=1) < ZERO_NORM_EPS
    return DataSet(points=points, labels=labels)
