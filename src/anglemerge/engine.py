"""Agglomerative merge engine: ally-based seeding, score-driven merging,
and threshold-based selection of the final cluster count.

The engine never touches coordinates. It consumes an AngleCache once, to
build per-cluster sufficient statistics, and from then on every merge is a
purely additive update of those statistics: merging clusters a and b turns
their cross-angle set into within-angle mass, so

    within_new  = within_a + within_b + between_ab
    between_new,k = between_a,k + between_b,k   for every other k

with no angle ever re-read. For P initial clusters the merge loop costs
O(P^3) as written: each merge compacts the P x P statistics with np.ix_
and the distance matrix with two np.delete calls. Seeding costs
O(N^2 log N) for the full-row ally argsort.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, TooFewAnglesError
from .geometry import AngleCache
from .stats import PairStats, bhattacharyya, moments, t_pair

__all__ = [
    "Clustering",
    "ScoreSet",
    "MergeStep",
    "MergeRun",
    "SelectionResult",
    "initial_clustering",
    "distance_matrix",
    "compute_scores",
    "merge_step",
    "threshold",
    "run_merging",
    "select_clustering",
]


class Clustering:
    """A partition of point indices with additive angle statistics.

    Cluster slot k holds the index set ``clusters[k]`` plus the sufficient
    statistics of its within-angle set; slot pair (k, l) holds those of the
    cross-angle set. Between-matrices are symmetric with zero diagonal.
    Counts are implied: C(size_k, 2) within, size_k * size_l between.
    """

    def __init__(self, clusters, w_sum, w_sumsq, b_sum, b_sumsq, n_points):
        self.clusters = clusters
        self.sizes = np.array([len(c) for c in clusters], dtype=np.int64)
        self.w_sum = w_sum
        self.w_sumsq = w_sumsq
        self.b_sum = b_sum
        self.b_sumsq = b_sumsq
        self.n_points = n_points

    @classmethod
    def from_labels(cls, angles: AngleCache, labels: np.ndarray) -> "Clustering":
        """Build a clustering (and all its statistics) from per-point labels.

        Labels are compacted to dense ids 0..K-1 in sorted-value order. This
        is the only place the angle cache is read.
        """
        labels = np.asarray(labels)
        if labels.shape != (angles.n_points,):
            raise DegenerateInputError("labels must have one entry per point")
        values, assignment = np.unique(labels, return_inverse=True)
        k = values.size
        sum_matrix, sumsq_matrix = angles.grouped_sums(assignment, k)
        w_sum = np.diagonal(sum_matrix).copy()
        w_sumsq = np.diagonal(sumsq_matrix).copy()
        b_sum = sum_matrix.copy()
        b_sumsq = sumsq_matrix.copy()
        np.fill_diagonal(b_sum, 0.0)
        np.fill_diagonal(b_sumsq, 0.0)
        clusters = [np.where(assignment == i)[0] for i in range(k)]
        return cls(clusters, w_sum, w_sumsq, b_sum, b_sumsq, angles.n_points)

    @property
    def k(self) -> int:
        return len(self.clusters)

    @property
    def assignment(self) -> np.ndarray:
        out = np.empty(self.n_points, dtype=np.int64)
        for i, members in enumerate(self.clusters):
            out[members] = i
        return out

    def within_counts(self) -> np.ndarray:
        return self.sizes * (self.sizes - 1) // 2

    def within_stats_of(self, k: int) -> PairStats:
        return PairStats(float(self.w_sum[k]), float(self.w_sumsq[k]), int(self.within_counts()[k]))

    def between_stats_of(self, k: int, l: int) -> PairStats:
        if k == l:
            raise DegenerateInputError("between stats need two distinct clusters")
        return PairStats(
            float(self.b_sum[k, l]),
            float(self.b_sumsq[k, l]),
            int(self.sizes[k] * self.sizes[l]),
        )

    def copy(self) -> "Clustering":
        return Clustering(
            [c.copy() for c in self.clusters],
            self.w_sum.copy(),
            self.w_sumsq.copy(),
            self.b_sum.copy(),
            self.b_sumsq.copy(),
            self.n_points,
        )

    def merge(self, a: int, b: int) -> int:
        """Merge clusters a and b by additive statistic combination.

        The merged cluster lands in slot min(a, b); slots above max(a, b)
        shift down by one. Returns the merged cluster's slot.
        """
        if a == b:
            raise DegenerateInputError("cannot merge a cluster with itself")
        p, q = (a, b) if a < b else (b, a)
        self.w_sum[p] += self.w_sum[q] + self.b_sum[p, q]
        self.w_sumsq[p] += self.w_sumsq[q] + self.b_sumsq[p, q]
        self.b_sum[p, :] += self.b_sum[q, :]
        self.b_sum[:, p] = self.b_sum[p, :]
        self.b_sumsq[p, :] += self.b_sumsq[q, :]
        self.b_sumsq[:, p] = self.b_sumsq[p, :]

        keep = np.r_[0:q, q + 1 : self.k]
        self.w_sum = self.w_sum[keep]
        self.w_sumsq = self.w_sumsq[keep]
        self.b_sum = self.b_sum[np.ix_(keep, keep)]
        self.b_sumsq = self.b_sumsq[np.ix_(keep, keep)]
        self.b_sum[p, p] = 0.0
        self.b_sumsq[p, p] = 0.0

        self.clusters[p] = np.concatenate([self.clusters[p], self.clusters[q]])
        del self.clusters[q]
        self.sizes = np.array([len(c) for c in self.clusters], dtype=np.int64)
        return p

    def consistency_error(self, angles: AngleCache) -> float:
        """Worst relative mismatch between stored statistics and a from-scratch
        recomputation off the angle cache. Used by oracle tests."""
        from .stats import between_stats, within_stats

        worst = 0.0

        def rel(stored, fresh):
            return abs(stored - fresh) / max(abs(fresh), 1.0)

        for k in range(self.k):
            fresh = within_stats(self.clusters[k], angles)
            stored = self.within_stats_of(k)
            worst = max(worst, rel(stored.total, fresh.total), rel(stored.total_sq, fresh.total_sq))
            if stored.count != fresh.count:
                return np.inf
            for l in range(k + 1, self.k):
                fresh = between_stats(self.clusters[k], self.clusters[l], angles)
                stored = self.between_stats_of(k, l)
                worst = max(
                    worst, rel(stored.total, fresh.total), rel(stored.total_sq, fresh.total_sq)
                )
                if stored.count != fresh.count:
                    return np.inf
        return worst


def _within_moments(clustering: Clustering):
    """Cluster sizes (as floats) and per-cluster within-angle moments."""
    sizes = clustering.sizes.astype(np.float64)
    mean_w, var_w = moments(clustering.w_sum, clustering.w_sumsq, sizes * (sizes - 1.0) / 2.0)
    return sizes, mean_w, var_w


def _check_mergeable(clustering: Clustering) -> None:
    if clustering.k < 2:
        raise DegenerateInputError("need at least 2 clusters")
    if int(clustering.sizes.min()) < 3:
        raise TooFewAnglesError(
            f"every cluster needs >= 3 points, smallest has {int(clustering.sizes.min())}"
        )


def distance_matrix(clustering: Clustering) -> np.ndarray:
    """All pairwise cluster distances d[k, l]; +inf on the diagonal.

    Not symmetric: d[k, l] judges the k-to-l cross angles against cluster
    k's own within angles, d[l, k] against cluster l's.
    """
    _check_mergeable(clustering)
    # Sizes >= 3 keep every count above 1. The diagonal's between sums are
    # zero, so its entries are finite (floored variance) until set to inf.
    sizes, mean_w, var_w = _within_moments(clustering)
    mean_b, var_b = moments(clustering.b_sum, clustering.b_sumsq, np.outer(sizes, sizes))
    d = bhattacharyya(mean_w[:, None], var_w[:, None], mean_b, var_b)
    np.fill_diagonal(d, np.inf)
    return d


def _refresh_distance(d: np.ndarray, clustering: Clustering, k: int) -> None:
    """Recompute row and column k of the distance matrix after a merge.

    The between matrices are symmetric, so the single moments row serves
    both directions; with the within moments this is the whole O(K)
    per-merge distance update.
    """
    sizes, mean_w, var_w = _within_moments(clustering)
    mean_b, var_b = moments(clustering.b_sum[k], clustering.b_sumsq[k], sizes[k] * sizes)
    d[k, :] = bhattacharyya(mean_w[k], var_w[k], mean_b, var_b)
    d[:, k] = bhattacharyya(mean_w, var_w, mean_b, var_b)
    d[k, k] = np.inf


@dataclass
class ScoreSet:
    """Per-cluster scores, their partners, and the clustering score."""

    eta: np.ndarray
    partners: np.ndarray
    gamma: float
    pair: tuple[int, int]


def compute_scores(clustering: Clustering, d: np.ndarray | None = None) -> ScoreSet:
    """Cluster scores eta_j = min_l d[j, l], the clustering score gamma =
    min_j eta_j, and the mergeable pair attaining it.

    Ties break to the smallest cluster index, then the smallest partner
    index (argmin picks the first occurrence).
    """
    if d is None:
        d = distance_matrix(clustering)
    else:
        _check_mergeable(clustering)
    partners = np.argmin(d, axis=1)
    eta = d[np.arange(d.shape[0]), partners]
    i_star = int(np.argmin(eta))
    j_star = int(partners[i_star])
    return ScoreSet(eta=eta, partners=partners, gamma=float(eta[i_star]), pair=(i_star, j_star))


def merge_step(clustering: Clustering, pair: tuple[int, int]) -> Clustering:
    """Merge one cluster pair in place (additive statistics only)."""
    clustering.merge(pair[0], pair[1])
    return clustering


def threshold(t: int) -> float:
    """Merge-acceptance threshold 1/sqrt(t - 1) for t independent samples.

    A pair with fewer than two independent samples carries no evidence of
    separation, so the threshold is +inf there (the score can never cross).
    """
    if t < 2:
        return np.inf
    return 1.0 / np.sqrt(t - 1.0)


@dataclass
class MergeStep:
    """One record of the merge loop, taken before the merge at that K."""

    k: int
    gamma: float
    zeta: float
    t: int
    pair: tuple[int, int]
    eta: np.ndarray
    partners: np.ndarray


@dataclass
class MergeRun:
    """Full merge history: per-K score records plus a replayable dendrogram."""

    steps: list[MergeStep]
    initial_clusters: list[np.ndarray]
    merged_pairs: list[tuple[int, int]]
    n_points: int

    @property
    def initial_k(self) -> int:
        return len(self.initial_clusters)

    def labels_at(self, k: int) -> np.ndarray:
        """Per-point labels of the clustering with k clusters, by replaying
        the first initial_k - k merges."""
        if k == 1:
            return np.zeros(self.n_points, dtype=np.int64)
        if not 2 <= k <= self.initial_k:
            raise DegenerateInputError(f"k must be in [2, {self.initial_k}] or 1, got {k}")
        clusters = [c for c in self.initial_clusters]
        for a, b in self.merged_pairs[: self.initial_k - k]:
            p, q = (a, b) if a < b else (b, a)
            clusters[p] = np.concatenate([clusters[p], clusters[q]])
            del clusters[q]
        labels = np.empty(self.n_points, dtype=np.int64)
        for i, members in enumerate(clusters):
            labels[members] = i
        return labels


def run_merging(initial: Clustering) -> MergeRun:
    """Run the merge loop from the initial clustering down to 2 clusters.

    At each K the mergeable pair (i*, j*) is found, the step is recorded
    with its threshold (computed from the pair's independent-sample budget
    t_K = min(floor(size_i*/2), size_j*)), and the pair is merged. The
    loop ends after recording K = 2. The input clustering is not modified.
    """
    if initial.k < 2:
        raise DegenerateInputError("merging needs at least 2 initial clusters")
    work = initial.copy()
    d = distance_matrix(work)
    steps: list[MergeStep] = []
    merged: list[tuple[int, int]] = []
    while True:
        scores = compute_scores(work, d)
        i_star, j_star = scores.pair
        t_k = t_pair(int(work.sizes[i_star]), int(work.sizes[j_star]))
        steps.append(
            MergeStep(
                k=work.k,
                gamma=scores.gamma,
                zeta=threshold(t_k),
                t=t_k,
                pair=scores.pair,
                eta=scores.eta.copy(),
                partners=scores.partners.copy(),
            )
        )
        if work.k == 2:
            break
        merged.append(scores.pair)
        q = max(i_star, j_star)
        slot = work.merge(i_star, j_star)
        d = np.delete(np.delete(d, q, axis=0), q, axis=1)
        _refresh_distance(d, work, slot)
    return MergeRun(
        steps=steps,
        initial_clusters=[c.copy() for c in initial.clusters],
        merged_pairs=merged,
        n_points=initial.n_points,
    )


@dataclass
class SelectionResult:
    """Outcome of thresholding the merge trace."""

    l_hat: int
    labels: np.ndarray
    crossed: bool


def select_clustering(run: MergeRun) -> SelectionResult:
    """Pick the final clustering: the largest K whose score exceeds its
    threshold. When no score ever crosses, that is a detectable failure
    mode; the fallback is a single all-points cluster with crossed=False.
    """
    if not run.steps:
        raise DegenerateInputError("empty merge trace")
    crossings = [s.k for s in run.steps if s.gamma > s.zeta]
    if not crossings:
        return SelectionResult(
            l_hat=1, labels=np.zeros(run.n_points, dtype=np.int64), crossed=False
        )
    l_hat = max(crossings)
    return SelectionResult(l_hat=l_hat, labels=run.labels_at(l_hat), crossed=True)


def _find_allies(acute: np.ndarray) -> np.ndarray:
    """Each point's two nearest neighbours under the acute angle.

    Ties resolve to the smaller point index (stable sort), which keeps the
    whole pipeline deterministic. Returns a copy, so the N x N sort order
    is freed on return.
    """
    order = np.argsort(acute, axis=1, kind="stable")
    return order[:, :2].copy()


def initial_clustering(angles: AngleCache, seed: int) -> Clustering:
    """Parameter-free seeding: each point and its two nearest neighbours.

    Pass 1 walks the points in a ring from a seeded random start and opens
    a new cluster {p, ally1(p), ally2(p)} whenever all three are still
    unallocated. Pass 2 walks the ring again and attaches each leftover
    point to its first ally's cluster, else its second ally's; if neither
    ally is allocated yet, it joins the cluster of the nearest allocated
    point, which guarantees termination. Every cluster ends with >= 3
    points.
    """
    n = angles.n_points
    if n < 3:
        raise DegenerateInputError(f"initial clustering needs >= 3 points, got {n}")
    acute = angles.acute_square()
    allies = _find_allies(acute)
    rng = np.random.default_rng(seed)
    start = int(rng.integers(n))

    assign = np.full(n, -1, dtype=np.int64)
    next_id = 0
    for offset in range(n):
        p = (start + offset) % n
        a1, a2 = allies[p]
        if assign[p] < 0 and assign[a1] < 0 and assign[a2] < 0:
            assign[[p, a1, a2]] = next_id
            next_id += 1
    for offset in range(n):
        p = (start + offset) % n
        if assign[p] >= 0:
            continue
        a1, a2 = allies[p]
        if assign[a1] >= 0:
            assign[p] = assign[a1]
        elif assign[a2] >= 0:
            assign[p] = assign[a2]
        else:
            allocated = np.where(assign >= 0)[0]
            nearest = allocated[np.argmin(acute[p, allocated])]
            assign[p] = assign[nearest]
    # Free the N x N acute matrix before grouped_sums needs its own temporaries.
    del acute
    return Clustering.from_labels(angles, assign)
