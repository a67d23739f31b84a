"""Agglomerative merge engine: ally-based seeding, score-driven merging,
and threshold-based selection of the final cluster count.

The engine never touches coordinates. It consumes an AngleCache once, to
build per-cluster sufficient statistics, and from then on every merge is a
purely additive update of those statistics: merging clusters a and b turns
their cross-angle set into within-angle mass, so

    within_new  = within_a + within_b + between_ab
    between_new,k = between_a,k + between_b,k   for every other k

with no angle ever re-read. Clusters keep their P initial slots, so a
merge costs O(P) for the statistics and distance refresh, with no
per-merge copies. The merge loop caches each slot's row minimum and its
partner (the nearest-neighbour caching of Muellner's generic algorithm,
arXiv:1109.2378), so a merge also rescans, at O(P) each, only the merged
row and the rows whose partner was one of the merged pair: merging is
O(P^2) overall when few rows lose their partner per merge, and O(P^3) in
the worst case. The loop's only state is the distance matrix and those
cached minima; each K records O(1) values (score, threshold, sample
budget, merged pair), so the trace is O(P) in all. Seeding costs
O(N^2 * n): one pass over the rows of inner products, formed a block at a
time, finds each point's two allies by ranking |x . y| and taking arccos
of O(N) candidates in all, and one pass over the upper triangle of the
angles, with the points in group order, builds the initial statistics
through sparse one-hot products.
"""

from __future__ import annotations

from copy import deepcopy
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, TooFewAnglesError
from .geometry import AngleCache, integer_labels
from .stats import bhattacharyya, moments, t_pair

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
    """A partition of the points into P fixed slots, with additive angle statistics.

    ``labels[i]`` is the slot of point i. Each slot holds the sufficient
    statistics of its within-angle set; slot pair (k, l) holds those of the
    cross-angle set. Between-matrices are symmetric with zero diagonal.
    Counts are implied: C(size_k, 2) within, size_k * size_l between. A
    merge relabels one slot's points, empties it and moves no other slot;
    ``k`` counts the non-empty slots, ``live`` lists them.
    """

    def __init__(self, labels, w_sum, w_sumsq, b_sum, b_sumsq):
        self.labels = labels
        self.sizes = np.bincount(labels, minlength=w_sum.size)
        self.w_sum = w_sum
        self.w_sumsq = w_sumsq
        self.b_sum = b_sum
        self.b_sumsq = b_sumsq

    @classmethod
    def from_labels(cls, angles: AngleCache, labels: np.ndarray) -> "Clustering":
        """Build a clustering (and all its statistics) from per-point labels.

        Labels must be finite integers; they are compacted to dense slots
        0..K-1 in sorted-value order. This is the only place the angle cache
        is read.
        """
        labels = integer_labels(labels, angles.n_points)
        values, slots = np.unique(labels, return_inverse=True)
        k = values.size
        b_sum, b_sumsq = angles.grouped_sums(slots, k)
        w_sum = np.diagonal(b_sum).copy()
        w_sumsq = np.diagonal(b_sumsq).copy()
        np.fill_diagonal(b_sum, 0.0)
        np.fill_diagonal(b_sumsq, 0.0)
        return cls(slots, w_sum, w_sumsq, b_sum, b_sumsq)

    @property
    def k(self) -> int:
        return int(np.count_nonzero(self.sizes))

    @property
    def live(self) -> np.ndarray:
        """The non-empty slots, ascending."""
        return np.flatnonzero(self.sizes)

    def copy(self) -> "Clustering":
        return deepcopy(self)

    def merge(self, a: int, b: int) -> int:
        """Merge clusters a and b by additive statistic combination.

        Slot max(a, b) is folded into slot min(a, b) in place and left
        empty; no other slot moves. Returns the merged cluster's slot.
        """
        if a == b or self.sizes[a] == 0 or self.sizes[b] == 0:
            raise DegenerateInputError(f"cannot merge slot {a} with slot {b}: same or empty slot")
        p, q = (a, b) if a < b else (b, a)
        for w, b_mat in ((self.w_sum, self.b_sum), (self.w_sumsq, self.b_sumsq)):
            w[p] += w[q] + b_mat[p, q]
            b_mat[p, :] += b_mat[q, :]
            b_mat[p, p] = b_mat[p, q] = 0.0
            b_mat[:, p] = b_mat[p, :]
            w[q] = 0.0
            b_mat[q, :] = b_mat[:, q] = 0.0

        self.labels[self.labels == q] = p
        self.sizes[p] += self.sizes[q]
        self.sizes[q] = 0
        return p

    def consistency_error(self, angles: AngleCache) -> float:
        """Worst relative mismatch |stored - fresh| / max(|fresh|, 1) between
        the live slots' statistics and a from-scratch ``from_labels`` rebuild
        of ``labels``: one read of the angle cache. +inf when ``labels`` and
        ``sizes`` do not describe the same partition. Used by oracle tests."""
        live = self.live
        fresh = Clustering.from_labels(angles, self.labels)
        if not np.array_equal(fresh.sizes, self.sizes[live]):
            return np.inf
        block = np.ix_(live, live)
        stored = (self.w_sum[live], self.w_sumsq[live], self.b_sum[block], self.b_sumsq[block])
        rebuilt = (fresh.w_sum, fresh.w_sumsq, fresh.b_sum, fresh.b_sumsq)
        return max(float(np.max(np.abs(s - r) / np.maximum(np.abs(r), 1.0)))
                   for s, r in zip(stored, rebuilt))


def _check_mergeable(clustering: Clustering) -> None:
    if clustering.k < 2:
        raise DegenerateInputError("need at least 2 clusters")
    smallest = int(clustering.sizes[clustering.live].min())
    if smallest < 3:
        raise TooFewAnglesError(f"every cluster needs >= 3 points, smallest has {smallest}")


def distance_matrix(clustering: Clustering) -> np.ndarray:
    """All pairwise slot distances d[k, l]; +inf on the diagonal and for empty slots.

    Not symmetric: d[k, l] judges the k-to-l cross angles against cluster
    k's own within angles, d[l, k] against cluster l's. The statistics are
    read whole, as views, whether or not some slots are empty.
    """
    _check_mergeable(clustering)
    # Live sizes are >= 3, so every count is above 1. An empty slot counts
    # as 3 points: its all-zero statistics then give finite entries (floored
    # variance), as the diagonal's zero between sums do, until set to inf.
    sizes = np.maximum(clustering.sizes, 3).astype(np.float64)
    mean_w, var_w = moments(clustering.w_sum, clustering.w_sumsq, sizes * (sizes - 1.0) / 2.0)
    mean_b, var_b = moments(clustering.b_sum, clustering.b_sumsq, np.outer(sizes, sizes))
    d = bhattacharyya(mean_w[:, None], var_w[:, None], mean_b, var_b)
    empty = clustering.sizes == 0
    d[empty, :] = d[:, empty] = np.inf
    np.fill_diagonal(d, np.inf)
    return d


def _refresh_distance(d: np.ndarray, clustering: Clustering, kept: int, emptied: int) -> None:
    """Recompute row and column ``kept`` over the live slots after slot
    ``emptied`` merged into it, and set those of ``emptied`` to +inf.

    The between matrices are symmetric, so the single moments row serves
    both directions: the whole per-merge distance update is O(P).
    """
    live = clustering.live
    sizes = clustering.sizes[live].astype(np.float64)
    mean_w, var_w = moments(
        clustering.w_sum[live], clustering.w_sumsq[live], sizes * (sizes - 1.0) / 2.0
    )
    at = int(np.searchsorted(live, kept))
    mean_b, var_b = moments(
        clustering.b_sum[kept, live], clustering.b_sumsq[kept, live], sizes[at] * sizes
    )
    d[kept, live] = bhattacharyya(mean_w[at], var_w[at], mean_b, var_b)
    d[live, kept] = bhattacharyya(mean_w, var_w, mean_b, var_b)
    d[kept, kept] = np.inf
    d[emptied, :] = d[:, emptied] = np.inf


@dataclass
class ScoreSet:
    """Per-cluster scores, their partners, and the clustering score."""

    eta: np.ndarray
    partners: np.ndarray
    gamma: float
    pair: tuple[int, int]


def compute_scores(clustering: Clustering, d: np.ndarray | None = None) -> ScoreSet:
    """Cluster scores eta_j = min_l d[j, l], the clustering score gamma =
    min_j eta_j, and the mergeable pair attaining it, all in slot numbers.

    Empty slots score +inf and are never picked. Ties break to the smallest
    slot, then the smallest partner slot (argmin picks the first occurrence).
    """
    if d is None:
        d = distance_matrix(clustering)
    else:
        _check_mergeable(clustering)
    eta, partners = _row_minima(d)
    i_star = int(np.argmin(eta))
    j_star = int(partners[i_star])
    return ScoreSet(eta=eta, partners=partners, gamma=float(eta[i_star]), pair=(i_star, j_star))


def _row_minima(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's minimum and the first column attaining it."""
    partners = np.argmin(rows, axis=1)
    return rows[np.arange(rows.shape[0]), partners], partners


def _update_minima(d: np.ndarray, eta: np.ndarray, partners: np.ndarray,
                   live: np.ndarray, kept: int, emptied: int) -> None:
    """Bring the cached row minima up to date after ``_refresh_distance``
    merged slot ``emptied`` into slot ``kept``; ``live`` masks the live slots.

    Only column ``kept`` changed in the rows other than ``kept``, and column
    ``emptied`` became +inf. Row ``kept`` and every live row whose partner
    was ``kept`` or ``emptied`` are rescanned in full. Every other row takes
    ``kept`` when its new distance is smaller than the cached minimum, or
    equal with ``kept`` the smaller column, as argmin's first-occurrence
    rule would. Every live row then equals ``_row_minima(d)`` bitwise, and
    slot ``emptied`` scores +inf; empty slots keep +inf with stale partners.
    """
    rescan = (partners == kept) | (partners == emptied)
    rescan &= live
    rescan[kept] = True
    column = d[:, kept]
    take = (column < eta) | ((column == eta) & (kept < partners))
    eta[take] = column[take]
    partners[take] = kept
    rows = np.flatnonzero(rescan)
    eta[rows], partners[rows] = _row_minima(d[rows])
    eta[emptied] = np.inf


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
    """One record of the merge loop, taken before the merge at that K: the
    clustering score, its threshold and sample budget, and the merged pair.
    O(1) per K, so a run's trace is O(P) in all."""

    k: int
    gamma: float
    zeta: float
    t: int
    pair: tuple[int, int]


@dataclass
class MergeRun:
    """Full merge history: per-K score records, whose pairs replay as a
    dendrogram from ``initial_labels`` (each point's initial rank 0..P-1)."""

    steps: list[MergeStep]
    initial_labels: np.ndarray

    @property
    def initial_k(self) -> int:
        return self.steps[0].k

    def labels_at(self, k: int) -> np.ndarray:
        """Per-point labels of the clustering with k clusters, by replaying
        the first initial_k - k merges."""
        if k == 1:
            return np.zeros_like(self.initial_labels)
        if not 2 <= k <= self.initial_k:
            raise DegenerateInputError(f"k must be in [2, {self.initial_k}] or 1, got {k}")
        groups = [[i] for i in range(self.initial_k)]
        for step in self.steps[: self.initial_k - k]:
            p, q = sorted(step.pair)
            groups[p] += groups.pop(q)
        ids = np.empty(self.initial_k, dtype=np.int64)
        for label, members in enumerate(groups):
            ids[members] = label
        return ids[self.initial_labels]


def run_merging(initial: Clustering) -> MergeRun:
    """Run the merge loop from the initial clustering down to 2 clusters.

    At each K the mergeable pair (i*, j*) is found, the step is recorded
    with its threshold (computed from the pair's independent-sample budget
    t_K = min(floor(size_i*/2), size_j*)), and the pair is merged. The
    loop ends after recording K = 2. The input clustering is not modified.
    Records number the K live slots 0..K-1 in slot order, as labels_at does.

    The loop keeps one state, the distance matrix and each slot's cached
    row minimum eta and partner. gamma and the pair equal ``compute_scores``
    on the current distance matrix at every K, bitwise, but a merge rescans
    only the rows ``_update_minima`` names, so the loop costs O(P^2)
    overall when few rows lose their partner per merge, O(P^3) at worst.
    """
    if initial.k < 2:
        raise DegenerateInputError("merging needs at least 2 initial clusters")
    work = initial.copy()
    d = distance_matrix(work)
    eta, partners = _row_minima(d)
    live = work.sizes > 0
    initial_labels = (np.cumsum(live) - 1)[initial.labels]
    steps: list[MergeStep] = []
    for k in range(initial.k, 1, -1):
        i_star = int(np.argmin(eta))
        j_star = int(partners[i_star])
        t_k = t_pair(int(work.sizes[i_star]), int(work.sizes[j_star]))
        pair = (int(np.count_nonzero(live[:i_star])), int(np.count_nonzero(live[:j_star])))
        steps.append(
            MergeStep(k=k, gamma=float(eta[i_star]), zeta=threshold(t_k), t=t_k, pair=pair)
        )
        if k > 2:
            kept = work.merge(i_star, j_star)
            emptied = max(i_star, j_star)
            live[emptied] = False
            _refresh_distance(d, work, kept, emptied)
            _update_minima(d, eta, partners, live, kept, emptied)
    return MergeRun(steps=steps, initial_labels=initial_labels)


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
        return SelectionResult(l_hat=1, labels=run.labels_at(1), crossed=False)
    l_hat = max(crossings)
    return SelectionResult(l_hat=l_hat, labels=run.labels_at(l_hat), crossed=True)


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
    allies = angles.two_nearest()
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
            nearest = allocated[np.argmin(angles.acute_row(p)[allocated])]
            assign[p] = assign[nearest]
    return Clustering.from_labels(angles, assign)
