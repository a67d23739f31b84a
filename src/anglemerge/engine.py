"""Agglomerative merge engine: ally-based seeding, score-driven merging,
and threshold-based selection of the final cluster count.

The engine never touches coordinates. It reads the AngleCache only while
seeding, in two O(N^2 * n) passes: one for each point's two allies (the
two largest |x . y| in its row), one for the per-cluster sufficient
statistics, one P x P float64 store with each slot pair's angle sum on or
above the diagonal and its sum of squares transposed below it, and the
within sums of squares in a P-vector. From then on every merge is a
purely additive update of those statistics: merging clusters a and b
turns their cross-angle set into within-angle mass, so

    within_new  = within_a + within_b + between_ab
    between_new,k = between_a,k + between_b,k   for every other k

with no angle ever re-read. Clusters keep their P initial slots, so a
merge costs O(P), with no per-merge copies: points are relabelled once,
when their labels are read. A merge of slot q into slot p reads rows p
and q of the store and, in strided passes, columns p and q, and writes
row p and column p. In the distance matrix d it writes row p whole and
column p in one strided pass, both from one ``moments`` and one
``bhattacharyya`` call over all P slots, which write into buffers kept
for the run; it reads no column of d. The emptied slot's rows and
columns, of the store and of d, are left stale and masked wherever a
whole row is read. ``run_merging`` caches each slot's row minimum
(Muellner, arXiv:1109.2378), so merging is O(P^2) overall when few rows
lose their partner per merge, O(P^3) at worst, and its trace records
O(1) values per K. While merging, the store and d are the only P x P
arrays.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, TooFewAnglesError
from .geometry import AngleCache, integer_labels, integer_seed
from .stats import bhattacharyya, moments, t_pair

# Entries of d that distance_matrix computes at a time, in rows (at least
# one) from the block's diagonal rightwards, with their mirror below it:
# each temporary of a block is then at most about 128 KB.
_DISTANCE_BLOCK = 2**14

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

    ``labels[i]`` is the slot of point i. The statistics are the P x P
    float64 ``store`` and the P-vector ``within_sq`` that ``grouped_sums``
    returns. For k < l, store[k, l] sums the k-l cross angles and
    store[l, k] their squares; store[k, k] sums slot k's within angles and
    within_sq[k] their squares; they are the clustering's only copy of its
    statistics. Counts are implied: C(size_k, 2) within, size_k * size_l
    between. A merge empties one slot and moves no other slot. A slot is
    dead when its size is 0; its statistics are then stale and never read.
    ``k`` counts the live slots, ``live`` lists them.
    """

    def __init__(self, labels, store, within_sq):
        self._labels = labels
        # Each slot's parent since ``labels`` was last brought up to date,
        # or None when no merge is pending: a merge of q into p < q sets
        # parent[q] = p, and ``labels`` follows the parents once, when read.
        self._parent = None
        self.sizes = np.bincount(labels, minlength=store.shape[0])
        self.store = store
        self.within_sq = within_sq

    @classmethod
    def from_labels(cls, angles: AngleCache, labels: np.ndarray) -> "Clustering":
        """Build a clustering (and all its statistics) from per-point labels.

        Labels must be finite integers; they are compacted to dense slots
        0..K-1 in sorted-value order. This is the only place the angle cache
        is read.
        """
        labels = integer_labels(labels, angles.n_points)
        values, slots = np.unique(labels, return_inverse=True)
        return cls(slots, *angles.grouped_sums(slots, values.size))

    @property
    def labels(self) -> np.ndarray:
        """Each point's slot: one O(N) pass after any number of merges."""
        if self._parent is not None:
            root = self._parent
            for slot in range(len(root)):  # a parent is a smaller slot
                root[slot] = root[root[slot]]
            self._labels = np.array(root)[self._labels]
            self._parent = None
        return self._labels

    @property
    def k(self) -> int:
        return int(np.count_nonzero(self.sizes))

    @property
    def live(self) -> np.ndarray:
        """The non-empty slots, ascending."""
        return np.flatnonzero(self.sizes)

    def copy(self) -> "Clustering":
        return Clustering(self.labels.copy(), self.store.copy(), self.within_sq.copy())

    def merge(self, a: int, b: int, out: np.ndarray | None = None) -> int:
        """Merge clusters a and b by additive statistic combination.

        Slot q = max(a, b) is folded into slot p = min(a, b) in place and
        left dead: its row and column of the store go stale. Slot q's sums
        and squares are added into p's, which are row p and column p of
        the store, each split at p and q: one pass over rows p and q and
        one strided pass over columns p and q. No other slot moves, and no
        point is relabelled until ``labels`` is read, so a merge is O(P).
        ``out``, a 2 x P array if given, receives the merged slot's sums
        (out[0]) and sums of squares (out[1]) against every slot, its
        within pair at index p. Returns p. Raises DegenerateInputError for
        a slot outside 0..P-1, the same slot twice or an empty slot, and
        then changes nothing.
        """
        n_slots = self.sizes.shape[0]
        if not (0 <= a < n_slots and 0 <= b < n_slots):
            raise DegenerateInputError(
                f"cannot merge slot {a} with slot {b}: slots are 0..{n_slots - 1}")
        if a == b or self.sizes[a] == 0 or self.sizes[b] == 0:
            raise DegenerateInputError(f"cannot merge slot {a} with slot {b}: same or empty slot")
        p, q = (a, b) if a < b else (b, a)
        if out is None:
            out = np.empty((2, n_slots))
        s, w, cols = self.store, self.within_sq, self.store.T
        row_p, row_q, col_p, col_q = s[p], s[q], cols[p], cols[q]
        within = s.item(p, p) + (s.item(q, q) + s.item(p, q))
        within_sq = w.item(p) + (w.item(q) + s.item(q, p))
        # Row p holds p's squares left of the diagonal and its sums on and
        # right of it, column p the other way round; likewise for q. So
        # adding row q to row p and column q to column p adds like to like
        # except between p and q, where row p meets column q and column p
        # row q. Entries p and q are then set or left stale.
        row, col = out[0], out[1]
        np.add(col_p, col_q, col)
        np.add(row_p, row_q, row)
        between = slice(p + 1, q)
        np.add(row_p[between], col_q[between], row[between])
        np.add(col_p[between], row_q[between], col[between])
        row[p] = col[p] = within
        row_p[:] = row
        col_p[:] = col
        w[p] = within_sq
        # Swapped left of p, the rows read as p's sums and squares.
        out[:, :p] = out[::-1, :p]
        col[p] = within_sq

        if self._parent is None:
            self._parent = list(range(n_slots))
        self._parent[q] = p
        self.sizes[p] += self.sizes[q]
        self.sizes[q] = 0
        return p

    def consistency_error(self, angles: AngleCache) -> float:
        """Worst relative mismatch |stored - fresh| / max(|fresh|, 1) between
        the live slots' statistics and a from-scratch ``from_labels`` rebuild
        of ``labels``: one read of the angle cache. +inf when ``labels`` and
        ``sizes`` do not describe the same partition. The rebuild numbers the
        live slots 0..K-1 in slot order, so its store lines up entry for
        entry with the live block of this one. Used by oracle tests."""
        live = self.live
        fresh = Clustering.from_labels(angles, self.labels)
        if not np.array_equal(fresh.sizes, self.sizes[live]):
            return np.inf
        # One np.max over both, as Python's max would drop a NaN it met second.
        return float(np.max([np.max(np.abs(s - r) / np.maximum(np.abs(r), 1.0))
                             for s, r in ((self.store[np.ix_(live, live)], fresh.store),
                                          (self.within_sq[live], fresh.within_sq))]))


def distance_matrix(clustering: Clustering) -> np.ndarray:
    """All pairwise slot distances d[k, l]; +inf on the diagonal and for empty slots.

    Not symmetric: d[k, l] judges the k-to-l cross angles (entry (k, l) of
    the statistics) against cluster k's own within angles (entry (k, k)),
    d[l, k] against cluster l's. Stale statistics of empty slots are read
    but never reach d. d is filled a block of about _DISTANCE_BLOCK entries
    at a time, whether or not some slots are empty, so besides d the
    temporaries stay O(_DISTANCE_BLOCK).
    """
    return _merge_state(clustering)[0]


def _merge_state(clustering: Clustering):
    """What the merge loop keeps beside ``clustering``: d, as in
    ``distance_matrix``; each slot's size as a float count, an empty slot
    counted as 3 points; a 2 x 2 x P array whose [:, 1] holds each slot's
    within mean and variance ([:, 0] is ``_refresh_distance``'s scratch);
    and ``floor``, -inf at a live slot and +inf at an empty one, which
    ``np.fmax`` lays over a row of distances to mask the empty slots."""
    if clustering.k < 2:
        raise DegenerateInputError("need at least 2 clusters")
    smallest = int(clustering.sizes[clustering.live].min())
    if smallest < 3:
        raise TooFewAnglesError(f"every cluster needs >= 3 points, smallest has {smallest}")
    # Live sizes are >= 3, so every count is above 1. An empty slot counts
    # as 3 points: its stale, finite sums then give finite entries, as the
    # diagonal's within sums read as between sums do, until set to inf.
    weights = np.maximum(clustering.sizes, 3).astype(np.float64)
    store, within_sq = clustering.store, clustering.within_sq
    n_slots = weights.size
    within = np.empty((2, 2, n_slots))
    moments(np.diagonal(store), within_sq, weights * (weights - 1.0) / 2.0, out=within[:, 1])
    mean_w, var_w = within[:, 1]
    d = np.empty((n_slots, n_slots))
    step = max(1, _DISTANCE_BLOCK // n_slots)
    for start in range(0, n_slots, step):
        stop = min(start + step, n_slots)
        r, cut = slice(start, stop), stop - start
        # For a slot k of the block and l >= k, row k of the store holds
        # the k-l sums and column k their squares: the between moments of
        # every pair from the block rightwards, stale left of its diagonal.
        squares = np.ascontiguousarray(store[start:, r].T)
        mean_b, var_b = moments(store[r, start:], squares, weights[r, None] * weights[start:])
        # d[k, l] and d[l, k] judge the same moments against k's and l's
        # within moments.
        d[r, start:] = bhattacharyya(mean_w[r, None], var_w[r, None], mean_b, var_b)
        mirror = bhattacharyya(mean_w[start:], var_w[start:], mean_b, var_b).T
        d[stop:, r] = mirror[cut:]
        square = d[r, r]
        below = np.tri(cut, k=-1, dtype=bool)
        square[below] = mirror[:cut][below]
    empty = clustering.sizes == 0
    d[empty, :] = d[:, empty] = np.inf
    np.fill_diagonal(d, np.inf)
    floor = np.where(empty, np.inf, -np.inf)
    return d, weights, within, floor


class _Workspace:
    """The O(P) buffers one ``run_merging`` call writes every merge into:
    the merged slot's statistics rows (``Clustering.merge``'s ``out``), its
    counts and moments, and the fresh distances and their scratch."""

    def __init__(self, n_slots: int):
        self.rows = np.empty((2, n_slots))
        self.count = np.empty(n_slots)
        self.moments = np.empty((2, n_slots))
        self.fresh = np.empty((2, n_slots))
        self.scratch = np.empty((2, 2, n_slots))


def _refresh_distance(d: np.ndarray, work: _Workspace, size: int, weights: np.ndarray,
                      within: np.ndarray, floor: np.ndarray, kept: int) -> np.ndarray:
    """Recompute row and column ``kept`` of d after a merge into slot
    ``kept``, now of ``size`` points, whose statistics rows ``work.rows``
    holds, and the slot's entries of ``weights`` and ``within``; returns
    the fresh column. ``floor`` marks the empty slots, the one just emptied
    included.

    One ``moments`` call over those rows gives the between moments against
    every slot and, at index ``kept`` (count C(n, 2)), the slot's own
    within moments. The statistics are symmetric, so one ``bhattacharyya``
    call over a 2 x P stack gives both directions: slot ``kept``'s within
    moments against every row entry, and every slot's against it. Each
    writes into ``work``. Empty slots and the diagonal read +inf, and the
    row and the column are each written once, whole. Rows and columns of
    empty slots are left stale: a rescan masks them (``_update_minima``).
    """
    weights[kept] = size
    count = np.multiply(weights, weights[kept], out=work.count)
    count[kept] = size * (size - 1.0) / 2.0
    rows = work.rows
    mean, var = moments(rows[0], rows[1], count, out=work.moments)
    mean_w, var_w = within[0], within[1]
    mean_w[:, kept], var_w[:, kept] = mean[kept], var[kept]
    mean_w[0], var_w[0] = mean[kept], var[kept]
    fresh = bhattacharyya(mean_w, var_w, mean, var, out=work.fresh, scratch=work.scratch)
    np.fmax(fresh, floor, out=fresh)
    fresh[:, kept] = np.inf
    d[kept] = fresh[0]
    d[:, kept] = fresh[1]
    return fresh[1]


@dataclass
class ScoreSet:
    """Per-cluster scores, their partners, and the clustering score."""

    eta: np.ndarray
    partners: np.ndarray
    gamma: float
    pair: tuple[int, int]


def compute_scores(clustering: Clustering) -> ScoreSet:
    """Cluster scores eta_j = min_l d[j, l] over d = ``distance_matrix``,
    the clustering score gamma = min_j eta_j, and the mergeable pair
    attaining it, all in slot numbers.

    Empty slots score +inf and are never picked. Ties break to the smallest
    slot, then the smallest partner slot (argmin picks the first occurrence).
    """
    eta, partners = _row_minima(distance_matrix(clustering))
    i_star = int(np.argmin(eta))
    j_star = int(partners[i_star])
    return ScoreSet(eta=eta, partners=partners, gamma=float(eta[i_star]), pair=(i_star, j_star))


def _row_minima(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's minimum and the first column attaining it."""
    partners = rows.argmin(axis=1)
    return rows[np.arange(rows.shape[0]), partners], partners


def _update_minima(d: np.ndarray, eta: np.ndarray, partners: np.ndarray, column: np.ndarray,
                   floor: np.ndarray, kept: int, emptied: int) -> None:
    """Bring the cached row minima up to date after ``_refresh_distance``
    merged slot ``emptied`` into slot ``kept`` and returned ``column``, the
    new column ``kept``; ``floor`` marks the empty slots.

    Slot ``emptied`` now scores +inf with partner -1, as every empty slot
    does, so no partner names an empty slot. Only column ``kept`` changed
    in the rows other than ``kept``. Row ``kept`` and every row whose
    partner was ``kept`` or ``emptied`` are rescanned in full, from a copy
    whose empty columns read +inf. Every other row takes ``kept`` when its
    new distance is smaller than the cached minimum, or equal with ``kept``
    the smaller column, as argmin's first-occurrence rule would. Every live
    row then equals ``_row_minima`` of the live block bitwise.
    """
    eta[emptied], partners[emptied] = np.inf, -1
    rescan = (partners == kept) | (partners == emptied)
    rescan[kept] = True
    take = (column < eta) | ((column == eta) & (kept < partners))
    np.copyto(eta, column, where=take)
    np.copyto(partners, kept, where=take)
    rows = rescan.nonzero()[0]
    eta[rows], partners[rows] = _row_minima(np.fmax(d.take(rows, axis=0), floor))


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
    return 1.0 / math.sqrt(t - 1.0)


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
        """Initial cluster count: one more than the records, so 1 if none."""
        return len(self.steps) + 1

    def labels_at(self, k: int) -> np.ndarray:
        """Per-point labels of the clustering with k clusters, by replaying
        the first initial_k - k merges. k = 1 replays every record: the
        K = 2 record holds the pair of the last merge, so every point then
        has label 0."""
        if not isinstance(k, (int, np.integer)):
            raise DegenerateInputError(f"k must be an integer, got {k!r}")
        if not 1 <= k <= self.initial_k:
            raise DegenerateInputError(f"k must be in [1, {self.initial_k}], got {k}")
        groups = [[i] for i in range(self.initial_k)]
        for step in self.steps[: self.initial_k - k]:
            p, q = sorted(step.pair)
            groups[p] += groups.pop(q)
        ids = np.empty(self.initial_k, dtype=np.int64)
        for label, members in enumerate(groups):
            ids[members] = label
        return ids[self.initial_labels]


def run_merging(clustering: Clustering) -> MergeRun:
    """Run the merge loop from the initial clustering down to 2 clusters.

    At each K the mergeable pair (i*, j*) is found, the step is recorded
    with its threshold (computed from the pair's independent-sample budget
    t_K = min(floor(size_i*/2), size_j*)), and the pair is merged. The
    loop ends after recording K = 2. The clustering is consumed, merged in
    place down to K = 2; a one-cluster input gives an empty trace.
    Records number the K live slots 0..K-1 in slot order, as labels_at does.

    The loop keeps one state beside the clustering, whose ``sizes`` it
    reads: the distance matrix d, each slot's cached row minimum eta and
    partner, each slot's within moments and float count, the sorted list
    of dead slots, from which a record's ranks are counted, and one
    ``_Workspace`` of O(P) buffers. A merge (``Clustering.merge``)
    leaves the merged slot's statistics in the workspace, refreshes row
    and column p of d from them with one ``bhattacharyya`` call
    (``_refresh_distance``), updates the minima from that fresh column
    without reading d's, and rescans only the rows ``_update_minima``
    names. No point is relabelled inside the loop: the clustering's
    labels follow its merges once, when read. Dead slots' rows and columns of d go stale,
    as their statistics do. gamma and the pair equal ``compute_scores`` on
    a fresh distance matrix at every K, bitwise, and the loop costs O(P^2)
    overall when few rows lose their partner per merge, O(P^3) at worst.
    """
    initial_labels = (np.cumsum(clustering.sizes > 0) - 1)[clustering.labels]
    if clustering.k < 2:
        return MergeRun(steps=[], initial_labels=initial_labels)
    d, weights, within, floor = _merge_state(clustering)
    work = _Workspace(weights.size)
    eta, partners = _row_minima(d)
    sizes = clustering.sizes
    dead_slots = np.flatnonzero(sizes == 0).tolist()  # ascending
    partners[dead_slots] = -1
    steps: list[MergeStep] = []
    for k in range(clustering.k, 1, -1):
        i_star = int(eta.argmin())
        j_star = int(partners[i_star])
        t_k = t_pair(sizes.item(i_star), sizes.item(j_star))
        pair = (i_star - bisect_left(dead_slots, i_star), j_star - bisect_left(dead_slots, j_star))
        steps.append(
            MergeStep(k=k, gamma=float(eta[i_star]), zeta=threshold(t_k), t=t_k, pair=pair)
        )
        if k > 2:
            kept = clustering.merge(i_star, j_star, out=work.rows)
            emptied = i_star + j_star - kept
            insort(dead_slots, emptied)
            floor[emptied] = np.inf
            column = _refresh_distance(d, work, sizes.item(kept), weights, within, floor, kept)
            _update_minima(d, eta, partners, column, floor, kept, emptied)
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
    mode, crossed=False, and K = 1: the single all-points cluster left
    after the K = 2 record's merge. An empty trace, from a one-cluster
    start, has no crossing either.
    """
    crossings = [s.k for s in run.steps if s.gamma > s.zeta]
    l_hat = max(crossings, default=1)
    return SelectionResult(l_hat=l_hat, labels=run.labels_at(l_hat), crossed=bool(crossings))


def initial_clustering(angles: AngleCache, seed: int) -> Clustering:
    """Parameter-free seeding: each point and its two nearest neighbours.

    Pass 1 walks the points in a ring from a seeded random start and opens
    a new cluster {p, ally1(p), ally2(p)} whenever all three are still
    unallocated. Pass 2 walks the ring again and attaches each leftover
    point to its first ally's cluster, else its second ally's. One of the
    two is always allocated: pass 1 left p out only because an ally was
    already allocated at p's visit, and no allocation is ever undone.
    Every cluster ends with >= 3 points.
    """
    seed = integer_seed(seed)
    n = angles.n_points
    if n < 3:
        raise DegenerateInputError(f"initial clustering needs >= 3 points, got {n}")
    # The ring loops index Python lists: numpy scalar indexing costs several
    # times more per access.
    allies = angles.two_nearest().tolist()
    rng = np.random.default_rng(seed)
    start = int(rng.integers(n))

    ring = [*range(start, n), *range(start)]
    assign = [-1] * n
    next_id = 0
    for p in ring:
        a1, a2 = allies[p]
        if assign[p] < 0 and assign[a1] < 0 and assign[a2] < 0:
            assign[p] = assign[a1] = assign[a2] = next_id
            next_id += 1
    for p in ring:
        if assign[p] < 0:
            a1, a2 = allies[p]
            assign[p] = assign[a1] if assign[a1] >= 0 else assign[a2]
    return Clustering.from_labels(angles, np.array(assign, dtype=np.int64))
