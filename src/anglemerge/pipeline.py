"""End-to-end clustering pipeline: normalize, set up the angle cache, seed
clusters, merge, select. This is the programmatic surface the CLI wraps."""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .engine import (
    Clustering,
    MergeRun,
    SelectionResult,
    initial_clustering,
    run_merging,
    select_clustering,
)
from .errors import DegenerateInputError
from .geometry import AngleCache, DataSet, compute_angles, integer_seed, normalize_rows

# gamma/zeta of the K = l_hat + 1 record above which ``under_split`` is
# raised. Chosen on seeds 0-19 of the normal, uniform and dependent models
# at n=100 over nine (r, L, points per cluster) shapes, and checked on
# seeds 20-39 of the same: 9 of 9 under-split crossings flagged, 0 of 495
# other crossings.
UNDER_SPLIT_RATIO = 0.7


@dataclass
class ClusterRun:
    """Everything produced by one clustering run.

    ``merge_run`` is the merge trace, empty when the run started from one
    cluster. ``angles`` keeps only the normalized points, O(N * n) memory,
    and computes the angles ``selected_pair_angle_sets`` asks for on demand.
    """

    selection: SelectionResult
    merge_run: MergeRun
    angles: AngleCache
    data: DataSet
    elapsed_ms: float

    @property
    def labels(self) -> np.ndarray:
        return self.selection.labels

    @property
    def initial_k(self) -> int:
        return self.merge_run.initial_k

    @property
    def under_split(self) -> dict:
        """Whether the crossing at l_hat may have merged two true clusters,
        read from the records at K = l_hat + 1 and K = l_hat in O(1).

        ``flagged`` holds when the deciding pair at K = l_hat holds the
        cluster the merge at K = l_hat + 1 made (the smaller rank of that
        record's pair), that record's gamma/zeta is above
        UNDER_SPLIT_RATIO, and t rose across that merge: the record nearly
        crossed, and the crossing may owe itself to a wrong merge that grew
        t. ``gamma_over_zeta`` and ``t_before`` are the K = l_hat + 1
        record's, ``t_after`` the K = l_hat record's t; all three are None,
        and ``flagged`` False, when no K crossed or l_hat is the initial K.
        """
        before = self.initial_k - self.selection.l_hat - 1  # the K = l_hat + 1 record
        if not self.selection.crossed or before < 0:
            return {"flagged": False, "gamma_over_zeta": None, "t_before": None, "t_after": None}
        made, deciding = self.merge_run.steps[before : before + 2]
        ratio = made.gamma / made.zeta
        flagged = (
            min(made.pair) in deciding.pair and ratio > UNDER_SPLIT_RATIO and deciding.t > made.t
        )
        return {
            "flagged": flagged, "gamma_over_zeta": ratio, "t_before": made.t, "t_after": deciding.t,
        }

    def trace_rows(self) -> list[dict]:
        """Per-K (gamma, zeta, t) rows of the merge trace, largest K first."""
        return [
            {"k": s.k, "gamma": s.gamma, "zeta": s.zeta, "t": s.t} for s in self.merge_run.steps
        ]

    def selected_pair_angle_sets(self) -> tuple[np.ndarray, np.ndarray]:
        """Raw within and between angle values of the minimum-distance pair.

        Taken at the selected clustering (at K = 2 when no crossing
        occurred): the within-angle set of the score-defining cluster and
        its cross-angle set with the partner. These are the two
        distributions whose separation the selection decision rests on.
        """
        if not self.merge_run.steps:
            raise DegenerateInputError("run ended before any merge step; no pair to inspect")
        k = self.selection.l_hat if self.selection.crossed else 2
        step = self.merge_run.steps[self.merge_run.initial_k - k]
        labels = self.merge_run.labels_at(k)
        members_i = np.where(labels == step.pair[0])[0]
        members_j = np.where(labels == step.pair[1])[0]
        within = self.angles.within_values(members_i)
        between = self.angles.cross_values(members_i, members_j)
        return within, between


def cluster_dataset(
    data: DataSet, seed: int = 0, initial_labels: np.ndarray | None = None
) -> ClusterRun:
    """Cluster a dataset without knowing the number of clusters.

    Steps: project points onto the unit sphere, set up the angle cache,
    build the initial fine clustering (ally triples, or the caller-supplied
    labels) from the angles it streams, merge it down in place while
    recording scores, and select the final clustering by the threshold
    crossing. A one-cluster start has nothing to merge and ends in the
    no-crossing fallback. ``data`` and ``initial_labels`` are not modified.
    ``seed`` must be a non-negative integer, even when no ally seeding uses it.
    """
    seed = integer_seed(seed)
    started = time.perf_counter()
    normalized = normalize_rows(data)
    angles = compute_angles(normalized)
    if initial_labels is None:
        clustering = initial_clustering(angles, seed)
    else:
        clustering = Clustering.from_labels(angles, initial_labels)
    merge_run = run_merging(clustering)
    selection = select_clustering(merge_run)
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    return ClusterRun(
        selection=selection,
        merge_run=merge_run,
        angles=angles,
        data=normalized,
        elapsed_ms=elapsed_ms,
    )
