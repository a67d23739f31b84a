"""End-to-end clustering pipeline: normalize, cache angles, seed clusters,
merge, select. This is the programmatic surface the CLI wraps."""

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
from .geometry import AngleCache, DataSet, compute_angles, normalize_rows


@dataclass
class ClusterRun:
    """Everything produced by one clustering run."""

    selection: SelectionResult
    merge_run: MergeRun | None
    initial_k: int
    angles: AngleCache
    data: DataSet
    elapsed_ms: float

    @property
    def labels(self) -> np.ndarray:
        return self.selection.labels

    def trace_rows(self) -> list[dict]:
        """Per-K (gamma, zeta, t) rows of the merge trace, largest K first."""
        if self.merge_run is None:
            return []
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
        if self.merge_run is None:
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

    Steps: project points onto the unit sphere, compute all pairwise
    angles, build the initial fine clustering (ally triples, or the
    caller-supplied labels), merge down while recording scores, and select
    the final clustering by the threshold crossing.
    """
    started = time.perf_counter()
    normalized = normalize_rows(data)
    angles = compute_angles(normalized)
    if initial_labels is None:
        clustering = initial_clustering(angles, seed)
    else:
        clustering = Clustering.from_labels(angles, initial_labels)
    initial_k = clustering.k
    if initial_k < 2:
        selection = SelectionResult(
            l_hat=1, labels=np.zeros(data.n_points, dtype=np.int64), crossed=False
        )
        merge_run = None
    else:
        merge_run = run_merging(clustering)
        selection = select_clustering(merge_run)
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    return ClusterRun(
        selection=selection,
        merge_run=merge_run,
        initial_k=initial_k,
        angles=angles,
        data=normalized,
        elapsed_ms=elapsed_ms,
    )
