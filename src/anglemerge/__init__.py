"""Parameter-free subspace clustering by angle-distribution merging.

Cluster high-dimensional points drawn from a union of low-dimensional
subspaces by agglomeratively merging the clusters whose within-cluster and
cross-cluster angle distributions are statistically closest, and selecting
the final number of clusters where the clustering score first exceeds a
sample-size-driven threshold. No number of clusters, no tuning parameters.

Typical use::

    from anglemerge import DataSet, cluster_dataset

    run = cluster_dataset(DataSet(points), seed=0)
    run.labels            # final per-point cluster ids
    run.selection.l_hat   # estimated number of clusters
"""

from .bounds import (
    BoundReport,
    SeparationParams,
    angle_pdf,
    bound_report,
    delta_t,
    epsilon_t,
    t_min,
)
from .engine import (
    Clustering,
    MergeRun,
    MergeStep,
    SelectionResult,
    compute_scores,
    initial_clustering,
    merge_step,
    run_merging,
    select_clustering,
    threshold,
)
from .errors import (
    AngleMergeError,
    DegenerateInputError,
    DomainError,
    NoFiniteSampleSizeError,
    TooFewAnglesError,
    ZeroRowError,
)
from .geometry import AngleCache, DataSet, compute_angles, load_points_csv, normalize_rows
from .metrics import abs_cluster_count_error, clustering_error, nmi
from .pipeline import ClusterRun, cluster_dataset
from .stats import bhattacharyya, moments, t_pair
from .synthetic import (
    DPSpec,
    SubspaceSpec,
    gen_dp,
    gen_subspace_dependent,
    gen_subspace_normal,
    gen_subspace_uniform,
)

__version__ = "0.1.0"

__all__ = [
    "AngleCache",
    "AngleMergeError",
    "BoundReport",
    "ClusterRun",
    "Clustering",
    "DPSpec",
    "DataSet",
    "DegenerateInputError",
    "DomainError",
    "MergeRun",
    "MergeStep",
    "NoFiniteSampleSizeError",
    "SelectionResult",
    "SeparationParams",
    "SubspaceSpec",
    "TooFewAnglesError",
    "ZeroRowError",
    "abs_cluster_count_error",
    "angle_pdf",
    "bhattacharyya",
    "bound_report",
    "cluster_dataset",
    "clustering_error",
    "compute_angles",
    "compute_scores",
    "delta_t",
    "epsilon_t",
    "gen_dp",
    "gen_subspace_dependent",
    "gen_subspace_normal",
    "gen_subspace_uniform",
    "initial_clustering",
    "load_points_csv",
    "merge_step",
    "moments",
    "nmi",
    "normalize_rows",
    "run_merging",
    "select_clustering",
    "t_min",
    "t_pair",
    "threshold",
]
