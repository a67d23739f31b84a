import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import anglemerge
from anglemerge.errors import DegenerateInputError
from anglemerge.geometry import DataSet
from anglemerge.pipeline import cluster_dataset
from anglemerge.synthetic import SubspaceSpec, gen_subspace_normal
from helpers import unit_sphere_points


class TestClusterDataset:
    def test_three_point_dataset_degenerates_gracefully(self):
        # The seeding puts all 3 points into one cluster; nothing to merge,
        # so the run reports the no-crossing fallback.
        data = DataSet(points=np.array([[1.0, 0.2], [0.5, 1.0], [1.0, 1.0]]))
        run = cluster_dataset(data, seed=0)
        assert run.initial_k == 1
        assert run.merge_run is None
        assert not run.selection.crossed
        assert run.selection.l_hat == 1
        assert run.trace_rows() == []
        with pytest.raises(DegenerateInputError):
            run.selected_pair_angle_sets()

    @pytest.mark.parametrize("scale", [1e200, 1e-200, "one row at 1e300"])
    def test_extreme_coordinates_give_the_unscaled_labels(self, scale):
        data = gen_subspace_normal(SubspaceSpec(n=60, r=6, L=3, N=150, seed=0))
        points = data.points.copy()
        if isinstance(scale, str):
            points[17] *= 1e300
        else:
            points *= scale
        expected = cluster_dataset(data, seed=0)
        run = cluster_dataset(DataSet(points=points, labels=data.labels), seed=0)
        assert expected.selection.crossed and expected.selection.l_hat == 3
        assert run.selection.crossed and run.selection.l_hat == 3
        np.testing.assert_array_equal(run.labels, expected.labels)

    def test_supplied_initial_labels_are_used(self):
        data = gen_subspace_normal(SubspaceSpec(n=60, r=6, L=2, N=120, seed=1))
        init = np.arange(120) % 24  # 24 groups of 5, scrambled across subspaces
        run = cluster_dataset(data, seed=0, initial_labels=init)
        assert run.initial_k == 24

    def test_selected_pair_sets_have_expected_sizes(self):
        data = gen_subspace_normal(SubspaceSpec(n=80, r=8, L=3, N=240, seed=2))
        run = cluster_dataset(data, seed=0)
        assert run.selection.crossed
        within, between = run.selected_pair_angle_sets()
        labels = run.labels
        step = run.merge_run.steps[run.merge_run.initial_k - run.selection.l_hat]
        size_i = int((labels == step.pair[0]).sum())
        size_j = int((labels == step.pair[1]).sum())
        assert within.size == size_i * (size_i - 1) // 2
        assert between.size == size_i * size_j

    def test_labels_deterministic_across_calls(self):
        rng = np.random.default_rng(3)
        data = DataSet(points=unit_sphere_points(rng, 90, 10))
        a = cluster_dataset(data, seed=4)
        b = cluster_dataset(data, seed=4)
        np.testing.assert_array_equal(a.labels, b.labels)
        assert a.selection.l_hat == b.selection.l_hat


def test_import_does_not_load_scipy_stats():
    # scipy.stats costs about half a second per import; the package needs
    # only scipy.special and scipy.optimize.
    src = str(Path(anglemerge.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    result = subprocess.run(
        [sys.executable, "-c", "import sys, anglemerge; print('scipy.stats' in sys.modules)"],
        capture_output=True, text=True, env=env, check=True,
    )
    assert result.stdout.strip() == "False"


def test_star_import_resolves_every_export():
    namespace = {}
    exec("from anglemerge import *", namespace)
    assert set(anglemerge.__all__) <= namespace.keys()
    assert all(namespace[name] is getattr(anglemerge, name) for name in anglemerge.__all__)
