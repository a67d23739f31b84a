import numpy as np
import pytest

import anglemerge
from anglemerge.errors import DegenerateInputError
from anglemerge.geometry import DataSet
from anglemerge.pipeline import cluster_dataset
from anglemerge.synthetic import SubspaceSpec, gen_subspace_normal
from helpers import run_python, unit_sphere_points


class TestClusterDataset:
    def test_three_point_dataset_degenerates_gracefully(self):
        # The seeding puts all 3 points into one cluster; nothing to merge,
        # so the run reports the no-crossing fallback.
        data = DataSet(points=np.array([[1.0, 0.2], [0.5, 1.0], [1.0, 1.0]]))
        run = cluster_dataset(data, seed=0)
        assert run.initial_k == 1
        assert run.merge_run.steps == []
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

    @pytest.mark.parametrize("seed", [-1, 1.5])
    def test_a_negative_or_non_integer_seed_is_rejected(self, seed):
        # With caller labels too, although the ally seeding never runs.
        data = gen_subspace_normal(SubspaceSpec(n=30, r=3, L=2, N=60, seed=0))
        for init in (None, np.arange(60) // 5):
            with pytest.raises(DegenerateInputError, match="seed must be a non-negative integer"):
                cluster_dataset(data, seed=seed, initial_labels=init)

    @pytest.mark.parametrize("bad", ["nan", "fractional", "inf", "-inf"])
    def test_non_integer_initial_labels_are_rejected(self, bad):
        data = gen_subspace_normal(SubspaceSpec(n=30, r=3, L=2, N=60, seed=0))
        init = {
            "nan": np.full(60, np.nan),
            "fractional": np.arange(60) % 4 + 0.5,
            "inf": np.where(np.arange(60) == 9, np.inf, np.arange(60) % 4),
            "-inf": np.where(np.arange(60) == 9, -np.inf, np.arange(60) % 4),
        }[bad]
        with pytest.raises(DegenerateInputError, match="non-integer label"):
            cluster_dataset(data, seed=0, initial_labels=init)

    def test_integer_valued_float_initial_labels_match_int_labels(self):
        data = gen_subspace_normal(SubspaceSpec(n=60, r=6, L=3, N=150, seed=0))
        init = 3 * data.labels + np.arange(150) % 3  # three pure groups per subspace
        expected = cluster_dataset(data, seed=0, initial_labels=init)
        run = cluster_dataset(data, seed=0, initial_labels=init.astype(np.float64))
        assert expected.selection.crossed and expected.selection.l_hat == 3
        assert (run.selection.l_hat, run.selection.crossed) == (3, True)
        np.testing.assert_array_equal(run.labels, expected.labels)
        for got, want in zip(run.merge_run.steps, expected.merge_run.steps):
            assert (got.k, got.gamma, got.zeta, got.t, got.pair) == (
                want.k, want.gamma, want.zeta, want.t, want.pair)

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

    @pytest.mark.parametrize("seeding", ["allies", "init-labels"])
    def test_the_callers_arrays_are_not_modified(self, seeding):
        # The merge loop merges its clustering in place; that clustering is
        # the pipeline's own, never the caller's points or labels.
        data = gen_subspace_normal(SubspaceSpec(n=40, r=4, L=3, N=150, seed=3))
        init = np.arange(150) % 30 if seeding == "init-labels" else None
        arrays = [data.points, data.labels] + ([] if init is None else [init])
        before = [array.tobytes() for array in arrays]
        run = cluster_dataset(data, seed=0, initial_labels=init)
        assert run.initial_k > 2
        assert [array.tobytes() for array in arrays] == before

    def test_labels_deterministic_across_calls(self):
        rng = np.random.default_rng(3)
        data = DataSet(points=unit_sphere_points(rng, 90, 10))
        a = cluster_dataset(data, seed=4)
        b = cluster_dataset(data, seed=4)
        np.testing.assert_array_equal(a.labels, b.labels)
        assert a.selection.l_hat == b.selection.l_hat


LOADED_SCIPY = "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))"


@pytest.mark.parametrize("entry", [
    "import anglemerge",
    "import anglemerge.cli",
    "from anglemerge import cli; cli.main(['synth', '--model', 'normal', '--n', '20', '--r', '2',"
    " '--l', '2', '--num-points', '30', '--seed', '0', '--out', DIR + '/synth.csv'])",
    "from anglemerge import clustering_error; print(clustering_error([0, 0, 1, 2], [1, 1, 0, 0]))",
    "from anglemerge import cli; cli.main(['eval', '--truth', DIR + '/truth.csv',"
    " '--pred', DIR + '/pred.csv'])",
], ids=["package", "cli", "synth", "clustering-error", "eval"])
def test_entry_point_loads_no_scipy_module(entry, tmp_path):
    # Each scipy module the package uses takes about 0.2 s to load, so it is
    # imported by the function that needs it, not by the package. Scoring
    # needs none: the clustering error matches clusters in numpy.
    (tmp_path / "truth.csv").write_text("0\n0\n1\n1\n2\n")
    (tmp_path / "pred.csv").write_text("1\n1\n0\n2\n2\n")
    out = run_python(f"import sys\nDIR = {str(tmp_path)!r}\n{entry}\n{LOADED_SCIPY}")
    assert out.splitlines()[-1] == "[]"


def test_clustering_loads_scipy_sparse_but_not_scipy_stats():
    # scipy.stats would cost about half a second; the bounds use scipy.special.
    out = run_python(
        "import sys\n"
        "from anglemerge import cluster_dataset\n"
        "from anglemerge.synthetic import SubspaceSpec, gen_subspace_normal\n"
        "cluster_dataset(gen_subspace_normal(SubspaceSpec(n=20, r=2, L=2, N=60, seed=0)), seed=0)\n"
        "print('scipy.sparse' in sys.modules, 'scipy.stats' in sys.modules)"
    )
    assert out == "True False"


@pytest.mark.parametrize("command, clusters", [
    ("cli.main(['synth', '--model', 'normal', '--n', '20', '--r', '2', '--l', '2',"
     " '--num-points', '60', '--seed', '0', '--out', DIR + '/points.csv'])\n"
     "cli.main(['cluster', '--input', DIR + '/points.csv', '--labeled', '--seed', '0',"
     " '--out', DIR + '/run'])", True),
    ("cli.main(['eval', '--truth', DIR + '/truth.csv', '--pred', DIR + '/pred.csv'])", False),
], ids=["cluster-labeled", "eval"])
def test_scoring_loads_neither_scipy_optimize_nor_scipy_stats(command, clusters, tmp_path):
    # The clustering error matches clusters in numpy; scipy.optimize's
    # solver would add about 0.2 s to every scored call, and
    # scipy.sparse.csgraph's 0.07 s. A clustering loads scipy.sparse alone,
    # for the grouped sums.
    (tmp_path / "truth.csv").write_text("0\n0\n1\n1\n2\n")
    (tmp_path / "pred.csv").write_text("1\n1\n0\n2\n2\n")
    out = run_python(
        f"import sys\nfrom anglemerge import cli\nDIR = {str(tmp_path)!r}\n{command}\n"
        "print([m in sys.modules for m in"
        " ('scipy.sparse', 'scipy.sparse.csgraph', 'scipy.optimize', 'scipy.stats')])"
    )
    assert '"ce": ' in out  # the command scored a run
    assert out.splitlines()[-1] == str([clusters, False, False, False])


RUN_HASH = """
import hashlib
from anglemerge import cluster_dataset
from anglemerge.synthetic import SubspaceSpec, gen_subspace_normal
run = cluster_dataset(gen_subspace_normal(SubspaceSpec(n=60, r=6, L=5, N=1000, seed=0)), seed=0)
digest = hashlib.sha256()
for s in run.merge_run.steps:
    digest.update(repr((s.k, float(s.gamma).hex(), float(s.zeta).hex(), s.t, s.pair)).encode())
digest.update(run.merge_run.initial_labels.tobytes())
digest.update(run.labels.tobytes())
print(digest.hexdigest())
"""


def test_results_do_not_depend_on_the_blas_thread_count():
    # Determinism for a given (input, seed) is a contract: the angle passes
    # multiply blocks of rows, and the trace, the initial labels and the
    # labels must not change with how BLAS splits those products.
    one, two = (run_python(RUN_HASH, OPENBLAS_NUM_THREADS=threads) for threads in ("1", "2"))
    assert len(one) == 64
    assert one == two


def test_star_import_resolves_every_export():
    namespace = {}
    exec("from anglemerge import *", namespace)
    assert set(anglemerge.__all__) <= namespace.keys()
    assert all(namespace[name] is getattr(anglemerge, name) for name in anglemerge.__all__)
