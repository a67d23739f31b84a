from itertools import permutations

import numpy as np
import pytest

from anglemerge.errors import DegenerateInputError
from anglemerge.metrics import abs_cluster_count_error, clustering_error, nmi
from anglemerge.pipeline import cluster_dataset
from anglemerge.synthetic import SubspaceSpec, gen_subspace_dependent


def brute_force_ce(truth, pred):
    """Oracle: exhaustive search over one-one relabelings of the larger
    label set onto slots that include every label of the smaller one."""
    truth = np.asarray(truth)
    pred = np.asarray(pred)
    n_true = truth.max() + 1
    n_pred = pred.max() + 1
    side = max(n_true, n_pred)
    best = 0
    for perm in permutations(range(side), int(n_pred)):
        mapped = np.array([perm[p] for p in pred])
        best = max(best, int((mapped == truth).sum()))
    return 1.0 - best / truth.size


class TestClusteringError:
    def test_exact_match_is_zero(self):
        labels = np.array([0, 0, 1, 1, 2])
        assert clustering_error(labels, labels) == 0.0

    def test_permuted_ids_are_free(self):
        truth = np.array([0, 0, 1, 1, 2, 2])
        pred = np.array([2, 2, 0, 0, 1, 1])
        assert clustering_error(truth, pred) == 0.0

    def test_single_flip_quarter_error(self):
        assert clustering_error([0, 0, 1, 1], [0, 1, 1, 1]) == pytest.approx(0.25)

    def test_excess_predicted_clusters_count_as_errors(self):
        truth = np.array([0, 0, 0, 0, 1, 1, 1, 1])
        pred = np.array([0, 0, 0, 2, 1, 1, 1, 3])
        assert clustering_error(truth, pred) == pytest.approx(0.25)

    def test_matches_brute_force_on_random_pairs(self):
        rng = np.random.default_rng(0)
        for trial in range(100):
            n_true = int(rng.integers(1, 6))
            n_pred = int(rng.integers(1, 6))
            size = int(rng.integers(4, 30))
            truth = rng.integers(0, n_true, size)
            pred = rng.integers(0, n_pred, size)
            assert clustering_error(truth, pred) == pytest.approx(
                brute_force_ce(*_densify(truth, pred)), abs=1e-12
            ), f"trial {trial}"

    @pytest.mark.parametrize("shape", ["random", "one-row", "one-column", "ties", "fine"])
    def test_matches_linear_sum_assignment_beyond_brute_force(self, shape):
        # The dense Hungarian solver on the zero-padded square table is the
        # oracle for the program's own matching.
        from scipy.optimize import linear_sum_assignment

        for trial, (truth, pred) in enumerate(_label_pairs(shape)):
            t, p = _densify(truth, pred)
            table = np.zeros((p.max() + 1, t.max() + 1), dtype=np.int64)
            np.add.at(table, (p, t), 1)
            padded = np.zeros((max(table.shape),) * 2, dtype=np.int64)
            padded[: table.shape[0], : table.shape[1]] = table
            rows, cols = linear_sum_assignment(padded, maximize=True)
            expected = 1.0 - padded[rows, cols].sum() / truth.size
            assert clustering_error(truth, pred) == expected, f"trial {trial}"
            assert clustering_error(pred, truth) == expected, f"trial {trial}"

    def test_invariant_to_relabeling_both_sides(self):
        rng = np.random.default_rng(1)
        truth = rng.integers(0, 4, 40)
        pred = rng.integers(0, 3, 40)
        base = clustering_error(truth, pred)
        shuffled_truth = (truth * 7 + 3) % 11  # injective remap
        shuffled_pred = (pred + 5) * 2
        assert clustering_error(shuffled_truth, shuffled_pred) == pytest.approx(base)

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(DegenerateInputError):
            clustering_error([0, 1], [0, 1, 2])


def _densify(truth, pred):
    _, t = np.unique(truth, return_inverse=True)
    _, p = np.unique(pred, return_inverse=True)
    return t, p


def _label_pairs(shape):
    """(truth, pred) label pairs whose confusion tables have one shape."""
    if shape == "fine":
        # Two seedings of one input: about 130 initial clusters a side, most
        # of them splitting one another's points.
        data = gen_subspace_dependent(SubspaceSpec(n=100, r=10, L=12, N=600, seed=0))
        yield tuple(cluster_dataset(data, seed=seed).merge_run.initial_labels
                    for seed in (0, 1))
        return
    rng = np.random.default_rng(
        {"random": 4, "one-row": 5, "one-column": 6, "ties": 7}[shape])
    for _ in range(60):
        if shape == "ties":
            # Counts of 0, 1 or 2, so that many matchings share the optimum.
            table = rng.integers(0, 3, tuple(rng.integers(1, 61, 2)))
            table[0, 0] = max(table[0, 0], 1)
            pred, truth = np.nonzero(table)
            yield np.repeat(truth, table[pred, truth]), np.repeat(pred, table[pred, truth])
            continue
        size = int(rng.integers(1, 400))
        n_true, n_pred = (int(v) for v in rng.integers(1, 61, 2))
        if shape == "one-row":
            n_pred = 1
        elif shape == "one-column":
            n_true = 1
        yield rng.integers(0, n_true, size), rng.integers(0, n_pred, size)


class TestNmi:
    def test_exact_match_nontrivial_is_one(self):
        labels = np.array([0, 0, 1, 1, 2])
        assert nmi(labels, labels) == pytest.approx(1.0)

    def test_independent_partitions_zero(self):
        assert nmi([0, 0, 1, 1], [0, 1, 0, 1]) == pytest.approx(0.0, abs=1e-12)

    def test_hand_computed_value(self):
        # Frozen from a 40-digit plug-in entropy computation.
        assert nmi([0, 0, 1, 1], [0, 0, 0, 1]) == pytest.approx(
            0.3437110184854508, abs=1e-12
        )

    def test_symmetric(self):
        rng = np.random.default_rng(2)
        truth = rng.integers(0, 4, 60)
        pred = rng.integers(0, 5, 60)
        assert nmi(truth, pred) == pytest.approx(nmi(pred, truth), abs=1e-12)

    def test_bounded_unit_interval(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            truth = rng.integers(0, 5, 30)
            pred = rng.integers(0, 5, 30)
            value = nmi(truth, pred)
            assert -1e-12 <= value <= 1 + 1e-12

    def test_a_relabelled_partition_is_exactly_one(self):
        # Summed in any other order, the three entropies of a perfect
        # clustering can differ in their last bits and read above 1.
        rng = np.random.default_rng(4)
        for _ in range(300):
            k = int(rng.integers(2, 12))
            truth = rng.integers(0, k, int(rng.integers(3, 400)))
            relabelled = rng.permutation(k + 3)[truth]
            assert nmi(truth, relabelled) == 1.0
            noisy = np.where(rng.random(truth.size) < 0.3, rng.integers(0, k, truth.size),
                             relabelled)
            value = nmi(truth, noisy)
            assert 0.0 <= value <= 1.0
            assert value == nmi(noisy, truth)

    def test_both_trivial_defined_as_one(self):
        assert nmi([0, 0, 0], [1, 1, 1]) == 1.0

    def test_one_sided_trivial_is_zero(self):
        assert nmi([0, 0, 0, 0], [0, 1, 2, 3]) == 0.0


class TestAbsClusterCountError:
    def test_values(self):
        assert abs_cluster_count_error(6, 6) == 0
        assert abs_cluster_count_error(5, 6) == 1
        assert abs_cluster_count_error(6, 5) == 1
