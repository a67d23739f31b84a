import numpy as np
import pytest

from anglemerge.engine import Clustering
from anglemerge.errors import TooFewAnglesError
from anglemerge.geometry import DataSet, compute_angles
from anglemerge.stats import VAR_FLOOR, bhattacharyya, moments, t_pair

from helpers import unit_sphere_points, unpacked


def moments_of(values):
    values = np.asarray(values, dtype=np.float64)
    return moments(values.sum(), np.square(values).sum(), values.size)


def distance_of(within, between):
    """Distance from the moments of a within-angle set to those of a cross set."""
    return bhattacharyya(*moments_of(within), *moments_of(between))


def circle_clustering(directions, labels):
    """A clustering of unit vectors in the plane at the given directions, so
    that every pairwise angle is a difference of directions."""
    points = np.column_stack([np.cos(directions), np.sin(directions)])
    return Clustering.from_labels(compute_angles(DataSet(points=points)), np.asarray(labels))


class TestMoments:
    def test_three_sample_hand_case(self):
        mean, var = moments_of(np.array([0.1, 0.2, 0.3]))
        assert mean == pytest.approx(0.2, abs=1e-12)
        assert var == pytest.approx(0.01, abs=1e-12)

    def test_zero_variance_clamped_to_floor(self):
        mean, var = moments_of(np.array([0.7, 0.7]))
        assert mean == pytest.approx(0.7)
        assert var == VAR_FLOOR

    def test_elementwise_matches_scalar(self):
        # One call over arrays of statistics gives what per-element calls give.
        rng = np.random.default_rng(7)
        sets = [rng.uniform(0, np.pi, size) for size in (2, 5, 40)]
        mean, var = moments(
            np.array([v.sum() for v in sets]),
            np.array([np.square(v).sum() for v in sets]),
            np.array([float(v.size) for v in sets]),
        )
        for i, values in enumerate(sets):
            assert (mean[i], var[i]) == moments_of(values)

    def test_matches_two_pass_estimates(self):
        # Sufficient statistics must reproduce the textbook two-pass mean
        # and variance on large random angle sets.
        rng = np.random.default_rng(0)
        for size in (10, 1000, 100_000):
            values = rng.uniform(0, np.pi, size)
            mean, var = moments_of(values)
            assert mean == pytest.approx(values.mean(), rel=1e-9)
            assert var == pytest.approx(values.var(ddof=1), rel=1e-9)


class TestBhattacharyya:
    def test_identical_moments_zero(self):
        assert bhattacharyya(0.5, 0.01, 0.5, 0.01) == pytest.approx(0.0, abs=1e-12)

    def test_variance_only_gap(self):
        # Frozen from quarter-log evaluation: ln(1.5625)/4.
        assert bhattacharyya(0.0, 1.0, 0.0, 4.0) == pytest.approx(0.11157177565710488, abs=1e-12)

    def test_mean_only_gap(self):
        assert bhattacharyya(1.0, 1.0, 0.0, 1.0) == pytest.approx(0.125, abs=1e-12)

    def test_non_negative_on_random_moments(self):
        rng = np.random.default_rng(1)
        for _ in range(500):
            a = (rng.uniform(0, np.pi), rng.uniform(1e-6, 1.0))
            b = (rng.uniform(0, np.pi), rng.uniform(1e-6, 1.0))
            assert bhattacharyya(*a, *b) >= 0.0

    def test_monotone_in_mean_gap(self):
        gaps = np.linspace(0.0, 1.5, 25)
        values = [bhattacharyya(1.0, 0.05, 1.0 + g, 0.02) for g in gaps]
        assert all(b > a for a, b in zip(values, values[1:]))


class TestTPair:
    def test_formula_cases(self):
        assert t_pair(10, 7) == 5
        assert t_pair(4, 10) == 2
        assert t_pair(3, 3) == 1

    def test_rejects_empty_cluster(self):
        with pytest.raises(TooFewAnglesError):
            t_pair(0, 5)


class TestAngleSetStats:
    def test_within_three_point_cluster(self):
        # Directions 0, 0.1 and 0.3 in the plane: pairwise angles 0.1, 0.2, 0.3.
        clustering = circle_clustering(np.array([0.0, 0.1, 0.3]), [0, 0, 0])
        assert clustering.sizes.tolist() == [3]
        sums, sumsqs = unpacked(clustering.store, clustering.within_sq)
        assert sums[0, 0] == pytest.approx(0.6, abs=1e-12)
        assert sumsqs[0, 0] == pytest.approx(0.14, abs=1e-12)

    def test_within_counts(self):
        # Counts are implied by the sizes: a singleton has no within angle.
        rng = np.random.default_rng(2)
        cache = compute_angles(DataSet(points=unit_sphere_points(rng, 8, 4)))
        clustering = Clustering.from_labels(cache, np.array([0, 1, 1, 1, 2, 2, 2, 2]))
        assert clustering.sizes.tolist() == [1, 3, 4]
        sums, sumsqs = unpacked(clustering.store, clustering.within_sq)
        assert sums[0, 0] == 0.0 and sumsqs[0, 0] == 0.0
        for k, members in ((1, [1, 2, 3]), (2, [4, 5, 6, 7])):
            values = cache.within_values(np.array(members))
            assert values.size == len(members) * (len(members) - 1) // 2
            assert sums[k, k] == pytest.approx(values.sum(), rel=1e-12)
            assert sumsqs[k, k] == pytest.approx(np.square(values).sum(), rel=1e-12)

    def test_between_counts_and_symmetry(self):
        rng = np.random.default_rng(3)
        cache = compute_angles(DataSet(points=unit_sphere_points(rng, 12, 4)))
        labels = np.array([0, 0, 1, 1, 1, 2, 2, 2, 2, 2, 2, 2])
        clustering = Clustering.from_labels(cache, labels)
        sums, sumsqs = unpacked(clustering.store, clustering.within_sq)
        for matrix in (sums, sumsqs):
            assert np.array_equal(matrix, matrix.T)
        # The diagonal holds the within sums: group 0's one angle.
        within = cache.within_values(np.array([0, 1]))
        assert sums[0, 0] == pytest.approx(within.sum(), rel=1e-12)
        cross = cache.cross_values(np.array([0, 1]), np.array([2, 3, 4]))
        assert cross.size == 6
        assert sums[0, 1] == pytest.approx(cross.sum(), rel=1e-12)
        assert sumsqs[0, 1] == pytest.approx(np.square(cross).sum(), rel=1e-12)

    def test_between_single_points(self):
        clustering = circle_clustering(np.array([0.0, 0.4, np.pi / 2]), [0, 1, 2])
        sums, sumsqs = unpacked(clustering.store, clustering.within_sq)
        assert sums[0, 1] == pytest.approx(0.4, abs=1e-12)
        assert sumsqs[0, 1] == pytest.approx(0.16, abs=1e-12)
        assert np.diagonal(sums).tolist() == [0.0, 0.0, 0.0]


class TestClusterDistance:
    def test_same_population_distance_small(self):
        # Both angle sets drawn from the same Gaussian: the empirical
        # distance should collapse toward zero. Frozen design: the 95th
        # percentile over 1000 seeded draws of 200+200 samples stays
        # below 0.05.
        rng = np.random.default_rng(5)
        values = []
        for _ in range(1000):
            w = rng.normal(np.pi / 2, 0.1, 200)
            b = rng.normal(np.pi / 2, 0.1, 200)
            values.append(distance_of(w, b))
        assert np.quantile(values, 0.95) < 0.05

    def test_subspace_variance_ratio_value(self):
        # Moments that model within-subspace (var 1/98) against
        # cross-subspace (var 1/8) angle spreads; frozen by direct
        # high-precision evaluation.
        d = bhattacharyya(np.pi / 2, 1 / 98, np.pi / 2, 1 / 8)
        assert d == pytest.approx(0.31904370168845896, abs=1e-12)

    def test_asymmetry_is_real(self):
        rng = np.random.default_rng(6)
        w_k = rng.normal(1.0, 0.05, 300)
        w_l = rng.normal(1.2, 0.30, 300)
        b = rng.normal(1.1, 0.10, 300)
        d_kl = distance_of(w_k, b)
        d_lk = distance_of(w_l, b)
        assert d_kl != pytest.approx(d_lk, abs=1e-6)
