import numpy as np
import pytest

from anglemerge.errors import TooFewAnglesError
from anglemerge.geometry import DataSet, compute_angles
from anglemerge.stats import (
    VAR_FLOOR,
    PairStats,
    between_stats,
    bhattacharyya,
    cluster_distance,
    moments,
    t_pair,
    within_stats,
)

from helpers import unit_sphere_points


def moments_of(values):
    stats = PairStats.from_values(values)
    return moments(stats.total, stats.total_sq, stats.count)


class TestMoments:
    def test_three_sample_hand_case(self):
        mean, var = moments_of(np.array([0.1, 0.2, 0.3]))
        assert mean == pytest.approx(0.2, abs=1e-12)
        assert var == pytest.approx(0.01, abs=1e-12)

    def test_zero_variance_clamped_to_floor(self):
        mean, var = moments_of(np.array([0.7, 0.7]))
        assert mean == pytest.approx(0.7)
        assert var == VAR_FLOOR

    def test_single_angle_raises(self):
        within = PairStats.from_values(np.array([0.4, 0.6]))
        with pytest.raises(TooFewAnglesError):
            cluster_distance(within, PairStats.from_values(np.array([0.5])))

    def test_elementwise_matches_scalar(self):
        # One call over arrays of statistics gives what per-element calls give.
        rng = np.random.default_rng(7)
        sets = [rng.uniform(0, np.pi, size) for size in (2, 5, 40)]
        stats = [PairStats.from_values(v) for v in sets]
        mean, var = moments(
            np.array([s.total for s in stats]),
            np.array([s.total_sq for s in stats]),
            np.array([float(s.count) for s in stats]),
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
        # Equilateral-ish construction with known pairwise angles 0.1, 0.2,
        # 0.3 is awkward on a sphere; feed the known values directly.
        stats = PairStats.from_values(np.array([0.1, 0.2, 0.3]))
        assert stats.total == pytest.approx(0.6)
        assert stats.total_sq == pytest.approx(0.14)
        assert stats.count == 3

    def test_within_counts(self):
        rng = np.random.default_rng(2)
        cache = compute_angles(DataSet(points=unit_sphere_points(rng, 12, 4)))
        assert within_stats(np.array([3]), cache).count == 0
        assert within_stats(np.array([0, 1, 2]), cache).count == 3
        assert within_stats(np.array([0, 1, 2, 3]), cache).count == 6

    def test_between_counts_and_symmetry(self):
        rng = np.random.default_rng(3)
        cache = compute_angles(DataSet(points=unit_sphere_points(rng, 12, 4)))
        ab = between_stats(np.array([0, 1]), np.array([2, 3, 4]), cache)
        ba = between_stats(np.array([2, 3, 4]), np.array([0, 1]), cache)
        assert ab.count == 6
        assert ab == ba

    def test_between_single_points(self):
        points = np.array([[1.0, 0.0], [np.cos(0.4), np.sin(0.4)], [0.0, 1.0]])
        cache = compute_angles(DataSet(points=points))
        stats = between_stats(np.array([0]), np.array([1]), cache)
        assert stats.total == pytest.approx(0.4, abs=1e-12)
        assert stats.total_sq == pytest.approx(0.16, abs=1e-12)
        assert stats.count == 1

    def test_additivity_is_exact(self):
        rng = np.random.default_rng(4)
        a = PairStats.from_values(rng.uniform(0, np.pi, 100))
        b = PairStats.from_values(rng.uniform(0, np.pi, 50))
        combined = a + b
        assert combined.count == 150
        assert combined.total == a.total + b.total
        assert combined.total_sq == a.total_sq + b.total_sq


class TestClusterDistance:
    def test_same_population_distance_small(self):
        # Both angle sets drawn from the same Gaussian: the empirical
        # distance should collapse toward zero. Frozen design: the 95th
        # percentile over 1000 seeded draws of 200+200 samples stays
        # below 0.05.
        rng = np.random.default_rng(5)
        values = []
        for _ in range(1000):
            w = PairStats.from_values(rng.normal(np.pi / 2, 0.1, 200))
            b = PairStats.from_values(rng.normal(np.pi / 2, 0.1, 200))
            values.append(cluster_distance(w, b))
        assert np.quantile(values, 0.95) < 0.05

    def test_subspace_variance_ratio_value(self):
        # Moments that model within-subspace (var 1/98) against
        # cross-subspace (var 1/8) angle spreads; frozen by direct
        # high-precision evaluation.
        d = bhattacharyya(np.pi / 2, 1 / 98, np.pi / 2, 1 / 8)
        assert d == pytest.approx(0.31904370168845896, abs=1e-12)

    def test_too_few_within_angles(self):
        w = PairStats.from_values(np.array([0.5]))
        b = PairStats.from_values(np.array([0.4, 0.6]))
        with pytest.raises(TooFewAnglesError):
            cluster_distance(w, b)

    def test_asymmetry_is_real(self):
        rng = np.random.default_rng(6)
        w_k = PairStats.from_values(rng.normal(1.0, 0.05, 300))
        w_l = PairStats.from_values(rng.normal(1.2, 0.30, 300))
        b = PairStats.from_values(rng.normal(1.1, 0.10, 300))
        d_kl = cluster_distance(w_k, b)
        d_lk = cluster_distance(w_l, b)
        assert d_kl != pytest.approx(d_lk, abs=1e-6)
