import numpy as np
import pytest

from anglemerge.engine import Clustering
from anglemerge.errors import DegenerateInputError, ZeroRowError
from anglemerge.geometry import (
    DataSet,
    compute_angles,
    load_points_csv,
    normalize_rows,
    save_points_csv,
)
from helpers import acute_matrix, angle_oracle, unit_sphere_points


class TestDataSet:
    def test_rejects_too_few_points(self):
        with pytest.raises(DegenerateInputError):
            DataSet(points=np.ones((2, 5)))

    def test_rejects_ambient_dim_one(self):
        with pytest.raises(DegenerateInputError):
            DataSet(points=np.ones((5, 1)))

    def test_rejects_label_length_mismatch(self):
        with pytest.raises(DegenerateInputError):
            DataSet(points=np.ones((4, 3)), labels=np.array([0, 1]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_coordinates(self, bad):
        points = np.ones((5, 3))
        points[3, 1] = bad
        with pytest.raises(DegenerateInputError, match="row 3"):
            DataSet(points=points)

    @pytest.mark.parametrize("bad", [1.5, np.nan, np.inf, -2.0**70],
                             ids=["fraction", "nan", "inf", "beyond-int64"])
    def test_rejects_non_integer_labels(self, bad):
        labels = np.array([0.0, 1.0, 2.0, 1.0, 0.0])
        labels[3] = bad
        with pytest.raises(DegenerateInputError, match="row 3"):
            DataSet(points=np.ones((5, 3)), labels=labels)

    def test_accepts_integer_valued_float_labels(self):
        data = DataSet(points=np.ones((4, 3)), labels=np.array([0.0, 2.0, -1.0, 2.0]))
        assert data.labels.dtype == np.int64
        assert data.labels.tolist() == [0, 2, -1, 2]


class TestNormalizeRows:
    def test_three_four_five_triangle(self):
        data = DataSet(points=np.array([[3.0, 4.0], [1.0, 0.0], [0.0, 2.0]]))
        out = normalize_rows(data)
        np.testing.assert_allclose(out.points[0], [0.6, 0.8], atol=1e-15)

    def test_unit_row_unchanged(self):
        points = np.zeros((3, 6))
        points[:, 0] = 1.0
        out = normalize_rows(DataSet(points=points))
        np.testing.assert_allclose(out.points, points, atol=1e-15)

    def test_zero_row_raises_with_index(self):
        points = np.ones((4, 3))
        points[2] = 0.0
        with pytest.raises(ZeroRowError) as info:
            normalize_rows(DataSet(points=points))
        assert info.value.row == 2

    @pytest.mark.parametrize("scale", [1e300, 1e200, 1e154, 1e-160, 1e-200, 1e-300])
    def test_extreme_scales_normalize_like_unit_scale(self, scale):
        # Squaring these rows overflows, or underflows into subnormals.
        points = np.random.default_rng(8).standard_normal((6, 40))
        expected = normalize_rows(DataSet(points=points)).points
        out = normalize_rows(DataSet(points=points * scale)).points
        np.testing.assert_allclose(out, expected, rtol=1e-12, atol=1e-15)

    def test_only_an_all_zero_row_is_a_zero_row(self):
        points = np.ones((4, 3))
        points[1] = [5e-324, 0.0, 0.0]  # the smallest subnormal
        np.testing.assert_array_equal(normalize_rows(DataSet(points=points)).points[1],
                                      [1.0, 0.0, 0.0])

    def test_norms_are_one_and_labels_preserved(self):
        rng = np.random.default_rng(7)
        data = DataSet(points=rng.standard_normal((50, 9)), labels=np.arange(50) % 3)
        out = normalize_rows(data)
        np.testing.assert_allclose(np.linalg.norm(out.points, axis=1), 1.0, atol=1e-12)
        np.testing.assert_array_equal(out.labels, data.labels)


def theta(cache, i, j):
    """One angle, read through the public cross-set accessor."""
    return cache.cross_values(np.array([i]), np.array([j]))[0]


class TestComputeAngles:
    def test_identical_orthogonal_antipodal(self):
        points = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
        cache = compute_angles(DataSet(points=points))
        acute = acute_matrix(cache)
        assert theta(cache, 0, 1) == pytest.approx(0.0, abs=1e-12)
        assert acute[0, 1] == pytest.approx(0.0, abs=1e-12)
        assert theta(cache, 0, 2) == pytest.approx(np.pi / 2, abs=1e-12)
        assert acute[0, 2] == pytest.approx(np.pi / 2, abs=1e-12)
        assert theta(cache, 0, 3) == pytest.approx(np.pi, abs=1e-12)
        assert acute[0, 3] == pytest.approx(0.0, abs=1e-12)

    def test_symmetric_queries(self):
        rng = np.random.default_rng(0)
        cache = compute_angles(DataSet(points=unit_sphere_points(rng, 12, 5)))
        for i in range(12):
            for j in range(i + 1, 12):
                assert theta(cache, i, j) == theta(cache, j, i)
        acute = acute_matrix(cache)
        np.testing.assert_array_equal(acute, acute.T)

    def test_range_and_acute_identity(self):
        rng = np.random.default_rng(1)
        cache = compute_angles(DataSet(points=unit_sphere_points(rng, 40, 8)))
        upper = np.triu_indices(40, k=1)
        values = cache.within_values(np.arange(40))
        assert ((0.0 <= values) & (values <= np.pi)).all()
        acute = acute_matrix(cache)
        np.testing.assert_allclose(
            acute[upper], np.minimum(values, np.pi - values), rtol=0, atol=1e-12
        )
        assert np.isposinf(np.diagonal(acute)).all()

    def test_near_parallel_rows_never_nan(self):
        base = np.ones((1, 4)) / 2.0
        points = np.vstack([base, base * (1 + 1e-16), -base, base + 1e-17])
        points /= np.linalg.norm(points, axis=1, keepdims=True)
        cache = compute_angles(DataSet(points=points))
        assert np.isfinite(cache.within_values(np.arange(4))).all()

    def test_uniform_sphere_angle_moments(self):
        # 2000 i.i.d. uniform points on the sphere in R^100: the pairwise
        # angles are pairwise independent, so the i.i.d. standard error for
        # the mean applies exactly; variance should sit near 1/(n-2).
        rng = np.random.default_rng(42)
        n = 100
        points = unit_sphere_points(rng, 2000, n)
        cache = compute_angles(DataSet(points=points))
        values = cache.within_values(np.arange(2000))
        standard_error = values.std() / np.sqrt(values.size)
        assert abs(values.mean() - np.pi / 2) < 3 * standard_error
        assert abs(values.var(ddof=1) - 1 / (n - 2)) < 0.2 / (n - 2)


class TestAngleCacheAccess:
    def test_store_matches_oracle(self):
        rng = np.random.default_rng(3)
        data = DataSet(points=unit_sphere_points(rng, 15, 4))
        cache = compute_angles(data)
        full = angle_oracle(data.points)
        np.testing.assert_allclose(
            cache.within_values(np.arange(15)), full[np.triu_indices(15, k=1)],
            rtol=0, atol=1e-12,
        )

    def test_store_is_one_symmetric_matrix_with_zero_diagonal(self):
        rng = np.random.default_rng(10)
        n_points = 25
        cache = compute_angles(DataSet(points=unit_sphere_points(rng, n_points, 6)))
        arrays = [v for v in vars(cache).values() if isinstance(v, np.ndarray)]
        assert [a.shape for a in arrays] == [(n_points, n_points)]
        # With one group per point the one-hot products are exact and return
        # the store itself (diagonal halved, so zero stays zero).
        store, _ = cache.grouped_sums(np.arange(n_points), n_points)
        np.testing.assert_array_equal(store, store.T)
        np.testing.assert_array_equal(np.diagonal(store), 0.0)

    def test_cross_values_swap_bitwise(self):
        rng = np.random.default_rng(13)
        cache = compute_angles(DataSet(points=unit_sphere_points(rng, 20, 5)))
        a, b = np.array([3, 0, 11, 7]), np.array([19, 2, 5])
        ab = cache.cross_values(a, b)
        ba = cache.cross_values(b, a)
        assert ab.tobytes() == ba.tobytes()

    def test_within_and_cross_values(self):
        rng = np.random.default_rng(4)
        points = unit_sphere_points(rng, 10, 3)
        cache = compute_angles(DataSet(points=points))
        full = angle_oracle(points)
        within = cache.within_values(np.array([1, 4, 7]))
        np.testing.assert_allclose(
            sorted(within), sorted([full[1, 4], full[1, 7], full[4, 7]]), rtol=0, atol=1e-12
        )
        cross = cache.cross_values(np.array([0, 2]), np.array([5, 6, 9]))
        assert cross.size == 6
        np.testing.assert_allclose(
            sorted(cross), sorted(full[np.ix_([0, 2], [5, 6, 9])].ravel()), rtol=0, atol=1e-12
        )

    def test_within_values_singleton_empty(self):
        rng = np.random.default_rng(5)
        cache = compute_angles(DataSet(points=unit_sphere_points(rng, 5, 3)))
        assert cache.within_values(np.array([2])).size == 0

    def test_grouped_sums_match_bruteforce(self):
        rng = np.random.default_rng(6)
        n_points = 30
        points = unit_sphere_points(rng, n_points, 5)
        cache = compute_angles(DataSet(points=points))
        full = angle_oracle(points)
        assignment = rng.integers(0, 4, size=n_points)
        assignment[:4] = np.arange(4)  # every group non-empty
        sums, sumsqs = cache.grouped_sums(assignment, 4)
        expect_sum = np.zeros((4, 4))
        expect_sq = np.zeros((4, 4))
        for i in range(n_points):
            for j in range(i + 1, n_points):
                a, b = assignment[i], assignment[j]
                angle = full[i, j]
                if a == b:
                    expect_sum[a, a] += angle
                    expect_sq[a, a] += angle**2
                else:
                    expect_sum[a, b] += angle
                    expect_sum[b, a] += angle
                    expect_sq[a, b] += angle**2
                    expect_sq[b, a] += angle**2
        np.testing.assert_allclose(sums, expect_sum, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(sumsqs, expect_sq, rtol=1e-12, atol=1e-12)

    def test_grouped_sums_are_bitwise_symmetric(self):
        # The initial distance matrix reads the k-l cross set from both
        # (k, l) and (l, k); they must be the same number.
        rng = np.random.default_rng(9)
        cache = compute_angles(DataSet(points=unit_sphere_points(rng, 36, 7)))
        clustering = Clustering.from_labels(cache, rng.integers(0, 6, size=36))
        assert np.array_equal(clustering.b_sum, clustering.b_sum.T)
        assert np.array_equal(clustering.b_sumsq, clustering.b_sumsq.T)

    def test_read_counter_increments(self):
        rng = np.random.default_rng(8)
        cache = compute_angles(DataSet(points=unit_sphere_points(rng, 6, 3)))
        assert cache.reads == 0
        cache.cross_values(np.array([0]), np.array([1]))
        cache.acute_row(2)
        cache.two_nearest()
        cache.within_values(np.array([0, 1, 2]))
        cache.grouped_sums(np.zeros(6, dtype=np.int64), 1)
        assert cache.reads == 5


class TestCsv:
    def test_round_trip_labeled(self, tmp_path):
        rng = np.random.default_rng(11)
        data = DataSet(points=rng.standard_normal((8, 4)), labels=rng.integers(0, 3, 8))
        path = tmp_path / "points.csv"
        save_points_csv(path, data)
        loaded = load_points_csv(path, labeled=True)
        np.testing.assert_allclose(loaded.points, data.points, rtol=1e-15)
        np.testing.assert_array_equal(loaded.labels, data.labels)

    def test_non_integer_label_column_is_rejected(self, tmp_path):
        path = tmp_path / "points.csv"
        path.write_text("1.0,2.0,0\n2.0,1.0,1\n3.0,1.0,nan\n1.0,3.0,1\n")
        with pytest.raises(DegenerateInputError, match="row 2"):
            load_points_csv(path, labeled=True)

    def test_round_trip_unlabeled(self, tmp_path):
        rng = np.random.default_rng(12)
        data = DataSet(points=rng.standard_normal((5, 3)))
        path = tmp_path / "points.csv"
        save_points_csv(path, data)
        loaded = load_points_csv(path)
        np.testing.assert_allclose(loaded.points, data.points, rtol=1e-15)
        assert loaded.labels is None

    @pytest.mark.parametrize("text", ["", "\n\n", "# a comment only\n"])
    def test_file_with_no_data_is_a_typed_error(self, tmp_path, text):
        path = tmp_path / "points.csv"
        path.write_text(text)
        with pytest.raises(DegenerateInputError, match="has no data"):
            load_points_csv(path)
