import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from anglemerge import geometry
from anglemerge.engine import Clustering
from anglemerge.errors import DegenerateInputError, ZeroRowError
from anglemerge.geometry import (
    DataSet,
    compute_angles,
    load_points_csv,
    normalize_rows,
    save_points_csv,
)
from helpers import (
    ally_key, angle_oracle, grouped_matrices, traced_peak, unit_sphere_points, unpacked,
)


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
        assert theta(cache, 0, 1) == pytest.approx(0.0, abs=1e-12)
        assert theta(cache, 0, 2) == pytest.approx(np.pi / 2, abs=1e-12)
        assert theta(cache, 0, 3) == pytest.approx(np.pi, abs=1e-12)

    def test_symmetric_queries(self):
        rng = np.random.default_rng(0)
        cache = compute_angles(DataSet(points=unit_sphere_points(rng, 12, 5)))
        for i in range(12):
            for j in range(i + 1, 12):
                assert theta(cache, i, j) == theta(cache, j, i)

    def test_reads_across_row_blocks_match_the_oracle(self):
        # 600 points span three blocks of rows, so (i, j) and (j, i) often
        # come from two different block products.
        rng = np.random.default_rng(14)
        points = unit_sphere_points(rng, 600, 5)
        cache = compute_angles(DataSet(points=points))
        full = angle_oracle(points)
        idx = rng.permutation(600)[:550]
        np.testing.assert_allclose(cache.within_values(idx),
                                   full[np.ix_(idx, idx)][np.triu_indices(550, k=1)],
                                   rtol=0, atol=1e-12)

    def test_range_and_acute_identity(self):
        rng = np.random.default_rng(1)
        cache = compute_angles(DataSet(points=unit_sphere_points(rng, 40, 8)))
        upper = np.triu_indices(40, k=1)
        values = cache.within_values(np.arange(40))
        assert ((0.0 <= values) & (values <= np.pi)).all()
        # The acute angle min(theta, pi - theta) is arccos|x . y|, the fact
        # the ally search ranks by.
        np.testing.assert_allclose(
            np.arccos(np.minimum(-ally_key(cache)[upper], 1.0)),
            np.minimum(values, np.pi - values), rtol=0, atol=1e-12
        )

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

    def test_store_is_the_points_alone(self):
        rng = np.random.default_rng(10)
        n_points, dim = 25, 6
        points = unit_sphere_points(rng, n_points, dim)
        cache = compute_angles(DataSet(points=points))
        arrays = [v for v in vars(cache).values() if isinstance(v, np.ndarray)]
        assert [a.shape for a in arrays] == [(n_points, dim)]
        # With one group per point the grouped sums are theta itself, with
        # an exact zero where a point meets itself.
        store = grouped_matrices(cache, np.arange(n_points), n_points)[0]
        expected = angle_oracle(points)
        np.fill_diagonal(expected, 0.0)
        np.testing.assert_allclose(store, expected, rtol=0, atol=1e-12)
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
        sums, sumsqs = grouped_matrices(cache, assignment, 4)
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

    @pytest.mark.parametrize("labels", [
        np.arange(2051) // 4,
        np.repeat([*range(256), 256, 257], [4] * 256 + [2, 1025]),
    ], ids=["three-row-rest", "two-rows-before-a-long-group"])
    def test_grouped_sums_tiles_equal_the_whole_block_product(self, labels):
        # Under a rule that cut tiles of at most 1024 rows, these labels
        # would leave a tile of 3 rows, or of 2, in a block of several
        # tiles, and OpenBLAS rounds so short a product otherwise than the
        # block's whole one. Tiles of at least _TILE_ROWS rows keep the
        # store bit-identical.
        rng = np.random.default_rng(19)
        cache = compute_angles(DataSet(points=unit_sphere_points(rng, len(labels), 100)))
        n_groups = int(labels.max()) + 1
        tiled = cache.grouped_sums(labels, n_groups)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(geometry, "_TILE_ROWS", len(labels))
            whole = cache.grouped_sums(labels, n_groups)
        assert [a.tobytes() for a in tiled] == [a.tobytes() for a in whole]

    def test_grouped_sums_are_bitwise_symmetric(self):
        # The packed store holds each k-l cross sum once, above its
        # diagonal, and its square once, below it, so d[k, l] and d[l, k]
        # judge the same two numbers; unpacked, the matrices are symmetric.
        rng = np.random.default_rng(9)
        cache = compute_angles(DataSet(points=unit_sphere_points(rng, 36, 7)))
        clustering = Clustering.from_labels(cache, rng.integers(0, 6, size=36))
        for matrix in unpacked(clustering.store, clustering.within_sq):
            assert np.array_equal(matrix, matrix.T)

    @pytest.mark.parametrize("n_groups", [1, 300])
    def test_grouped_sums_are_symmetric_and_match_the_value_sets(self, n_groups):
        # 300 groups span two blocks of rows, the second one partial; 1
        # group is a 1 x 1 result.
        rng = np.random.default_rng(17)
        n_points = 1000
        cache = compute_angles(DataSet(points=unit_sphere_points(rng, n_points, 6)))
        labels = rng.integers(0, n_groups, size=n_points)
        labels[:n_groups] = np.arange(n_groups)
        sums, sumsqs = grouped_matrices(cache, labels, n_groups)
        for matrix in (sums, sumsqs):
            assert matrix.shape == (n_groups, n_groups)
            assert np.array_equal(matrix, matrix.T)
        members = [np.flatnonzero(labels == g) for g in range(n_groups)]
        for g in range(n_groups):
            values = cache.within_values(members[g])
            np.testing.assert_allclose(sums[g, g], values.sum(), rtol=1e-12, atol=0)
            np.testing.assert_allclose(sumsqs[g, g], (values**2).sum(), rtol=1e-12, atol=0)
        for k in sorted({0, 1, 255, 256, 257, n_groups - 1} & set(range(n_groups))):
            for l in range(n_groups):
                if l != k:
                    values = cache.cross_values(members[k], members[l])
                    np.testing.assert_allclose(sums[k, l], values.sum(), rtol=1e-12)
                    np.testing.assert_allclose(sumsqs[k, l], (values**2).sum(), rtol=1e-12)

    def test_two_nearest_holds_one_block(self):
        # Each block of |x . y| is freed before the next product is formed.
        n_points = 3000
        rng = np.random.default_rng(18)
        cache = compute_angles(DataSet(points=unit_sphere_points(rng, n_points, 8)))
        _, peak = traced_peak(cache.two_nearest)
        assert peak <= 1.5 * 8 * geometry._BLOCK * n_points

    @pytest.mark.parametrize("n_points", [600, 3600])
    def test_grouped_sums_hold_their_results_and_one_block(self, n_points):
        # P=600 groups. Besides the one P x P result, the pass holds one
        # tile of a block's angles, fewer than 2 * _TILE_ROWS rows of
        # _BLOCK, and, for its sparse products, two _BLOCK x P arrays; one
        # more such array is slack for the one-hot slices and index arrays.
        # With 1 point per group, one more P x P array would break the
        # limit; with 6, a block's angles against all N - start later rows
        # would (16.1 MB at N=3600, against a limit of 8.7 MB).
        n_groups, block = 600, geometry._BLOCK
        rng = np.random.default_rng(16)
        cache = compute_angles(DataSet(points=unit_sphere_points(rng, n_points, 8)))
        labels = rng.permutation(np.arange(n_points) % n_groups)
        _, peak = traced_peak(cache.grouped_sums, labels, n_groups)
        assert peak <= 8 * (n_groups**2 + block * (2 * geometry._TILE_ROWS + 3 * n_groups))

    def test_read_counter_increments(self):
        rng = np.random.default_rng(8)
        cache = compute_angles(DataSet(points=unit_sphere_points(rng, 6, 3)))
        assert cache.reads == 0
        cache.cross_values(np.array([0]), np.array([1]))
        cache.two_nearest()
        cache.within_values(np.array([0, 1, 2]))
        cache.grouped_sums(np.zeros(6, dtype=np.int64), 1)
        assert cache.reads == 4


# Values at the edges of float64: the smallest subnormal, the largest
# subnormal, the largest finite value, -0.0 and a sum that is not the
# decimal it looks like.
EDGE_FLOATS = [5e-324, -2.225073858507201e-308, 1.7976931348623157e308,
               -1.7976931348623157e308, -0.0, 0.1 + 0.2]
BIGGEST_EXACT_LABEL = 2**53 - 1


def significant_digits(field: str) -> int:
    mantissa = field.lstrip("+-").split("e")[0].replace(".", "")
    return len(mantissa.lstrip("0"))


@st.composite
def csv_datasets(draw):
    n_points, dim = draw(st.integers(3, 8)), draw(st.integers(2, 4))
    value = st.one_of(st.sampled_from(EDGE_FLOATS),
                      st.floats(allow_nan=False, allow_infinity=False))
    points = draw(st.lists(value, min_size=n_points * dim, max_size=n_points * dim))
    label = st.integers(-BIGGEST_EXACT_LABEL, BIGGEST_EXACT_LABEL)
    labels = draw(st.none() | st.lists(label, min_size=n_points, max_size=n_points))
    return DataSet(points=np.reshape(points, (n_points, dim)), labels=labels)


class TestCsv:
    def assert_bitwise_round_trip(self, path, data):
        save_points_csv(path, data)
        loaded = load_points_csv(path, labeled=data.labels is not None)
        assert loaded.points.tobytes() == data.points.tobytes()
        if data.labels is None:
            assert loaded.labels is None
        else:
            assert loaded.labels.dtype == np.int64
            np.testing.assert_array_equal(loaded.labels, data.labels)
        fields = path.read_text().replace("\n", ",").split(",")
        assert max(significant_digits(f) for f in fields if f) <= 17

    def test_round_trip_labeled(self, tmp_path):
        rng = np.random.default_rng(11)
        data = DataSet(points=rng.standard_normal((8, 4)), labels=rng.integers(0, 3, 8))
        self.assert_bitwise_round_trip(tmp_path / "points.csv", data)

    def test_round_trip_unlabeled(self, tmp_path):
        rng = np.random.default_rng(12)
        data = DataSet(points=rng.standard_normal((5, 3)))
        self.assert_bitwise_round_trip(tmp_path / "points.csv", data)

    @given(csv_datasets())
    @example(DataSet(points=np.reshape(EDGE_FLOATS, (3, 2)),
                     labels=[BIGGEST_EXACT_LABEL, -BIGGEST_EXACT_LABEL, 0]))
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_every_finite_double_round_trips_bit_for_bit(self, tmp_path, data):
        # One file name, rewritten by each example.
        self.assert_bitwise_round_trip(tmp_path / "points.csv", data)

    def test_chunks_write_the_one_shot_bytes(self, tmp_path):
        # 2500 rows are three chunks, the last one partial.
        rng = np.random.default_rng(20)
        data = DataSet(points=rng.standard_normal((2500, 3)), labels=rng.integers(-9, 9, 2500))
        save_points_csv(tmp_path / "chunked.csv", data)
        np.savetxt(tmp_path / "whole.csv", np.column_stack((data.points, data.labels)),
                   delimiter=",", fmt="%.17g")
        assert (tmp_path / "chunked.csv").read_bytes() == (tmp_path / "whole.csv").read_bytes()

    def test_a_labeled_save_holds_no_copy_of_the_points(self, tmp_path):
        # One N x (n + 1) copy for the label column would be 1.2 N x n
        # here; a chunk of _CSV_ROWS rows is 0.06.
        n_points, dim = 20000, 5
        rng = np.random.default_rng(21)
        data = DataSet(points=rng.standard_normal((n_points, dim)),
                       labels=rng.integers(0, 9, n_points))
        _, peak = traced_peak(save_points_csv, tmp_path / "points.csv", data)
        assert peak < 0.25 * 8 * n_points * dim

    @pytest.mark.parametrize("labels", [[0, 2**53 + 1, 2**53, 5], [0, -(2**53), 1, 5],
                                        [0, -(2**63), 1, 5]],
                             ids=["above", "below", "int64-min"])
    def test_a_label_a_float_cannot_hold_is_not_saved(self, tmp_path, labels):
        data = DataSet(points=np.ones((4, 2)), labels=labels)
        path = tmp_path / "points.csv"
        with pytest.raises(DegenerateInputError, match="row 1 .*2\\*\\*53"):
            save_points_csv(path, data)
        assert not path.exists()

    def test_a_label_a_float_cannot_hold_is_not_loaded(self, tmp_path):
        path = tmp_path / "points.csv"
        path.write_text("1.0,2.0,0\n2.0,1.0,9007199254740993\n3.0,1.0,2\n1.0,3.0,1\n")
        with pytest.raises(DegenerateInputError, match="row 1 .*2\\*\\*53"):
            load_points_csv(path, labeled=True)

    def test_non_integer_label_column_is_rejected(self, tmp_path):
        path = tmp_path / "points.csv"
        path.write_text("1.0,2.0,0\n2.0,1.0,1\n3.0,1.0,nan\n1.0,3.0,1\n")
        with pytest.raises(DegenerateInputError, match="row 2"):
            load_points_csv(path, labeled=True)

    @pytest.mark.parametrize("text", ["", "\n\n", "# a comment only\n"])
    def test_file_with_no_data_is_a_typed_error(self, tmp_path, text):
        path = tmp_path / "points.csv"
        path.write_text(text)
        with pytest.raises(DegenerateInputError, match="has no data"):
            load_points_csv(path)
