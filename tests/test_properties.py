"""Property tests: the O(N^2) seeding passes against brute-force oracles,
and the merge engine's statistics and replay against from-scratch rebuilds."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from anglemerge.engine import Clustering, run_merging
from anglemerge.geometry import DataSet, compute_angles, normalize_rows
from helpers import acute_matrix, angle_oracle, unit_sphere_points

SMALL = settings(max_examples=60, deadline=None)


@st.composite
def point_sets(draw):
    """Random directions plus exact ties: repeated rows and antipodal copies.

    Coordinates are small integers, so many rows share a direction and
    acute angles tie exactly; copies and negated copies of drawn rows add
    more ties at every neighbour rank.
    """
    dim = draw(st.integers(2, 4))
    row = st.lists(st.integers(-2, 2), min_size=dim, max_size=dim).filter(any)
    rows = draw(st.lists(row, min_size=3, max_size=24))
    copies = draw(st.lists(st.tuples(st.integers(0, len(rows) - 1), st.sampled_from([1, -1])),
                           max_size=8))
    rows += [[sign * x for x in rows[i]] for i, sign in copies]
    return np.array(rows, dtype=np.float64)


def assert_two_nearest_matches_stable_sort(points):
    cache = compute_angles(normalize_rows(DataSet(points=points)))
    expected = np.argsort(acute_matrix(cache), axis=1, kind="stable")[:, :2]
    np.testing.assert_array_equal(cache.two_nearest(), expected)


@SMALL
@given(point_sets())
def test_two_nearest_matches_stable_sort(points):
    assert_two_nearest_matches_stable_sort(points)


@SMALL
@given(st.integers(0, 2**32 - 1), st.integers(3, 600))
def test_two_nearest_matches_stable_sort_across_row_blocks(seed, n_points):
    rng = np.random.default_rng(seed)
    points = rng.standard_normal((n_points, 3))
    # A repeated row makes an exact tie wherever it is a nearest neighbour.
    points[rng.integers(n_points)] = points[rng.integers(n_points)]
    assert_two_nearest_matches_stable_sort(points)


@SMALL
@given(st.integers(0, 2**32 - 1), st.integers(3, 25), st.integers(1, 6))
def test_grouped_sums_match_double_loop(seed, n_points, n_groups):
    rng = np.random.default_rng(seed)
    points = rng.standard_normal((n_points, 4))
    assignment = rng.integers(0, n_groups, size=n_points)
    unit = normalize_rows(DataSet(points=points)).points
    sums, sumsqs = compute_angles(DataSet(points=unit)).grouped_sums(assignment, n_groups)

    full = angle_oracle(unit)
    expect_sum = np.zeros((n_groups, n_groups))
    expect_sq = np.zeros((n_groups, n_groups))
    for i in range(n_points):
        for j in range(i + 1, n_points):
            a, b = assignment[i], assignment[j]
            angle = full[i, j]
            for k, l in {(a, b), (b, a)}:
                expect_sum[k, l] += angle
                expect_sq[k, l] += angle**2
    np.testing.assert_allclose(sums, expect_sum, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(sumsqs, expect_sq, rtol=1e-12, atol=1e-12)
    assert np.array_equal(sums, sums.T) and np.array_equal(sumsqs, sumsqs.T)


@st.composite
def small_clusterings(draw):
    """A from_labels clustering of 6 to 40 random points into 2 to 8 groups
    of at least 3 points each, with the labels shuffled over the points."""
    n_groups = draw(st.integers(2, 8))
    n_points = draw(st.integers(3 * n_groups, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cache = compute_angles(DataSet(points=unit_sphere_points(rng, n_points, 5)))
    labels = rng.permutation(np.arange(n_points) % n_groups)
    return Clustering.from_labels(cache, labels), cache, rng


def slot_labels(clustering):
    """Per-point labels numbering the live slots 0..K-1 in slot order."""
    labels = np.empty(clustering.n_points, dtype=np.int64)
    for rank, slot in enumerate(clustering.live):
        labels[clustering.clusters[slot]] = rank
    return labels


@SMALL
@given(small_clusterings())
def test_statistics_stay_consistent_through_any_merges(case):
    clustering, cache, rng = case
    while clustering.k > 1:
        a, b = rng.choice(clustering.live, size=2, replace=False)
        clustering.merge(int(a), int(b))
        assert clustering.consistency_error(cache) < 1e-9


@SMALL
@given(small_clusterings())
def test_labels_at_matches_an_in_place_merge_replay(case):
    clustering, _, _ = case
    run = run_merging(clustering)
    work = clustering.copy()
    for pair in run.merged_pairs:
        np.testing.assert_array_equal(run.labels_at(work.k), slot_labels(work))
        work.merge(*(int(work.live[rank]) for rank in pair))
    assert work.k == 2
    np.testing.assert_array_equal(run.labels_at(2), slot_labels(work))
