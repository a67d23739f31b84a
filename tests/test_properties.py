"""Property tests: the O(N^2) seeding passes against brute-force oracles,
the merge engine's statistics, replay and cached scores against
from-scratch rebuilds, the selection rule on arbitrary traces, the
metrics' invariance to renamed labels, and the pipeline's typed-error and
determinism contract on arbitrary finite inputs."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from anglemerge import geometry
from anglemerge.engine import (
    Clustering,
    MergeRun,
    MergeStep,
    _refresh_distance,
    _row_minima,
    _update_minima,
    compute_scores,
    distance_matrix,
    initial_clustering,
    run_merging,
    select_clustering,
)
from anglemerge.errors import AngleMergeError
from anglemerge.geometry import DataSet, compute_angles, normalize_rows
from anglemerge.metrics import clustering_error, nmi
from anglemerge.pipeline import cluster_dataset
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
    # Up to five copies of each of two rows, in any block: exact, negated or
    # one ulp off. They tie exactly or nearly wherever they are neighbours,
    # and in each other's rows at every rank up to the fourth.
    for source in rng.integers(n_points, size=2):
        for target in rng.integers(n_points, size=rng.integers(1, 6)):
            points[target] = points[source] * rng.choice([1.0, -1.0])
            if rng.random() < 0.5:
                points[target, 0] = np.nextafter(points[target, 0], np.inf)
    assert_two_nearest_matches_stable_sort(points)


def test_two_nearest_sorts_a_tied_row_whole(monkeypatch):
    # Point 0 and four copies of it, exact, negated or rescaled: each of
    # these five rows has its third and fourth largest |x . y| tied at 1.
    rng = np.random.default_rng(21)
    points = rng.standard_normal((12, 3))
    copies = [3, 5, 8, 11]
    points[copies] = points[0] * np.array([[1.0], [-1.0], [3.0], [-0.5]])
    cache = compute_angles(normalize_rows(DataSet(points=points)))
    expected = np.argsort(acute_matrix(cache), axis=1, kind="stable")[:, :2]
    whole = []
    acute_row = geometry._acute_row
    monkeypatch.setattr(geometry, "_acute_row", lambda row, i: whole.append(i) or acute_row(row, i))
    np.testing.assert_array_equal(cache.two_nearest(), expected)
    assert set(whole) >= {0, *copies}


@pytest.mark.parametrize("n_points", [3, 4])
def test_two_nearest_with_fewer_than_four_other_points(n_points):
    rng = np.random.default_rng(n_points)
    assert_two_nearest_matches_stable_sort(rng.standard_normal((n_points, 3)))


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


@SMALL
@given(st.integers(0, 2**32 - 1), st.integers(3, 600), st.integers(1, 40))
def test_grouped_sums_match_the_oracle_across_row_blocks(seed, n_points, n_groups):
    # Up to 600 points: the upper-triangle pass crosses up to two block
    # boundaries, and blocks pair with every block after them.
    rng = np.random.default_rng(seed)
    unit = unit_sphere_points(rng, n_points, 5)
    assignment = rng.integers(0, n_groups, size=n_points)
    sums, sumsqs = compute_angles(DataSet(points=unit)).grouped_sums(assignment, n_groups)

    i, j = np.triu_indices(n_points, k=1)
    a, b = assignment[i], assignment[j]
    cross = a != b
    angles = angle_oracle(unit)[i, j]
    for got, values in ((sums, angles), (sumsqs, angles**2)):
        expected = np.zeros((n_groups, n_groups))
        np.add.at(expected, (a, b), values)
        np.add.at(expected, (b[cross], a[cross]), values[cross])
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-12)
        assert np.array_equal(got, got.T)


@SMALL
@given(st.integers(0, 2**32 - 1), st.integers(3, 600), st.integers(1, 40),
       st.sampled_from(["sorted", "reversed", "empty groups"]))
def test_grouped_sums_do_not_depend_on_point_order(seed, n_points, n_groups, kind):
    # The pass sums the points in group order; moving the points and their
    # labels together only changes the order of additions within a group.
    rng = np.random.default_rng(seed)
    unit = unit_sphere_points(rng, n_points, 5)
    assignment = np.sort(rng.integers(0, n_groups, size=n_points))
    if kind == "reversed":
        assignment = assignment[::-1].copy()
    elif kind == "empty groups":
        assignment, n_groups = 2 * assignment, 2 * n_groups + 3
    perm = rng.permutation(n_points)
    sums = compute_angles(DataSet(points=unit)).grouped_sums(assignment, n_groups)
    moved = compute_angles(DataSet(points=unit[perm])).grouped_sums(assignment[perm], n_groups)
    empty = np.setdiff1d(np.arange(n_groups), assignment)
    for got, again in zip(sums, moved):
        np.testing.assert_allclose(again, got, rtol=1e-12, atol=1e-12)
        assert np.array_equal(got, got.T) and np.array_equal(again, again.T)
        assert not got[empty].any() and not again[empty].any()


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
    for step in run.steps:
        # The live slots' ranks in slot order, found independently of labels_at.
        ranks = np.unique(work.labels, return_inverse=True)[1]
        np.testing.assert_array_equal(run.labels_at(work.k), ranks)
        if work.k > 2:
            work.merge(*(int(work.live[rank]) for rank in step.pair))
    assert work.k == 2


def grid_cache(groups):
    points = np.array([point for group in groups for point in group], dtype=np.float64)
    return compute_angles(normalize_rows(DataSet(points=points)))


def group_clustering(groups):
    """The clustering whose slots are the given groups of grid rows."""
    sizes = [len(group) for group in groups]
    return Clustering.from_labels(grid_cache(groups), np.repeat(np.arange(len(groups)), sizes))


@st.composite
def tied_clusterings(draw):
    """Clusterings whose distance matrices tie exactly.

    Points are small-integer grid rows, so many angles coincide, and the
    groups are followed by copies of some of them in shuffled slot order.
    A copy scores exactly like its original, so the same union of groups
    can form twice, the second time in a smaller slot. The slots are either
    the groups or the ally seeding of the points.
    """
    dim = draw(st.integers(2, 4))
    row = st.lists(st.integers(-2, 2), min_size=dim, max_size=dim).filter(any)
    groups = draw(st.lists(st.lists(row, min_size=3, max_size=5), min_size=2, max_size=6))
    copies = draw(st.permutations(range(len(groups))))[: draw(st.integers(0, len(groups)))]
    groups += [groups[i] for i in copies]
    if draw(st.booleans()):
        return initial_clustering(grid_cache(groups), seed=draw(st.integers(0, 2**32 - 1)))
    return group_clustering(groups)


@SMALL
@given(st.one_of(tied_clusterings(), small_clusterings().map(lambda case: case[0])))
def test_cached_scores_equal_one_shot_scores_at_every_k(clustering):
    # Replay the loop's cached row minima beside run_merging, and check them
    # whole against a full compute_scores scan at every K: each step's gamma
    # and pair must be the replay's, bit for bit.
    assume(clustering.k >= 2)
    run = run_merging(clustering)
    work = clustering.copy()
    d = distance_matrix(work)
    eta, partners = _row_minima(d)
    for step in run.steps:
        scores = compute_scores(work, d)
        live = work.live
        rank = np.cumsum(work.sizes > 0) - 1
        assert np.array_equal(eta, scores.eta)
        assert np.array_equal(partners[live], scores.partners[live])
        assert step.k == live.size
        assert np.array_equal(step.gamma, scores.gamma)
        assert step.pair == tuple(int(rank[slot]) for slot in scores.pair)
        if work.k > 2:
            kept = work.merge(*scores.pair)
            emptied = max(scores.pair)
            _refresh_distance(d, work, kept, emptied)
            _update_minima(d, eta, partners, work.sizes > 0, kept, emptied)
    assert work.k == 2


@st.composite
def finite_inputs(draw):
    """Any finite points (3 to 40 of them, in 2 to 5 dimensions, at scale
    1 or 10^+-150), a seed, and sometimes random initial labels."""
    n_points, dim = draw(st.integers(3, 40)), draw(st.integers(2, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["gaussian", "grid", "identical", "half-duplicated",
                                 "half-antipodal"]))
    if kind == "grid":
        points = rng.integers(-2, 3, size=(n_points, dim)).astype(np.float64)
    elif kind == "identical":
        points = np.tile(rng.standard_normal(dim), (n_points, 1))
    else:
        points = rng.standard_normal((n_points, dim))
        half = n_points // 2
        if kind == "half-duplicated":
            points[half:2 * half] = points[:half]
        elif kind == "half-antipodal":
            points[half:2 * half] = -points[:half]
    points *= 10.0 ** draw(st.sampled_from([0, 150, -150]))
    labels = None
    if draw(st.booleans()):
        labels = rng.integers(0, draw(st.integers(1, 6)), size=n_points)
    return points, labels, draw(st.integers(0, 2**32 - 1))


def cluster_or_error(points, labels, seed):
    try:
        return cluster_dataset(DataSet(points=points), seed=seed, initial_labels=labels)
    except AngleMergeError as err:
        return err


@SMALL
@given(finite_inputs())
def test_any_finite_input_returns_or_raises_a_typed_error_deterministically(case):
    # Warnings are errors under pytest, so a NaN or overflow on the way
    # fails here too rather than passing as a result.
    first, second = cluster_or_error(*case), cluster_or_error(*case)
    if isinstance(first, AngleMergeError):
        assert type(second) is type(first) and str(second) == str(first)
        return
    assert np.array_equal(first.labels, second.labels)
    assert (first.selection.l_hat, first.selection.crossed, first.initial_k) == (
        second.selection.l_hat, second.selection.crossed, second.initial_k)
    if first.merge_run is None:
        assert second.merge_run is None
        return
    assert np.array_equal(first.merge_run.initial_labels, second.merge_run.initial_labels)
    assert len(first.merge_run.steps) == len(second.merge_run.steps)
    for a, b in zip(first.merge_run.steps, second.merge_run.steps):
        assert (a.k, a.t, a.pair) == (b.k, b.t, b.pair)
        assert np.array_equal([a.gamma, a.zeta], [b.gamma, b.zeta])


@st.composite
def merge_traces(draw):
    """A merge run of 2 to 12 initial clusters whose gamma and zeta come
    from a few values, so that gamma == zeta (no crossing) occurs often."""
    initial_k = draw(st.integers(2, 12))
    level = st.sampled_from([0.0, 0.1, 0.25, 0.5])
    steps = [
        MergeStep(k=k, gamma=draw(level), zeta=draw(level), t=k + 1, pair=(0, 1))
        for k in range(initial_k, 1, -1)
    ]
    initial_labels = np.array(draw(st.permutations(range(initial_k))) * 3)
    return MergeRun(steps=steps, initial_labels=initial_labels)


@SMALL
@given(merge_traces())
def test_selection_is_the_largest_crossing_k(run):
    crossing = [step.k for step in run.steps if step.gamma > step.zeta]
    selection = select_clustering(run)
    assert selection.crossed == bool(crossing)
    assert selection.l_hat == max(crossing, default=1)
    np.testing.assert_array_equal(selection.labels, run.labels_at(selection.l_hat))


@st.composite
def labelings(draw):
    """Two labelings of the same points and an injective renaming of each."""
    size = draw(st.integers(1, 40))
    labeling = st.lists(st.integers(0, 5), min_size=size, max_size=size)
    truth, pred = np.array(draw(labeling)), np.array(draw(labeling))
    names = st.lists(st.integers(-10**9, 10**9), min_size=6, max_size=6, unique=True)
    return truth, pred, np.array(draw(names)), np.array(draw(names))


@SMALL
@given(labelings())
def test_metrics_ignore_renamed_labels(case):
    truth, pred, truth_names, pred_names = case
    for metric in (clustering_error, nmi):
        base = metric(truth, pred)
        assert metric(truth_names[truth], pred) == pytest.approx(base, abs=1e-12)
        assert metric(truth, pred_names[pred]) == pytest.approx(base, abs=1e-12)
