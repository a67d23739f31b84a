import tracemalloc
from dataclasses import fields

import numpy as np
import pytest

from anglemerge import engine
from anglemerge.engine import (
    _DISTANCE_BLOCK,
    Clustering,
    MergeRun,
    MergeStep,
    _MergeState,
    _row_minima,
    compute_scores,
    distance_matrix,
    initial_clustering,
    merge_step,
    run_merging,
    select_clustering,
    threshold,
)
from anglemerge.errors import DegenerateInputError, TooFewAnglesError
from anglemerge.geometry import DataSet, compute_angles, normalize_rows
from anglemerge.pipeline import cluster_dataset
from anglemerge.stats import bhattacharyya, moments, t_pair
from anglemerge.synthetic import SubspaceSpec, gen_subspace_dependent, gen_subspace_normal
from helpers import traced_peak, unit_sphere_points, unpacked


def make_cache(points):
    return compute_angles(normalize_rows(DataSet(points=np.asarray(points, dtype=float))))


def slot_members(clustering):
    """The point sets of the live slots, in slot order."""
    return [np.flatnonzero(clustering.labels == slot) for slot in clustering.live]


def two_bundle_points():
    """Three near-duplicates of e1 and three of e2 in R^10."""
    dim = 10
    u = np.zeros(dim)
    u[0] = 1.0
    v = np.zeros(dim)
    v[1] = 1.0
    rows = []
    for base in (u, v):
        for k in (3, 5, 7):
            p = base.copy()
            p[k] += 0.01 * (k + 1)
            rows.append(p)
    return np.array(rows)


class TestInitialClustering:
    def test_two_bundles_split_into_pure_triples(self):
        points = two_bundle_points()
        cache = make_cache(points)

        # Independent oracle: brute-force acute angles and nearest allies.
        unit = points / np.linalg.norm(points, axis=1, keepdims=True)
        acute = np.full((6, 6), np.inf)
        for i in range(6):
            for j in range(6):
                if i != j:
                    acute[i, j] = np.arccos(min(abs(float(unit[i] @ unit[j])), 1.0))
        for p in range(6):
            allies = np.argsort(acute[p], kind="stable")[:2]
            assert set(allies) <= ({0, 1, 2} if p < 3 else {3, 4, 5})

        # Both allies of every point stay in its bundle, so every seed must
        # produce the two pure triples.
        for seed in range(5):
            clustering = initial_clustering(cache, seed)
            groups = {frozenset(c.tolist()) for c in slot_members(clustering)}
            assert groups == {frozenset({0, 1, 2}), frozenset({3, 4, 5})}

    def test_three_points_single_cluster(self):
        cache = make_cache(np.array([[1.0, 0.2], [0.5, 1.0], [1.0, 1.0]]))
        clustering = initial_clustering(cache, seed=0)
        assert clustering.k == 1
        assert clustering.labels.tolist() == [0, 0, 0]

    def test_collinear_points_valid_partition(self):
        # All points on one line: every acute angle is ~0, any partition is
        # pure; the contract is a valid partition with >= 3 points each.
        scale = np.linspace(1.0, 2.0, 9)[:, None]
        points = scale * np.array([[1.0, 1.0, 1.0]])
        points[4:] *= -1.0  # antipodal points still have acute angle 0
        cache = make_cache(points)
        clustering = initial_clustering(cache, seed=1)
        assert clustering.labels.shape == (9,)
        sizes = np.bincount(clustering.labels)
        assert sizes.min() >= 3
        assert sizes.tolist() == clustering.sizes.tolist()

    def test_partition_and_min_size_on_random_data(self):
        rng = np.random.default_rng(0)
        cache = make_cache(unit_sphere_points(rng, 97, 12))
        for seed in (0, 1, 2):
            clustering = initial_clustering(cache, seed)
            assert clustering.labels.shape == (97,)
            sizes = np.bincount(clustering.labels)
            assert sizes.min() >= 3
            assert sizes.tolist() == clustering.sizes.tolist()

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(1)
        cache = make_cache(unit_sphere_points(rng, 60, 8))
        a = initial_clustering(cache, seed=7)
        b = initial_clustering(cache, seed=7)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_allies_do_not_view_the_sort_order(self):
        # A view of a block's partial sort would keep that block alive
        # through pass 2 and the grouped sums.
        rng = np.random.default_rng(2)
        cache = make_cache(unit_sphere_points(rng, 40, 6))
        allies = cache.two_nearest()
        assert allies.shape == (40, 2)
        assert allies.base is None

    def test_seeding_peaks_below_half_of_one_angle_matrix(self):
        # One N x N float64 angle matrix is 68.7 MiB at N=3000; the streamed
        # passes work a block of rows at a time and stay far below half of it.
        n_points = 3000
        rng = np.random.default_rng(3)
        data = normalize_rows(DataSet(points=rng.standard_normal((n_points, 20))))
        _, peak = traced_peak(initial_clustering, compute_angles(data), 0)
        assert peak < 8 * n_points**2 / 2

    def test_rejects_tiny_input(self):
        # AngleCache cannot be built for N < 3 through DataSet, so drive the
        # precondition directly.
        with pytest.raises(DegenerateInputError):
            initial_clustering(FakeTiny(), seed=0)


class FakeTiny:
    n_points = 2


def wide_clustering(n_slots=600, emptied=((0, 599), (300, 17), (451, 450))):
    """n_slots slots of 3 random points each, with the given slot pairs
    merged, so that some slots are empty."""
    rng = np.random.default_rng(14)
    cache = make_cache(unit_sphere_points(rng, 3 * n_slots, 8))
    clustering = Clustering.from_labels(cache, np.arange(3 * n_slots) % n_slots)
    for a, b in emptied:
        clustering.merge(a, b)
    return clustering


class TestComputeScores:
    @staticmethod
    def clustering_with_k_groups(n_per_group, n_groups, seed=0, dim=16):
        rng = np.random.default_rng(seed)
        cache = make_cache(unit_sphere_points(rng, n_per_group * n_groups, dim))
        labels = np.repeat(np.arange(n_groups), n_per_group)
        return Clustering.from_labels(cache, labels)

    def test_two_clusters_single_choice(self):
        clustering = self.clustering_with_k_groups(5, 2)
        d = distance_matrix(clustering)
        scores = compute_scores(clustering)
        assert scores.pair in ((0, 1), (1, 0))
        assert scores.gamma == pytest.approx(min(d[0, 1], d[1, 0]))

    @staticmethod
    def scores_of(d):
        """compute_scores' rule on a given d: the row minima, then the
        argmin of eta and that row's partner."""
        eta, partners = _row_minima(d)
        i_star = int(np.argmin(eta))
        return eta, partners, (i_star, int(partners[i_star]))

    def test_matrix_example_argmins(self):
        d = np.array([[np.inf, 0.1, 0.5], [0.2, np.inf, 0.9], [0.5, 0.8, np.inf]])
        eta, _, pair = self.scores_of(d)
        np.testing.assert_allclose(eta, [0.1, 0.2, 0.5])
        assert eta[pair[0]] == pytest.approx(0.1)
        assert pair == (0, 1)

    def test_tie_breaks_to_smallest_partner(self):
        d = np.array([[np.inf, 0.1, 0.1], [0.1, np.inf, 0.9], [0.1, 0.9, np.inf]])
        _, partners, pair = self.scores_of(d)
        assert partners[0] == 1
        assert pair == (0, 1)

    def test_rejects_small_cluster(self):
        rng = np.random.default_rng(3)
        cache = make_cache(unit_sphere_points(rng, 8, 6))
        clustering = Clustering.from_labels(cache, np.array([0, 0, 0, 1, 1, 1, 2, 2]))
        with pytest.raises(TooFewAnglesError):
            compute_scores(clustering)

    def test_distance_matrix_nonnegative_and_asymmetric(self):
        # Clusters with different within-spreads: d[k, l] judges the cross
        # angles against k's own spread, so the matrix cannot be symmetric.
        rng = np.random.default_rng(10)
        tight = unit_sphere_points(rng, 10, 12) * 0.02 + np.eye(12)[0]
        loose = unit_sphere_points(rng, 10, 12)
        cache = make_cache(np.vstack([tight, loose]))
        clustering = Clustering.from_labels(cache, np.repeat([0, 1], 10))
        d = distance_matrix(clustering)
        off_diag = d[~np.eye(2, dtype=bool)]
        assert (off_diag >= 0).all()
        assert d[0, 1] != pytest.approx(d[1, 0], abs=1e-6)

    def test_empty_slots_score_inf_and_are_never_picked(self):
        clustering = self.clustering_with_k_groups(5, 6)
        clustering.merge(0, 3)
        clustering.merge(5, 2)
        live, empty = [0, 1, 2, 4], [3, 5]
        d = distance_matrix(clustering)
        assert np.isinf(d[empty, :]).all() and np.isinf(d[:, empty]).all()
        assert np.isfinite(d[np.ix_(live, live)][~np.eye(4, dtype=bool)]).all()
        scores = compute_scores(clustering)
        assert scores.eta.shape == (6,)
        assert np.isinf(scores.eta[empty]).all()
        assert np.isfinite(scores.eta[live]).all()
        assert set(scores.pair) <= set(live)
        assert set(scores.partners[live].tolist()) <= set(live)
        assert scores.partners[empty].tolist() == [-1, -1]

    def test_distance_matrix_equals_the_one_shot_formula(self):
        # d is built a block of rows at a time; at P=600 that is several
        # blocks, and d must be bitwise the whole-matrix evaluation.
        clustering = wide_clustering()
        n_slots = clustering.sizes.size
        assert _DISTANCE_BLOCK // n_slots < n_slots / 2
        sizes = np.maximum(clustering.sizes, 3).astype(np.float64)
        sums, sumsqs = unpacked(clustering.store, clustering.within_sq)
        mean_w, var_w = moments(np.diagonal(sums), np.diagonal(sumsqs), sizes * (sizes - 1) / 2)
        mean_b, var_b = moments(sums, sumsqs, np.outer(sizes, sizes))
        want = bhattacharyya(mean_w[:, None], var_w[:, None], mean_b, var_b)
        empty = clustering.sizes == 0
        want[empty, :] = want[:, empty] = np.inf
        np.fill_diagonal(want, np.inf)
        assert np.array_equal(distance_matrix(clustering), want)


class TestMemoryContract:
    # One P x P float64 array at P=600 is 2.9 MB; the temporaries of one
    # block of d take about 0.3 of that.
    P_BY_P = 8 * 600**2

    def test_distance_matrix_holds_d_and_one_block(self):
        clustering = wide_clustering()
        _, peak = traced_peak(distance_matrix, clustering)
        assert peak <= 1.5 * self.P_BY_P

    def test_a_clustering_holds_one_p_by_p_array(self):
        # The statistics are one P x P float64 store and a P-vector; the
        # labels of the 3P points and the sizes are O(P) as well.
        rng = np.random.default_rng(14)
        cache = make_cache(unit_sphere_points(rng, 1800, 8))
        labels = np.arange(1800) % 600
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            clustering = Clustering.from_labels(cache, labels)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert clustering.store.shape == (600, 600) and clustering.within_sq.shape == (600,)
        assert held <= self.P_BY_P + 8 * 16 * 600

    def test_run_merging_holds_d_alone(self):
        # run_merging merges its input in place, so of the P x P arrays it
        # adds only d; one block of d's set-up and the loop add O(P). With
        # its input, one P x P store, that is 2 P x P arrays: one block
        # adds about 0.35 of one at P=600.
        clustering = wide_clustering()
        run, peak = traced_peak(run_merging, clustering)
        assert run.initial_k == 597
        assert peak <= 1.5 * self.P_BY_P
        assert clustering.store.nbytes + clustering.within_sq.nbytes + peak <= 2.5 * self.P_BY_P


class TestMergeStep:
    def test_counting_identity_two_triples(self):
        cache = make_cache(two_bundle_points())
        clustering = Clustering.from_labels(cache, np.array([0, 0, 0, 1, 1, 1]))
        merge_step(clustering, (0, 1))
        assert clustering.k == 1
        assert clustering.sizes.tolist() == [6, 0]  # 3 + 3 + 9 = C(6, 2) within angles
        assert clustering.consistency_error(cache) < 1e-12

    def test_incremental_matches_from_scratch(self):
        rng = np.random.default_rng(4)
        cache = make_cache(unit_sphere_points(rng, 60, 10))
        labels = np.repeat(np.arange(12), 5)
        clustering = Clustering.from_labels(cache, labels)
        for _ in range(8):
            a, b = rng.choice(clustering.live, size=2, replace=False)
            merge_step(clustering, (int(a), int(b)))
            assert clustering.consistency_error(cache) < 1e-9

    @staticmethod
    def six_slots_cache():
        return make_cache(unit_sphere_points(np.random.default_rng(11), 36, 8))

    @classmethod
    def six_slots(cls):
        return Clustering.from_labels(cls.six_slots_cache(), np.arange(36) % 6)

    def test_merge_moves_no_other_slot(self):
        clustering = self.six_slots()
        before = clustering.copy()
        store = clustering.store
        assert clustering.merge(4, 1) == 1
        assert clustering.store is store
        others = [0, 2, 3, 5]
        block = np.ix_(others, others)
        relabelled = np.where(before.labels == 4, 1, before.labels)
        np.testing.assert_array_equal(clustering.labels, relabelled)
        for now, then in zip(unpacked(clustering.store, clustering.within_sq),
                             unpacked(before.store, before.within_sq)):
            np.testing.assert_array_equal(now[block], then[block])
            np.testing.assert_array_equal(now[1, others], then[1, others] + then[4, others])
            np.testing.assert_array_equal(now[:, 1], now[1, :])
            assert now[1, 1] == then[1, 1] + (then[4, 4] + then[1, 4])
        assert clustering.sizes.tolist() == [6, 12, 6, 6, 0, 6]
        assert clustering.k == 5
        assert clustering.live.tolist() == [0, 1, 2, 3, 5]

    def test_merging_an_empty_slot_raises(self):
        clustering = self.six_slots()
        clustering.merge(1, 4)
        for pair in ((4, 0), (1, 4), (5, 4)):
            with pytest.raises(DegenerateInputError):
                clustering.merge(*pair)
        assert clustering.sizes.tolist() == [6, 12, 6, 6, 0, 6]

    @pytest.mark.parametrize("pair", [(-1, 0), (0, 6)])
    @pytest.mark.parametrize("merge", [lambda clustering, pair: clustering.merge(*pair),
                                       merge_step], ids=["merge", "merge_step"])
    def test_a_slot_out_of_range_raises_and_changes_nothing(self, merge, pair):
        # merge(-1, 0) must not fold slot 0 into the last slot, and
        # merge(0, P) must not end in a bare IndexError.
        clustering = self.six_slots()
        before = clustering.copy()
        with pytest.raises(DegenerateInputError, match="slots are 0..5"):
            merge(clustering, pair)
        for name in ("labels", "sizes", "store", "within_sq"):
            assert getattr(clustering, name).tobytes() == getattr(before, name).tobytes()

    def test_counts_stay_consistent_through_merges(self):
        rng = np.random.default_rng(5)
        cache = make_cache(unit_sphere_points(rng, 40, 8))
        clustering = Clustering.from_labels(cache, np.arange(40) % 10)
        while clustering.k > 1:
            merge_step(clustering, (0, clustering.k - 1))
            sizes = clustering.sizes
            assert sizes.sum() == 40
            assert sizes.tolist() == np.bincount(clustering.labels, minlength=10).tolist()
            assert clustering.consistency_error(cache) < 1e-9

    def test_consistency_oracle_reads_the_cache_once(self):
        clustering, cache = self.six_slots(), self.six_slots_cache()
        clustering.merge(1, 4)
        reads = cache.reads
        assert clustering.consistency_error(cache) < 1e-12
        assert cache.reads == reads + 1

    # A within statistic (w_) is a diagonal entry, a between one (b_) is
    # not. The store holds the sums on and above its diagonal, the squares
    # below it, and the within squares in within_sq.
    @pytest.mark.parametrize("statistic, entry", [("w_sum", (2, 2)), ("w_sumsq", (0, 0)),
                                                  ("b_sum", (1, 3)), ("b_sumsq", (5, 0))])
    def test_consistency_oracle_catches_a_perturbed_sum(self, statistic, entry):
        # Unmerged, the rebuild reproduces every other entry bitwise, so the
        # oracle returns exactly the scaled entry's relative error.
        clustering, cache = self.six_slots(), self.six_slots_cache()
        values = clustering.within_sq if statistic == "w_sumsq" else clustering.store
        place = entry[0] if statistic == "w_sumsq" else entry
        s, f = values[place], 1.0 + 1e-6
        values[place] = s * f
        error = clustering.consistency_error(cache)
        assert error > 1e-9
        assert error == abs(s * f - s) / max(abs(s), 1.0)
        values[place] = np.nan
        assert np.isnan(clustering.consistency_error(cache))

    def test_consistency_oracle_catches_a_moved_point(self):
        clustering, cache = self.six_slots(), self.six_slots_cache()
        clustering.labels[np.flatnonzero(clustering.labels == 0)[0]] = 3
        assert clustering.consistency_error(cache) == np.inf
        clustering.sizes[[0, 3]] = [5, 7]  # sizes follow, the statistics do not
        assert 1e-9 < clustering.consistency_error(cache) < np.inf

    @pytest.mark.parametrize("fault", ["stale size", "point labelled with an empty slot"])
    def test_consistency_oracle_rejects_a_broken_partition(self, fault):
        clustering, cache = self.six_slots(), self.six_slots_cache()
        if fault == "stale size":
            clustering.sizes[2] += 1
        else:
            # The live slots' sizes match their labels; only the empty slot 4 gains a point.
            clustering.merge(1, 4)
            clustering.labels[np.flatnonzero(clustering.labels == 1)[0]] = 4
            clustering.sizes[1] -= 1
        assert clustering.consistency_error(cache) == np.inf

    def test_rejects_self_merge(self):
        cache = make_cache(two_bundle_points())
        clustering = Clustering.from_labels(cache, np.array([0, 0, 0, 1, 1, 1]))
        with pytest.raises(DegenerateInputError):
            merge_step(clustering, (1, 1))


class TestThreshold:
    def test_known_values(self):
        assert threshold(2) == pytest.approx(1.0)
        assert threshold(101) == pytest.approx(0.1)
        assert threshold(1) == np.inf
        assert threshold(0) == np.inf

    def test_decreasing_in_t(self):
        values = [threshold(t) for t in range(2, 200)]
        assert all(b < a for a, b in zip(values, values[1:]))


def fig_trace_scenario(seed=0):
    """Fully-random model with 6 subspaces of dimension 7 in R^100."""
    data = gen_subspace_normal(SubspaceSpec(n=100, r=7, L=6, N=600, seed=seed))
    cache = compute_angles(normalize_rows(data))
    return data, cache


class TestRunMerging:
    def test_two_cluster_input_single_entry(self):
        cache = make_cache(two_bundle_points())
        clustering = Clustering.from_labels(cache, np.array([0, 0, 0, 1, 1, 1]))
        run = run_merging(clustering)
        assert len(run.steps) == 1
        assert run.steps[0].k == 2
        assert run.initial_k == 2
        np.testing.assert_array_equal(run.labels_at(2), [0, 0, 0, 1, 1, 1])

    def test_labels_at_rejects_a_non_integer_k(self):
        cache = make_cache(two_bundle_points())
        run = run_merging(Clustering.from_labels(cache, np.array([0, 0, 0, 1, 1, 1])))
        for k in (2.5, True, np.bool_(True)):
            with pytest.raises(DegenerateInputError, match="integer"):
                run.labels_at(k)
        np.testing.assert_array_equal(run.labels_at(np.int64(2)), run.labels_at(2))

    def test_labels_at_spans_one_to_initial_k(self):
        # K = 1 replays every record, the K = 2 record's merge included.
        rng = np.random.default_rng(6)
        run = run_merging(initial_clustering(make_cache(unit_sphere_points(rng, 80, 10)), seed=0))
        assert run.initial_k > 2
        ones = run.labels_at(1)
        assert ones.dtype == run.initial_labels.dtype
        assert ones.tolist() == [0] * 80
        np.testing.assert_array_equal(run.labels_at(run.initial_k), run.initial_labels)
        for k in (0, run.initial_k + 1):
            with pytest.raises(DegenerateInputError,
                               match=rf"k must be in \[1, {run.initial_k}\], got {k}"):
                run.labels_at(k)

    def test_trace_shape_and_thresholds(self):
        rng = np.random.default_rng(6)
        cache = make_cache(unit_sphere_points(rng, 80, 10))
        clustering = initial_clustering(cache, seed=0)
        p = clustering.k
        run = run_merging(clustering)
        assert len(run.steps) == p - 1
        assert [s.k for s in run.steps] == list(range(p, 1, -1))
        for step in run.steps:
            assert step.gamma >= 0.0
            assert step.zeta == threshold(step.t)

    def test_t_uses_mergeable_pair_sizes(self):
        data, cache = fig_trace_scenario()
        clustering = initial_clustering(cache, seed=0)
        run = run_merging(clustering)
        # Replay sizes alongside the recorded trace.
        sizes = np.bincount(run.initial_labels).tolist()
        for step in run.steps:
            i_star, j_star = step.pair
            assert step.t == t_pair(sizes[i_star], sizes[j_star])
            p, q = sorted(step.pair)
            sizes[p] += sizes.pop(q)

    def test_deterministic_trace(self):
        data, cache = fig_trace_scenario(seed=3)
        a = run_merging(initial_clustering(cache, seed=5))
        b = run_merging(initial_clustering(cache, seed=5))
        assert len(a.steps) == len(b.steps)
        for sa, sb in zip(a.steps, b.steps):
            assert sa.k == sb.k and sa.pair == sb.pair and sa.t == sb.t
            assert sa.gamma == sb.gamma and sa.zeta == sb.zeta
        np.testing.assert_array_equal(a.initial_labels, b.initial_labels)

    def test_crossing_pattern_on_six_subspaces(self):
        data, cache = fig_trace_scenario()
        run = run_merging(initial_clustering(cache, seed=0))
        by_k = {s.k: s for s in run.steps}
        for k, step in by_k.items():
            if k > 6:
                assert step.gamma <= step.zeta
        assert by_k[6].gamma > by_k[6].zeta

    def test_pure_initial_clusters_merge_same_subspace_first(self):
        data = gen_subspace_normal(SubspaceSpec(n=50, r=5, L=2, N=60, seed=9))
        cache = compute_angles(normalize_rows(data))
        # Two pure clusters per subspace.
        init = np.zeros(60, dtype=int)
        for subspace in (0, 1):
            members = np.where(data.labels == subspace)[0]
            init[members[: len(members) // 2]] = 2 * subspace
            init[members[len(members) // 2 :]] = 2 * subspace + 1
        run = run_merging(Clustering.from_labels(cache, init))
        for step_idx in (0, 1):
            step = run.steps[step_idx]
            labels_now = run.labels_at(step.k)
            members_i = np.where(labels_now == step.pair[0])[0]
            members_j = np.where(labels_now == step.pair[1])[0]
            truth_i = set(data.labels[members_i].tolist())
            truth_j = set(data.labels[members_j].tolist())
            assert len(truth_i) == 1 and truth_i == truth_j

    def test_partition_invariant_at_every_k(self):
        rng = np.random.default_rng(8)
        cache = make_cache(unit_sphere_points(rng, 48, 9))
        clustering = initial_clustering(cache, seed=2)
        run = run_merging(clustering)
        for k in range(2, run.initial_k + 1):
            labels = run.labels_at(k)
            assert labels.shape == (48,)
            ids, counts = np.unique(labels, return_counts=True)
            assert ids.tolist() == list(range(k))
            assert counts.sum() == 48

    def test_single_cluster_gives_an_empty_trace(self):
        cache = make_cache(two_bundle_points())
        clustering = Clustering.from_labels(cache, np.zeros(6, dtype=int))
        run = run_merging(clustering)
        assert run.steps == []
        assert run.initial_k == 1
        assert run.initial_labels.tolist() == [0] * 6
        assert run.labels_at(1).tolist() == [0] * 6
        assert clustering.k == 1

    @pytest.mark.parametrize(
        "generator, seed",
        [(gen_subspace_normal, 0), (gen_subspace_normal, 1),
         (gen_subspace_dependent, 0), (gen_subspace_dependent, 1)],
    )
    def test_refreshed_distance_matches_full_recomputation(self, generator, seed):
        # Replay the merge loop: after every merge the row-and-column refresh
        # must give exactly the live block a from-scratch distance_matrix
        # gives (dead slots' rows and columns are left stale).
        data = generator(SubspaceSpec(n=60, r=6, L=5, N=240, seed=seed))
        work = initial_clustering(compute_angles(normalize_rows(data)), seed=seed)
        state = _MergeState(work)
        while work.k > 2:
            state.merge(*state.pair())
            live = np.ix_(work.live, work.live)
            assert np.array_equal(state.d[live], distance_matrix(work)[live])

    def test_records_match_scores_of_the_compacted_clustering(self):
        # Records number the K live slots 0..K-1 in slot order, as labels_at
        # does; a clustering rebuilt from labels_at(K) must score the same.
        rng = np.random.default_rng(12)
        cache = make_cache(unit_sphere_points(rng, 90, 8))
        run = run_merging(initial_clustering(cache, seed=0))
        for step in run.steps:
            scores = compute_scores(Clustering.from_labels(cache, run.labels_at(step.k)))
            assert scores.pair == step.pair
            assert scores.gamma == pytest.approx(step.gamma, rel=1e-9)

    def test_update_minima_moves_a_tied_row_to_the_smaller_kept_slot(self):
        # Slots of 3, 3, 6 and 6 points, with statistics chosen so that
        # merging slots 0 and 1 gives slot 0 the 0-3 statistics that slot 2
        # has with slot 3: sums 18 + 18 = 36 and squares 22.5 + 22.5 = 45
        # over 36 cross angles. Row 3's cached partner, slot 2, is neither
        # of the merged pair, so row 3 is not rescanned; its new distance
        # to slot 0 ties the cached one bitwise, and argmin's first
        # occurrence takes slot 0.
        store = np.array([[3.0, 18.0, 36.0, 18.0],
                          [37.0, 3.0, 36.0, 18.0],
                          [74.25, 74.25, 15.0, 36.0],
                          [22.5, 22.5, 45.0, 15.0]])
        within_sq = np.array([3.5, 3.5, 18.5, 18.5])
        clustering = Clustering(np.repeat(np.arange(4), [3, 3, 6, 6]), store, within_sq)
        state = _MergeState(clustering)
        assert state.partners[3] == 2 and state.d[3, 2] < state.d[3, 0]
        tied = state.eta[3]
        state.merge(0, 1)
        assert state.d[3, 0] == tied
        assert state.partners[3] == 0 and state.eta[3] == tied
        assert state.eta[1] == np.inf and state.partners[1] == -1
        scores = compute_scores(clustering)
        np.testing.assert_array_equal(state.eta, scores.eta)
        np.testing.assert_array_equal(state.partners, scores.partners)

    def test_steps_hold_only_per_k_scalars(self):
        assert [f.name for f in fields(MergeStep)] == ["k", "gamma", "zeta", "t", "pair"]

    def test_retained_run_is_far_below_one_distance_matrix(self):
        # The run keeps O(1) per K and the initial labels: with P=600 slots
        # that is well under an eighth of one P x P float64 array.
        n_slots = 600
        clustering = wide_clustering(n_slots, emptied=())
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            run = run_merging(clustering)
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(run.steps) == n_slots - 1
        assert kept < 8 * n_slots**2 / 8

    def test_a_merge_rescans_few_rows(self, monkeypatch):
        # The loop's O(P^2) claim, pinned on a count that does not drift
        # with the host: after the first full scan a merge rescans only the
        # kept row and the rows whose partner it merged, about 2 at P=923.
        scanned = []
        row_minima = engine._row_minima

        def counting(rows):
            scanned.append(rows.shape[0])
            return row_minima(rows)

        monkeypatch.setattr(engine, "_row_minima", counting)
        data = gen_subspace_normal(SubspaceSpec(n=100, r=10, L=10, N=4000, seed=0))
        run = cluster_dataset(data, seed=0).merge_run
        merges = len(run.steps) - 1
        assert merges > 900
        assert scanned[0] == run.initial_k and len(scanned) == merges + 1
        assert sum(scanned[1:]) < 4 * merges

    def test_starts_from_a_clustering_with_empty_slots(self):
        rng = np.random.default_rng(13)
        clustering = Clustering.from_labels(make_cache(unit_sphere_points(rng, 40, 8)),
                                            np.arange(40) % 8)
        clustering.merge(6, 2)
        initial = clustering.copy()
        run = run_merging(clustering)
        assert run.initial_k == run.steps[0].k == 7
        labels = run.labels_at(7)
        for rank, slot in enumerate(initial.live):
            np.testing.assert_array_equal(labels == rank, initial.labels == slot)

    def test_merges_its_input_down_to_two_clusters(self):
        # run_merging consumes its input: the clustering it was given ends
        # at K = 2, partitioned as labels_at(2).
        rng = np.random.default_rng(15)
        clustering = Clustering.from_labels(make_cache(unit_sphere_points(rng, 42, 8)),
                                            np.arange(42) % 7)
        run = run_merging(clustering)
        assert run.initial_k == 7
        assert clustering.k == 2
        ranks = np.unique(clustering.labels, return_inverse=True)[1]
        np.testing.assert_array_equal(run.labels_at(2), ranks)


def synthetic_run(gammas, zetas, groups=5):
    """Hand-built MergeRun of 3 points per group with the given per-K scores (K = groups..2)."""
    steps = []
    k = groups
    for idx, (g, z) in enumerate(zip(gammas, zetas)):
        steps.append(MergeStep(k=k, gamma=g, zeta=z, t=2, pair=(0, 1)))
        k -= 1
    return MergeRun(steps=steps, initial_labels=np.repeat(np.arange(groups), 3))


class TestSelectClustering:
    def test_max_crossing_wins(self):
        run = synthetic_run([0.001, 0.002, 0.5, 0.6], [0.1, 0.1, 0.1, 0.1])
        result = select_clustering(run)
        assert result.crossed
        assert result.l_hat == 3
        assert np.unique(result.labels).size == 3

    def test_no_crossing_falls_back_to_one_cluster(self):
        run = synthetic_run([0.01, 0.02, 0.03, 0.04], [0.1, 0.1, 0.1, 0.1])
        result = select_clustering(run)
        assert not result.crossed
        assert result.l_hat == 1
        assert np.unique(result.labels).size == 1

    def test_six_subspace_scenario_selects_six(self):
        data, cache = fig_trace_scenario()
        run = run_merging(initial_clustering(cache, seed=0))
        result = select_clustering(run)
        assert result.crossed
        assert result.l_hat == 6
        # Perfect recovery: predicted partition refines to the truth.
        for cluster_id in range(6):
            truth = data.labels[result.labels == cluster_id]
            assert np.unique(truth).size == 1

    def test_empty_trace_falls_back_to_one_cluster(self):
        run = MergeRun(steps=[], initial_labels=np.zeros(5, dtype=np.int64))
        result = select_clustering(run)
        assert not result.crossed
        assert result.l_hat == 1
        assert result.labels.tolist() == [0] * 5


class TestNoCacheReadsDuringMerge:
    def test_merge_loop_never_touches_cache(self):
        data, cache = fig_trace_scenario(seed=1)
        clustering = initial_clustering(cache, seed=0)
        reads_before = cache.reads
        run = run_merging(clustering)
        select_clustering(run)
        assert cache.reads == reads_before


def merge_then_poison(monkeypatch):
    """Make every merge set the emptied slot's row and column of the store,
    and its within sum of squares, to NaN, so that any later read of them
    shows."""
    merge = Clustering.merge

    def poisoned(self, a, b, out=None):
        kept = merge(self, a, b, out)
        emptied = max(a, b)
        self.store[emptied, :] = self.store[:, emptied] = self.within_sq[emptied] = np.nan
        return kept

    monkeypatch.setattr(Clustering, "merge", poisoned)


class TestStaleSlotsAreNeverRead:
    def test_run_merging_trace_is_unchanged(self, monkeypatch):
        data, cache = fig_trace_scenario(seed=2)
        clustering = initial_clustering(cache, seed=0)
        replay = clustering.copy()
        stale = run_merging(clustering)
        merge_then_poison(monkeypatch)
        poisoned = run_merging(replay)
        assert stale.initial_labels.tobytes() == poisoned.initial_labels.tobytes()
        assert [(s.k, s.gamma.hex(), s.zeta.hex(), s.t, s.pair) for s in stale.steps] == \
               [(s.k, s.gamma.hex(), s.zeta.hex(), s.t, s.pair) for s in poisoned.steps]

    def test_statistics_and_distances_are_unchanged(self, monkeypatch):
        rng = np.random.default_rng(21)
        cache = make_cache(unit_sphere_points(rng, 60, 10))
        stale = Clustering.from_labels(cache, np.arange(60) % 12)
        poisoned = stale.copy()
        merge = Clustering.merge
        merge_then_poison(monkeypatch)
        for _ in range(6):
            a, b = (int(slot) for slot in rng.choice(stale.live, size=2, replace=False))
            merge(stale, a, b)
            poisoned.merge(a, b)
            assert np.isnan(unpacked(poisoned.store, poisoned.within_sq)[0][max(a, b)]).all()
            assert poisoned.consistency_error(cache) < 1e-9
            assert np.array_equal(distance_matrix(poisoned), distance_matrix(stale))
