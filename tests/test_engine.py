import tracemalloc
from dataclasses import fields

import numpy as np
import pytest

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
    merge_step,
    run_merging,
    select_clustering,
    threshold,
)
from anglemerge.errors import DegenerateInputError, TooFewAnglesError
from anglemerge.geometry import DataSet, compute_angles, normalize_rows
from anglemerge.stats import t_pair
from anglemerge.synthetic import SubspaceSpec, gen_subspace_dependent, gen_subspace_normal
from helpers import unit_sphere_points


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
        tracemalloc.start()
        try:
            initial_clustering(compute_angles(data), seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * n_points**2 / 2

    def test_rejects_tiny_input(self):
        # AngleCache cannot be built for N < 3 through DataSet, so drive the
        # precondition directly.
        with pytest.raises(DegenerateInputError):
            initial_clustering(FakeTiny(), seed=0)


class FakeTiny:
    n_points = 2


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

    def test_matrix_example_argmins(self):
        clustering = self.clustering_with_k_groups(4, 3)
        d = np.array([[np.inf, 0.1, 0.5], [0.2, np.inf, 0.9], [0.5, 0.8, np.inf]])
        scores = compute_scores(clustering, d)
        np.testing.assert_allclose(scores.eta, [0.1, 0.2, 0.5])
        assert scores.gamma == pytest.approx(0.1)
        assert scores.pair == (0, 1)

    def test_tie_breaks_to_smallest_partner(self):
        clustering = self.clustering_with_k_groups(4, 3)
        d = np.array([[np.inf, 0.1, 0.1], [0.1, np.inf, 0.9], [0.1, 0.9, np.inf]])
        scores = compute_scores(clustering, d)
        assert scores.partners[0] == 1
        assert scores.pair == (0, 1)

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
        b_sum = clustering.b_sum
        assert clustering.merge(4, 1) == 1
        assert clustering.b_sum is b_sum
        others = [0, 2, 3, 5]
        block = np.ix_(others, others)
        relabelled = np.where(before.labels == 4, 1, before.labels)
        np.testing.assert_array_equal(clustering.labels, relabelled)
        for name in ("w_sum", "w_sumsq"):
            np.testing.assert_array_equal(getattr(clustering, name)[others],
                                          getattr(before, name)[others])
        for name in ("b_sum", "b_sumsq"):
            now, then = getattr(clustering, name), getattr(before, name)
            np.testing.assert_array_equal(now[block], then[block])
            np.testing.assert_array_equal(now[1, others], then[1, others] + then[4, others])
            np.testing.assert_array_equal(now[:, 1], now[1, :])
            assert not now[4].any() and not now[:, 4].any() and now[1, 1] == 0.0
        assert clustering.w_sum[4] == 0.0 and clustering.w_sumsq[4] == 0.0
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

    @pytest.mark.parametrize("name, entry", [("w_sum", (2,)), ("w_sumsq", (0,)),
                                             ("b_sum", (1, 3)), ("b_sumsq", (5, 0))])
    def test_consistency_oracle_catches_a_perturbed_sum(self, name, entry):
        clustering, cache = self.six_slots(), self.six_slots_cache()
        getattr(clustering, name)[entry] *= 1.0 + 1e-6
        assert clustering.consistency_error(cache) > 1e-9

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

    def test_input_not_mutated(self):
        cache = make_cache(two_bundle_points())
        clustering = Clustering.from_labels(cache, np.array([0, 0, 0, 1, 1, 1]))
        before = clustering.labels.copy()
        run_merging(clustering)
        np.testing.assert_array_equal(clustering.labels, before)
        assert clustering.k == 2

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

    def test_rejects_single_cluster(self):
        cache = make_cache(two_bundle_points())
        clustering = Clustering.from_labels(cache, np.zeros(6, dtype=int))
        with pytest.raises(DegenerateInputError):
            run_merging(clustering)

    @pytest.mark.parametrize(
        "generator, seed",
        [(gen_subspace_normal, 0), (gen_subspace_normal, 1),
         (gen_subspace_dependent, 0), (gen_subspace_dependent, 1)],
    )
    def test_refreshed_distance_matches_full_recomputation(self, generator, seed):
        # Replay the merge loop: after every merge the row-and-column refresh
        # must give exactly the matrix a from-scratch distance_matrix gives.
        data = generator(SubspaceSpec(n=60, r=6, L=5, N=240, seed=seed))
        work = initial_clustering(compute_angles(normalize_rows(data)), seed=seed)
        d = distance_matrix(work)
        while work.k > 2:
            i_star, j_star = compute_scores(work, d).pair
            kept = work.merge(i_star, j_star)
            _refresh_distance(d, work, kept, max(i_star, j_star))
            assert np.array_equal(d, distance_matrix(work))

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
        # Slots 0 and 1 merge into 0. Row 3's cached partner, slot 2, is
        # neither of them, so row 3 is not rescanned; its new distance to
        # slot 0 ties the cached 0.5, and argmin's first occurrence takes 0.
        d = np.array([[np.inf, 0.1, 0.9, 0.7],
                      [0.1, np.inf, 0.9, 0.8],
                      [0.9, 0.9, np.inf, 0.5],
                      [0.7, 0.8, 0.5, np.inf]])
        eta, partners = _row_minima(d)
        assert partners.tolist() == [1, 0, 3, 2]
        d[0, :] = d[:, 0] = [np.inf, np.inf, 0.6, 0.5]
        d[1, :] = d[:, 1] = np.inf
        live = np.array([True, False, True, True])
        _update_minima(d, eta, partners, live, kept=0, emptied=1)
        want_eta, want_partners = _row_minima(d)
        assert partners[3] == 0
        np.testing.assert_array_equal(eta, want_eta)
        np.testing.assert_array_equal(partners[live], want_partners[live])

    def test_steps_hold_only_per_k_scalars(self):
        assert [f.name for f in fields(MergeStep)] == ["k", "gamma", "zeta", "t", "pair"]

    def test_retained_run_is_far_below_one_distance_matrix(self):
        # The run keeps O(1) per K and the initial labels: with P=600 slots
        # that is well under an eighth of one P x P float64 array.
        n_slots = 600
        rng = np.random.default_rng(14)
        cache = make_cache(unit_sphere_points(rng, 3 * n_slots, 8))
        clustering = Clustering.from_labels(cache, np.arange(3 * n_slots) % n_slots)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            run = run_merging(clustering)
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(run.steps) == n_slots - 1
        assert kept < 8 * n_slots**2 / 8

    def test_starts_from_a_clustering_with_empty_slots(self):
        rng = np.random.default_rng(13)
        clustering = Clustering.from_labels(make_cache(unit_sphere_points(rng, 40, 8)),
                                            np.arange(40) % 8)
        clustering.merge(6, 2)
        run = run_merging(clustering)
        assert run.initial_k == run.steps[0].k == 7
        labels = run.labels_at(7)
        for rank, slot in enumerate(clustering.live):
            np.testing.assert_array_equal(labels == rank, clustering.labels == slot)


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

    def test_empty_trace_rejected(self):
        run = MergeRun(steps=[], initial_labels=np.zeros(5, dtype=np.int64))
        with pytest.raises(DegenerateInputError):
            select_clustering(run)


class TestNoCacheReadsDuringMerge:
    def test_merge_loop_never_touches_cache(self):
        data, cache = fig_trace_scenario(seed=1)
        clustering = initial_clustering(cache, seed=0)
        reads_before = cache.reads
        run = run_merging(clustering)
        select_clustering(run)
        assert cache.reads == reads_before
