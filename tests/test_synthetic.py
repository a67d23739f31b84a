import warnings
from itertools import combinations

import numpy as np
import pytest

from anglemerge import synthetic
from anglemerge.errors import DegenerateInputError
from anglemerge.geometry import DataSet, compute_angles, normalize_rows
from anglemerge.synthetic import (
    DPSpec,
    SubspaceSpec,
    _nonzero_rows,
    gen_dp,
    gen_subspace_dependent,
    gen_subspace_normal,
    gen_subspace_uniform,
)
from helpers import run_python, traced_peak

GENERATORS = {
    "normal": gen_subspace_normal,
    "uniform": gen_subspace_uniform,
    "dependent": gen_subspace_dependent,
}


def membership_residual(data: DataSet) -> float:
    """Worst distance from any normalized point to the span of its own
    cluster's points (rank-r fit by SVD)."""
    normalized = normalize_rows(data)
    worst = 0.0
    for label in np.unique(data.labels):
        block = normalized.points[data.labels == label]
        _, _, vt = np.linalg.svd(block, full_matrices=False)
        rank = np.linalg.matrix_rank(block, tol=1e-8)
        projected = block @ vt[:rank].T @ vt[:rank]
        worst = max(worst, float(np.abs(block - projected).max()))
    return worst


def angle_values(data: DataSet, same_label: bool) -> np.ndarray:
    """All within-label (or all cross-label) angles of the normalized data."""
    cache = compute_angles(normalize_rows(data))
    groups = [np.flatnonzero(data.labels == label) for label in np.unique(data.labels)]
    if same_label:
        return np.concatenate([cache.within_values(g) for g in groups])
    return np.concatenate([cache.cross_values(a, b) for a, b in combinations(groups, 2)])


def stacked_reference(model: str, spec: SubspaceSpec) -> np.ndarray:
    """The points of ``model`` at ``spec``, drawn from the same rng sequence
    as its generator, each subspace's product made on its own and the L
    products stacked with np.vstack."""
    rng = np.random.default_rng(spec.seed)

    def haar(dim):
        return np.linalg.qr(rng.standard_normal((spec.n, dim)))[0]

    pool = haar(spec.n) if model == "dependent" else None
    base, extra = divmod(spec.N, spec.L)
    blocks = []
    for label in range(spec.L):
        count = base + (1 if label < extra else 0)
        if model == "dependent":
            q = pool[:, rng.choice(spec.n, size=spec.r, replace=False)]
        else:
            q = haar(spec.r)
        if model == "normal":
            coef = rng.standard_normal((count, spec.r))
        else:
            coef = rng.uniform(0.0, 1.0, size=(count, spec.r))
        blocks.append(coef @ q.T)
    return np.vstack(blocks)


def dp_reference(spec: DPSpec) -> DataSet:
    """The DP dataset at ``spec`` drawn from the same rng sequence as gen_dp,
    with each round's rows filled as points[bad] = centroids[labels[bad]] +
    noise in a separate points array."""
    rng = np.random.default_rng(spec.seed)
    labels = np.empty(spec.N, dtype=np.int64)
    counts = []
    for i in range(spec.N):
        if i == 0 or rng.uniform() < spec.alpha / (i + spec.alpha):
            labels[i] = len(counts)
            counts.append(1)
        else:
            k = int(rng.choice(len(counts), p=np.asarray(counts, dtype=np.float64) / i))
            labels[i] = k
            counts[k] += 1
    centroids = rng.normal(0.0, spec.rho, size=(len(counts), spec.n))
    points = np.empty((spec.N, spec.n))
    bad = np.ones(spec.N, dtype=bool)
    while bad.any():
        noise = rng.normal(0.0, spec.sigma, size=(int(bad.sum()), spec.n))
        points[bad] = centroids[labels[bad]] + noise
        bad = ~points.any(axis=1)
    return DataSet(points=points, labels=labels)


class ScriptedDPRng:
    """Stands in for gen_dp's rng: every point joins the first cluster, and
    normal() returns the scripted arrays in turn."""

    def __init__(self, normals):
        self.normals = iter(normals)
        self.sizes = []

    def uniform(self):
        return 1.0

    def choice(self, k, p):
        return 0

    def normal(self, loc, scale, size):
        self.sizes.append(size)
        return np.array(next(self.normals), dtype=np.float64)


class TestSpecs:
    def test_subspace_spec_validation(self):
        with pytest.raises(DegenerateInputError):
            SubspaceSpec(n=10, r=10, L=2, N=60)
        with pytest.raises(DegenerateInputError):
            SubspaceSpec(n=10, r=1, L=2, N=60)
        with pytest.raises(DegenerateInputError, match=r"N >= 3L .*, got N=5, L=2$"):
            SubspaceSpec(n=10, r=3, L=2, N=5)

    @pytest.mark.parametrize("field, value", [("n", 10.0), ("r", 3.5), ("L", 2.0), ("N", 20.0),
                                              ("L", True), ("N", np.float64(21))])
    def test_subspace_spec_fields_must_be_integers(self, field, value):
        # A float field would reach numpy as a shape or a count and end in
        # numpy's own TypeError; a bool would read as 0 or 1.
        fields = {"n": 10, "r": 3, "L": 2, "N": 20}
        with pytest.raises(DegenerateInputError, match=f"{field} must be an integer"):
            SubspaceSpec(**{**fields, field: value})
        spec = SubspaceSpec(**{name: np.int64(v) for name, v in fields.items()})
        assert gen_subspace_normal(spec).points.shape == (20, 10)

    @pytest.mark.parametrize("field, value", [("n", 10.0), ("N", 50.0), ("N", True)])
    def test_dp_spec_fields_must_be_integers(self, field, value):
        fields = {"n": 10, "N": 50, "rho": 1.0, "sigma": 1.0}
        with pytest.raises(DegenerateInputError, match=f"{field} must be an integer"):
            DPSpec(**{**fields, field: value})

    def test_dp_spec_validation(self):
        with pytest.raises(DegenerateInputError):
            DPSpec(n=10, N=50, rho=0.0, sigma=1.0)
        with pytest.raises(DegenerateInputError):
            DPSpec(n=10, N=50, rho=1.0, sigma=1.0, alpha=-1.0)
        # A 0-dimensional point has norm 0, so the generator's redraw loop
        # would never end; a negative n reaches numpy as a negative shape.
        for n in (1, 0, -1):
            with pytest.raises(DegenerateInputError, match="n >= 2"):
                DPSpec(n=n, N=50, rho=1.0, sigma=1.0)
        for name in ("rho", "sigma", "alpha"):
            for value in (float("nan"), float("inf"), -float("inf"), 0.0):
                spread = {"rho": 1.0, "sigma": 1.0, "alpha": 1.0, name: value}
                with pytest.raises(DegenerateInputError, match=name):
                    DPSpec(n=10, N=50, **spread)


class TestSubspacePoints:
    @pytest.mark.parametrize("model", GENERATORS)
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("L, N", [(1, 500), (7, 1000)], ids=["one-subspace", "N-mod-L-6"])
    def test_points_equal_the_stacked_products(self, model, seed, L, N):
        spec = SubspaceSpec(n=100, r=10, L=L, N=N, seed=seed)
        got = GENERATORS[model](spec).points
        want = stacked_reference(model, spec)
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("model", GENERATORS)
    @pytest.mark.parametrize("L", [1, 7])
    def test_peak_memory_is_about_one_points_array(self, model, L):
        # The points, one subspace's coefficients (N/L x r) and the bases:
        # 1.14-1.16 N x n arrays at r=10. Stacking per-subspace products
        # held the points twice, 2.14-2.16.
        spec = SubspaceSpec(n=100, r=10, L=L, N=5000, seed=0)
        _, peak = traced_peak(GENERATORS[model], spec)
        assert peak < 1.75 * 8 * spec.N * spec.n

    def test_only_all_zero_coefficient_rows_are_drawn_again(self):
        draws = iter([np.array([[0.0, 0.0], [1e-200, 0.0], [0.0, -1e-320]]),
                      np.array([[2.0, 3.0]])])
        masks = []

        def draw(mask):
            masks.append(mask.tolist())
            return next(draws)

        coef = _nonzero_rows(3, draw)
        np.testing.assert_array_equal(coef, [[2.0, 3.0], [1e-200, 0.0], [0.0, -1e-320]])
        assert masks == [[True, True, True], [True, False, False]]


class TestSubspaceNormal:
    def test_points_lie_in_their_subspaces(self):
        data = gen_subspace_normal(SubspaceSpec(n=100, r=10, L=4, N=1000, seed=0))
        assert membership_residual(data) < 1e-10

    def test_single_subspace_angle_moments(self):
        # One subspace of dimension r: within angles concentrate at pi/2
        # with variance near 1/(r-2). At r=10 the exact density variance is
        # 0.110661 (by quadrature); 1/(r-2) is its Gaussian approximation,
        # good to ~12% here, hence the 20% band.
        r = 10
        data = gen_subspace_normal(SubspaceSpec(n=100, r=r, L=1, N=400, seed=1))
        within = angle_values(data, same_label=True)
        se = within.std() / np.sqrt(within.size)
        assert abs(within.mean() - np.pi / 2) < 4 * se
        assert abs(within.var(ddof=1) - 0.11066147786855753) < 0.005
        assert abs(within.var(ddof=1) - 1 / (r - 2)) < 0.2 / (r - 2)

    def test_cross_subspace_angle_variance(self):
        n = 100
        data = gen_subspace_normal(SubspaceSpec(n=n, r=10, L=4, N=400, seed=2))
        between = angle_values(data, same_label=False)
        assert abs(between.mean() - np.pi / 2) < 0.01
        assert abs(between.var(ddof=1) - 1 / (n - 2)) < 0.15 / (n - 2)

    def test_balanced_labels(self):
        data = gen_subspace_normal(SubspaceSpec(n=20, r=3, L=3, N=100, seed=3))
        _, counts = np.unique(data.labels, return_counts=True)
        assert counts.max() - counts.min() <= 1

    def test_deterministic_and_seed_sensitive(self):
        spec = SubspaceSpec(n=30, r=4, L=2, N=50, seed=11)
        a = gen_subspace_normal(spec)
        b = gen_subspace_normal(SubspaceSpec(n=30, r=4, L=2, N=50, seed=11))
        c = gen_subspace_normal(SubspaceSpec(n=30, r=4, L=2, N=50, seed=12))
        np.testing.assert_array_equal(a.points, b.points)
        assert not np.allclose(a.points, c.points)

    def test_a_negative_seed_is_rejected(self):
        with pytest.raises(DegenerateInputError, match="seed must be a non-negative integer"):
            SubspaceSpec(n=30, r=4, L=2, N=50, seed=-3)


class TestSubspaceUniform:
    def test_points_lie_in_their_subspaces(self):
        data = gen_subspace_uniform(SubspaceSpec(n=100, r=10, L=4, N=800, seed=4))
        assert membership_residual(data) < 1e-10

    def test_within_angles_skew_below_right_angle(self):
        # Uncentered U[0,1] coordinates induce positive correlation; the
        # within-subspace mean angle sits well under pi/2. Regression
        # baseline frozen from this generator at this spec.
        data = gen_subspace_uniform(SubspaceSpec(n=100, r=10, L=1, N=400, seed=5))
        within = angle_values(data, same_label=True)
        assert within.mean() < np.pi / 2 - 0.2
        assert within.mean() == pytest.approx(0.7038, abs=0.03)

    def test_balanced_labels(self):
        data = gen_subspace_uniform(SubspaceSpec(n=20, r=3, L=3, N=101, seed=6))
        _, counts = np.unique(data.labels, return_counts=True)
        assert counts.max() - counts.min() <= 1


class TestSubspaceDependent:
    def test_points_lie_in_their_subspaces(self):
        data = gen_subspace_dependent(SubspaceSpec(n=100, r=10, L=12, N=600, seed=7))
        assert membership_residual(data) < 1e-10

    def test_subspaces_share_pool_vectors(self):
        # 20 draws of 10 from a pool of 100: some pair must share at least
        # one basis vector (200 > 100); verify the generator realizes that
        # across seeds by checking pairwise subspace intersections.
        for seed in range(3):
            data = gen_subspace_dependent(SubspaceSpec(n=100, r=10, L=20, N=600, seed=seed))
            normalized = normalize_rows(data)
            shares = 0
            bases = []
            for label in range(20):
                block = normalized.points[data.labels == label]
                _, _, vt = np.linalg.svd(block, full_matrices=False)
                bases.append(vt[:10])
            for a in range(20):
                for b in range(a + 1, 20):
                    overlap = np.linalg.svd(bases[a] @ bases[b].T, compute_uv=False)
                    shares += int(overlap.max() > 1 - 1e-8)
            assert shares >= 1

    def test_table_regime_generates(self):
        data = gen_subspace_dependent(SubspaceSpec(n=100, r=10, L=12, N=1000, seed=8))
        assert data.n_points == 1000
        assert np.unique(data.labels).size == 12


class TestDirichletProcess:
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("rho, sigma", [(3.0, 1.0), (9.0, 1.0), (1e200, 1.0),
                                            (1e-200, 1e-200)])
    def test_points_equal_the_separate_array_fill(self, rho, sigma, seed):
        spec = DPSpec(n=20, N=300, rho=rho, sigma=sigma, seed=seed)
        got, want = gen_dp(spec), dp_reference(spec)
        assert (got.points.dtype, got.points.shape) == (want.points.dtype, want.points.shape)
        assert got.points.tobytes() == want.points.tobytes()
        assert got.labels.dtype == want.labels.dtype
        assert got.labels.tobytes() == want.labels.tobytes()

    def test_peak_memory_is_about_one_points_array(self):
        # The noise and one chunk of centroids gathered for it: 1.23 N x n
        # arrays. Gathering every point's centroid at once held 2.02.
        spec = DPSpec(n=100, N=5000, rho=5.0, sigma=1.0, seed=0)
        _, peak = traced_peak(gen_dp, spec)
        assert peak < 1.35 * 8 * spec.N * spec.n

    def test_only_all_zero_rows_are_drawn_again(self, monkeypatch):
        # One cluster with centroid (1, 2). The first noise row cancels it
        # exactly, the third leaves a row of norm 2**-52, which is kept.
        rng = ScriptedDPRng([[[1.0, 2.0]],
                             [[-1.0, -2.0], [0.0, 1.0], [-1.0, -2.0 + 2.0**-52]],
                             [[5.0, 5.0]]])
        monkeypatch.setattr(synthetic.np.random, "default_rng", lambda seed: rng)
        data = gen_dp(DPSpec(n=2, N=3, rho=1.0, sigma=1.0))
        np.testing.assert_array_equal(data.points, [[6.0, 7.0], [1.0, 3.0], [0.0, 2.0**-52]])
        np.testing.assert_array_equal(data.labels, [0, 0, 0])
        assert rng.sizes == [(1, 2), (3, 2), (1, 2)]

    def test_tiny_alpha_single_cluster(self):
        data = gen_dp(DPSpec(n=10, N=200, rho=5.0, sigma=1.0, alpha=1e-12, seed=9))
        assert np.unique(data.labels).size == 1

    def test_separation_at_high_spread_ratio(self):
        data = gen_dp(DPSpec(n=100, N=300, rho=9.0, sigma=1.0, alpha=1.0, seed=10))
        if np.unique(data.labels).size < 2:
            pytest.skip("draw produced a single cluster")
        within = angle_values(data, same_label=True)
        between = angle_values(data, same_label=False)
        assert between.mean() - within.mean() > 0.2

    def test_cluster_count_matches_crp_moments(self):
        # Exact CRP oracle: K = sum of independent Bernoulli(alpha/(alpha+i)).
        alpha, n = 1.0, 150
        probs = alpha / (alpha + np.arange(n))
        expected = probs.sum()
        variance = (probs * (1 - probs)).sum()
        seeds = 200
        counts = [
            np.unique(gen_dp(DPSpec(n=5, N=n, rho=3.0, sigma=1.0, alpha=alpha, seed=s)).labels).size
            for s in range(seeds)
        ]
        assert abs(np.mean(counts) - expected) < 3 * np.sqrt(variance / seeds)

    def test_labels_attached_and_points_unnormalized(self):
        data = gen_dp(DPSpec(n=20, N=50, rho=5.0, sigma=1.0, alpha=1.0, seed=11))
        assert data.labels is not None and data.labels.shape == (50,)
        norms = np.linalg.norm(data.points, axis=1)
        assert norms.min() > 0.0
        assert norms.std() > 1e-3  # generation does not normalize

    def test_huge_spread(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            data = gen_dp(DPSpec(n=10, N=60, rho=1e200, sigma=1.0, seed=13))
            assert np.isfinite(data.points).all()
            for rho, sigma in ((1e308, 1.0), (1.0, 1e308), (1e308, 1e308)):
                with pytest.raises(DegenerateInputError, match="rho=.*sigma="):
                    gen_dp(DPSpec(n=10, N=60, rho=rho, sigma=sigma, seed=13))

    def test_tiny_spread_returns_rows_normalize_rows_accepts(self):
        # Every row's squares underflow to 0, but no row is zero. A fresh
        # interpreter with a timeout, so that a generator which draws such
        # rows again forever fails the test instead of hanging the suite.
        out = run_python(
            "import numpy as np\n"
            "from anglemerge.geometry import normalize_rows\n"
            "from anglemerge.synthetic import DPSpec, gen_dp\n"
            "for spread in (1e-200, 1e-320):\n"
            "    data = gen_dp(DPSpec(n=10, N=50, rho=spread, sigma=spread, seed=0))\n"
            "    unit = normalize_rows(data).points\n"
            "    print(np.isfinite(data.points).all() and data.points.any(axis=1).all(),\n"
            "          np.allclose(np.linalg.norm(unit, axis=1), 1.0))\n"
        )
        assert out.split() == ["True"] * 4

    def test_a_negative_seed_is_rejected(self):
        with pytest.raises(DegenerateInputError, match="seed must be a non-negative integer"):
            DPSpec(n=10, N=60, rho=4.0, sigma=1.0, seed=-1)

    def test_deterministic_per_seed(self):
        a = gen_dp(DPSpec(n=10, N=60, rho=4.0, sigma=1.0, alpha=1.0, seed=12))
        b = gen_dp(DPSpec(n=10, N=60, rho=4.0, sigma=1.0, alpha=1.0, seed=12))
        np.testing.assert_array_equal(a.points, b.points)
        np.testing.assert_array_equal(a.labels, b.labels)
