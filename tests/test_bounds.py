import math

import mpmath as mp
import numpy as np
import pytest
from scipy import integrate, stats

from anglemerge.bounds import (
    SeparationParams,
    alpha_t,
    angle_pdf,
    beta_prime_cdf,
    bound_report,
    chi2_cdf,
    delta_t,
    epsilon_t,
    noncentral_chi2_cdf,
    psi,
    reg_inc_beta,
    reg_inc_gamma_p,
    t_min,
)
from anglemerge.errors import DomainError, NoFiniteSampleSizeError

mp.mp.dps = 30


class TestIncompleteBeta:
    def test_uniform_cdf(self):
        assert reg_inc_beta(0.5, 1.0, 1.0) == pytest.approx(0.5, abs=1e-12)

    def test_boundaries(self):
        assert reg_inc_beta(0.0, 2.5, 3.5) == 0.0
        assert reg_inc_beta(1.0, 2.5, 3.5) == 1.0

    def test_against_high_precision_oracle(self):
        # 1e-10 absolute target, swept over the shapes the bounds use,
        # including the large symmetric shapes of the variance-ratio term.
        cases = []
        for a, b in [(0.5, 10.0), (0.5, 150.0), (5.0, 5.0), (75.0, 75.0), (787.0, 787.0),
                     (1.0, 3.0), (2.0, 0.5), (30.0, 4.0)]:
            for x in (1e-6, 0.01, 0.2, 0.5, 0.8, 0.99, 1 - 1e-6):
                cases.append((x, a, b))
        for x, a, b in cases:
            expected = float(mp.betainc(a, b, 0, x, regularized=True))
            assert reg_inc_beta(x, a, b) == pytest.approx(expected, abs=1e-10)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            reg_inc_beta(1.5, 1.0, 1.0)
        with pytest.raises(DomainError):
            reg_inc_beta(0.5, -1.0, 1.0)


class TestIncompleteGamma:
    def test_erf_identity(self):
        # P(1/2, x) = erf(sqrt(x)); frozen oracle value at x = 1.
        assert reg_inc_gamma_p(0.5, 1.0) == pytest.approx(0.8427007929497149, abs=1e-12)

    def test_zero_argument(self):
        assert reg_inc_gamma_p(3.0, 0.0) == 0.0

    def test_against_high_precision_oracle(self):
        # 787.0 is the half-dof the largest published sample count needs.
        for a in (0.5, 1.0, 5.0, 17.0, 33.5, 400.0, 787.0):
            for x in (1e-8, 0.1, 1.0, 5.0, 30.0, 200.0, 800.0, 871.0, 1300.0):
                expected = float(mp.gammainc(a, 0, x, regularized=True))
                assert reg_inc_gamma_p(a, x) == pytest.approx(expected, abs=1e-10)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            reg_inc_gamma_p(-1.0, 1.0)
        with pytest.raises(DomainError):
            reg_inc_gamma_p(1.0, -1.0)


class TestBetaPrime:
    def test_zero_and_infinity(self):
        assert beta_prime_cdf(0.0, 2.0, 3.0) == 0.0
        assert beta_prime_cdf(float("inf"), 2.0, 3.0) == 1.0
        assert beta_prime_cdf(1e12, 2.0, 3.0) == pytest.approx(1.0, abs=1e-9)

    def test_median_of_symmetric_case(self):
        # beta-prime(1,1) has median 1 (frozen by direct integration).
        assert beta_prime_cdf(1.0, 1.0, 1.0) == pytest.approx(0.5, abs=1e-12)

    def test_against_scipy(self):
        for a, b in [(0.5, 10.0), (25.0, 25.0), (3.0, 7.0)]:
            for x in (0.05, 0.5, 1.0, 4.0, 50.0):
                assert beta_prime_cdf(x, a, b) == pytest.approx(
                    stats.betaprime(a, b).cdf(x), abs=1e-10
                )


class TestNoncentralChi2:
    def test_zero_noncentrality_matches_central(self):
        for x in (0.5, 2.0, 10.0):
            assert noncentral_chi2_cdf(x, 3.0, 0.0) == pytest.approx(
                chi2_cdf(x, 3.0), abs=1e-12
            )

    def test_zero_argument(self):
        assert noncentral_chi2_cdf(0.0, 1.0, 4.0) == 0.0

    def test_frozen_quadrature_value(self):
        # CDF at (x=4, k=1, lam=4): frozen from quadrature of the density.
        assert noncentral_chi2_cdf(4.0, 1.0, 4.0) == pytest.approx(
            0.4999683287581669, abs=1e-8
        )

    def test_against_scipy_including_large_lambda(self):
        for k in (1.0, 4.0):
            for lam in (0.5, 20.0, 315.0, 1360.0):
                for x in (0.5, float(lam) * 0.8, float(lam) * 1.2):
                    expected = stats.ncx2(k, lam).cdf(x)
                    assert noncentral_chi2_cdf(x, k, lam) == pytest.approx(
                        expected, abs=1e-9
                    )

    def test_domain_error(self):
        with pytest.raises(DomainError):
            noncentral_chi2_cdf(1.0, 1.0, -0.5)

    def test_one_degree_against_high_precision_oracle(self):
        # At k = 1 the variable is (Z + sqrt(lam))^2. delta_t's noncentrality
        # t * mean_sep^2 passes 1e9, where scipy's chndtr returns NaN, as
        # soon as mean_sep passes about 1e4.
        for lam in (0.5, 20.0, 1e6, 1e10, 1e20, 1e300):
            for x in (0.5, lam * 0.999, lam, lam * 1.001, lam * 1e3):
                root_x, root_lam = mp.sqrt(x), mp.sqrt(lam)
                expected = float(mp.ncdf(root_x - root_lam) - mp.ncdf(-root_x - root_lam))
                assert noncentral_chi2_cdf(x, 1.0, lam) == pytest.approx(expected, abs=1e-12)
        assert noncentral_chi2_cdf(10.0, 1.0, math.inf) == 0.0

    def test_nan_from_scipy_is_a_domain_error(self):
        with pytest.raises(DomainError, match="undefined"):
            noncentral_chi2_cdf(1e12, 4.0, 1e12)


class TestEpsilonT:
    def test_reproduces_published_values(self):
        expected = {11: 0.970174, 51: 0.999567, 101: 0.999980, 151: 0.999998}
        for t, one_minus_eps in expected.items():
            assert 1.0 - epsilon_t(t) == pytest.approx(one_minus_eps, abs=1e-5)

    def test_nonincreasing_in_t(self):
        values = [epsilon_t(t) for t in range(3, 1001)]
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))

    def test_clamped_to_unit_interval(self):
        for t in range(2, 30):
            assert 0.0 <= epsilon_t(t) <= 1.0

    def test_rejects_t_below_two(self):
        with pytest.raises(DomainError):
            epsilon_t(1)


TABLE_SEPARATION = {
    (0.0, 3.0): (1575, 0.994042),
    (0.0, 10.0): (118, 0.997716),
    (0.0, 20.0): (68, 0.998275),
    (2.0, 3.0): (50, 0.998565),
    (2.0, 10.0): (40, 0.998573),
    (2.0, 20.0): (38, 0.998440),
    (3.0, 3.0): (35, 0.998918),
    (3.0, 10.0): (35, 0.998918),
    (3.0, 20.0): (35, 0.998918),
}


class TestDeltaAndTmin:
    def test_reproduces_published_table(self):
        for (m, r), (expected_tmin, one_minus_delta) in TABLE_SEPARATION.items():
            params = SeparationParams(mean_sep=m, var_ratio_sum=r)
            tmin = t_min(params)
            assert tmin == expected_tmin
            assert 1.0 - delta_t(tmin, params) == pytest.approx(one_minus_delta, abs=1e-4)

    def test_delta_nonincreasing_in_t(self):
        params = SeparationParams(mean_sep=1.0, var_ratio_sum=8.0)
        values = [delta_t(t, params) for t in range(40, 400, 20)]
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))

    def test_delta_nonincreasing_in_mean_sep_past_dip(self):
        # The bound is non-monotone on 0 < mean_sep < e - 1: the noncentral
        # argument grows before the noncentrality does, so small positive
        # separations raise the failure bound above its zero-separation
        # value (where the mean term vanishes identically). Monotonicity
        # holds from e - 1 on.
        t = 80
        grid = (math.e - 1.0, 2.0, 3.0, 4.0, 6.0)
        by_mean = [delta_t(t, SeparationParams(m, 10.0)) for m in grid]
        assert all(b <= a + 1e-12 for a, b in zip(by_mean, by_mean[1:]))
        assert delta_t(t, SeparationParams(0.5, 10.0)) > delta_t(t, SeparationParams(0.0, 10.0))

    def test_delta_independent_of_variance_ratio(self):
        # The variance ratio only moves t_min; at fixed t the failure bound
        # does not depend on it.
        t = 80
        by_ratio = [delta_t(t, SeparationParams(2.0, r)) for r in (2.5, 5.0, 10.0, 30.0)]
        assert all(v == by_ratio[0] for v in by_ratio)

    def test_no_finite_t_at_degenerate_separation(self):
        with pytest.raises(NoFiniteSampleSizeError):
            t_min(SeparationParams(mean_sep=0.0, var_ratio_sum=2.0))

    def test_psi_exactly_two_for_mean_sep_three(self):
        # Algebraic identity: at mean_sep 3 the root collapses to 2 for
        # every variance ratio.
        for r in (3.0, 10.0, 20.0, 100.0):
            assert psi(SeparationParams(3.0, r)) == pytest.approx(2.0, abs=1e-12)

    def test_psi_against_high_precision_oracle(self):
        # The root as written, (sqrt(b^2 + 32 r m1) - b) / 8 with
        # b = (r - 2) m1, cancels once b is large; 1300 digits carry it
        # through b^2 of up to 1e1232.
        with mp.workdps(1300):
            for m in (0.0, 1e-10, 0.5, 2.0, 1e8, 1e17, 1e100, 1e300, 1e308):
                for r in (2.0, 2.0 + 1e-9, 3.0, 10.0, 1e8, 1e100, 1e300, 1e308):
                    m1, rr = 1 + mp.mpf(m), mp.mpf(r)
                    b = (rr - 2) * m1
                    expected = float((mp.sqrt(b * b + 32 * rr * m1) - b) / 8)
                    assert psi(SeparationParams(m, r)) == pytest.approx(expected, rel=1e-14)

    def test_finite_at_huge_separation(self):
        # As mean_sep grows, psi tends to 2r / (r - 2) and the mean term of
        # delta_t to 1, so both settle at finite values.
        for m in (1e10, 1e17, 1e308):
            params = SeparationParams(m, 10.0)
            assert psi(params) == pytest.approx(2.5, rel=1e-9)
            assert t_min(params) == 21
            assert delta_t(11, params) == pytest.approx(0.000211, abs=5e-7)
        assert t_min(SeparationParams(0.0, 1e308)) == 35

    def test_parameter_validation(self):
        with pytest.raises(DomainError):
            SeparationParams(mean_sep=-0.1, var_ratio_sum=3.0)
        with pytest.raises(DomainError):
            SeparationParams(mean_sep=0.0, var_ratio_sum=1.9)
        for mean_sep, var_ratio_sum in ((math.nan, 3.0), (math.inf, 3.0),
                                        (1.0, math.nan), (1.0, math.inf)):
            with pytest.raises(DomainError, match="finite"):
                SeparationParams(mean_sep=mean_sep, var_ratio_sum=var_ratio_sum)


class TestBoundReport:
    def test_fields_are_consistent(self):
        params = SeparationParams(mean_sep=2.0, var_ratio_sum=10.0)
        report = bound_report(40, params)
        assert report.t == 40
        assert report.eps_t == epsilon_t(40)
        assert report.delta_t == delta_t(40, params)
        assert report.t_min_sufficient == 40
        assert report.alpha_t == alpha_t(40)
        assert report.alpha_t > 1.0
        assert report.c == pytest.approx(4 * (math.exp(2 / math.sqrt(39)) - 0.5))

    def test_unbounded_marker(self):
        report = bound_report(10, SeparationParams(0.0, 2.0))
        assert report.t_min_sufficient is None
        assert report.psi <= 1.0 + 1e-12


class TestAnglePdf:
    def test_dimension_two_is_uniform(self):
        for theta in (0.0, 0.3, np.pi / 2, np.pi):
            assert angle_pdf(theta, 2) == pytest.approx(1 / np.pi, abs=1e-12)

    def test_zero_at_endpoints_for_higher_dims(self):
        assert angle_pdf(0.0, 3) == 0.0
        assert angle_pdf(0.0, 10) == 0.0

    def test_integrates_to_one(self):
        for p in (5, 10, 100):
            value, err = integrate.quad(lambda th: angle_pdf(th, p), 0.0, np.pi)
            assert value == pytest.approx(1.0, abs=1e-8)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            angle_pdf(-0.1, 5)
        with pytest.raises(DomainError):
            angle_pdf(0.5, 1.5)

    def test_gaussian_approximation_sup_norm(self):
        # The density approaches N(pi/2, 1/(p-2)); the sup-norm gap is
        # below 0.05 at p = 10 and shrinks as p grows.
        def sup_gap(p):
            grid = np.linspace(0.0, np.pi, 4001)
            exact = np.array([angle_pdf(t, p) for t in grid])
            gauss = stats.norm(np.pi / 2, 1 / np.sqrt(p - 2)).pdf(grid)
            return np.max(np.abs(exact - gauss))

        gaps = [sup_gap(p) for p in (10, 50, 100)]
        assert gaps[0] < 0.05
        assert gaps[2] < gaps[1] < gaps[0]

    def test_matches_empirical_angle_histogram(self):
        # Goodness of fit: 1e5 independent angles between uniform points on
        # the sphere in R^50 against the closed-form density.
        rng = np.random.default_rng(123)
        dim = 50
        a = rng.standard_normal((100_000, dim))
        b = rng.standard_normal((100_000, dim))
        a /= np.linalg.norm(a, axis=1, keepdims=True)
        b /= np.linalg.norm(b, axis=1, keepdims=True)
        angles = np.arccos(np.clip(np.sum(a * b, axis=1), -1, 1))

        edges = np.linspace(np.pi / 2 - 0.75, np.pi / 2 + 0.75, 31)
        edges = np.concatenate([[0.0], edges, [np.pi]])
        observed, _ = np.histogram(angles, bins=edges)
        expected = np.array(
            [
                integrate.quad(lambda th: angle_pdf(th, dim), lo, hi)[0]
                for lo, hi in zip(edges[:-1], edges[1:])
            ]
        ) * angles.size
        keep = expected >= 5
        statistic = float(((observed[keep] - expected[keep]) ** 2 / expected[keep]).sum())
        p_value = 1.0 - stats.chi2(keep.sum() - 1).cdf(statistic)
        assert p_value > 0.001


class TestMeanDifferenceDistribution:
    """Monte-Carlo check of the sampling identities behind the bounds."""

    def test_central_case_matches_chi2_quantile(self):
        rng = np.random.default_rng(7)
        t, rho = 20, 0.3
        replicates = 10_000
        w = rng.normal(1.0, rho, size=(replicates, t)).mean(axis=1)
        b = rng.normal(1.0, rho, size=(replicates, t)).mean(axis=1)
        scaled = t / (2 * rho**2) * (w - b) ** 2
        q95 = stats.chi2(1).ppf(0.95)
        coverage = np.mean(scaled <= q95)
        tol = 3 * math.sqrt(0.95 * 0.05 / replicates)
        assert abs(coverage - 0.95) < tol

    def test_noncentral_case_matches_ncx2_quantile(self):
        rng = np.random.default_rng(8)
        t, rho_a, rho_ab, gap = 25, 0.3, 0.5, 0.4
        replicates = 10_000
        w = rng.normal(1.0, rho_a, size=(replicates, t)).mean(axis=1)
        b = rng.normal(1.0 + gap, rho_ab, size=(replicates, t)).mean(axis=1)
        scaled = t / (rho_a**2 + rho_ab**2) * (w - b) ** 2
        lam = t * gap**2 / (rho_a**2 + rho_ab**2)
        q95 = stats.ncx2(1, lam).ppf(0.95)
        coverage = np.mean(scaled <= q95)
        tol = 3 * math.sqrt(0.95 * 0.05 / replicates)
        assert abs(coverage - 0.95) < tol
