"""Closed-form probability bounds for the merge threshold.

The incomplete beta and gamma functions and the noncentral chi-squared CDF
come from ``scipy.special``; the wrappers here only add the domain checks
that turn invalid arguments into ``DomainError``. ``scipy.special`` is
imported when a wrapper first needs it, and ``scipy.stats`` (about half a
second to load) never, so an import of the package loads neither.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, NoFiniteSampleSizeError


def reg_inc_gamma_p(a: float, x: float) -> float:
    """Regularized lower incomplete gamma P(a, x)."""
    if a <= 0.0:
        raise DomainError(f"gamma shape must be positive, got a={a}")
    if x < 0.0:
        raise DomainError(f"gamma argument must be >= 0, got x={x}")
    # Imported here, not with the module: a process that computes no bound
    # should not pay the load of scipy.special.
    from scipy import special

    return float(special.gammainc(a, x))


def reg_inc_beta(x: float, a: float, b: float) -> float:
    """Regularized incomplete beta I_x(a, b)."""
    if a <= 0.0 or b <= 0.0:
        raise DomainError(f"beta shapes must be positive, got a={a}, b={b}")
    if x < 0.0 or x > 1.0:
        raise DomainError(f"beta argument must be in [0, 1], got x={x}")
    from scipy import special

    return float(special.betainc(a, b, x))


def beta_prime_cdf(x: float, a: float, b: float) -> float:
    """CDF of the beta prime distribution: I_{x/(1+x)}(a, b)."""
    if x < 0.0:
        raise DomainError(f"beta prime argument must be >= 0, got x={x}")
    if math.isinf(x):
        return 1.0
    return reg_inc_beta(x / (1.0 + x), a, b)


def chi2_cdf(x: float, k: float) -> float:
    """CDF of the chi-squared distribution with k degrees of freedom."""
    if k <= 0:
        raise DomainError(f"degrees of freedom must be positive, got k={k}")
    if x <= 0.0:
        return 0.0
    return reg_inc_gamma_p(k / 2.0, x / 2.0)


def noncentral_chi2_cdf(x: float, k: float, lam: float) -> float:
    """CDF of the noncentral chi-squared distribution with k degrees of
    freedom and noncentrality lam: at k = 1 the closed form for (Z + sqrt(lam))^2,
    finite where ``chndtr`` is NaN (lam past about 1e9); else ``chndtr``."""
    if lam < 0.0:
        raise DomainError(f"noncentrality must be >= 0, got {lam}")
    if x <= 0.0:
        return 0.0
    from scipy import special

    if k == 1:
        root_x, root_lam = math.sqrt(x), math.sqrt(lam)
        return float(special.ndtr(root_x - root_lam) - special.ndtr(-root_x - root_lam))
    value = float(special.chndtr(x, k, lam))
    if math.isnan(value):
        raise DomainError(f"noncentral chi-squared CDF is undefined at x={x}, k={k}, lam={lam}")
    return value


@dataclass
class SeparationParams:
    """How far apart two angle distributions sit.

    mean_sep is the mean gap scaled by the pooled spread,
    |nu_a - nu_ab| / sqrt(rho_a^2 + rho_ab^2), and var_ratio_sum is
    rho_a^2/rho_ab^2 + rho_ab^2/rho_a^2 (>= 2 always, by AM-GM).
    """

    mean_sep: float
    var_ratio_sum: float

    def __post_init__(self):
        if not (math.isfinite(self.mean_sep) and math.isfinite(self.var_ratio_sum)):
            raise DomainError(
                f"separation must be finite, got mean_sep={self.mean_sep}, "
                f"var_ratio_sum={self.var_ratio_sum}"
            )
        if self.mean_sep < 0.0:
            raise DomainError(f"mean_sep must be >= 0, got {self.mean_sep}")
        if self.var_ratio_sum < 2.0:
            raise DomainError(f"var_ratio_sum must be >= 2, got {self.var_ratio_sum}")


def epsilon_t(t: int) -> float:
    """Failure probability of the same-population distance bound.

    With t independent angle samples per estimate, the distance between a
    cluster and a same-population partner exceeds 1/sqrt(t-1) with
    probability at most epsilon_t. Clamped to [0, 1]: the raw expression
    can exceed 1 for very small t.
    """
    if t < 2:
        raise DomainError(f"need t >= 2, got t={t}")
    tm1 = float(t - 1)
    c = _c(t)
    disc = math.sqrt(c * c - 4.0)
    half = tm1 / 2.0
    eps = (
        2.0
        - beta_prime_cdf(t / tm1**1.5, 0.5, tm1)
        - beta_prime_cdf((c + disc) / 2.0, half, half)
        + beta_prime_cdf((c - disc) / 2.0, half, half)
    )
    return min(max(eps, 0.0), 1.0)


def _c(t: int) -> float:
    """The constant 4 (e^{2/sqrt(t-1)} - 1/2) of epsilon_t's bound."""
    return 4.0 * (math.exp(2.0 / math.sqrt(float(t - 1))) - 0.5)


def alpha_t(t: int) -> float:
    """Variance-concentration factor e^{4/sqrt(t-1)} used by delta_t."""
    if t < 2:
        raise DomainError(f"need t >= 2, got t={t}")
    return math.exp(4.0 / math.sqrt(t - 1.0))


def delta_t(t: int, params: SeparationParams) -> float:
    """Failure probability of the different-population distance bound.

    With t independent samples and separation given by params, the distance
    between clusters from different populations falls below 1/sqrt(t-1)
    with probability at most delta_t.
    """
    alpha = alpha_t(t)
    tm1 = float(t - 1)
    band = chi2_cdf(tm1 * alpha, tm1) - chi2_cdf(tm1 * (2.0 - alpha), tm1)
    m = params.mean_sep
    mean_term = 1.0 - noncentral_chi2_cdf(t * math.log1p(m) * alpha, 1.0, t * m * m)
    delta = 1.0 - band * band * mean_term
    return min(max(delta, 0.0), 1.0)


def psi(params: SeparationParams) -> float:
    """Root of the sufficiency quadratic, always >= 1 on the valid domain,
    in rationalized form: it neither cancels nor overflows."""
    r = params.var_ratio_sum
    a = (r - 2.0) / r
    return 4.0 / (a + math.sqrt(a * a + 32.0 / r / (1.0 + params.mean_sep)))


def t_min(params: SeparationParams) -> int:
    """Smallest sample count guaranteeing the delta_t bound applies:
    ceil(1 + 16 / ln(psi)^2).

    Raises NoFiniteSampleSizeError when psi <= 1 (attainable only at
    mean_sep = 0, var_ratio_sum = 2, where no finite count suffices).
    """
    p = psi(params)
    if p <= 1.0 + 1e-12:
        raise NoFiniteSampleSizeError(
            f"psi={p:.12f} <= 1: no finite sample count satisfies the bound"
        )
    return math.ceil(1.0 + 16.0 / math.log(p) ** 2)


def angle_pdf(theta: float, p: float) -> float:
    """Density of the angle between two uniform points on a (p-1)-sphere
    restricted to a p-dimensional subspace:

        h_p(theta) = Gamma(p/2) / (sqrt(pi) * Gamma((p-1)/2)) * sin(theta)^(p-2)

    on [0, pi]. For p = 2 this is the constant 1/pi.
    """
    if not 0.0 <= theta <= math.pi:
        raise DomainError(f"theta must be in [0, pi], got {theta}")
    if p < 2:
        raise DomainError(f"dimension must be >= 2, got {p}")
    norm = math.exp(math.lgamma(p / 2.0) - math.lgamma((p - 1.0) / 2.0)) / math.sqrt(math.pi)
    return norm * math.sin(theta) ** (p - 2.0)


@dataclass
class BoundReport:
    """All bound quantities for one sample count and separation setting.

    t_min_sufficient is None when no finite sample count satisfies the
    sufficiency condition (psi <= 1).
    """

    t: int
    eps_t: float
    delta_t: float
    t_min_sufficient: int | None
    psi: float
    alpha_t: float
    c: float


def bound_report(t: int, params: SeparationParams) -> BoundReport:
    """Evaluate every bound quantity at one (t, separation) setting."""
    try:
        tmin_value = t_min(params)
    except NoFiniteSampleSizeError:
        tmin_value = None
    return BoundReport(
        t=t,
        eps_t=epsilon_t(t),
        delta_t=delta_t(t, params),
        t_min_sufficient=tmin_value,
        psi=psi(params),
        alpha_t=alpha_t(t),
        c=_c(t),
    )
