"""Closed-form approximants T_n(a), remainder bounds B_n(a), the large-index
estimate, and the quartic-root approximations to J.

Sign convention: J_n(a) = sigma * T_n(a) + eps_n(a) with sigma = +1 for even n
and sigma = -1 for odd n.
"""

from __future__ import annotations

import math

from .quadrature import IntegralParams, j_integral, u_scaled
from .specfun import _check_a, _check_index, gamma_half_ratio, gauss_f, lambda_factor

__all__ = [
    "approximant",
    "bound",
    # k-indexed aliases of approximant/bound (n = 2k, 2k + 1): the paper's
    # tables are indexed by k, and the benchmark calls and traces these names.
    "t_even",
    "t_odd",
    "bound_even",
    "bound_odd",
    "bound_asymptotic",
    "drz_approx",
    "ramanujan_i",
    "ramanujan_i_approx",
    "sigma",
]

_SQRT_HALF_PI = math.sqrt(math.pi / 2.0)
_BOUND_COEF = 1.0 / (4.0 * math.sqrt(2.0) * math.pi)


def sigma(n: int) -> int:
    """Sign with which T_n enters J_n = sigma*T_n + eps_n."""
    return -1 if n % 2 else 1


def approximant(n: int, a: float) -> float:
    """T_n(a) = 1/(4 pi a) * ((1 + sigma sqrt(a))/2 * sqrt(pi/2) * R(n) - sigma F_n)
    for n >= 1, with sigma = sigma(n), R(m) = Gamma(m+1)/Gamma(m+3/2) and
    F_n = 2F1(-n,1;3/2;2).

    O(1/a) as a -> 0 and O(a**-0.5) as a -> infinity, so it approximates
    J_n(a) well only for a = O(1).  For odd n at a = 1 the gamma-ratio term
    vanishes exactly and T_n(1) = F_n/(4 pi).  Multiplying by sigma = +-1
    is exact, so each parity evaluates the paper's own expression bit for bit.
    """
    _check_index("n", n, 1)
    _check_a("a", a)
    s = sigma(n)
    ratio_term = 0.5 * (1.0 + s * math.sqrt(a)) * _SQRT_HALF_PI * gamma_half_ratio(n)
    return (ratio_term - s * gauss_f(n)) / (4.0 * math.pi * a)


def _majorant_energy(x: float, n: int) -> float:
    """E_n(x) with the theta sum replaced by its elementary majorant:
    x^(1/4) * lambda(x) * exp(-pi*x) * G_n(2*pi*x).  Where exp(-pi*x)
    underflows (x > 237) the term is exactly 0.0 and G_n is not integrated."""
    g = math.exp(-math.pi * x)
    if g == 0.0:
        return 0.0
    return x ** 0.25 * lambda_factor(x) * g * u_scaled(n, 2.0 * math.pi * x)


def bound(n: int, a: float) -> float:
    """Upper bound B_n(a) on |eps_n(a)| for n >= 1:

        B_n(a) = a^(-3/4)/(4 sqrt(2) pi) * (E_n(a) + E_n(1/a)),
        E_n(x) = x^(1/4) * lambda(x) * exp(-pi*x) * G_n(2*pi*x).

    The theta sum Psi(x) is majorised by lambda(x)*exp(-pi*x), which keeps the
    bound rigorous (Psi(x) is strictly smaller) and reproduces the tabulated
    reference values.  By formula symmetry B_n(1/a) = a^(3/2) * B_n(a).  Not
    sharp near a = 1 for odd n, where eps_n itself vanishes.  Outside about
    [1/237, 237] one term underflows to 0.0 and only the other is integrated.
    """
    _check_index("n", n, 1)
    _check_a("a", a)
    # G_n(2*pi*x) = n! U(n+1, 1/2, 2*pi*x) is evaluated as one integral; the
    # explicit factorial would overflow binary64 from n = 171 on.
    if a == 1.0:
        e = _majorant_energy(1.0, n)
        pair = e + e
    else:
        pair = _majorant_energy(a, n) + _majorant_energy(1.0 / a, n)
    return a ** -0.75 * _BOUND_COEF * pair


# The paper's tables are indexed by k; these keep its names for n = 2k and
# n = 2k + 1.


def t_even(k: int, a: float) -> float:
    """T_2k(a) = approximant(2k, a), k >= 1."""
    _check_index("k", k, 1)
    return approximant(2 * k, a)


def t_odd(k: int, a: float) -> float:
    """T_{2k+1}(a) = approximant(2k+1, a), k >= 0; note J = -T + eps here."""
    _check_index("k", k, 0)
    return approximant(2 * k + 1, a)


def bound_even(k: int, a: float) -> float:
    """B_2k(a) = bound(2k, a), k >= 1."""
    _check_index("k", k, 1)
    return bound(2 * k, a)


def bound_odd(k: int, a: float) -> float:
    """B_{2k+1}(a) = bound(2k+1, a), k >= 0."""
    _check_index("k", k, 0)
    return bound(2 * k + 1, a)


def bound_asymptotic(n: int, a: float) -> float:
    """Large-k estimate of B_n(a) for even n = 2k >= 2:

        a^(-3/4) k^(-1/2) / (8 sqrt(pi)) *
            (a^(1/4) lambda(a) e^(-4 sqrt(pi a k))
             + a^(-1/4) lambda(1/a) e^(-4 sqrt(pi k / a)))

    Valid for pi/n << a << n/pi; the window is documented, not enforced.
    At a = 1 this reduces to lambda(1)/(4 sqrt(pi)) k^(-1/2) e^(-4 sqrt(pi k)).
    """
    if n < 2:
        raise ValueError("the large-k estimate requires k >= 1")
    if n % 2:
        raise ValueError("the large-k estimate is defined for even n only")
    _check_a("a", a)
    k = n // 2
    front = a ** -0.75 / (8.0 * math.sqrt(math.pi) * math.sqrt(k))
    term_a = a ** 0.25 * lambda_factor(a) * math.exp(-4.0 * math.sqrt(math.pi * a * k))
    term_inv = a ** -0.25 * lambda_factor(1.0 / a) * math.exp(-4.0 * math.sqrt(math.pi * k / a))
    return front * (term_a + term_inv)


def drz_approx(n: int, a: float) -> float:
    """Quartic-root approximation to J_n(a) for even n >= 0:

        J_n(a) ~ F/(4 pi a) * ((1 + x)^(1/4) - 1),  x = a^2 + c a,
        c = 2 pi/(3F),  F = 2F1(-n, 1; 3/2; 2).

    Accurate for small and large a with n fixed; for a = O(1) its relative
    error grows with n.  Evaluated without cancellation over the whole float
    range: below a = 1 through expm1/log1p with x/a = a + c, and where a^2
    overflows by its leading term F/(4 pi sqrt(a)).
    """
    _check_index("n", n, 0)
    if n % 2:
        raise ValueError("the quartic-root approximation is defined for even n only")
    _check_a("a", a)
    f = gauss_f(n)
    # F_n > 0 for even n by the finite identity behind T_n, so c > 0
    c = 2.0 * math.pi / (3.0 * f)
    if a < 1.0:
        x = a * (a + c)
        # ((1 + x)^(1/4) - 1)/x; its series where x/4 would lose subnormal bits
        q = 0.25 - 0.09375 * x if x < 1e-8 else math.expm1(math.log1p(x) / 4.0) / x
        return f / (4.0 * math.pi) * q * (a + c)
    radicand = 1.0 + a * a + 2.0 * math.pi * a / (3.0 * f)
    if math.isinf(radicand):  # a^2 overflows; the other terms are below 1e-77 relative
        return f / (4.0 * math.pi * math.sqrt(a))
    return -f / (4.0 * math.pi * a) * (1.0 - radicand ** 0.25)


def ramanujan_i(alpha: float) -> float:
    """I(alpha) = alpha^(-1/4) * (1 + 4*alpha*J_0(alpha/pi)) by quadrature,
    with J_0 integrated to the absolute tolerance ``DEFAULT_TOL``.

    Satisfies the functional equation I(alpha) = I(beta) with alpha*beta = pi^2.
    """
    _check_a("alpha", alpha)
    j0 = j_integral(IntegralParams(0, alpha / math.pi))
    return alpha ** -0.25 * (1.0 + 4.0 * alpha * j0.value)


def ramanujan_i_approx(alpha: float) -> float:
    """Quartic-root approximation (1/alpha + 1/beta + 2/3)^(1/4), beta = pi^2/alpha.

    beta is always derived from alpha at the use site; the modular constraint
    alpha*beta = pi^2 has a single source of truth.
    """
    _check_a("alpha", alpha)
    return (1.0 / alpha + alpha / math.pi ** 2 + 2.0 / 3.0) ** 0.25
