"""Closed-form approximants T_n(a), remainder bounds B_n(a), the large-index
estimate, and the quartic-root approximations to J.

Sign convention: J_n(a) = sigma * T_n(a) + eps_n(a) with sigma = +1 for even n
and sigma = -1 for odd n.
"""

from __future__ import annotations

import math

from .quadrature import IntegralParams, j_integral, u_scaled
from .specfun import _approximant, _check_a, _check_index, gauss_f, lambda_factor

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

_BOUND_COEF = 1.0 / (4.0 * math.sqrt(2.0) * math.pi)


def sigma(n: int) -> int:
    """Sign with which T_n enters J_n = sigma*T_n + eps_n, for n >= 0."""
    _check_index("n", n, 0)
    return -1 if n % 2 else 1


def approximant(n: int, a: float) -> float:
    """T_n(a) = 1/(4 pi a) * ((1 + sigma sqrt(a))/2 * sqrt(pi/2) * R(n) - sigma F_n)
    for n >= 1, with sigma = sigma(n), R(m) = Gamma(m+1)/Gamma(m+3/2) and
    F_n = 2F1(-n,1;3/2;2).

    O(1/a) as a -> 0 and O(a**-0.5) as a -> infinity, so it approximates
    J_n(a) well only for a = O(1).  For odd n at a = 1 the gamma-ratio term
    vanishes exactly and T_n(1) = F_n/(4 pi).  Below n = 11 each parity
    evaluates the paper's own expression bit for bit; from n = 11 up an
    equal form without its cancellation (``specfun._approximant``, whose
    rounding bound ``j_integral`` uses).

    Accepts every positive finite a.  The O(1/a) value overflows binary64 to
    +-inf below about a = 6e-310 (without raising); above a = 1.43e307
    (7.15e306 from n = 11), where 4*pi*a (8*pi*a) overflows, the numerator
    is divided by 4*pi (8*pi) and then by a.
    """
    _check_index("n", n, 1)
    _check_a("a", a)
    return _approximant(n, a)[0]


def _majorant_energy(x: float, n: int, near: float = 0.0) -> float:
    """E_n(x) with the theta sum replaced by its elementary majorant:
    x^(1/4) * lambda(x) * exp(-pi*x) * G_n(2*pi*x).  It is 0.0, and G_n is
    not integrated, where exp(-pi*x) underflows (x > 237) and, given B's
    other term ``near``, where a cap on it is below a quarter ulp of
    ``near``, so that ``near`` + E_n(x) rounds to ``near`` either way: the
    integrand of G_n is below exp(-z t) and exp(-z t) t^n, so G_n(z) is
    below 1/z and n!/z^(n+1)."""
    g = math.exp(-math.pi * x)
    if g == 0.0:
        return 0.0
    front = x ** 0.25 * lambda_factor(x) * g
    z = 2.0 * math.pi * x
    if near:
        cap = 1.0 / z
        if n < math.e * z:  # n! >= (n/e)^n: n!/z^(n+1) is the smaller only here
            cap = min(cap, math.exp(math.lgamma(n + 1.0) - (n + 1) * math.log(z)))
        if front * cap < 0.25 * math.ulp(near):
            return 0.0
    return front * u_scaled(n, z)


def bound(n: int, a: float) -> float:
    """Upper bound B_n(a) on |eps_n(a)| for n >= 1:

        B_n(a) = a^(-3/4)/(4 sqrt(2) pi) * (E_n(a) + E_n(1/a)),
        E_n(x) = x^(1/4) * lambda(x) * exp(-pi*x) * G_n(2*pi*x).

    The theta sum Psi(x) is majorised by lambda(x)*exp(-pi*x), which keeps the
    bound rigorous (Psi(x) is strictly smaller) and reproduces the tabulated
    reference values.  By formula symmetry B_n(1/a) = a^(3/2) * B_n(a).  Not
    sharp near a = 1 for odd n, where eps_n itself vanishes.  The term at
    min(a, 1/a) is one ``u_scaled`` call; the other is one more only where it
    can change B's bits, which for n <= 2000 is within about [1/25, 25].
    """
    _check_index("n", n, 1)
    _check_a("a", a)
    near_x, far_x = (a, 1.0 / a) if a < 1.0 else (1.0 / a, a)
    near = _majorant_energy(near_x, n)
    far = near if a == 1.0 else _majorant_energy(far_x, n, near)
    return a ** -0.75 * _BOUND_COEF * (near + far)


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
    _check_index("n", n, 0)
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
    # the plain form from a = 1: the one above is 9.5e-16 off at a = 5.6e7, 1.4e-14 at 1e116 (n = 0)
    radicand = 1.0 + a * a + 2.0 * math.pi * a / (3.0 * f)
    if math.isinf(radicand):  # a^2 overflows; the other terms are below 1e-77 relative
        return f / (4.0 * math.pi * math.sqrt(a))
    return -f / (4.0 * math.pi * a) * (1.0 - radicand ** 0.25)


def ramanujan_i(alpha: float) -> float:
    """I(alpha) = alpha^(-1/4) * (1 + 4*alpha*J_0(alpha/pi)), with J_0 from
    ``j_integral``.

    Satisfies the functional equation I(alpha) = I(beta) with alpha*beta = pi^2.
    Finite over the whole float range: alpha*J_0 is formed before the factor
    4, so nothing overflows at the top, and where alpha/pi underflows to 0.0
    (alpha = 5e-324) J_0 is taken at the least positive a instead, since
    4*alpha*J_0 <= alpha/6 is then far below an ulp of 1.
    """
    _check_a("alpha", alpha)
    j0 = j_integral(IntegralParams(0, max(alpha / math.pi, math.ulp(0.0))))
    return alpha ** -0.25 * (1.0 + 4.0 * (alpha * j0.value))


def ramanujan_i_approx(alpha: float) -> float:
    """Quartic-root approximation (1/alpha + 1/beta + 2/3)^(1/4), beta = pi^2/alpha.

    beta is always derived from alpha at the use site; the modular constraint
    alpha*beta = pi^2 has a single source of truth.  Below alpha = 5.6e-309,
    where 1/alpha overflows, the other terms are below 1e-308 of it and the
    value is alpha^(-1/4).
    """
    _check_a("alpha", alpha)
    inverse = 1.0 / alpha
    if math.isinf(inverse):
        return alpha ** -0.25
    return (inverse + alpha / math.pi ** 2 + 2.0 / 3.0) ** 0.25
