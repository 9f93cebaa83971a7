"""Special-function building blocks, evaluated without cancellation or overflow.

Everything here is elementary but easy to get wrong in binary64:

* ``gamma_half_ratio`` forms Gamma(m+1)/Gamma(m+3/2) by a multiplicative
  recurrence.  Gamma itself overflows binary64 already at argument 172, while
  the ratio decays slowly like m**-0.5 and is representable for any practical m.
* ``gauss_f`` evaluates 2F1(-n, 1; 3/2; 2) by its stable three-term recurrence
  in n: the series alternates with terms growing like 2**n, so summing it in
  floating point loses all significant digits long before n = 50.
* ``_kummer_scaled`` evaluates scale*1F1(-n; 3/2; z) for the J integrand
  by the stable forward Laguerre recurrence instead of its alternating
  power series, which cancels catastrophically as n and z grow.
* ``_kummer_series`` sums 1F1(a; b; z) for positive a, b and z, where every
  term of the series is positive; ``u_scaled`` uses it at small argument.
* ``_approximant`` forms the closed form T_n(a) from ``gamma_half_ratio`` and
  ``gauss_f`` with a bound on its rounding error, for ``approximant`` and for
  ``j_integral``'s route J = sigma*T + eps alike.
* ``theta_psi`` sums the theta series directly for tau >= 0.01, truncated
  against a rigorous geometric tail majorant scaled to its leading term, and
  below that through its Jacobi transform, whose direct sum there has a
  single nonzero term.  No call sums more than 36 terms, where the direct
  sum alone needs about 3.4*tau**-0.5 of them.
"""

from __future__ import annotations

import math

__all__ = [
    "gamma_half_ratio",
    "gauss_f",
    "theta_psi",
    "lambda_factor",
]

_EPS = 2.220446049250313e-16
_SQRT_PI = math.sqrt(math.pi)
_SQRT_HALF_PI = math.sqrt(math.pi / 2.0)
# theta_psi sums directly at and above this tau, and through its Jacobi
# transform below it.  Every tau the identity suite's ``poisson`` group
# evaluates (and its reciprocal) lies at or above it, so that check compares
# the direct sum with itself rather than the transform with its definition.
_JACOBI_SEAM = 0.01


def _check_index(name: str, value: int, least: int) -> None:
    if not isinstance(value, int) or value < least:
        kind = "positive" if least else "non-negative"
        raise ValueError(f"{name} must be a {kind} integer, got {value}")


def _check_a(name: str, value: float) -> None:
    if not (value > 0.0 and math.isfinite(value)):
        raise ValueError(f"{name} must be positive and finite, got {value}")


def gamma_half_ratio(m: int) -> float:
    """Return R(m) = Gamma(m+1)/Gamma(m+3/2).

    Computed by the recurrence R(m) = m*R(m-1)/(m+1/2) from R(0) = 2/sqrt(pi),
    which keeps full relative precision and cannot overflow: R is strictly
    decreasing, with R(m) ~ m**-0.5 for large m.
    """
    _check_index("m", m, 0)
    r = 2.0 / _SQRT_PI
    for i in range(1, m + 1):
        r = (i * r) / (i + 0.5)
    return r


def _laguerre_steps(n: int) -> tuple[tuple[float, float, float], ...]:
    """Steps m = 1..n-1 of ``_kummer_scaled``: (2m + 3/2, m, m + 3/2), exact floats."""
    return tuple((2 * m + 1.5, float(m), m + 1.5) for m in range(1, n))


def _kummer_scaled(n: int, z: float, scale: float, steps: tuple[tuple[float, float, float], ...]) -> float:
    """Return scale * 1F1(-n; 3/2; z) for n >= 0, a Laguerre polynomial in
    disguise: 1F1(-n; 3/2; z) = n!/(3/2)_n * L_n^(1/2)(z) (DLMF 13.6.19).

    M_m = 1F1(-m; 3/2; z) obeys the normalised Laguerre recurrence
    (DLMF 18.9.1)

        (m + 3/2) M_{m+1} = (2m + 3/2 - z) M_m - m M_{m-1},

    from M_0 = 1 and M_1 = 1 - z/(3/2).  Forward recurrence is stable for this
    family (Gautschi, SIAM Rev. 9, 1967): the rounding error, relative to
    exp(z/2), grows only linearly in n.  ``scale`` is folded into the start
    values: with scale = exp(-z/2), |scale * M_m| <= 1 for every m >= 0
    (DLMF 18.14.8), so no intermediate value can overflow.  ``steps`` is
    ``_laguerre_steps(n)``, built once for all z: it holds the floats each
    step would form inline, so the result is the same bit for bit.
    """
    previous, current = scale, scale * (1.0 - z / 1.5)
    if n == 0:
        return previous
    for b, m, d in steps:
        previous, current = current, ((b - z) * current - m * previous) / d
    return current


def _kummer_series(a: float, b: float, z: float) -> float:
    """Return 1F1(a; b; z) for a, b, z > 0 by its power series (DLMF 13.2.2).

    Every term is positive, so nothing cancels.  The sum stops after the
    first term below 1e-17 of the total; where a*z/b <= 0.2, as in
    ``u_scaled``'s series branch, that takes at most a dozen terms.
    """
    term = total = 1.0
    k = 0
    while term > 1e-17 * total:
        term *= (a + k) / (b + k) * z / (k + 1)
        total += term
        k += 1
    return total


def _index_roundoff(n: int) -> float:
    """Relative rounding error, in ulps, of the O(n) recurrences at index n.

    The J and eps integrands carry a factor whose rounding error grows
    linearly in n: the Laguerre recurrence for 1F1(-n; 3/2; z) and the power
    r**n.  Against 32-digit mpmath references at 0.1 <= a <= 10, the true
    errors reached 245 ulps of h*sum|w*f| for J (n = 200) and 136 for eps
    (n = 1736), and at most 1.2(n + 8) ulps at any n.  From n = 6 on it
    also covers the rounding of T_n's two terms: the 2n roundings of
    ``gamma_half_ratio`` (at most n ulps) plus the error of ``gauss_f`` (at
    most 22 ulps for n <= 5000).
    """
    return 2.0 * (n + 8)


def gauss_f(n: int) -> float:
    """Return F_n = 2F1(-n, 1; 3/2; 2) by the contiguous recurrence
    (2m + 3) F_{m+1} = 2m F_{m-1} - F_m from F_0 = 1, at O(n) flops.  It is
    stable: against the exact rational F_n it stays within 1.5e-15 relative
    for n <= 200, 4.2e-15 for n <= 2000 and 4.9e-15 for n <= 5000, and
    against the recurrence at 60 digits within 8.7e-15 for n <= 10 000 and
    1.1e-14 for n <= 50 000.
    """
    _check_index("n", n, 0)
    previous, current = 0.0, 1.0  # F_{-1} has weight 0 in the step m = 0
    for m in range(n):
        previous, current = current, (2 * m * previous - current) / (2 * m + 3)
    return current


def _approximant(n: int, a: float) -> tuple[float, float]:
    """T_n(a) for n >= 1 and a bound on its rounding error; see
    ``approximants.approximant`` for the formula.

    The bound is ``_index_roundoff(n)`` ulps of (|ratio term| + |F_n|)/(4 pi a),
    for the rounding of the gamma ratio, of F_n and of the difference taken
    between them, plus 4 ulps of |T| for the division.  Below about
    a = 6e-310, where T overflows, both are infinite.
    """
    s = -1.0 if n % 2 else 1.0
    ratio_term = 0.5 * (1.0 + s * math.sqrt(a)) * _SQRT_HALF_PI * gamma_half_ratio(n)
    f = gauss_f(n)
    numerator = ratio_term - s * f
    magnitude = _index_roundoff(n) * _EPS * (abs(ratio_term) + abs(f))
    denominator = 4.0 * math.pi * a
    if math.isinf(denominator):  # a > 1.43e307: divide by a last
        t, magnitude = numerator / (4.0 * math.pi) / a, magnitude / (4.0 * math.pi) / a
    else:
        t, magnitude = numerator / denominator, magnitude / denominator
    return t, magnitude + 4.0 * _EPS * abs(t)


def theta_psi(tau: float) -> float:
    """Return Psi(tau) = sum_{n>=1} exp(-pi n^2 tau) to full relative precision.

    For tau >= 0.01 the series is summed directly.  The leading term
    q = exp(-pi*tau) dominates the sum for every tau > 0, so the truncation
    tolerance is tol = 1e-16*q.  The sum stops after the first term smaller
    than tol*(1 - q): the omitted tail obeys

        sum_{n>N} exp(-pi n^2 tau) < exp(-pi (N+1)^2 tau) / (1 - q),

    so the truncation error is below tol.  A term that underflows to zero
    ends the sum regardless of tol.  The sum takes about 3.4*tau**-0.5
    terms, at most 36 (at tau = 0.01).  The rounded exponent pi*tau still
    moves each term by up to ~pi*tau ulps (1.6e-14 relative at tau = 220).

    For tau < 0.01 the Jacobi transform

        Psi(tau) = r*Psi(1/tau) + (r - 1)/2,  r = tau**-0.5,

    is used instead, with Psi(1/tau) summed directly: since 1/tau > 100, its
    second term already underflows.  Both terms are positive, so nothing
    cancels: on 3 000 log-uniform tau in [1e-12, 0.01] the result is within
    1.7e-16 relative of 40-digit evaluations.  So no call takes more than 37
    exponentials, where the direct sum at tau = 1e-8 would take 34 000.
    """
    if not tau > 0.0:
        raise ValueError(f"tau must be positive, got {tau}")
    if tau < _JACOBI_SEAM:
        r = 1.0 / math.sqrt(tau)
        return r * theta_psi(1.0 / tau) + (r - 1.0) / 2.0
    q = math.exp(-math.pi * tau)
    # Past tau = 225.46 tol underflows to zero, and so does the n=2 term, which
    # ends the sum at q; past tau = 237.18 q itself underflows and the sum is 0.
    threshold = 1e-16 * q * (1.0 - q)
    total = 0.0
    n = 1
    while True:
        term = math.exp(-math.pi * n * n * tau)
        total += term
        if term < threshold or term == 0.0:
            return total
        n += 1


def lambda_factor(a: float) -> float:
    """Elementary majorant factor with Psi(a) < lambda_factor(a) * exp(-pi*a).

    lambda(a) = 1 + exp(-3*pi*a) + exp(-2*pi*a) / (1 - exp(-pi*a)); it exceeds
    1 for every a > 0 and tends to 1 as a grows.  The denominator is formed
    by ``expm1``: the subtraction 1 - exp(-pi*a) loses digits at small a.
    Since lambda(a) ~ 1/(pi a) there, it overflows to +inf below about
    a = 1.8e-309 (``lambda_factor(5e-324)`` is inf) and does not raise.
    """
    if not a > 0.0:
        raise ValueError(f"a must be positive, got {a}")
    return 1.0 + math.exp(-3.0 * math.pi * a) + math.exp(-2.0 * math.pi * a) / -math.expm1(-math.pi * a)

