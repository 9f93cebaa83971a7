"""Special-function building blocks, evaluated without cancellation or overflow.

Everything here is elementary but easy to get wrong in binary64; each
function's docstring says how it avoids that.  From n = 11 up, R(n), F_n
and G_n(z) cost O(1) in n; below it the loops cost at most ten steps.  The
expansions' coefficient tables are built at import from exact literals or
short recurrences in floats and integers.
"""

from __future__ import annotations

import math
import sys

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
# From this index up, R(n), F_n and G_n(z) come from their asymptotic
# expansions in n; below it from the loops (G from Kummer or quadrature).  At
# n = 11 Watson's series for F still reaches its least term, about 1e-16 of
# F, and G's expansion needs at most 16 terms at all but a few z.
_EXPANSION_MIN_N = 11
# B_2k/(2k(2k - 1)) for k = 1..8, the coefficients of Stirling's series for
# ln Gamma (DLMF 5.11.1); each quotient of two exact integers is correctly
# rounded.  At m = 11 the ninth term would be below 1e-19.
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156, -3617 / 122400)


def _watson_table(count: int) -> tuple[float, ...]:
    """c_k (2k)! for k < ``count``, where cosh(v/2)^(-1/2) = sum_k c_k v^(2k).

    c_k (2k)! = N_k/8^k with integers N_k: the power rule for
    g^(-1/2), g = cosh(sqrt(w)/2) = sum_j w^j/(4^j (2j)!), gives
    k N_k = sum_{j=1}^k (j - 2k) C(2k, 2j) 2^(j-1) N_(k-j) from N_0 = 1, in
    exact integers, and each N_k/8^k is a correctly rounded quotient.
    """
    numerators = [1]
    for k in range(1, count):
        total = sum((j - 2 * k) * math.comb(2 * k, 2 * j) * 2 ** (j - 1) * numerators[k - j] for j in range(1, k + 1))
        numerators.append(total // k)
    return tuple(nk / 8 ** k for k, nk in enumerate(numerators))


def _olver_table(count: int) -> tuple[tuple[tuple[float, float], ...], ...]:
    """The polynomials A_1 ... A_(2 count) of ``_u_olver``'s expansion, in
    ``count`` pairs (A_(2j-1), A_(2j)).

    A_0 = 1 and A_(s+1)(tau) = -(1 - tau^2)^2 A_s'(tau)/2
    + (1/2) integral_0^tau (1/2 - 5 v^2/4) A_s(v) dv + c, with c such that
    A_(s+1)(0) = 0.  This is the recurrence of DLMF 12.10.9 rewritten in
    tau = t/sqrt(1 + t^2) = 2 tau_DLMF + 1 for the terms (-1)^s A_s, with
    each constant fixed at t = 0 instead of at t = inf, so that
    G_n(0) = sqrt(pi) R(n) normalises the sum.  A_s has the parity of s and
    degree 3s, built in floats within 5 ulps of the exact rationals.  Entry
    j - 1 lists (odd, even) pairs: the coefficients of tau^(2k+1) in
    A_(2j-1) and of tau^(2k) in A_(2j), highest k first, the odd column led
    by the two zeros that give it the even one's length, so that one Horner
    loop in tau^2 sums both.
    """
    polys = [[1.0]]
    for _ in range(2 * count):
        a = polys[-1]
        new = [0.0] * (len(a) + 3)
        for k in range(1, len(a)):
            c = k * a[k]
            new[k - 1] -= 0.5 * c
            new[k + 1] += c
            new[k + 3] -= 0.5 * c
        for k, c in enumerate(a):
            new[k + 1] += 0.25 * c / (k + 1)
            new[k + 3] -= 0.625 * c / (k + 3)
        new[0] = 0.0
        polys.append(new)
    return tuple(tuple(zip([0.0, 0.0, *odd[::-2]], even[::-2])) for odd, even in zip(polys[1::2], polys[2::2]))


# c_k (2k)! for Watson's lemma on S_n: the least term, at k near pi(n + 3/4)/2,
# is reached within these 20 from n = 11 on.
_WATSON = _watson_table(20)
# A_1 ... A_16 of G_n's uniform expansion, in eight pairs; where 16 terms are
# not enough, u_scaled integrates instead.
_OLVER = _olver_table(8)


def _check_index(name: str, value: int, least: int) -> None:
    typed = isinstance(value, int) and not isinstance(value, bool)
    if not typed or value < least:
        kind = "positive" if least else "non-negative"
        got = value if typed else f"{value} of type {type(value).__name__}"
        raise ValueError(f"{name} must be a {kind} integer, got {got}")
    if value > sys.float_info.max:  # n + 2, 4n + 3 and the like are floats
        raise ValueError(f"{name} must be at most {sys.float_info.max:g}, the largest float")


def _check_a(name: str, value: float) -> None:
    if not (value > 0.0 and math.isfinite(value)):
        raise ValueError(f"{name} must be positive and finite, got {value}")


def gamma_half_ratio(m: int) -> float:
    """Return R(m) = Gamma(m+1)/Gamma(m+3/2).

    Below m = 11 it is the recurrence R(m) = m*R(m-1)/(m+1/2) from
    R(0) = 2/sqrt(pi), which keeps full relative precision and cannot
    overflow: R is strictly decreasing, with R(m) ~ m**-0.5 for large m.
    From m = 11 up it is the difference of two Stirling series (DLMF 5.11.1)
    at x = m + 1 and x + 1/2,

        ln R(m) = -ln(x)/2 - x log1p(1/(2x)) + 1/2
                  + sum_{k=1}^8 B_2k/(2k(2k-1)) (x^(1-2k) - (x + 1/2)^(1-2k)),

    formed as exp(all but the first term)/sqrt(x), so its cost does not grow
    with m.
    """
    _check_index("m", m, 0)
    if m >= _EXPANSION_MIN_N:
        return _stirling_ratio(m)
    r = 2.0 / _SQRT_PI
    for i in range(1, m + 1):
        r = (i * r) / (i + 0.5)
    return r


def _stirling_ratio(m: int) -> float:
    """R(m) for m >= 11 by Stirling's series; see ``gamma_half_ratio``."""
    x = m + 1.0
    s = 0.5 - x * math.log1p(0.5 / x)
    xp, yp = 1.0 / x, 1.0 / (m + 1.5)
    x2, y2 = xp * xp, yp * yp
    for c in _STIRLING:
        s += c * (xp - yp)
        xp, yp = xp * x2, yp * y2
    return math.exp(s) / math.sqrt(x)


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


def _sum_asymptotic(first: float, terms) -> tuple[float, float, float, int]:
    """Sum ``first`` and then ``terms`` up to the first term that is larger
    than the one before it or below 1e-17 of the sum.

    Returns the sum, the sum of magnitudes, the magnitude of that first
    omitted term and the number of terms summed, ``first`` included.  The
    omitted term is below 1e-17 of the sum exactly when the sum stopped
    there, not because the terms grew or ran out.
    """
    total = first
    mass = previous = abs(first)
    count = 1
    for term in terms:
        if not 1e-17 * abs(total) <= abs(term) <= previous:
            break
        total += term
        mass += abs(term)
        previous = abs(term)
        count += 1
    return total, mass, abs(term), count


def _u_olver(n: int, z: float, g0: float, atol: float = 0.0) -> tuple[float, float] | None:
    """G_n(z) = n! U(n+1, 1/2, z) for n >= 11 by its uniform expansion in
    u = 4n + 3, and the size of its first omitted pair of terms, or None
    where 16 terms do not converge.  ``g0`` is G_n(0) = sqrt(pi) R(n), which
    a caller summing G at many z forms once.

    G_n(z) = n! 2^(n+1) e^(z/2) U(2n + 3/2, sqrt(2z)) is a parabolic-cylinder
    function (DLMF 12.7.14), and Olver's expansion of U(u/2, sqrt(2u) t)
    (DLMF 12.10.3) gives, with t = sqrt(z/u) and tau = t/sqrt(1 + t^2),

        G_n(z) ~ sqrt(pi) R(n) e^E (1 + t^2)^(-1/4) sum_s (-1)^s A_s(tau)/u^s,
        E = -(u/2) (t/(t + sqrt(1 + t^2)) + asinh t),

    uniformly in z >= 0: the A_s (``_olver_table``) vanish at tau = 0, where
    G_n(0) = sqrt(pi) R(n).  E is formed without cancellation, but as one
    float, so e^E carries about |E| <= sqrt(u z) ulps; above t = 1 its asinh
    part is (t + sqrt(1 + t^2))^(-u/2), whose rounding is u/2 ulps where
    exp(-(u/2) asinh t) would carry (u/2) asinh t of them.  t and E are
    formed from n + 3/4, the small factor first, so that nothing overflows
    or underflows to zero up to n = 1.8e308.  A_s(tau)
    has the parity of s, so an odd term can exceed the even one before it
    (near tau = 0, by up to 1.6 times above the series seam); the terms are
    therefore summed in pairs, up to the first pair below 1e-17 of the sum
    or, times the leading factor g0 e^E (1 + t^2)^(-1/4), below ``atol``;
    that pair, times the leading factor, is the one reported.  A pair can
    also exceed the one before it where that one nearly cancels, so the sum
    gives up only at a pair larger than both pairs before it.
    """
    lam = n + 0.75  # u/4; u itself overflows above n = 4.49e307
    ratio = z / lam
    if ratio >= 4.0 * sys.float_info.min:  # z/u is a normal float
        t = 0.5 * math.sqrt(ratio)
    else:
        t = 0.5 * math.sqrt(z) / math.sqrt(lam)
    r = math.sqrt(1.0 + t * t)
    tau = t / r
    tau2 = tau * tau
    w = t / (t + r)  # t sqrt(1 + t^2) - t^2
    if t > 1.0:  # z > u, so u/2 = 2 lam is finite
        g = math.exp(-lam * (2.0 * w)) * (t + r) ** (-2.0 * lam)
    else:
        g = math.exp(-lam * (2.0 * (w + math.asinh(t))))
    lead = g0 * g / math.sqrt(r)
    u = min(4.0 * lam, sys.float_info.max)  # 4n + 3, capped so that scale/u^2 is 0.0, not inf/inf
    uu = u * u
    total = last = before = 1.0
    scale = u
    for pairs in _OLVER:  # -A_(2j-1)/u^(2j-1) + A_(2j)/u^(2j)
        p = q = 0.0
        for odd, even in pairs:
            p = p * tau2 + odd
            q = q * tau2 + even
        scale /= uu
        pair = scale * (q / u - tau * p)
        omitted = lead * abs(pair)
        if abs(pair) < 1e-17 * abs(total) or omitted < atol:
            return lead * total, omitted
        if abs(pair) > max(last, before):
            return None
        total += pair
        before, last = last, abs(pair)
    return None


def _index_roundoff(steps: int) -> float:
    """Relative rounding error, in ulps, of a value built from ``steps``
    steps of a recurrence or a power, each rounding about once, plus 8 for
    the roundings that do not grow with ``steps``.  Calibrated on the J and
    eps integrands, whose Laguerre recurrence and power r**n take n steps.
    """
    return 2.0 * (steps + 8)


def gauss_f(n: int) -> float:
    """Return F_n = 2F1(-n, 1; 3/2; 2).

    Below n = 11 it is the contiguous recurrence
    (2m + 3) F_{m+1} = 2m F_{m-1} - F_m from F_0 = 1, which is stable.  From
    n = 11 up it is the finite identity behind T_n (the ``finite`` check of
    the identity suite),

        2 F_n = sigma(n) sqrt(pi/2) R(n) + S_n,
        S_n = integral_0^1 (1-t)^n (1+t)^(-n-3/2) dt
            = (1/2) integral_0^inf exp(-(n + 3/4) v) cosh(v/2)^(-1/2) dv,

    (t = tanh(v/2)), with R(n) by Stirling's series and S_n by Watson's
    lemma: S_n ~ (1/2) sum_k c_k (2k)!/(n + 3/4)^(2k+1), where
    cosh(v/2)^(-1/2) = sum_k c_k v^(2k).  The series is asymptotic (c_k
    falls like pi^(-2k)); it stops at its least term, about exp(-pi n) of
    S_n, or below 1e-17 of the sum.  Both terms are O(1) in n and the
    difference cancels at most a third of a bit.
    """
    _check_index("n", n, 0)
    if n >= _EXPANSION_MIN_N:
        r = _SQRT_HALF_PI * _stirling_ratio(n)
        return 0.5 * ((r if n % 2 == 0 else -r) + _watson_s(n))
    previous, current = 0.0, 1.0  # F_{-1} has weight 0 in the step m = 0
    for m in range(n):
        previous, current = current, (2 * m * previous - current) / (2 * m + 3)
    return current


def _watson_s(n: int) -> float:
    """S_n = integral_0^1 (1-t)^n (1+t)^(-n-3/2) dt for n >= 11 by Watson's
    lemma; see ``gauss_f``."""
    lam = n + 0.75
    l2 = 1.0 / (lam * lam)
    s, _, _, _ = _sum_asymptotic(1.0, (c * l2 ** k for k, c in enumerate(_WATSON[1:], 1)))
    return 0.5 * s / lam


def _approximant(n: int, a: float) -> tuple[float, float]:
    """T_n(a) for n >= 0 and a bound on its rounding error; see
    ``approximants.approximant`` for the formula, which holds at n = 0 too.

    Below n = 11 T is that formula, and the bound is ``_index_roundoff(n)``
    ulps of (|ratio term| + |F_n|)/(4 pi a), for the n steps of the gamma
    ratio's and F_n's recurrences and the difference taken between them.
    From n = 11 up, 2F_n = sigma sqrt(pi/2) R(n) + S_n (``gauss_f``) turns the
    formula into

        T_n(a) = sigma (sqrt(a) sqrt(pi/2) R(n) - S_n)/(8 pi a),

    with R and S_n each a few ulps off, so the bound is ``_index_roundoff(0)``
    ulps of (sqrt(a) sqrt(pi/2) R(n) + S_n)/(8 pi a): no cancellation between
    F_n and the ratio term is charged, since none is taken.  Either bound
    adds 4 ulps of |T| for the division.  Below about a = 6e-310, where T
    overflows, both are infinite.
    """
    s = -1.0 if n % 2 else 1.0
    if n >= _EXPANSION_MIN_N:
        ratio_term = math.sqrt(a) * (_SQRT_HALF_PI * _stirling_ratio(n))
        watson = _watson_s(n)
        numerator = s * (ratio_term - watson)
        magnitude = _index_roundoff(0) * _EPS * (ratio_term + watson)
        denominator = 8.0 * math.pi
    else:
        ratio_term = 0.5 * (1.0 + s * math.sqrt(a)) * _SQRT_HALF_PI * gamma_half_ratio(n)
        f = gauss_f(n)
        numerator = ratio_term - s * f
        magnitude = _index_roundoff(n) * _EPS * (abs(ratio_term) + abs(f))
        denominator = 4.0 * math.pi
    if math.isinf(denominator * a):  # a > 7.15e306 or 1.43e307: divide by a last
        t, magnitude = numerator / denominator / a, magnitude / denominator / a
    else:
        t, magnitude = numerator / (denominator * a), magnitude / (denominator * a)
    return t, magnitude + 4.0 * _EPS * abs(t)


def theta_psi(tau: float) -> float:
    """Return Psi(tau) = sum_{n>=1} exp(-pi n^2 tau) to full relative precision.

    For tau >= 0.01 the series is summed directly.  The leading term
    q = exp(-pi*tau) dominates the sum for every tau > 0, so the truncation
    tolerance is tol = 1e-16*q.  The sum stops after the first term smaller
    than tol*(1 - q): the omitted tail obeys

        sum_{n>N} exp(-pi n^2 tau) < exp(-pi (N+1)^2 tau) / (1 - q),

    so the truncation error is below tol.  From tau = 4 the sum is q alone:
    the n=2 term, q e^(-3 pi tau) <= e^(-12 pi) q = 4.3e-17 q < 2^-54 q, is
    below half an ulp of q, so summing on would return q.  The sum takes
    about 3.4*tau**-0.5 terms, at most 36 (at tau = 0.01).  The rounded
    exponent pi*tau still moves each term by up to ~pi*tau ulps.

    For tau < 0.01 the Jacobi transform

        Psi(tau) = r*Psi(1/tau) + (r - 1)/2,  r = tau**-0.5,

    is used instead, with Psi(1/tau) summed directly: since 1/tau > 100, its
    second term already underflows.  Both terms are positive, so nothing
    cancels.  Psi(inf) is its limit 0.0, which ``epsilon_integral``'s
    integrand needs at extreme a, where t/a or a*t overflows.
    """
    if not tau > 0.0:
        raise ValueError(f"tau must be positive, got {tau}")
    if tau < _JACOBI_SEAM:
        r = 1.0 / math.sqrt(tau)
        return r * theta_psi(1.0 / tau) + (r - 1.0) / 2.0
    q = math.exp(-math.pi * tau)
    if tau >= 4.0:
        return q
    threshold = 1e-16 * q * (1.0 - q)
    total = q
    n = 2
    while True:
        term = math.exp(-math.pi * n * n * tau)
        total += term
        if term < threshold:
            return total
        n += 1


def lambda_factor(a: float) -> float:
    """Elementary majorant factor with Psi(a) < lambda_factor(a) * exp(-pi*a).

    lambda(a) = 1 + exp(-3*pi*a) + exp(-2*pi*a) / (1 - exp(-pi*a)); it exceeds
    1 for every a > 0 and tends to 1 as a grows, with lambda(inf) = 1.0 for
    ``bound_asymptotic``'s 1/a = inf below a = 5.6e-309.  The denominator is
    formed by ``expm1``: the subtraction 1 - exp(-pi*a) loses digits at small
    a.  Since lambda(a) ~ 1/(pi a) there, it overflows to +inf below about
    a = 1.8e-309 (``lambda_factor(5e-324)`` is inf) and does not raise.
    """
    if not a > 0.0:
        raise ValueError(f"a must be positive, got {a}")
    return 1.0 + math.exp(-3.0 * math.pi * a) + math.exp(-2.0 * math.pi * a) / -math.expm1(-math.pi * a)

