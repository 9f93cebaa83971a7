"""Double-exponential quadrature and the integral family built on it.

One driver sums the exp-sinh rule on (0, inf): it samples f at length * node
and multiplies the sum by length * prefactor.  A finite interval runs
tanh-sinh as that same rule in s = exp(u) with x = tanh(u).
The transformation pushes endpoint singularities like t**-0.5 and slowly
decaying tails into a double-exponentially decaying weight.  Levels halve the
step and reuse the nodes already summed.  The estimate is the difference of
the last two levels, and the first level from _MIN_LEVEL on whose estimate
meets the target is returned: halving the step roughly squares the error, so
that difference is about the error of the coarser level and over-states the
error of the value returned.  No estimate is below the roundoff floor, which
counts the integrand's own rounding and that of the nodes exp(u).

Nodes are placed relative to the nearest endpoint (``exp(-u)`` and
``1 - tanh(u)`` are formed directly), so an endpoint at 0 is approached to
1e-300 without losing digits; a node nearer to a nonzero endpoint than half
its float spacing is sampled at the endpoint itself.

``u_scaled``, ``j_integral`` and ``epsilon_integral`` sum series instead
where they can; each docstring states its routes.

Determinism: node tables are fixed per level and summation order is fixed, so
identical inputs give bitwise-identical results.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable

from .specfun import (
    _EPS, _EXPANSION_MIN_N, _SQRT_PI, _approximant, _check_a, _check_index, _index_roundoff, _kummer_scaled,
    _kummer_series, _laguerre_steps, _stirling_ratio, _sum_asymptotic, _u_olver, gamma_half_ratio, gauss_f, theta_psi,
)

__all__ = [
    "AccuracyError",
    "QuadResult",
    "IntegralParams",
    "integrate",
    "u_scaled",
    "j_integral",
    "epsilon_integral",
    "finite_check_integrals",
    "DEFAULT_TOL",
]

DEFAULT_TOL = 1e-13

_HALF_PI = math.pi / 2.0
_MAX_LEVEL = 12
_MIN_LEVEL = 3
_DEFAULT_REL = 1e-13
# A node's |w*f| below _TRUNC times the sweep maximum is tail noise; two in a
# row end the sweep, as does one just before where a coarser level's run began.
# Far coarser than any genuine structure: an isolated integrand zero dips a
# single node, never two adjacent ones by 22 orders.
_TRUNC = 1e-22
# exp(u) must stay finite (u < 709.78) on the exp-sinh rays.
_U_MAX = 690.0
# u_scaled sums its Kummer series at and below this (n + 1)*z, and integrates
# above it.
_SERIES_SEAM = 0.1
# J's seams, a = _J_SEAM*(n + 2) and its mirror, decide ``_j_side``.
_J_SEAM = 50.0
# From this n to 10, where J's series misses, j_integral tries sigma*T + eps by eps's quadrature
# first: J's samples take n Laguerre steps, eps's two theta sums do not grow with n.  Index- and
# scale-sweep quad_evals are 3 750/4 102 from 6, 3 820/4 588 from 0, 4 044/4 386 with no such route.
_J_THEOREM_MIN_N = 6


@functools.cache
def _zeta_table() -> tuple[float, ...]:
    """zeta(2), zeta(4), ..., zeta(256) for ``_bernoulli_terms``, built on
    first use from zeta(2) = pi^2/6 by
    (j + 1/2) zeta(2j) = sum_{k=1}^{j-1} zeta(2k) zeta(2j - 2k), whose terms
    are positive.  A sum that runs to the end of the table charges its last
    term as the omitted one.
    """
    zetas = [math.pi ** 2 / 6.0]
    for j in range(2, 129):
        zetas.append(sum(u * v for u, v in zip(zetas, reversed(zetas))) / (j + 0.5))
    return tuple(zetas)


@dataclass(frozen=True)
class QuadResult:
    """Value, absolute-error estimate and evaluation count of one quadrature."""

    value: float
    abs_error_estimate: float
    evaluations: int

    def __post_init__(self) -> None:
        if not self.abs_error_estimate >= 0.0:
            raise ValueError("abs_error_estimate must be non-negative")
        if self.evaluations < 1:
            raise ValueError("evaluations must be at least 1")


class AccuracyError(ArithmeticError):
    """Requested tolerance not reached; ``result`` carries the best estimate.

    The message says what stopped the quadrature: the level budget ran out,
    the roundoff floor of the integrand alone exceeds the tolerance, or a
    level's sum is not finite (its estimate is then infinite); or, from J's
    and eps's series (``_first_within``), that none met the tolerance.
    """

    def __init__(self, message: str, result: QuadResult):
        super().__init__(message)
        self.result = result


@dataclass(frozen=True)
class IntegralParams:
    """Identifies one J_n(a) instance: full index n, scale a, tolerance."""

    n: int
    a: float
    tol: float = DEFAULT_TOL

    def __post_init__(self) -> None:
        _check_index("n", self.n, 0)
        _check_a("a", self.a)
        if not self.tol > 0.0:
            raise ValueError(f"tol must be positive, got {self.tol}")


# --------------------------------------------------------------------------
# node tables, built lazily and cached per level
# --------------------------------------------------------------------------


@functools.cache
def _expsinh_nodes(level: int) -> tuple[tuple[tuple[float, float, float], ...], tuple[tuple[float, float, float], ...]]:
    """exp-sinh: x = exp(u), u = (pi/2) sinh(t).  Entries are (exp(+-u), weight, |u|)."""
    h = 0.5 ** level
    start, step = (1, 2) if level > 0 else (0, 1)
    pos: list[tuple[float, float, float]] = []
    neg: list[tuple[float, float, float]] = []
    j = start
    while True:
        t = j * h
        u = _HALF_PI * math.sinh(t)
        if u > _U_MAX:
            break
        c = _HALF_PI * math.cosh(t)
        e = math.exp(u)
        pos.append((e, c * e, u))
        if j > 0:
            em = math.exp(-u)
            neg.append((em, c * em, u))
        j += step
    return tuple(pos), tuple(neg)


# --------------------------------------------------------------------------
# level sweeps and the refinement loop
# --------------------------------------------------------------------------


def _sweep(f, length, nodes, cap) -> tuple[float, float, float, int, float]:
    """Sum w*f(length*x) over the nodes until the tail is negligible.

    Returns the sum, the sum of magnitudes, the sum of magnitudes times |u|,
    the sample count, and the |u| where the run of negligible samples that
    ended the sweep began (inf if none did): a run of two, or the last sample
    below |u| = ``cap``, where a coarser level's run began.  A sweep whose last
    sample below ``cap`` is not negligible goes on past it.
    """
    total = mass = umass = 0.0
    count = 0
    peak = cut = 0.0
    first = 0.0  # |u| where the current run of negligible samples began; 0.0: none (u > 0 after the first sample)
    for e, w, u in nodes:
        if first and u >= cap > first:
            return total, mass, umass, count, first
        v = w * f(length * e)
        total += v
        count += 1
        av = abs(v)
        mass += av
        umass += u * av
        if av > peak:
            peak, cut = av, _TRUNC * av
            first = 0.0
        elif av < cut:
            if first:
                return total, mass, umass, count, first
            first = u
        else:
            first = 0.0
    return total, mass, umass, count, math.inf


def _refine(f, tol, rel_tol, roundoff=0.0, length=1.0, prefactor=1.0) -> QuadResult:
    """Integrate ``prefactor * f`` over (0, inf) at the exp-sinh nodes times
    ``length``, adding levels until the estimate meets ``max(tol, rel_tol*|value|)``.

    The estimate never drops below the roundoff floor: 4 ulps of the value,
    and ulps of h*sum|w*f| for two kinds of rounding.  ``roundoff`` ulps are
    the integrand's own rounding error when each sample carries that many.
    A node exp(u) formed from a rounded u carries about |u| ulps, in the
    weight and in the point sampled, so each sample adds 2|u| ulps of itself.
    """
    scale = length * prefactor
    total = mass = umass = 0.0
    evaluations = settled = 0
    previous = None
    cap_pos = cap_neg = math.inf
    for level in range(_MAX_LEVEL + 1):
        pos, neg = _expsinh_nodes(level)
        s1, m1, u1, n1, cap_pos = _sweep(f, length, pos, cap_pos)
        s2, m2, u2, n2, cap_neg = _sweep(f, length, neg, cap_neg)
        total += s1 + s2
        mass += m1 + m2
        umass += u1 + u2
        evaluations += n1 + n2
        h = 0.5 ** level
        value = total * h * scale
        if not math.isfinite(value):
            result = QuadResult(value, math.inf, evaluations)
            raise AccuracyError(f"quadrature sum is not finite at level {level}: {result}", result)
        floor = max(4.0 * _EPS * abs(value), _EPS * (roundoff * mass + 2.0 * umass) * h * scale)
        target = max(tol, rel_tol * abs(value))
        if previous is not None:
            # successive differences cannot certify below the roundoff floor
            err = max(abs(value - previous), floor)
            if level >= _MIN_LEVEL:
                if err <= target:
                    return QuadResult(value, err, evaluations)
                # give up on a floor above 1.1x the target once two levels settle
                # within it: it moves by up to 1e-3 of itself a level, 1.2% in all
                settled = settled + 1 if abs(value - previous) <= floor and floor > 1.1 * target else 0
                if settled == 2:
                    break
        previous = value
    if floor > target:
        why = f"the roundoff floor {floor:g} exceeds it"
    else:
        why = f"the level budget ran out at level {_MAX_LEVEL}"
    raise AccuracyError(
        f"quadrature did not reach tolerance {target:g}: {why} "
        f"(best estimate {value:.17g} +- {err:g} after {evaluations} evaluations)",
        QuadResult(value, err, evaluations),
    )


# The half-line driver.  tanh-sinh calls _refine, so a wrapper on either driver
# name (bench/harness.py counts evaluations so) sees each quadrature once.
_integrate_expsinh = _refine


def _integrate_tanhsinh(f, a, b, tol, rel_tol) -> QuadResult:
    """Integrate ``f`` over (a, b) by tanh-sinh, the exp-sinh rule in s = exp(u):
    node s lies (b - a)/2 * d from a (s <= 1) or b (s > 1), d = 1 - tanh|u| =
    2r^2/(1 + r^2) with r = min(s, 1/s); its weight ratio 4s/(1 + s^2)^2 is
    formed as 4r^3/(1 + r^2)^2 for s > 1, so nothing overflows."""
    half = 0.5 * (b - a)

    def g(s: float) -> float:
        r = min(s, 1.0 / s)
        d = 2.0 * r * r / (1.0 + r * r)
        if d == 0.0:
            return 0.0
        if s > 1.0:
            return 4.0 * r ** 3 / (1.0 + r * r) ** 2 * f(b - half * d)
        return 4.0 * r / (1.0 + r * r) ** 2 * f(a + half * d)

    return _refine(g, tol, rel_tol, 0.0, 1.0, half)


def integrate(
    f: Callable[[float], float],
    lower: float,
    upper: float,
    tol: float = DEFAULT_TOL,
    rel_tol: float = _DEFAULT_REL,
) -> QuadResult:
    """Integrate ``f`` over (lower, upper), upper may be ``math.inf``.

    Refinement stops once the error estimate drops below
    ``max(tol, rel_tol * |value|)``; tol=0.0 therefore requests full relative
    accuracy.  ``f`` must be continuous on the open interval.  An endpoint
    at 0 is never sampled exactly; a nonzero endpoint is, by any node nearer
    to it than half its float spacing, so ``f`` singular there may raise.
    On (lower, inf) ``f`` should decay on a length near 1: exp(-c t) lies
    within its estimate for 1e-98 <= c <= 1.8e13 at the default tolerances.
    A tail beyond two adjacent samples below 1e-22 of the largest is taken
    as negligible: finer levels may stop short of it.

    Raises:
        AccuracyError: target not reached within the level budget or below
            the roundoff floor, or a sample made the sum non-finite;
            ``result`` holds the best estimate.
    """
    if not math.isfinite(lower):
        raise ValueError("lower limit must be finite")
    if not upper > lower:
        raise ValueError("upper limit must exceed lower limit")
    if not (tol >= 0.0 and rel_tol >= 0.0):
        raise ValueError("tolerances must be non-negative")
    if math.isinf(upper):
        return _integrate_expsinh(lambda x: f(lower + x), tol, rel_tol)
    return _integrate_tanhsinh(f, lower, upper, tol, rel_tol)


# --------------------------------------------------------------------------
# the integral family
# --------------------------------------------------------------------------


def u_scaled(n: int, z: float) -> float:
    """G_n(z) = integral_0^inf exp(-z t) t^n (1+t)^(-n-3/2) dt = n! U(n+1, 1/2, z).

    z must be positive and finite, as a scale is everywhere in the library.
    This factorial-premultiplied form is the only safe one: n! overflows
    binary64 at n = 171 while the product n!*U is tiny, so the factorial is
    never formed.  G_n is positive and strictly decreasing in both n and z
    (the integrand is pointwise dominated).

    Three routes, none of which costs more as n grows:

    * From n = 11 up, at every z, G is the sum of its uniform large-n
      expansion (``specfun._u_olver``), with no quadrature.  Its exponent E
      (about -sqrt((4n + 3) z) for z < 4n + 3) carries about |E| ulps.
      Where 16 terms would not reach 1e-17 of the sum the quadrature runs
      instead.
    * Below n = 11, at and below (n + 1) z = 0.1, it is the connection
      formula (DLMF 13.2.42 at b = 1/2)

          G_n(z) = sqrt(pi) (R(n) M(n+1, 1/2, z) - 2 sqrt(z) M(n+3/2, 3/2, z)),

      with R = gamma_half_ratio and M = 1F1 summed by its positive series,
      with no quadrature.
    * Otherwise the integral is summed by exp-sinh quadrature, as accurate as
      its integrand, whose power (t/(1+t))**n carries about n/2 ulps.  The
      nodes sit at length max(t*, min(max(1, 6/z), 32/z)), 6 to 32 decay
      lengths 1/z of exp(-z t), or at the integrand's peak t*, the root of
      n/t - (n + 3/2)/(1 + t) = z, formed so nothing overflows to z = 1.8e308.
    """
    _check_index("n", n, 0)
    _check_a("z", z)
    if n >= _EXPANSION_MIN_N:
        g = _u_olver(n, z, _SQRT_PI * _stirling_ratio(n))
        if g is not None:
            return g[0]
    elif (n + 1) * z <= _SERIES_SEAM:
        first = gamma_half_ratio(n) * _kummer_series(n + 1, 0.5, z)
        return _SQRT_PI * (first - 2.0 * math.sqrt(z) * _kummer_series(n + 1.5, 1.5, z))
    b = z + 1.5
    peak = 2.0 * n / (b + math.hypot(b, 2.0 * math.sqrt(n) * math.sqrt(z)))
    length = max(peak, min(max(1.0, 6.0 / z), 32.0 / z))

    def f(t: float) -> float:
        g = math.exp(-z * t)
        if g == 0.0:
            return 0.0
        s = 1.0 + t
        return g * (t / s) ** n / (s * math.sqrt(s))

    return _integrate_expsinh(f, 0.0, _DEFAULT_REL, 0.0, length).value


def _bose_factor(x: float) -> float:
    """x / (exp(2*pi*x) - 1), finite at the removable singularity x = 0.

    Below x = 1e-4 the Bernoulli series (1 - s/2 + s^2/12 - s^4/720)/(2*pi)
    with s = 2*pi*x is used; its truncation error at the switch point is
    below 1e-23, far inside one ulp.  Above, the exp(-2*pi*x) form avoids
    overflow for any x, and ``expm1`` forms 1 - exp(-2*pi*x) without the
    cancellation a subtraction suffers just above the switch point.
    """
    if x < 1e-4:
        s = 2.0 * math.pi * x
        s2 = s * s
        return (1.0 - s / 2.0 + s2 / 12.0 - s2 * s2 / 720.0) / (2.0 * math.pi)
    y = -2.0 * math.pi * x
    return x * math.exp(y) / -math.expm1(y)


def _bernoulli_terms(n: int, x: float, power: float, sign: float, least: float, tol: float):
    """Yield (-1)^(j+1) sign 2 zeta(2j) g_j P_j for j = 1, 2, ..., where
    g_1 = ``power`` and g_(j+1) = (j + 1/2) x g_j: Gamma(j + 1/2) x^j up to
    a constant factor, built multiplicatively.

    P_j = 2F1(-n, 1 - j; 3/2; 2) is a sum of min(n, j - 1) + 1 positive
    terms, so a term costs O(n), and zeta(2j) is read from ``_zeta_table``;
    the terms end with that table, or with one infinite term at the first j
    where P_j times ``least`` exceeds ``tol`` or is NaN.
    """
    for j, zeta in enumerate(_zeta_table(), 1):
        p = c = 1.0
        for k in range(min(n, j - 1)):
            c *= 2.0 * (n - k) * (j - 1 - k) / ((k + 1.5) * (k + 1))
            p += c
        if not p * least <= tol:  # NaN where P_j overflows and least underflows
            yield math.inf
            return
        yield (sign if j % 2 else -sign) * 2.0 * zeta * power * p
        power *= (j + 0.5) * x


def _j_series(n: int, a: float, tol: float) -> QuadResult | None:
    """J_n(a) by its Bernoulli series, in s^2 = 1/(pi a) for a >= 1 and in
    a/pi below, as summed for ``tol`` (its estimate may exceed it), or None.

    Large a.  Expanding x/(e^(2 pi x) - 1) by DLMF 24.2.1 and integrating term
    by term with DLMF 13.10.3 gives, with H_n(b) = 2F1(-n, b; 3/2; 2),

        J_n(a) ~ (1/4 pi) [sqrt(pi) s H_n(1/2) - pi s^2 H_n(1)
                 + sum_{j>=1} (-1)^(j+1) 2 zeta(2j) Gamma(j + 1/2) s^(2j+1) H_n(j + 1/2)],

    since B_2j (2 pi)^(2j)/(2j)! = (-1)^(j+1) 2 zeta(2j) (DLMF 25.6.2).  By
    Pfaff's transformation (DLMF 15.8.1) H_n(b) = (-1)^n H_n(3/2 - b), so
    H_n(1/2) = (-1)^n F_n with F_n = H_n(1) = gauss_f(n), and H_n(j + 1/2) =
    (-1)^n P_j (``_bernoulli_terms``).  s is formed as 1/(sqrt(pi) sqrt(a)),
    so nothing overflows up to the largest float.

    Small a.  Expanding e^(-pi a x^2) 1F1(-n; 3/2; 2 pi a x^2) in powers of a
    (its x^(2k) coefficient is (-pi a)^k P_(k+1)/k!) and integrating term by
    term with integral_0^inf x^(2j-1)/(e^(2 pi x) - 1) dx =
    (2j-1)! zeta(2j)/(2 pi)^(2j) (DLMF 25.5.1) gives the same terms in
    powers of a/pi instead,

        J_n(a) ~ 1/(4 pi^(5/2)) sum_{j>=1} (-1)^(j+1) 2 zeta(2j) Gamma(j + 1/2) (a/pi)^(j-1) P_j,

    whose first term is exactly 1/24.  The power starts at Gamma(3/2) for
    j = 1, so nothing is divided by a and nothing overflows down to
    a = 5e-324, where the later terms underflow to 0.0.

    Both series are asymptotic; their terms grow like (n/(pi a))^j j! and
    (n a/pi)^j j!.  Each stops at the first term that is larger than the one
    before it or below 1e-17 of the sum (``_sum_asymptotic``), and the
    estimate is that omitted term plus ``_index_roundoff`` ulps of the sum of
    magnitudes for the steps its factors take: n below n = 11 (F_n's
    recurrence), and 10 from n = 11, where F_n's sums and P_j's at most
    j - 1 positive terms round O(1) times.  ``evaluations`` counts the terms.

    No scaled term is below P_j times n = 0's least one, which is above
    least = 0.96 e^(-y)/sqrt(2 pi y), y = pi max(a, 1/a) (zeta(2j) >= 1 and
    Gamma(j + 1/2) x^j >= 0.96 sqrt(2 pi) e^(-1/x)).  P_j only grows with
    j, so from the first j where P_j least exceeds ``tol`` so does every
    later term, and with it the estimate.  The series stops there, with an
    infinite omitted term, and returns None where least alone exceeds
    ``tol`` (P_1 = 1), summing no term.  At ``tol`` = inf it ends at its least term.
    """
    least = _j_least(a)
    if least > tol:
        return None
    if a < 1.0:
        terms = _bernoulli_terms(n, a / math.pi, 0.5 * _SQRT_PI, 1.0, least, tol)
        first, scale = next(terms), 0.25 / math.pi ** 2.5
    else:
        s = 1.0 / (_SQRT_PI * math.sqrt(a))
        s2 = s * s
        sign = -1.0 if n % 2 else 1.0
        f = sign * gauss_f(n)  # H_n(1/2) = (-1)^n F_n
        # Gamma(j + 1/2) s^(2j) from j = 1
        later = _bernoulli_terms(n, s2, _SQRT_PI * (0.5 * s2), sign, least, tol)
        terms = itertools.chain((-sign * math.pi * s * f,), later)
        first, scale = _SQRT_PI * f, s / (4.0 * math.pi)
    total, mass, omitted, count = _sum_asymptotic(first, terms)
    roundoff = _index_roundoff(min(n, _EXPANSION_MIN_N - 1))
    estimate = (omitted + roundoff * _EPS * mass) * scale
    return QuadResult(total * scale, estimate, count)


def _j_side(n: int, a: float) -> bool:
    """J's series side: n < 11, or a at or beyond J's seams 50(n + 2) and
    1/(50(n + 2)).  There J is ``_j_series`` and eps is J - sigma*T; between
    the seams eps is ``_eps_series`` and J is sigma*T + eps."""
    return n < _EXPANSION_MIN_N or not 1.0 / (_J_SEAM * (n + 2)) < a < _J_SEAM * (n + 2)


def _j_least(a: float) -> float:
    """``_j_series``'s lower bound on every scaled term: n = 0's least one."""
    y = math.pi * max(a, 1.0 / a)
    return 0.96 * math.exp(-y) / math.sqrt(2.0 * math.pi * y)


def _theorem(n: int, a: float, tol: float, part, sign: float) -> QuadResult | None:
    """``part`` + ``sign`` sigma T_n(a) as summed for ``tol``: the theorem
    J = sigma T + eps read as J (``part`` is ``_eps_series`` or
    ``_eps_quadrature``, ``sign`` 1) or as eps (``part`` is ``_j_series``,
    ``sign`` -1), with T and its rounding bound from
    ``specfun._approximant``.  None where that bound exceeds ``tol``/2,
    before ``part`` runs; else ``part`` is asked for ``tol`` less the bound,
    and a part that returns None or raises ``AccuracyError`` gives None.  The
    estimate, part's plus the bound plus 2 ulps of the sum, may exceed
    ``tol``.  Where the gate refuses ``tol``, twice the bound is the least
    request it admits, which the routes from n = 11 ask next.
    """
    t, t_error = _approximant(n, a)
    if not t_error <= 0.5 * tol:
        return None
    try:
        other = part(n, a, tol - t_error)
    except AccuracyError:
        return None
    if other is None:
        return None
    value = other.value + sign * (-t if n % 2 else t)
    estimate = other.abs_error_estimate + t_error + 2.0 * _EPS * abs(value)
    return QuadResult(value, estimate, other.evaluations)


def _first_within(tol: float, results) -> QuadResult:
    """The first of ``results`` that meets ``tol``: each route's result, run
    only once those before it missed, or None where it gave no value.  Past
    the last, ``AccuracyError`` carries the smallest estimate's, or nan +- inf
    where none gave a value, and its message says why."""
    best = None
    for result in results:
        if result is not None and result.abs_error_estimate <= tol:
            return result
        if result is not None and (best is None or result.abs_error_estimate < best.abs_error_estimate):
            best = result
    why = (f"best estimate {best.value:.17g} +- {best.abs_error_estimate:g} after {best.evaluations} terms" if best
           else "none gave a value: G's expansion failed, or T left the float range")
    raise AccuracyError(f"no series reached tolerance {tol:g} ({why})", best or QuadResult(math.nan, math.inf, 1))


def j_integral(p: IntegralParams) -> QuadResult:
    """J_n(a) = integral_0^inf x e^(-pi a x^2)/(e^(2 pi x)-1) 1F1(-n;3/2;2 pi a x^2) dx,
    to the absolute ``p.tol``: the estimate returned never exceeds it.

    The first route that meets ``p.tol`` answers (``_first_within``): between
    J's seams (``_j_side``) the paper's theorem sigma*T_n(a) + eps_n(a)
    (``_theorem``) with eps by its G series (``_eps_series``); then J's
    Bernoulli series (``_j_series``), with full relative precision at both
    ends of the float range, where J_n(a) ~ (-1)^n F_n/(4 pi sqrt(a)) and
    -> 1/24.  Below n = 11 the quadratures follow: from n = 6 the theorem
    with eps by its quadrature (``_eps_quadrature``), which inside the window
    meets the same absolute tolerance in fewer levels, then J's own
    (``_j_quadrature``), which answers or raises.  From n = 11 no quadrature
    runs: the theorem asked for twice T's bound, where that refused
    ``p.tol`` between the seams, and J's series summed to its least term
    follow, and a miss raises the best result in microseconds.

    Every positive finite a is accepted and no factor overflows, from
    J_n(5e-324) ~ 1/24 to J_n(1.8e308) ~ 1e-156.
    """
    return _first_within(p.tol, _j_routes(p.n, p.a, p.tol))


def _j_routes(n: int, a: float, tol: float):
    between = not _j_side(n, a)
    if between:
        yield _theorem(n, a, tol, _eps_series, 1.0)
    yield _j_series(n, a, tol)
    if n < _EXPANSION_MIN_N:
        if n >= _J_THEOREM_MIN_N:
            yield _theorem(n, a, tol, _eps_quadrature, 1.0)
        yield _j_quadrature(n, a, tol)  # meets tol or raises
    else:
        if between and 0.5 * tol < (t_error := _approximant(n, a)[1]) < math.inf:
            yield _theorem(n, a, 2.0 * t_error, _eps_series, 1.0)
        yield _j_series(n, a, math.inf)


def _j_quadrature(n: int, a: float, tol: float) -> QuadResult:
    """J_n(a) = integral_0^inf e^(-z/2) 1F1(-n; 3/2; z)/(2(e^(2 pi x) - 1)) dy,
    z = 2 pi a y, by exp-sinh quadrature in y = x^2, where the Gaussian is an
    exponential and x = 0 is a y^(-1/2) singularity, to the absolute ``tol``
    with no relative target: a ``tol`` below the roundoff floor raises
    ``AccuracyError``.  Its callers ask n <= 10 (``j_integral``) and n <= 20
    (the identity suite).  v is sampled at length 1 under the prefactor
    y/v = min(2, 4/a), z = 2 pi (a y/v) v and x = sqrt(y/v) sqrt(v): y itself
    underflows near v = 0 at a = 1e300.  ``specfun._kummer_scaled`` takes
    e^(-z/2) times the Bose factor over 2x as its start; the floor, 2(n + 8)
    ulps of integral |f|, covers the roots and 1/(2x) (0.25 ulp), but from
    about n = 500 not the recurrence: 5.0x short at (1000, 0.0178).
    """
    length = min(2.0, 4.0 / a)
    c, root = 2.0 * math.pi * (a * length), math.sqrt(length)
    steps = _laguerre_steps(n)  # formed inline, the steps cost 1.5-1.8x the time at n <= 20

    def f(v: float) -> float:
        z = c * v
        scale = math.exp(-0.5 * z)
        if scale == 0.0:
            return 0.0
        x = root * math.sqrt(v)
        scale *= _bose_factor(x) / (2.0 * x)
        if scale == 0.0:
            return 0.0
        return _kummer_scaled(n, z, scale, steps)

    return _integrate_expsinh(f, tol, 0.0, _index_roundoff(n), 1.0, length)


def epsilon_integral(p: IntegralParams) -> QuadResult:
    """Remainder term eps_n(a) = J_n(a) - sigma*T_n(a) of the closed-form
    approximation to J_n(a), to the absolute ``p.tol``.

    Even n = 2k:
        eps = 1/(4 pi a) * integral_1^inf (psi(t) + sqrt(a) phi(t))
              (t-1)^n / (1+t)^(n+3/2) dt
    Odd n uses the combination sqrt(a) phi(t) - psi(t) with the same kernel
    shape, where psi(t) = Psi(t/a) and phi(t) = Psi(a*t).

    Between J's seams (``_j_side``) eps is the sum of the paper's own G
    series (``_eps_series``).  On J's side it is J - sigma*T (``_theorem``)
    with J by its Bernoulli series (``_j_series``): outside the window
    pi/(2k) << a << 2k/pi the difference cancels nothing, and inside it,
    where eps reaches 1e-24 while J is O(1e-2), T's rounding bound refuses
    any tolerance that asks eps for a digit.  Where that misses, below
    n = 11 the integral is summed by exp-sinh quadrature
    (``_eps_quadrature``), once; from n = 11 the difference is asked for
    twice T's bound where that refused ``p.tol``, and a miss raises the best
    result (``_first_within``).  For odd n at a = 1 eps is exactly zero.

    Swapping Psi(t/a) and Psi(a*t) gives eps_n(1/a) = sigma(n) a^(3/2)
    eps_n(a), as bound gives B_n(1/a) = a^(3/2) B_n(a).
    """
    return _first_within(p.tol, _eps_routes(p.n, p.a, p.tol))


def _eps_routes(n: int, a: float, tol: float):
    if not _j_side(n, a):
        yield _eps_series(n, a, tol)
        return
    # where J's series refuses tol it refuses the less that _theorem asks
    if _j_least(a) <= tol:
        yield _theorem(n, a, tol, _j_series, -1.0)
    if n < _EXPANSION_MIN_N:
        yield _eps_quadrature(n, a, tol)  # meets tol or raises
    elif 0.5 * tol < (t_error := _approximant(n, a)[1]) < math.inf:
        yield _theorem(n, a, 2.0 * t_error, _j_series, -1.0)


def _eps_series(n: int, a: float, tol: float) -> QuadResult | None:
    """eps_n(a) for n >= 11 by its G series, as summed for ``tol`` (its
    estimate may exceed it), or None.  Expanding Psi term by term in
    ``epsilon_integral``'s integrand and substituting t = 1 + 2v gives exactly

        eps_n(a) = 1/(4 sqrt(2) pi a) sum_{m>=1} [sigma e^(-pi m^2/a) G_n(2 pi m^2/a)
                                                  + sqrt(a) e^(-pi m^2 a) G_n(2 pi m^2 a)],

    the terms of the bound B_n(a) with Psi(x) no longer majorised by
    lambda(x) e^(-pi x).  Each G is one uniform expansion
    (``specfun._u_olver``), so a term costs O(1) in n; where one does not
    converge, it gives None.
    Term m of a side gives its G the room share/(64 m^2), share being the
    side's quarter of ``tol``: the expansion stops at its first pair of
    terms below that room over |weight| e^(-pi m^2 x), or below 1e-17 of G,
    and the term is charged twice that pair, at most its own size.  A side's
    charges stay below 2 (pi^2/6)/64 < 1/19 of its share.  At a subnormal
    exponential the room is inf, and the charge, a product, stays finite.

    A side's terms t_m fall by at least r = e^(-pi x (2m + 1)) from t_m to
    t_(m+1), since G_n decreases, so once t_m is summed the rest of the side
    is below t_m r/(1 - r).  Each side stops where that tail is below a
    quarter of ``tol`` or 1e-17 of the side's sum.  It is summed only
    between J's seams (``_j_side``), where x (4n + 3) > 0.072 on both sides,
    so G_n(2 pi m^2 x) alone falls by about e^(-0.67) per term and the
    second stop ends each side within about 60 + 1.5 ln n terms.  The
    estimate is the two tails and the charges, plus each term's rounding:
    2(|E| + 8) ulps for G, whose exponent |E| <= sqrt(u z) carries about |E| of them
    (``specfun._u_olver``), and 2 pi m^2 x ulps for the exponential of the
    rounded pi m^2 x; plus 8 ulps of the sum of magnitudes, which covers odd
    n near a = 1, where the two sides cancel; plus 4 ulps of the value for
    the prefactor, divided out as 1/(4 sqrt(2) pi) and then 1/a, so that
    nothing overflows up to a = 1.8e308.  ``evaluations`` counts the G terms.
    """
    if n % 2 and a == 1.0:  # the sides cancel exactly
        return QuadResult(0.0, 0.0, 1)
    g0 = _SQRT_PI * _stirling_ratio(n)  # G_n(0)
    u = 4.0 * n + 3.0
    coef = 4.0 * math.sqrt(2.0) * math.pi  # 1/prefactor is coef a, which overflows above a = 1.01e307
    share = 0.25 * tol * coef * a  # each side's quarter of tol, before the prefactor
    total = mass = error = charged = 0.0
    count = 0
    for x, weight in ((1.0 / a, -1.0 if n % 2 else 1.0), (a, math.sqrt(a))):
        side = 0.0
        for m in itertools.count(1):
            y = math.pi * (m * m) * x
            e = math.exp(-y)
            if e == 0.0:  # this term and the rest are below the float range
                break
            z = 2.0 * y
            expansion = _u_olver(n, z, g0, share / (64 * m * m) / e / abs(weight))
            if expansion is None:
                return None
            g, omitted = expansion
            front = weight * e
            term = front * g
            size = abs(term)
            side += term
            mass += size
            charged += min(size, 2.0 * abs(front) * omitted)
            if size:  # a G that underflowed charges nothing; sqrt(u z) is inf from n ~ 1e307
                error += size * (2.0 * (math.sqrt(u * z) + 8.0) + 2.0 * y) * _EPS
            count += 1
            drop = -math.expm1(-math.pi * x * (2 * m + 1))  # 1 - r
            tail = size * (1.0 - drop) / drop
            if tail <= share or tail <= 1e-17 * abs(side):
                error += tail
                break
        total += side
    value = total / coef / a
    estimate = (error + charged + 8.0 * _EPS * mass) / coef / a + 4.0 * _EPS * abs(value)
    return QuadResult(value, estimate, count)


def _eps_quadrature(n: int, a: float, tol: float, rel_tol: float = 0.0) -> QuadResult:
    """eps_n(a) by exp-sinh quadrature of its integral (``epsilon_integral``),
    to ``max(tol, rel_tol*|eps|)``.  ``epsilon_integral`` asks below n = 11
    for the absolute ``tol`` alone, as for ``_j_quadrature``; the identity
    suite, whose eps this is at every n, asks a relative target alone.

    The substitution t = 1 + u moves the path to (0, inf) and concentrates
    nodes where (t-1)^n turns on.  Theta sums are truncated per point, scaled
    to their own leading term.

    The nodes are placed at length max(1, min(n, sqrt(2n/(pi min(a, 1/a))))),
    near the peak u* of (u/(2+u))^n e^(-pi u min(a, 1/a)).  The cap at n
    matters outside the window pi/(2k) << a << 2k/pi: there the Jacobi part
    of the theta sum, about sqrt(a/t)/2 for Psi(t/a) at large a, outweighs
    the exponential, the mass sits at u ~ n, and an uncapped length would
    place the nodes past it and return a wrong value with a small estimate.

    The integrand is (psi/sqrt(a) + phi) times the kernel, or (phi -
    psi/sqrt(a)) for odd n, under the prefactor 1/(4 pi sqrt(a)), a normal
    float over the whole float range.  For odd n at a = 1 the two theta sums
    coincide, and the result is exactly zero, with nothing summed.
    """
    odd = n % 2 == 1
    if odd and a == 1.0:
        return QuadResult(0.0, 0.0, 1)
    sq = math.sqrt(a)
    inv = 1.0 / sq
    length = max(1.0, min(n, math.sqrt(2.0 * n / (math.pi * min(a, 1.0 / a)))))

    def f(u: float) -> float:
        t = 1.0 + u
        psi = theta_psi(t / a)
        phi = psi if a == 1.0 else theta_psi(a * t)  # t/a and a t are both t at a = 1
        s = (phi - inv * psi) if odd else (inv * psi + phi)
        if s == 0.0:
            return 0.0
        r = u / (2.0 + u)
        return s * r ** n / ((2.0 + u) * math.sqrt(2.0 + u))

    return _integrate_expsinh(f, tol, rel_tol, _index_roundoff(n), length, 1.0 / (4.0 * math.pi * sq))


def finite_check_integrals(m: int) -> tuple[float, float]:
    """The two finite integrals behind the closed-form approximant T_m.

    Returns (integral_0^1 t^(-1/2) (1-t)^m / (1+t)^(m+3/2) dt,
             integral_0^1 (1-t)^m / (1+t)^(m+3/2) dt)
    for m >= 0 at full relative accuracy.  t = 1/(1+s) makes them the kernel
    of eps_n, integral_0^inf s^m (2+s)^(-m-3/2) ds, and that times
    (1+s)^(-1/2), sampled at its rise length max(1, sqrt(m)): cost flat in m.
    """
    _check_index("m", m, 0)
    length = max(1.0, math.sqrt(m))

    def core(s: float) -> float:
        r = s / (2.0 + s)
        return r ** m / ((2.0 + s) * math.sqrt(2.0 + s))

    first = _integrate_expsinh(core, 0.0, _DEFAULT_REL, 0.0, length)
    second = _integrate_expsinh(lambda s: core(s) / math.sqrt(1.0 + s), 0.0, _DEFAULT_REL, 0.0, length)
    return first.value, second.value
