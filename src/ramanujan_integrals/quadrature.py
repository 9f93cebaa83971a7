"""Double-exponential quadrature and the integral family built on it.

One driver sums the exp-sinh rule on (0, inf): it samples f at length * node
and multiplies the sum by length * prefactor.  A finite interval runs
tanh-sinh as that same rule in s = exp(u) with x = tanh(u).
The transformation pushes endpoint singularities like t**-0.5 and slowly
decaying tails into a double-exponentially decaying weight.  Levels halve the
step; previously computed nodes are reused, and the error estimate comes from
successive level differences.

Nodes are placed relative to the nearest endpoint (``exp(-u)`` and
``1 - tanh(u)`` are formed directly), so an endpoint at 0 is approached to
1e-300 without losing digits; a node nearer to a nonzero endpoint than half
its float spacing is sampled at the endpoint itself.

Determinism: node tables are fixed per level and summation order is fixed, so
identical inputs give bitwise-identical results.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

from .specfun import _check_a, _check_index, _kummer_scaled, _laguerre_steps, theta_psi

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

_EPS = 2.220446049250313e-16
_HALF_PI = math.pi / 2.0
_MAX_LEVEL = 12
_MIN_LEVEL = 3
_DEFAULT_REL = 1e-13
# A node's |w*f| below _TRUNC times the sweep maximum is tail noise; two in a
# row end the sweep.  Far coarser than any genuine structure: an isolated
# integrand zero dips a single node, never two adjacent ones by 22 orders.
_TRUNC = 1e-22
# exp(u) must stay finite (u < 709.78) on the exp-sinh rays.
_U_MAX = 690.0


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
    level's sum is not finite (its estimate is then infinite).
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
def _expsinh_nodes(level: int) -> tuple[tuple[tuple[float, float], ...], tuple[tuple[float, float], ...]]:
    """exp-sinh: x = exp(u), u = (pi/2) sinh(t).  Entries are (exp(+-u), weight)."""
    h = 0.5 ** level
    start, step = (1, 2) if level > 0 else (0, 1)
    pos: list[tuple[float, float]] = []
    neg: list[tuple[float, float]] = []
    j = start
    while True:
        t = j * h
        u = _HALF_PI * math.sinh(t)
        if u > _U_MAX:
            break
        c = _HALF_PI * math.cosh(t)
        e = math.exp(u)
        pos.append((e, c * e))
        if j > 0:
            em = math.exp(-u)
            neg.append((em, c * em))
        j += step
    return tuple(pos), tuple(neg)


# --------------------------------------------------------------------------
# level sweeps and the refinement loop
# --------------------------------------------------------------------------


def _sweep(values) -> tuple[float, float, int]:
    """Sum weighted samples until the tail is negligible for this sweep.

    Returns the sum, the sum of magnitudes and the sample count.
    """
    total = 0.0
    mass = 0.0
    count = 0
    peak = 0.0
    small = 0
    for v in values:
        total += v
        count += 1
        av = abs(v)
        mass += av
        if av > peak:
            peak = av
            small = 0
        elif peak > 0.0 and av < _TRUNC * peak:
            small += 1
            if small >= 2:
                break
        else:
            small = 0
    return total, mass, count


def _refine(f, tol, rel_tol, roundoff=0.0, length=1.0, prefactor=1.0) -> QuadResult:
    """Integrate ``prefactor * f`` over (0, inf) at the exp-sinh nodes times
    ``length``, adding levels until the estimate meets ``max(tol, rel_tol*|value|)``.

    The estimate never drops below the roundoff floor: a few ulps of the
    value, and ``roundoff`` ulps of h*sum|w*f|, the size of the integrand's
    own rounding error when each sample carries ``roundoff`` ulps of it.
    """
    scale = length * prefactor
    total = 0.0
    mass = 0.0
    evaluations = 0
    previous = None
    d_prev = None
    for level in range(_MAX_LEVEL + 1):
        pos, neg = _expsinh_nodes(level)
        s1, m1, n1 = _sweep(w * f(length * e) for e, w in pos)
        s2, m2, n2 = _sweep(w * f(length * e) for e, w in neg)
        total += s1 + s2
        mass += m1 + m2
        evaluations += n1 + n2
        value = total * (0.5 ** level) * scale
        if not math.isfinite(value):
            result = QuadResult(value, math.inf, evaluations)
            raise AccuracyError(f"quadrature sum is not finite at level {level}: {result}", result)
        floor = max(4.0 * _EPS * abs(value), roundoff * _EPS * mass * (0.5 ** level) * scale)
        target = max(tol, rel_tol * abs(value))
        if previous is not None:
            d1 = abs(value - previous)
            err = d1 if d_prev is None else max(d1, 0.1 * d_prev)
            # successive differences cannot certify below the roundoff floor
            err = max(err, floor)
            if level >= _MIN_LEVEL and err <= target:
                return QuadResult(value, err, evaluations)
            d_prev = d1
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
    On (lower, inf) ``f`` should decay on a length near 1: at the default
    tolerances exp(-c t) lies within its estimate for 3e-17 <= c <= 1.8e13,
    costs 4 021 evaluations at c = 1e-10 and ~40 000 below 1e-75, raises
    below about 1e-142, and from c = 3e13 up may miss by more than the estimate.

    Raises:
        AccuracyError: target not reached within the level budget or below
            the roundoff floor of a few ulps of the value, or a sample made
            the sum non-finite; ``result`` holds the best estimate.
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

    This factorial-premultiplied form is the only safe one: n! overflows
    binary64 at n = 171 while the product n!*U is tiny, so the factorial is
    never formed.  G_n is positive and strictly decreasing in both n and z
    (the integrand is pointwise dominated).  The integral is evaluated to
    full relative accuracy.

    The nodes are placed at length max(t*, min(1, 16/z)), where t* is the
    integrand's peak, the root of n/t - (n + 3/2)/(1 + t) = z: about 2n/3 for
    small z and sqrt(n/z) for large nz.  t* is formed with hypot and
    sqrt(n)*sqrt(z), so nothing overflows up to z = 1.8e308.  Where t* is
    shorter (small n at large z, or n = 0), 16/z follows the exponential.
    """
    _check_index("n", n, 0)
    if not z > 0.0:
        raise ValueError(f"z must be positive, got {z}")
    b = z + 1.5
    peak = 2.0 * n / (b + math.hypot(b, 2.0 * math.sqrt(n) * math.sqrt(z)))
    length = max(peak, min(1.0, 16.0 / z))

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
    em = math.exp(-2.0 * math.pi * x)
    return x * em / -math.expm1(-2.0 * math.pi * x)


def _index_roundoff(n: int) -> float:
    """Relative rounding error, in ulps, of the J and eps integrands at index n.

    Both carry a factor whose rounding error grows linearly in n: the
    Laguerre recurrence for 1F1(-n; 3/2; z) and the power r**n.  Against
    32-digit mpmath references at 0.1 <= a <= 10, the true errors reached
    245 ulps of h*sum|w*f| for J (n = 200) and 136 for eps (n = 1736), and
    at most 1.2(n + 8) ulps at any n.
    """
    return 2.0 * (n + 8)


def j_integral(p: IntegralParams) -> QuadResult:
    """J_n(a) = integral_0^inf x e^(-pi a x^2)/(e^(2 pi x)-1) 1F1(-n;3/2;2 pi a x^2) dx.

    The Kummer factor is evaluated by the stable Laguerre recurrence with the
    Bose factor and the Gaussian e^(-z/2) folded into its start values, so no
    intermediate value overflows and the cost per sample is O(n) at full
    accuracy for every n.  The error estimate is never below the integrand's
    roundoff floor, 2(n + 8) ulps of integral |f|.

    Above a = 4 pi the Gaussian's length 1/sqrt(pi a) is shorter than the
    Bose factor's 1/(2 pi), so sampling at length L = sqrt(4 pi/a) keeps the
    nodes on the integrand and the cost flat in a; for a <= 4 pi, L is 1.
    """
    n, a = p.n, p.a
    c = 2.0 * math.pi * a
    length = min(1.0, math.sqrt(4.0 * math.pi / a))
    steps = _laguerre_steps(n)

    def f(x: float) -> float:
        z = c * x * x
        scale = math.exp(-0.5 * z)
        if scale == 0.0:
            return 0.0
        scale *= _bose_factor(x)
        if scale == 0.0:
            return 0.0
        return _kummer_scaled(n, z, scale, steps)

    # p.tol is an absolute request and is enforced as such: an unattainable
    # tolerance raises instead of quietly settling at the roundoff floor.
    return _integrate_expsinh(f, p.tol, 0.0, _index_roundoff(n), length)


def epsilon_integral(p: IntegralParams) -> QuadResult:
    """Remainder term of the closed-form approximation to J_n(a).

    Even n = 2k:
        eps = 1/(4 pi a) * integral_1^inf (psi(t) + sqrt(a) phi(t))
              (t-1)^n / (1+t)^(n+3/2) dt
    Odd n uses the combination sqrt(a) phi(t) - psi(t) with the same kernel
    shape, where psi(t) = Psi(t/a) and phi(t) = Psi(a*t).

    The integral is always evaluated in this form, never as a difference of
    J and its approximant: the remainder reaches 1e-24 while J is O(1e-2),
    so the subtraction would be pure roundoff.  The substitution t = 1 + u
    moves the path to (0, inf) and concentrates nodes where (t-1)^n turns on.
    Theta sums are truncated per point, scaled to their own leading term.

    The nodes are placed at length max(1, min(n, sqrt(2n/(pi min(a, 1/a))))),
    near the peak u* of (u/(2+u))^n e^(-pi u min(a, 1/a)).  The cap at n
    matters outside the window pi/(2k) << a << 2k/pi: there the Jacobi part
    of the theta sum, about sqrt(a/t)/2 for Psi(t/a) at large a, outweighs
    the exponential, the mass sits at u ~ n, and an uncapped length would
    place the nodes past it and return a wrong value with a small estimate.

    For odd n at a = 1 the two theta sums coincide and the integrand vanishes
    identically; the result is exactly zero.
    """
    n, a = p.n, p.a
    odd = n % 2 == 1
    sq = math.sqrt(a)
    length = max(1.0, min(n, math.sqrt(2.0 * n / (math.pi * min(a, 1.0 / a)))))

    def f(u: float) -> float:
        t = 1.0 + u
        psi = theta_psi(t / a)
        phi = theta_psi(a * t)
        s = (sq * phi - psi) if odd else (psi + sq * phi)
        if s == 0.0:
            return 0.0
        r = u / (2.0 + u)
        return s * r ** n / ((2.0 + u) * math.sqrt(2.0 + u))

    if odd and a == 1.0:
        return QuadResult(0.0 * f(1.0), 0.0, 1)

    return _integrate_expsinh(f, p.tol, 0.0, _index_roundoff(n), length, 1.0 / (4.0 * math.pi * a))


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
