"""Tests for the quadrature engine and the integral family.

The evaluation routine under test is double-exponential (exp-sinh, with
tanh-sinh run on the exp-sinh nodes); independent cross-checks use
Gauss-Kronrod quadrature from scipy (a different node family) and scipy's
confluent hypergeometric U.
"""

import hashlib
import itertools
import json
import math
import os
import sys
from fractions import Fraction

import pytest
import scipy.integrate
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from ramanujan_integrals import (
    DEFAULT_TOL,
    AccuracyError,
    IntegralParams,
    QuadResult,
    bound,
    epsilon_integral,
    finite_check_integrals,
    gamma_half_ratio,
    gauss_f,
    integrate,
    j_integral,
    sigma,
    t_even,
    t_odd,
    u_scaled,
)
from ramanujan_integrals import quadrature, run_suite, specfun
from ramanujan_integrals.quadrature import _bose_factor

_POOL = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "pool.json")


def _count_terms(monkeypatch):
    """Count the G expansions (``specfun._u_olver``) that quadrature sums."""
    olver = quadrature._u_olver
    calls = []
    monkeypatch.setattr(quadrature, "_u_olver", lambda *args: calls.append(args) or olver(*args))
    return calls


def _count_calls(monkeypatch, name):
    """Wrap the quadrature driver ``name``; the list gets each call's evaluations."""
    driver = getattr(quadrature, name)
    calls = []

    def counted(*args):
        result = driver(*args)
        calls.append(result.evaluations)
        return result

    monkeypatch.setattr(quadrature, name, counted)
    return calls


def _count_quadratures(monkeypatch):
    """Count the calls of J's and eps's quadratures (``_j_quadrature`` and
    ``_eps_quadrature``), by name."""
    counts = {}
    for name in ("_j_quadrature", "_eps_quadrature"):
        driver = getattr(quadrature, name)
        counts[name] = 0

        def counted(*args, name=name, driver=driver):
            counts[name] += 1
            return driver(*args)

        monkeypatch.setattr(quadrature, name, counted)
    return counts


def _series_reach(n, ratio):
    """The first a = ratio**(k/8), k = 0, 1, 2, ..., where J_n's Bernoulli
    series has an estimate within 1e-13."""
    steps = (ratio ** (k / 8) for k in itertools.count())
    return next(a for a in steps if quadrature._j_series(n, a, 1e-13) is not None)


def _mp_gauss_f(mp, n):
    """F_n = 2F1(-n, 1; 3/2; 2) by its recurrence at mpmath's precision."""
    previous, f = mp.mpf(0), mp.mpf(1)
    for m in range(n):
        previous, f = f, (2 * m * previous - f) / (2 * m + 3)
    return f


def _mp_p(mp, n, j):
    """P_j = 2F1(-n, 1 - j; 3/2; 2), a finite sum of positive terms (mpmath's
    hyp2f1(-5000, 0.5, 1.5, 2) does not converge)."""
    p = c = mp.mpf(1)
    for k in range(min(n, j - 1)):
        c *= mp.mpf(2 * (n - k) * (j - 1 - k)) / ((k + mp.mpf(1.5)) * (k + 1))
        p += c
    return p


def _mp_g(mp, n, z):
    """G_n(z) = n! U(n+1, 1/2, z); mpmath's hyperu needs a higher precision
    ceiling than its default at large n."""
    return mp.factorial(n) * mp.hyperu(n + 1, mp.mpf(1) / 2, z, maxprec=100000, maxterms=10 ** 6)


def _mp_g_cap(mp, n, z):
    """An upper bound on G_n(z): its integrand is at most
    e^(-z t/2) max_s e^(-z s/2) (s/(1 + s))^n, and that maximum is at
    s(1 + s) = 2n/z."""
    s = (mp.sqrt(1 + 8 * n / z) - 1) / 2
    return 2 / z * mp.exp(-z * s / 2 + n * mp.log(s / (1 + s)))


def _mp_eps(mp, n, a):
    """eps_n(a) by its G series (``quadrature.epsilon_integral``) at mpmath's
    precision, the side with the smaller x first.  A side stops where
    e^(-pi m^2 x) times G_n(0) or ``_mp_g_cap``, each of which bounds its
    term, or the bound t_m r/(1 - r), r = e^(-pi x (2m + 1)), on the rest of
    it is below 10^-(dps + 3) of the sum (mpmath's G costs seconds at large
    n and z, where the cap skips it)."""
    a, sign = mp.mpf(a), (-1) ** n
    g0 = mp.sqrt(mp.pi) * mp.gamma(n + 1) / mp.gamma(n + mp.mpf(1.5))
    least = mp.mpf(10) ** -(mp.mp.dps + 3)
    total = 0
    for x, weight in sorted(((1 / a, sign), (a, mp.sqrt(a)))):
        for m in itertools.count(1):
            e = abs(weight) * mp.exp(-mp.pi * m * m * x)
            if e * min(g0, _mp_g_cap(mp, n, 2 * mp.pi * m * m * x)) < least * abs(total):
                break
            term = e * _mp_g(mp, n, 2 * mp.pi * m * m * x)
            total += term if weight > 0 else -term
            r = mp.exp(-mp.pi * x * (2 * m + 1))
            if term * r / (1 - r) < least * abs(total):
                break
    return total / (4 * mp.sqrt(2) * mp.pi * a)


def _mp_j_integral(mp, n, a):
    """J_n(a) by mpmath quadrature of its defining integral, the path split
    around the integrand's length min(1, sqrt(4 pi/a))."""
    a = mp.mpf(a)
    length = min(1, mp.sqrt(4 * mp.pi / a))

    def f(x):
        z = 2 * mp.pi * a * x * x
        return x * mp.exp(-z / 2) / mp.expm1(2 * mp.pi * x) * mp.hyp1f1(-n, 1.5, z)

    return mp.quad(f, [0, length / 4, length, 4 * length, mp.inf])


def _mp_t(mp, n, a):
    """T_n(a) by the paper's formula at mpmath's precision."""
    am, sign = mp.mpf(a), (-1) ** n
    r = mp.gamma(n + 1) / mp.gamma(n + mp.mpf(1.5))
    return ((1 + sign * mp.sqrt(am)) / 2 * mp.sqrt(mp.pi / 2) * r - sign * _mp_gauss_f(mp, n)) / (4 * mp.pi * am)


def _mp_theorem_j(mp, n, a):
    """J_n(a) = sigma*T_n(a) + eps_n(a) at mpmath's precision."""
    return (-1) ** n * _mp_t(mp, n, a) + _mp_eps(mp, n, a)


def _mp_j_series(mp, n, a):
    """J_n(a) by its Bernoulli series (``quadrature._j_series``) at mpmath's
    precision, summed to its least term or to 1e-70 of the sum: in powers of
    a/pi below a = 1, and above it in powers of s^2 = 1/(pi a), with
    H_n(1/2) = (-1)^n F_n, H_n(1) = F_n and H_n(j + 1/2) = (-1)^n P_j."""
    a = mp.mpf(a)
    if a < 1:
        total, power, x, sign, scale = 0, mp.mpf(1), a / mp.pi, 1, 1 / (4 * mp.pi ** 2.5)
    else:
        s = 1 / mp.sqrt(mp.pi * a)
        f, sign = _mp_gauss_f(mp, n), (-1) ** n
        total, power, x, scale = mp.sqrt(mp.pi) * s * sign * f - mp.pi * s ** 2 * f, s ** 3, s ** 2, 1 / (4 * mp.pi)
    previous = None
    for j in range(1, 1000):
        term = (-1) ** (j + 1) * sign * 2 * mp.zeta(2 * j) * mp.gamma(j + 0.5) * power * _mp_p(mp, n, j)
        if previous is not None and not mp.mpf(10) ** -70 * abs(total) <= abs(term) <= abs(previous):
            break
        total += term
        previous = term
        power *= x
    return total * scale


class TestResultTypes:
    def test_quad_result_validation(self):
        with pytest.raises(ValueError):
            QuadResult(1.0, -1e-3, 10)
        with pytest.raises(ValueError):
            QuadResult(1.0, 0.0, 0)

    def test_integral_params_validation(self):
        with pytest.raises(ValueError):
            IntegralParams(-1, 1.0)
        with pytest.raises(ValueError):
            IntegralParams(2, 0.0)
        with pytest.raises(ValueError):
            IntegralParams(2, -3.0)
        with pytest.raises(ValueError):
            IntegralParams(2, 1.0, tol=0.0)
        with pytest.raises(ValueError):
            IntegralParams(2, math.inf)
        # a float index is no index, whole or not: j_integral and
        # epsilon_integral both take theirs from here
        for n in (2.5, 2.0):
            with pytest.raises(ValueError, match=f"n must be a non-negative integer, got {n}"):
                IntegralParams(n, 1.0)

    def test_bool_index_is_rejected(self):
        # True is an int to isinstance, and would be taken as n = 1
        with pytest.raises(ValueError, match="n must be a non-negative integer, got True of type bool"):
            j_integral(IntegralParams(True, 1.0))

    def test_non_int_index_names_its_type(self):
        np = pytest.importorskip("numpy")
        with pytest.raises(ValueError, match="n must be a non-negative integer, got 3 of type int64"):
            IntegralParams(np.int64(3), 1.0)


class TestIntegrate:
    def test_decaying_exponential(self):
        res = integrate(lambda t: math.exp(-t), 0.0, math.inf)
        assert res.value == pytest.approx(1.0, abs=1e-13)

    def test_algebraic_tail(self):
        res = integrate(lambda t: t ** -2, 1.0, math.inf)
        assert res.value == pytest.approx(1.0, abs=1e-13)

    def test_gaussian(self):
        res = integrate(lambda t: math.exp(-math.pi * t * t), 0.0, math.inf)
        assert res.value == pytest.approx(0.5, abs=1e-13)

    def test_finite_interval_with_endpoint_singularity(self):
        res = integrate(lambda t: t ** -0.5, 0.0, 1.0)
        assert res.value == pytest.approx(2.0, rel=1e-12, abs=0.0)

    def test_finite_interval_polynomial(self):
        res = integrate(lambda t: 3.0 * t * t, 0.0, 2.0)
        assert res.value == pytest.approx(8.0, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize(
        "f,lower,upper,expected",
        [
            (math.exp, -1.0, 3.0, math.exp(3.0) - math.exp(-1.0)),
            (lambda t: math.sqrt(1.0 - t * t), -1.0, 1.0, math.pi / 2.0),
            (math.log, 0.0, 1.0, -1.0),
            (lambda x: 1.0 / (1.0 + x * x), 0.0, 1.0, math.pi / 4.0),
            # decays so slowly that the sweep reaches nodes whose distance
            # from 0 underflows; they must not sample t = 0
            (lambda t: t ** -0.9, 0.0, 1.0, 10.0),
        ],
    )
    def test_finite_interval_accuracy(self, f, lower, upper, expected):
        res = integrate(f, lower, upper)
        assert res.value == pytest.approx(expected, rel=1e-13, abs=0.0)

    def test_singularity_at_nonzero_endpoint_raises(self):
        # nodes nearer to t = 1 than half its float spacing sample t = 1
        # itself, so the integral (= 2) cannot be resolved; it must raise
        # rather than return a value
        with pytest.raises(ArithmeticError):
            integrate(lambda t: (1.0 - t) ** -0.5, 0.0, 1.0)

    def test_finite_call_is_counted_once(self, monkeypatch):
        # tanh-sinh runs on the exp-sinh nodes without going through the
        # exp-sinh driver, so a wrapper on each driver sees each quadrature once
        finite = _count_calls(monkeypatch, "_integrate_tanhsinh")
        half_line = _count_calls(monkeypatch, "_integrate_expsinh")
        res = integrate(lambda x: 1.0 / (1.0 + x * x), 0.0, 1.0)
        assert finite == [res.evaluations]
        assert half_line == []

    def test_suite_needs_no_finite_interval(self, monkeypatch):
        finite = _count_calls(monkeypatch, "_integrate_tanhsinh")
        assert run_suite().overall
        assert finite == []

    def test_error_estimate_is_honest(self):
        res = integrate(lambda t: math.exp(-t) * math.cos(t), 0.0, math.inf)
        assert abs(res.value - 0.5) <= max(1e-13, res.abs_error_estimate)

    def test_unattainable_tolerance_raises_with_best_estimate(self):
        with pytest.raises(AccuracyError) as excinfo:
            integrate(lambda t: math.exp(-math.pi * t * t), 0.0, math.inf, tol=1e-30, rel_tol=0.0)
        best = excinfo.value.result
        assert isinstance(best, QuadResult)
        assert best.value == pytest.approx(0.5, abs=1e-10)

    def test_nan_sample_raises_at_the_first_level(self):
        # the level-0 sum is already NaN, and no later level can repair it
        with pytest.raises(AccuracyError, match="sum is not finite at level 0") as excinfo:
            integrate(lambda t: math.nan if t > 5.0 else math.exp(-t), 0.0, math.inf)
        best = excinfo.value.result
        assert math.isnan(best.value)
        assert (best.abs_error_estimate, best.evaluations) == (math.inf, 13)

    def test_infinite_sample_raises_at_the_first_level(self):
        # the midpoint of a finite interval is the first node tanh-sinh samples
        with pytest.raises(AccuracyError, match="sum is not finite at level 0") as excinfo:
            integrate(lambda t: math.inf if t == 0.5 else 1.0, 0.0, 1.0)
        best = excinfo.value.result
        assert (best.value, best.abs_error_estimate) == (math.inf, math.inf)

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            integrate(math.exp, math.inf, math.inf)
        with pytest.raises(ValueError):
            integrate(math.exp, 1.0, 0.0)
        with pytest.raises(ValueError):
            integrate(math.exp, 0.0, 1.0, tol=-1e-3)
        # NaN fails every comparison: rejected up front, not spent on the
        # whole level budget (tol) or read as 0 (rel_tol)
        with pytest.raises(ValueError):
            integrate(math.exp, 0.0, 1.0, tol=math.nan)
        with pytest.raises(ValueError):
            integrate(math.exp, 0.0, 1.0, rel_tol=math.nan)

    def test_failure_names_the_level_budget(self, monkeypatch):
        # e^-t cos t is still converging at level 4; its roundoff floor is
        # far below the 1e-13 request
        monkeypatch.setattr(quadrature, "_MAX_LEVEL", 4)
        with pytest.raises(AccuracyError) as excinfo:
            integrate(lambda t: math.exp(-t) * math.cos(t), 0.0, math.inf)
        message = str(excinfo.value)
        assert "level budget" in message
        assert "roundoff floor" not in message

    def test_failure_names_the_roundoff_floor(self, monkeypatch):
        # 2(n + 8) ulps of J_30(1) ~ 2e-16 alone exceed the 1e-20 request; so
        # does T's rounding bound, so no eps quadrature runs before the direct
        # one.  Its sum settles within the floor at levels 6 and 7, where it
        # raises (after all 12 levels, 21 560 evaluations, until it did)
        expsinh = quadrature._integrate_expsinh
        calls = []
        monkeypatch.setattr(quadrature, "_integrate_expsinh", lambda *args: calls.append(args) or expsinh(*args))
        with pytest.raises(AccuracyError) as excinfo:
            j_integral(IntegralParams(30, 1.0, tol=1e-20))
        message = str(excinfo.value)
        assert "roundoff floor" in message
        assert "level budget" not in message
        assert excinfo.value.result.value == pytest.approx(0.0083458190634480, abs=1e-15)
        assert len(calls) == 1
        assert excinfo.value.result.evaluations == 697

    @pytest.mark.parametrize(
        "call,evaluations",
        [
            (lambda: j_integral(IntegralParams(1, 1.0, tol=1e-300)), 343),
            (lambda: quadrature._eps_quadrature(2, 1e-8, 1e-30), 845),
            (lambda: integrate(lambda t: math.exp(-t), 0.0, math.inf, tol=1e-300, rel_tol=0.0), 403),
            (lambda: epsilon_integral(IntegralParams(1, 10.0 ** -1.75, 1e-15)), 759),
        ],
        ids=["j-1-1", "eps-2-1e-08", "exp", "eps-1-10^-1.75"],
    )
    def test_unattainable_tolerance_stops_where_the_sum_settles(self, call, evaluations):
        # each ran all 12 levels (20 653, 26 349 and 24 326 evaluations)
        # before raising what two settled levels had already decided.  eps_1
        # at 10^-1.75 settles on a floor of 1.7264e-15, 1.73x its target: it
        # ran all 12 levels (23 495) while a floor had to exceed twice it
        with pytest.raises(AccuracyError) as excinfo:
            call()
        assert "roundoff floor" in str(excinfo.value)
        assert excinfo.value.result.evaluations == evaluations

    def test_floor_that_still_moves_is_not_final(self):
        # J_1(10^1.5)'s floor moves by up to 1e-3 of itself per level, since
        # its integrand changes sign: 4.98610e-17 and 4.98619e-17 at levels 5
        # and 6, where its sum has settled, and 4.98529e-17 at level 7.  A
        # request between them is met at level 7; the quadrature gives up
        # only on a floor above 1.1x the target
        res = quadrature._j_quadrature(1, 10.0 ** 1.5, 4.98607e-17)
        assert (res.abs_error_estimate, res.evaluations) == (pytest.approx(4.98529e-17, rel=1e-5), 609)

    def test_determinism(self):
        a = integrate(lambda t: math.exp(-t) / (1.0 + t), 0.0, math.inf)
        b = integrate(lambda t: math.exp(-t) / (1.0 + t), 0.0, math.inf)
        assert a == b


class TestTailCap:
    """A level's sweep of a side stops at the |u| where a coarser level's run
    of negligible samples began once its own last sample below it is
    negligible too, and sweeps on past it otherwise (``quadrature._sweep``)."""

    def test_a_sweep_stops_at_its_cap_only_after_a_negligible_sample(self, monkeypatch):
        sweep = quadrature._sweep
        sweeps = []

        def recorded(f, length, nodes, cap):
            values = []
            result = sweep(lambda x: values.append(f(x)) or values[-1], length, nodes, cap)
            samples = [(u, abs(w * v)) for (_, w, u), v in zip(nodes, values)]
            following = nodes[len(samples)][2] if len(samples) < len(nodes) else math.inf
            sweeps.append((cap, samples, following, result[-1]))
            return result

        monkeypatch.setattr(quadrature, "_sweep", recorded)
        res = quadrature._refine(lambda x: math.exp(-x), 0.0, 1e-13)
        assert res.value == pytest.approx(1.0, abs=1e-15)
        assert res.evaluations == sum(len(samples) for _, samples, _, _ in sweeps)
        caps = [math.inf, math.inf]  # the positive and negative side
        ends = {"run": 0, "cap": 0, "past": 0}
        for i, (cap, samples, following, new_cap) in enumerate(sweeps):
            assert cap == caps[i % 2], i
            peak, negligible = 0.0, []
            for _, size in samples:
                negligible.append(size <= peak and size < quadrature._TRUNC * peak)
                peak = max(peak, size)
            below = sum(u < cap for u, _ in samples)
            if below < len(samples):
                # past the cap only after a sample below it that is not negligible
                assert not negligible[below - 1], i
                ends["past"] += 1
            if negligible[-2:] == [True, True]:
                assert new_cap == samples[-2][0], i
                ends["run"] += 1
            else:
                # one negligible sample, then the cap: it and the coarser
                # node there are two adjacent negligible samples
                assert negligible[-1] and below == len(samples) and following >= cap, i
                assert new_cap == samples[-1][0] < cap, i
                ends["cap"] += 1
            caps[i % 2] = new_cap
        assert ends == {"run": 9, "cap": 3, "past": 4}

    def test_a_bump_past_a_coarse_run_is_not_dropped(self):
        # exp(-t) plus a bump at t = e^10 that level 0 steps over: its two
        # negligible samples lie at t = 298 and 6.8e6, and level 1's last one
        # below 298 is not negligible, so level 1 sweeps on into the bump.
        # Finer levels do not reach it again and the sums disagree, so the
        # quadrature raises; the bump-free value 1.0 is 5 549 too small
        def f(t):
            return math.exp(-t) + math.exp(-50.0 * (math.log(t) - 10.0) ** 2)

        with pytest.raises(AccuracyError, match="level budget"):
            integrate(f, 0.0, math.inf)

    @pytest.mark.parametrize(
        "name,digest",
        [
            ("j", "d26011783f912bb94e040facab0d49fa14ab2c9963a3fab492b2de64bf9df949"),
            ("eps", "49376fb7f2f3b9845e15f58205548298108debf73d7e963a355aa6b3697ec256"),
            ("u", "74e34e6e829f65029c0a2eb9f2b3b075bc6d550938a242c95f251c592e5e157a"),
            ("finite", "bb77c154329c8e9f25a70fc30c513fd185302a0af61abab554a4346866a41b99"),
        ],
    )
    def test_values_and_estimates_frozen(self, name, digest):
        # value and estimate (the best ones where a request raises), hashed;
        # frozen from sweeps with no cap, so the cap moves no bit.  J to a
        # from 1e-5 to 1e5 at n up to 2000 and two requests below the roundoff
        # floor; eps at 1e-6 of the bound, as the identity suite asks, to
        # a = 1e+-30; G to z = 1e298.  Re-frozen for j when the quadrature
        # gave up on a settled floor above 1.1x (not 2x) the target: of its
        # 211 requests, (200, 0.1, 1e-15) raises after 1 419 evaluations, not
        # 22 300, with a best estimate 4.4e-16 off the old one;
        # for u when G's nodes moved to max(t*, min(max(1, 6/z), 32/z)): 59
        # of its 144 values move, all within 4.8e-16 of 40-digit n! hyperu
        # (4.6e-16 before)
        grids = {
            "j": [
                lambda n=n, a=a, tol=tol: quadrature._j_quadrature(n, a, tol)
                for n in (0, 1, 5, 10, 30, 200, 2000)
                for a in (10.0 ** (k / 2) for k in range(-10, 11, 2))
                for tol in ((1e-15, 1e-13, 1e-6) if n < 2000 else (1e-6,))
            ]
            + [
                lambda n=n, a=a, tol=tol: quadrature._j_quadrature(n, a, tol)
                for n, a, tol in ((30, 1.0, 1e-20), (1, 1.0, 1e-300))
            ],
            "eps": [
                lambda n=n, a=a: quadrature._eps_quadrature(n, a, 1e-6 * bound(n, a))
                for n in (1, 2, 3, 10, 11, 200, 2000)
                for a in (10.0 ** k for k in range(-30, 31, 6))
            ]
            + [lambda: quadrature._eps_quadrature(2, 1e-8, 1e-30)],
            "u": [
                lambda n=n, z=z: u_scaled(n, z)
                for n in (0, 1, 3, 10)
                for z in [10.0 ** (k / 2) for k in range(-4, 9)] + [10.0 ** k for k in range(7, 299, 13)]
            ],
            "finite": [lambda m=m: finite_check_integrals(m) for m in (0, 1, 2, 3, 10, 61, 300, 2000)],
        }
        lines = []
        for call in grids[name]:
            try:
                res = call()
            except AccuracyError as exc:
                res = exc.result
            if isinstance(res, QuadResult):
                res = (res.value, res.abs_error_estimate)
            lines.append(" ".join(x.hex() for x in (res if isinstance(res, tuple) else (res,))))
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == digest


class TestBoseFactor:
    def test_series_limit_at_origin(self):
        assert _bose_factor(0.0) == 1.0 / (2.0 * math.pi)

    def test_seam_continuity(self):
        below = _bose_factor(1e-4 * (1.0 - 1e-12))
        above = _bose_factor(1e-4 * (1.0 + 1e-12))
        assert below == pytest.approx(above, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("x", [1.0000001e-4, 2e-4, 1e-3, 1e-2])
    def test_accuracy_above_seam(self, x):
        # 1 - exp(-2 pi x) formed by subtraction loses up to ~300 ulps here
        mp = pytest.importorskip("mpmath")
        with mp.workdps(40):
            expected = float(x / mp.expm1(2 * mp.pi * mp.mpf(x)))
        assert _bose_factor(x) == pytest.approx(expected, rel=1e-15, abs=0.0)

    def test_no_overflow_at_large_argument(self):
        assert _bose_factor(500.0) == 0.0


class TestJIntegral:
    def test_exact_odd_value_at_one(self):
        res = j_integral(IntegralParams(1, 1.0))
        assert res.value == pytest.approx(1.0 / (12.0 * math.pi), abs=1e-13)

    def test_degree_three_against_exact_rational_oracle(self):
        # J_3(1) = -F_3/(4 pi) with F_3 = 2F1(-3,1;3/2;2) = -9/35
        expected = -float(gauss_f(3)) / (4.0 * math.pi)
        res = j_integral(IntegralParams(3, 1.0))
        assert res.value == pytest.approx(expected, abs=1e-13)

    @pytest.mark.parametrize(
        "n,value",
        [
            # frozen from 40-digit mpmath quadrature of the defining integral
            (2, 0.022897437646132268),
            (10, 0.013358829242783151),
            (20, 0.0099885169902155625),
        ],
    )
    def test_against_mpmath_reference(self, n, value):
        res = j_integral(IntegralParams(n, 1.0))
        assert res.value == pytest.approx(value, abs=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_small_scale_limit(self, n):
        # J_n(0) = 1/24 for every n; at a = 1e-4 the gap is O(a) small
        res = j_integral(IntegralParams(n, 1e-4))
        assert res.value == pytest.approx(1.0 / 24.0, abs=5e-4)

    def test_cross_check_gauss_kronrod(self):
        # different node family: QUADPACK adaptive Gauss-Kronrod
        def f(x):
            if x > 100.0:
                return 0.0  # integrand below 1e-13000 there
            z = 2.0 * math.pi * x * x
            poly = 1.0
            term = 1.0
            for r in range(4):
                term *= (r - 4) * z / ((r + 1.5) * (r + 1.0))
                poly += term
            return x * math.exp(-math.pi * x * x) / math.expm1(2.0 * math.pi * x) * poly

        expected, _ = scipy.integrate.quad(f, 0.0, math.inf, epsabs=1e-14, epsrel=1e-13)
        res = j_integral(IntegralParams(4, 1.0))
        assert res.value == pytest.approx(expected, abs=5e-13)

    def test_determinism(self):
        assert j_integral(IntegralParams(6, 0.5)) == j_integral(IntegralParams(6, 0.5))

    @pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("n", [30, 50, 100, 200])
    def test_large_index_against_decomposition(self, n, a):
        # independent route J = sigma*T + eps: recurrence Gauss values in T, a
        # different integrand in eps; the power-sum integrand raised or went
        # wrong from n ~ 20 on.  j_integral itself takes that route here, so
        # the direct quadrature is the one tested
        res = quadrature._j_quadrature(n, a, DEFAULT_TOL)
        t = t_even(n // 2, a) if n % 2 == 0 else t_odd((n - 1) // 2, a)
        closed = sigma(n) * t
        eps = epsilon_integral(IntegralParams(n, a, tol=1e-18)).value
        assert abs(res.value - closed - eps) <= res.abs_error_estimate + 1e-15 * abs(closed)

    @pytest.mark.parametrize("n,evaluations", [(30, 359), (200, 1425)], ids=["30", "200"])
    def test_evaluation_count_snapshot(self, n, evaluations):
        # exact and machine-independent: a change here is a change in cost of
        # the direct quadrature, which j_integral takes from n = 11 on only
        # where sigma*T + eps cannot meet the tolerance
        assert quadrature._j_quadrature(n, 1.0, DEFAULT_TOL).evaluations == evaluations

    @pytest.mark.parametrize("n", [0, 5, 10])
    def test_cost_is_flat_in_scale(self, n):
        # at large a the Gaussian squeezes the integrand towards x = 0, where
        # exp-sinh nodes are sparse unless x is taken in its own length scale;
        # j_integral sums its series at both ends, so the direct quadrature,
        # its fallback, is the one tested
        at_one = quadrature._j_quadrature(n, 1.0, DEFAULT_TOL).evaluations
        for e in range(-8, 9):
            assert quadrature._j_quadrature(n, 10.0 ** e, DEFAULT_TOL).evaluations <= 2 * at_one, e

    def test_cost_map(self, monkeypatch):
        # driver evaluations of every quarter decade of a from 1e-4 to 1e4 at
        # n = 0 to 10, the default tolerance: the series costs none, and
        # where it cannot reach no point costs over 200 or twice a
        # neighbour's.  From n = 6 eps's quadrature replaces J's there, at
        # 35 to 79 evaluations against 169 to 193; the total was 17 401
        calls = _count_calls(monkeypatch, "_integrate_expsinh")
        cost = {}
        for n in range(11):
            for e in range(-16, 17):
                before = len(calls)
                j_integral(IntegralParams(n, 10.0 ** (e / 4)))
                cost[n, e] = sum(calls[before:])
        for (n, e), c in cost.items():
            assert c <= (100 if n >= 6 else 200), (n, e, c)
            neighbour = cost.get((n, e + 1), 0)
            if c and neighbour:
                assert max(c, neighbour) <= 2 * min(c, neighbour), (n, e)
        assert sum(cost.values()) == 11306

    @pytest.mark.parametrize(
        "n,a,value,estimate,evaluations",
        [
            # bench/pool.json points; the results of the integrand with its
            # Laguerre coefficients formed inline at every node, which the
            # tabulated coefficients must reproduce bit for bit
            (0, 2.34e-08, 0.0416666663603614, 4.163336342344337e-16, 103),
            (38, 0.1731, 0.01628885293747854, 4.1922971611031114e-16, 371),
            (184, 2.788, 0.0021586356255934593, 6.2454381943855e-15, 1397),
            # up to a = 4 pi the integrand is sampled at x itself
            (5, 4 * math.pi, 0.0054767682740541725, 6.420565439948484e-17, 167),
        ],
        ids=["0-2.34e-08", "38-0.1731", "184-2.788", "5-4pi"],
    )
    def test_bitwise_snapshot(self, n, a, value, estimate, evaluations):
        res = quadrature._j_quadrature(n, a, DEFAULT_TOL)
        assert (res.value, res.abs_error_estimate, res.evaluations) == (value, estimate, evaluations)

    @pytest.mark.parametrize("n", [0, 1, 2, 10])
    def test_top_of_float_range(self, n):
        # sqrt(a)*J_n(a) tends to a constant as a -> inf; above a = 2.86e307
        # 2*pi*a overflows, and every sample was inf or NaN
        def scaled(a):
            return math.sqrt(a) * j_integral(IntegralParams(n, a, 1e-12 / (4.0 * math.pi * math.sqrt(a)))).value

        reference = scaled(1e300)
        for a in (2.9e307, 1e308, 1.7976931348623157e308):
            assert scaled(a) == pytest.approx(reference, rel=1e-14, abs=0.0), a


class TestJSeries:
    """At and above a = 50(n + 2), J_n(a) is its Bernoulli-Laplace series."""

    _TOP = 1.7976931348623157e308

    @pytest.mark.parametrize("n", [0, 1, 2, 10, 30, 100, 200])
    def test_against_quadrature(self, n):
        # the quadrature, asked for 1e-12 relative, is the oracle; at the
        # default absolute 1e-13 it kept few digits at large a: 2.2e-8 at
        # (2, 1e20) and 0.58 at (200, 1e100)
        bound = 1e-14 if n <= 10 else 1e-13
        for a in (50.0 * (n + 2), 1e4, 1e20, 1e100, 1e300, 1e308, self._TOP):
            if a < 50.0 * (n + 2):
                continue  # (200, 1e4) lies below the seam
            series = j_integral(IntegralParams(n, a)).value
            oracle = quadrature._j_quadrature(n, a, 1e-12 * abs(series)).value
            scale = math.sqrt(a)
            assert scale * series == pytest.approx(scale * oracle, rel=bound, abs=0.0), a

    @pytest.mark.parametrize("n", [500, 1000, 2000, 3000, 5000])
    def test_large_index_against_mpmath_series(self, n):
        # the same series summed to 60 digits, with zeta from mpmath and
        # H_n(b) = 2F1(-n, b; 3/2; 2) as H_n(1) = F_n from F_n's recurrence,
        # H_n(1/2) = (-1)^n F_n and H_n(j + 1/2) = (-1)^n P_j from P_j's finite
        # sum of positive terms (mpmath's hyp2f1(-5000, 0.5, 1.5, 2) does not
        # converge): the binary64 sum lies within its estimate
        mp = pytest.importorskip("mpmath")
        with mp.workdps(60):
            f = _mp_gauss_f(mp, n)
            h = {0.5: (-1) ** n * f, 1.0: f}
            for a in (50.0 * (n + 2), 500.0 * (n + 2), 1e100, self._TOP):
                res = j_integral(IntegralParams(n, a))
                s = 1 / mp.sqrt(mp.pi * mp.mpf(a))
                total = mp.sqrt(mp.pi) * s * h[0.5] - mp.pi * s ** 2 * h[1.0]
                for j in range(1, res.evaluations - 1):
                    if j + 0.5 not in h:
                        h[j + 0.5] = (-1) ** n * _mp_p(mp, n, j)
                    total += (-1) ** (j + 1) * 2 * mp.zeta(2 * j) * mp.gamma(j + 0.5) * s ** (2 * j + 1) * h[j + 0.5]
                assert abs(mp.mpf(res.value) - total / (4 * mp.pi)) <= res.abs_error_estimate, a

    def test_large_index_against_reference(self, monkeypatch):
        # the quadrature raised here after 21 158 evaluations; the reference is
        # a 40-digit mpmath quadrature of the defining integral
        calls = _count_calls(monkeypatch, "_integrate_expsinh")
        res = j_integral(IntegralParams(500, 25100.0))
        assert abs(Fraction(res.value) - Fraction("1.423686037595935819288996353847947e-5")) <= res.abs_error_estimate
        assert calls == []

    @pytest.mark.parametrize(
        "n,a,value,estimate,evaluations",
        [
            (2, 1e308, 3.7136153388108917e-156, 1.6491765014996014e-170, 1),
            (10, 3174000.0, 9.568272566025237e-06, 7.659216469356493e-20, 4),
        ],
        ids=["2-1e308", "10-3.174e6"],
    )
    def test_bitwise_snapshot(self, monkeypatch, n, a, value, estimate, evaluations):
        calls = _count_calls(monkeypatch, "_integrate_expsinh")
        res = j_integral(IntegralParams(n, a))
        assert (res.value, res.abs_error_estimate, res.evaluations) == (value, estimate, evaluations)
        assert calls == []

    @pytest.mark.parametrize("n", [0, 1, 10, 200, 2000, 2001, 5000, 10000])
    def test_no_quadrature_at_or_above_the_seam(self, monkeypatch, n):
        calls = _count_calls(monkeypatch, "_integrate_expsinh")
        seam = 50.0 * (n + 2)
        for a in (seam, 10.0 * seam, 1e20, 1e300, self._TOP):
            assert j_integral(IntegralParams(n, a)).evaluations <= 12, a
        assert calls == []
        if n <= 10:  # below n = 11 the series is tried first at every a
            j_integral(IntegralParams(n, 1.0))
            assert len(calls) == 1
            reach = _series_reach(n, 10.0)
            assert reach < seam / 4.0
            j_integral(IntegralParams(n, reach))
            assert len(calls) == 1

    def test_unattainable_tolerance_reaches_the_quadrature(self, monkeypatch):
        # the series estimate is above 1e-300, so the request falls through to
        # the quadrature, which raises as it did before the series
        driver = quadrature._integrate_expsinh
        calls = []
        monkeypatch.setattr(quadrature, "_integrate_expsinh", lambda *args: calls.append(args) or driver(*args))
        with pytest.raises(AccuracyError):
            j_integral(IntegralParams(0, 1e4, tol=1e-300))
        assert len(calls) == 1


class TestJSmallSeries:
    """At and below a = 1/(50(n + 2)), J_n(a) is its small-a Bernoulli
    series, the same terms as TestJSeries's in powers of a/pi."""

    @staticmethod
    def _seam(n):
        return 1.0 / (50.0 * (n + 2))

    def _points(self, n):
        seam = self._seam(n)
        return [seam, seam / 10.0] + [a for a in (1e-6, 1e-8, 1e-100, 5e-324) if a <= seam]

    @pytest.mark.parametrize("n", [0, 1, 2, 10, 30, 200, 500, 1000, 2000, 3000, 5000])
    def test_against_mpmath_series(self, n):
        # the series summed to 40 digits, with Q_k = 2F1(-n, -k; 3/2; 2) and
        # zeta from mpmath, ten terms past where the binary64 sum stopped, so
        # the estimate is charged with the truncation as well as the rounding
        mp = pytest.importorskip("mpmath")
        with mp.workdps(40):
            for a in self._points(n):
                res = j_integral(IntegralParams(n, a))
                x = mp.mpf(a)
                total = 0
                for k in range(res.evaluations + 10):
                    total += (
                        (-x) ** k * mp.factorial(2 * k + 1) * mp.zeta(2 * k + 2) * mp.hyp2f1(-n, -k, 1.5, 2)
                        / (mp.factorial(k) * 4 ** (k + 1) * mp.pi ** (k + 2))
                    )
                assert abs(mp.mpf(res.value) - total) <= res.abs_error_estimate, a

    @pytest.mark.parametrize(
        "n,a,value,estimate,evaluations",
        [
            (0, 5e-324, 0.041666666666666664, 1.4802973661668753e-16, 1),
            (10, 1.0 / 600.0, 0.0413572874939024, 3.3572111428331775e-16, 9),
        ],
        ids=["0-5e-324", "10-seam"],
    )
    def test_bitwise_snapshot(self, monkeypatch, n, a, value, estimate, evaluations):
        calls = _count_calls(monkeypatch, "_integrate_expsinh")
        res = j_integral(IntegralParams(n, a))
        assert (res.value, res.abs_error_estimate, res.evaluations) == (value, estimate, evaluations)
        assert calls == []

    @pytest.mark.parametrize("n", [0, 1, 10, 200, 500, 1000, 2000, 2001, 3000, 5000, 5351, 10000, 50000])
    def test_no_quadrature_at_or_below_the_seam(self, monkeypatch, n):
        # the direct quadrature took 107 evaluations at (0, 2.34e-8) and 377
        # at (2000, 1e-8), and 11 193 evaluations and seconds at (5000, 1e-8)
        calls = _count_calls(monkeypatch, "_integrate_expsinh")
        for a in self._points(n):
            assert j_integral(IntegralParams(n, a)).evaluations <= 12, a
        assert calls == []
        if n <= 10:  # below n = 11 the series is tried first at every a
            j_integral(IntegralParams(n, 1.0))
            assert len(calls) == 1
            reach = _series_reach(n, 0.1)
            assert reach > 4.0 * self._seam(n)
            j_integral(IntegralParams(n, reach))
            assert len(calls) == 1

    def test_unattainable_tolerance_reaches_the_quadrature(self, monkeypatch):
        # the series estimate is above 1e-300, so the request falls through to
        # the quadrature, which raises as it did before the series
        driver = quadrature._integrate_expsinh
        calls = []
        monkeypatch.setattr(quadrature, "_integrate_expsinh", lambda *args: calls.append(args) or driver(*args))
        with pytest.raises(AccuracyError):
            j_integral(IntegralParams(0, 1e-4, tol=1e-300))
        assert len(calls) == 1


class TestJSeriesReach:
    """Below n = 11 j_integral returns the Bernoulli series wherever its
    estimate meets the tolerance, between the seams a = 1/(50(n + 2)) and
    50(n + 2) too, where only the quadrature ran before."""

    def test_zeta_table_against_mpmath(self):
        # the recurrence rounds low, by up to 10.5 ulps at j = 67, 68 and 113
        mp = pytest.importorskip("mpmath")
        with mp.workdps(30):
            for j, zeta in enumerate(quadrature._zeta_table(), 1):
                exact = mp.zeta(2 * j)
                assert abs(mp.mpf(zeta) - exact) <= 11 * math.ulp(float(exact)), j

    def test_gate_skips_only_series_that_cannot_meet_tol(self, monkeypatch):
        # the series is not summed where n = 0's least term, bounded below by
        # 0.96 e^(-y)/sqrt(2 pi y), y = pi max(a, 1/a), exceeds tol: at 1e-13
        # from a = 1/8 to 8 it is skipped, and it is summed wherever it meets tol
        terms = quadrature._bernoulli_terms
        summed = []
        monkeypatch.setattr(quadrature, "_bernoulli_terms", lambda *args: summed.append(args) or terms(*args))
        for n in range(11):
            for k in range(-48, 49):
                a = 10.0 ** (k / 16)
                for tol in (1e-13, 1e-6):
                    summed.clear()
                    res = j_integral(IntegralParams(n, a, tol))
                    series = quadrature._j_series(n, a, tol)
                    if series is not None:
                        assert summed and res == series, (n, a, tol)
                    elif tol == 1e-13 and 0.125 <= a <= 8.0:
                        assert not summed, (n, a)

    @pytest.mark.parametrize("n", [0, 4, 10])
    def test_reach_against_mpmath_quadrature(self, monkeypatch, n):
        # eighth-decade a between the seams, at the default and a loose
        # tolerance; every series returned lies within its estimate of a
        # 30-digit mpmath quadrature of the defining integral (at 1/16-decade
        # a for every n from 0 to 10 the error was at most 0.496 of it)
        mp = pytest.importorskip("mpmath")
        calls = _count_calls(monkeypatch, "_integrate_expsinh")
        seam = 50.0 * (n + 2)
        checked = 0
        with mp.workdps(30):
            for k in range(-24, 25):
                a = 10.0 ** (k / 8)
                if not 1.0 / seam < a < seam:
                    continue
                exact = None
                for tol in (1e-13, 1e-6):
                    res = j_integral(IntegralParams(n, a, tol))
                    if calls:  # the series missed tol and the quadrature ran
                        calls.clear()
                        continue
                    if exact is None:
                        exact = _mp_j_integral(mp, n, a)
                    assert abs(mp.mpf(res.value) - exact) <= res.abs_error_estimate, (a, tol)
                    checked += 1
        assert checked >= 20


class TestJSeriesRoundoff:
    """From n = 11 the series charge the 10 steps their F_n and P_j take,
    not 2(n + 8) ulps: the estimate still covers the true error on both
    sides, against the series summed at 60 digits."""

    _TOP = 1.7976931348623157e308

    @pytest.mark.parametrize("n", [11, 200, 2000, 5351, 10000, 50000])
    def test_estimate_covers_60_digit_series(self, monkeypatch, n):
        mp = pytest.importorskip("mpmath")
        calls = _count_calls(monkeypatch, "_integrate_expsinh")
        small, large = 1.0 / (50.0 * (n + 2)), 50.0 * (n + 2)
        points = [small, small / 10.0, 1e-8, 1e-100, 5e-324, large, 10.0 * large, 1e20, 1e300, self._TOP]
        with mp.workdps(60):
            for a in points:
                res = j_integral(IntegralParams(n, a))
                # about 36 ulps of J: the charge does not grow with n
                assert res.abs_error_estimate <= 40 * 2.0 ** -52 * abs(res.value), a
                assert abs(mp.mpf(res.value) - _mp_j_series(mp, n, a)) <= res.abs_error_estimate, a
        assert calls == []

    @pytest.mark.parametrize("n", [11, 50, 200, 2000])
    def test_meets_the_default_tolerance_inside_the_seams(self, n):
        # a tenth of the way from either seam toward a = 1, where j_integral
        # takes sigma*T + eps, the series alone already meets 1e-13 and lies
        # within its estimate of the series summed at 60 digits
        mp = pytest.importorskip("mpmath")
        with mp.workdps(60):
            for a in (5.0 * (n + 2), 1.0 / (5.0 * (n + 2))):
                res = quadrature._j_series(n, a, 1e-13)
                assert res is not None and res.abs_error_estimate <= 1e-13, a
                assert abs(mp.mpf(res.value) - _mp_j_series(mp, n, a)) <= res.abs_error_estimate, a


class TestJTheorem:
    """Between the series seams, from n = 11 on, j_integral returns sigma*T + eps
    where T's rounding and eps's G series fit the tolerance, J's own series
    where that misses and the series reaches, and the direct quadrature of
    the defining integral otherwise."""

    @pytest.mark.parametrize(
        "n,a,value,estimate,evaluations",
        [
            (30, 1.0, 0.008345819063448036, 6.759566436172359e-17, 2),
            (200, 1.0, 0.0034204905668463407, 1.7413179669506064e-17, 2),
            (184, 2.788, 0.002158635625593385, 1.0819502676617576e-17, 2),
        ],
        ids=["30-1", "200-1", "184-2.788"],
    )
    def test_bitwise_snapshot(self, n, a, value, estimate, evaluations):
        # re-frozen when eps moved to its G series: evaluations count G terms,
        # and the estimates (5.0e-16, 9.9e-16 and 4.2e-16 with 35, 29 and 31
        # quadrature evaluations before) are the series' and T's bounds.
        # Against 30-digit sigma*T + eps (mpmath hyperu) the values are
        # 8.9e-17, 1.2e-16 and 5.9e-17 relative off; the third was
        # 0.0021586356255933856, 2.6e-16 off.  Re-frozen when each G stopped
        # at its term's share of the tolerance: 30-1 moved from
        # 0.008345819063448027 +- 4.7e-17 and is 9.5e-16 relative (0.12 of
        # its estimate) off, and 184-2.788's estimate rose by 1.8e-25
        res = j_integral(IntegralParams(n, a))
        assert (res.value, res.abs_error_estimate, res.evaluations) == (value, estimate, evaluations)

    def test_large_index_pool_points(self):
        # the index-sweep points above n = 200, where the benchmark runs no J:
        # the reference is sigma*t + eps from the pool's 32-digit T and eps
        with open(_POOL) as fh:
            points = [p for p in json.load(fh)["index-sweep"] if p["n"] > 200]
        assert len(points) == 12
        for point in points:
            n, a, ref = point["n"], point["a"], point["ref"]
            res = j_integral(IntegralParams(n, a))
            exact = sigma(n) * Fraction(ref["t"]) + Fraction(ref["eps"])
            assert abs(Fraction(res.value) - exact) <= res.abs_error_estimate, (n, a)

    @pytest.mark.parametrize("n", [11, 12, 15, 20, 30, 50, 100, 200])
    def test_within_estimate_of_the_direct_quadrature(self, n):
        # quarter-decade a below the seam; the direct quadrature's own error
        # is charged to the route, so this is stricter than the estimate needs.
        # At n = 100 and 200 the route's estimate (T's few ulps and the G
        # series' bound) is tighter than the direct quadrature's error at 16
        # points, e.g. 5.9e-16 apart at (200, 0.316) with a route estimate of
        # 3.1e-17.  There both are compared with 30-digit sigma*T + eps
        # (mpmath hyperu; ``_mp_j_series`` does not converge at these a): the
        # route lies within its estimate, and the direct quadrature is
        # farther off, within its own
        routed = 0
        for e in range(-12, 16):
            a = 10.0 ** (e / 4)
            if a >= 50.0 * (n + 2):
                continue
            res = j_integral(IntegralParams(n, a))
            direct = quadrature._j_quadrature(n, a, DEFAULT_TOL)
            if res != direct:
                routed += 1
                if abs(res.value - direct.value) > res.abs_error_estimate:
                    mp = pytest.importorskip("mpmath")
                    with mp.workdps(30):
                        exact = _mp_theorem_j(mp, n, a)
                        route_error, direct_error = abs(res.value - exact), abs(direct.value - exact)
                    assert route_error <= res.abs_error_estimate, a
                    assert route_error < direct_error <= direct.abs_error_estimate, a
        assert routed >= 15

    @pytest.mark.parametrize("n,a,tol", [(5, 1.0, 1e-13), (12, 0.1, 3e-16)], ids=["5-1.0", "12-0.1"])
    def test_direct_quadrature_below_the_cost_seam_or_the_budget(self, monkeypatch, n, a, tol):
        # n = 5 is below both routes' index cuts.  At (12, 0.1) T rounds by
        # 2.4e-16, more than half of a tight tolerance, so no eps series runs,
        # and J's series, whose least term is 1.6e-15 there, is not tried.
        # At the default tolerance every a between the seams takes the
        # route from n = 11 up.
        calls = _count_calls(monkeypatch, "_integrate_expsinh")
        res = j_integral(IntegralParams(n, a, tol))
        assert len(calls) == 1
        assert res == quadrature._j_quadrature(n, a, tol)

    def test_remainder_quadrature_from_index_6(self, monkeypatch):
        # at (10, 1) J's series cannot reach 1e-13: sigma*T + eps with eps by
        # its quadrature, 35 evaluations, in place of J's own
        counts = _count_quadratures(monkeypatch)
        res = j_integral(IntegralParams(10, 1.0))
        assert counts == {"_j_quadrature": 0, "_eps_quadrature": 1}
        assert res == quadrature._theorem(10, 1.0, 1e-13, quadrature._eps_quadrature, 1.0)
        assert res.evaluations == 35

    def test_failed_remainder_quadrature_falls_back(self, monkeypatch):
        # _theorem takes eps's AccuracyError as a miss: J's own quadrature
        # answers, bit for bit as called directly
        def fail(n, a, tol):
            raise AccuracyError("forced failure", QuadResult(0.0, 1.0, 1))

        monkeypatch.setattr(quadrature, "_eps_quadrature", fail)
        assert j_integral(IntegralParams(10, 1.0)) == quadrature._j_quadrature(10, 1.0, 1e-13)

    @pytest.mark.parametrize("n", [6, 7, 8, 9, 10])
    def test_remainder_quadrature_within_estimate_of_30_digits(self, monkeypatch, n):
        # twelfth-decade a from 1e-2 to 1e2 at three tolerances: wherever J's
        # series cannot reach, sigma*T + eps with eps by its quadrature, and
        # never both quadratures (379 requests).  The worst error is 0.032
        # of the estimate, against 30-digit sigma*T + eps (mpmath hyperu)
        mp = pytest.importorskip("mpmath")
        counts = _count_quadratures(monkeypatch)
        routed = 0
        for k in range(-24, 25):
            a = 10.0 ** (k / 12)
            exact = None
            for tol in (1e-15, 1e-13, 1e-10):
                counts.update({"_j_quadrature": 0, "_eps_quadrature": 0})
                res = j_integral(IntegralParams(n, a, tol))
                assert counts["_j_quadrature"] + counts["_eps_quadrature"] <= 1, (a, tol)
                if counts["_eps_quadrature"]:
                    routed += 1
                    with mp.workdps(30):
                        if exact is None:
                            exact = _mp_theorem_j(mp, n, a)
                        assert abs(mp.mpf(res.value) - exact) <= res.abs_error_estimate, (a, tol)
        assert routed >= 60

    def test_failed_remainder_falls_back(self, monkeypatch):
        # eps's series gives up: the direct quadrature runs, once, and eps's
        # own quadrature never
        monkeypatch.setattr(quadrature, "_eps_series", lambda n, a, tol: None)
        calls = _count_calls(monkeypatch, "_integrate_expsinh")
        res = j_integral(IntegralParams(30, 1.0))
        assert len(calls) == 1
        assert res == quadrature._j_quadrature(30, 1.0, DEFAULT_TOL)

    def test_remainder_over_its_share_falls_back(self, monkeypatch):
        # at twice T's bound eps's series has T's bound left, which its
        # rounding charge exceeds; J's own series answers in 10 terms, and
        # no quadrature runs (the direct one did until J's series was tried
        # between the seams)
        n, a = 12, 10.0 ** -2.75
        tol = 2.0 * specfun._approximant(n, a)[1]
        assert quadrature._eps_series(n, a, 0.5 * tol) is None
        calls = _count_calls(monkeypatch, "_integrate_expsinh")
        res = j_integral(IntegralParams(n, a, tol))
        assert calls == []
        assert res == quadrature._j_series(n, a, tol)
        mp = pytest.importorskip("mpmath")
        with mp.workdps(30):
            assert abs(mp.mpf(res.value) - _mp_j_series(mp, n, a)) <= res.abs_error_estimate

    @pytest.mark.parametrize(
        "n,a,tol",
        [
            (2000, 1e-5, 1e-15),
            (200, 10.0 ** -3.75, 3e-15),
            (50, 10.0 ** -3.25, 1e-15),
            (11, 10.0 ** 2.125, 1e-17),
            (30, 1e-3, 1e-15),
            (100, 1e-3, 2e-15),
        ],
        ids=["2000-1e-05", "200-10^-3.75", "50-10^-3.25", "11-10^2.125", "30-0.001", "100-0.001"],
    )
    def test_j_series_where_the_theorem_misses(self, monkeypatch, n, a, tol):
        # between the seams T rounds by more than half of a tight tolerance
        # (3.6e-15 at (30, 1e-3)), so the theorem is refused, but J's own
        # series reaches: no quadrature runs.  At (2000, 1e-5, 1e-15) the
        # direct quadrature spent about 3 s and raised
        def fail(*args):
            raise AssertionError("no quadrature runs")

        assert not quadrature._j_side(n, a)
        assert quadrature._theorem(n, a, tol, quadrature._eps_series, 1.0) is None
        monkeypatch.setattr(quadrature, "_j_quadrature", fail)
        monkeypatch.setattr(quadrature, "_integrate_expsinh", fail)
        res = j_integral(IntegralParams(n, a, tol))
        assert res == quadrature._j_series(n, a, tol)
        mp = pytest.importorskip("mpmath")
        with mp.workdps(30):
            assert abs(mp.mpf(res.value) - _mp_j_series(mp, n, a)) <= res.abs_error_estimate

    @pytest.mark.parametrize(
        "ns,step,tols,digest,raised,evaluations",
        [
            (
                (11, 12, 13, 20, 30, 50, 100, 200, 500, 1000, 2000), 1, (1e-13,),
                "9ae5826b9cc1266992d64de8941516929fe7547625f24d3eccd2ea39d7b30757", 0, 8319,
            ),
            (
                (11, 12, 13, 30), 4, (1e-15, 1e-16),
                "d17adb5800aabebd2626af5434266ea0b57b90991f134f2826e53e1d25be36ea", 43, 17785,
            ),
        ],
        ids=["default-tol", "tight-tol"],
    )
    def test_frozen_grid(self, ns, step, tols, digest, raised, evaluations):
        # value, estimate and evaluations (or the raise) on a from 1e-5 to
        # 1e5 in steps of step/8 decades, both seams and odd n at a = 1
        # included, hashed.  Frozen from the route that reached eps through
        # epsilon_integral (and its quadrature when the series gave up);
        # every eighth decade at all eleven indices and all three
        # tolerances, 2 673 points, matched it too, but takes minutes.  The
        # tight grid's 43 raises stop where the quadrature's sum settles
        # above the roundoff floor.  Re-frozen when J's series was tried
        # between the seams: it answers 10 of the tight grid's 1e-15
        # requests at a from 1e-3 to 0.03 in 10-36 terms, where the direct
        # quadrature took 191-193 evaluations, each within 0.07 of its
        # estimate of 30-digit ``_mp_j_series``.  Re-frozen, counts unchanged,
        # when each G of eps's series stopped at its term's share of the
        # tolerance (``TestEpsilonSeries::test_g_series_grid_within_estimate_of_30_digits``).
        # Re-frozen when the quadrature gave up on a settled floor above 1.1x
        # (not 2x) the target: the same 43 raise, and three of them, n = 11,
        # 12 and 13 at (1, 1e-16), after 683 evaluations, not 21 119-21 183,
        # with their best estimates moved; every answer kept its bits
        lines = []
        count = total = 0
        for n in ns:
            for k in range(-40, 41, step):
                a = 10.0 ** (k / 8)
                for tol in tols:
                    try:
                        res, tag = j_integral(IntegralParams(n, a, tol)), "ok"
                    except AccuracyError as exc:
                        res, tag = exc.result, "raise"
                        count += 1
                    total += res.evaluations
                    lines.append(
                        f"{n} {a.hex()} {tol.hex()} {tag} {res.value.hex()} {res.abs_error_estimate.hex()} {res.evaluations}"
                    )
        assert (count, total) == (raised, evaluations)
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == digest

    @pytest.mark.parametrize("n", [11, 30, 100, 1000, 2000])
    def test_no_cost_cliff_in_index(self, n):
        # the direct quadrature took 1 432 evaluations at (200, 1) and 5 641
        # at (2000, 1)
        for a in (0.1, 0.3, 1.0, 3.0, 10.0):
            assert j_integral(IntegralParams(n, a)).evaluations <= 100, a


class TestJTheoremDownToTheSeam:
    """From n = 11 the route sigma*T + eps holds from the small-a seam
    a = 1/(50(n + 2)) up: T, formed from R(n) and S_n, rounds by a few ulps,
    and eps is its G series, so no quadrature runs.  The direct quadrature
    missed its estimate here, by up to 9.60 times at (2000, 5.62e-3)."""

    # 30-digit sigma*T + eps (``_mp_theorem_j``, mpmath hyperu) where the
    # small-a series does not converge (n a > 0.5).  Where both converge they
    # agree within 1e-30 relative.
    _FROZEN = {
        (500, 0.001333521432163324): "3.32963803648456121701335958035e-2",
        (500, 0.0017782794100389228): "3.1444829848046969544483932953e-2",
        (500, 0.0023713737056616554): "2.93986439633432486220179731269e-2",
        (500, 0.0031622776601683794): "2.72097863828273833528248842568e-2",
        (500, 0.004216965034285823): "2.49428571639023746220375421415e-2",
        (500, 0.005623413251903491): "2.26655673959927210611478282389e-2",
        (500, 0.007498942093324558): "2.04392793799042198066600087533e-2",
        (500, 0.01): "1.83125287865800453559783113796e-2",
        (500, 0.01333521432163324): "1.63187061164463970675908180424e-2",
        (500, 0.01778279410038923): "1.44771524058058040433566976916e-2",
        (500, 0.023713737056616554): "1.2796005223037703716249862485e-2",
        (500, 0.03162277660168379): "1.12753428683881748760150185524e-2",
        (500, 0.042169650342858224): "9.90986873848802170583719461495e-3",
        (500, 0.05623413251903491): "8.69094544235503196075836904709e-3",
        (500, 0.07498942093324558): "7.60805162139772727115590025503e-3",
        (500, 0.1): "6.64979479833724108962610755799e-3",
        (500, 0.1333521432163324): "5.80459869052875008752222432928e-3",
        (500, 0.1778279410038923): "5.06115572715547851240389297554e-3",
        (500, 0.23713737056616552): "4.40871189870910251160996513534e-3",
        (500, 0.31622776601683794): "3.83723317595063833597786759431e-3",
        (500, 0.4216965034285822): "3.33748944335748816218136949914e-3",
        (500, 0.5623413251903491): "2.90108205428321727228091905184e-3",
        (500, 0.7498942093324559): "2.52043385135881752924600196861e-3",
        (500, 1.0): "2.18875514705831658567517488379e-3",
        (1000, 0.0005623413251903491): "3.4290301172336996873497014056e-2",
        (1000, 0.0007498942093324559): "3.25713636057457534430497038413e-2",
        (1000, 0.001): "3.06357277680014780691222794575e-2",
        (1000, 0.001333521432163324): "2.8524500022247114433813424364e-2",
        (1000, 0.0017782794100389228): "2.62957807056367268103669117469e-2",
        (1000, 0.001996): "2.53834198476762018572361910347e-2",
        (1000, 0.0023713737056616554): "2.40166538473913504014351273381e-2",
        (1000, 0.0031622776601683794): "2.17532786286905394392327600173e-2",
        (1000, 0.004216965034285823): "1.95623632600141051748894102278e-2",
        (1000, 0.005623413251903491): "1.74863536525892494744052995521e-2",
        (1000, 0.007498942093324558): "1.55526710067160973092152710074e-2",
        (1000, 0.01): "1.37757262519602831675856085545e-2",
        (1000, 0.01333521432163324): "1.21600253000310906623476543099e-2",
        (1000, 0.01778279410038923): "1.07031792258689912045013610005e-2",
        (1000, 0.023713737056616554): "9.39832658249980447908433600445e-3",
        (1000, 0.03162277660168379): "8.23591822183934642542570349225e-3",
        (1000, 0.042169650342858224): "7.20497808340008873214807975136e-3",
        (1000, 0.05623413251903491): "6.29397130150468111274803074396e-3",
        (1000, 0.07498942093324558): "5.49138680878906933317254532559e-3",
        (1000, 0.1): "4.78611487843201183544955021168e-3",
        (1000, 0.1333521432163324): "4.16767883925346512007220508339e-3",
        (1000, 0.1778279410038923): "3.62636432526241367350929285293e-3",
        (1000, 0.23713737056616552): "3.15327765310696291987433510212e-3",
        (1000, 0.31622776601683794): "2.74035621949286084594529546288e-3",
        (1000, 0.4216965034285822): "2.38034739269715272619448506118e-3",
        (1000, 0.5623413251903491): "2.0667676523477973679397444533e-3",
        (1000, 0.7498942093324559): "1.7938502725512209167590945784e-3",
        (1000, 1.0): "1.5564873191041465897500514314e-3",
        (2000, 0.00031622776601683794): "3.36187319152610933468885431161e-2",
        (2000, 0.00042169650342858224): "3.18079521758259190716180083318e-2",
        (2000, 0.0005623413251903491): "2.9794802270055886421810411422e-2",
        (2000, 0.0007498942093324559): "2.76280271417939796253205490316e-2",
        (2000, 0.001): "2.53705291168552328163582159267e-2",
        (2000, 0.001333521432163324): "2.30902051110618966454969777982e-2",
        (2000, 0.0017782794100389228): "2.08502194426299393573752939843e-2",
        (2000, 0.0023713737056616554): "1.87018131261434996476561219815e-2",
        (2000, 0.0031622776601683794): "1.66812137318303275973202047853e-2",
        (2000, 0.004216965034285823): "1.4810208076269666707893130498e-2",
        (2000, 0.0056178): "1.31044472879976741189640620408e-2",
        (2000, 0.005623413251903491): "1.30987884343276753561734010104e-2",
        (2000, 0.007498942093324558): "1.15483202496064591457553081835e-2",
        (2000, 0.01): "1.015434002019803229975399673e-2",
        (2000, 0.01333521432163324): "8.9087099750209210830270281701e-3",
        (2000, 0.01778279410038923): "7.80117314099209796851646785562e-3",
        (2000, 0.023713737056616554): "6.82043956613382163030289157096e-3",
        (2000, 0.03162277660168379): "5.95492692714614314018179585793e-3",
        (2000, 0.042169650342858224): "5.19325131326663195332188143775e-3",
        (2000, 0.05623413251903491): "4.52453928309125160976906976882e-3",
        (2000, 0.07498942093324558): "3.93861339609111430456858306436e-3",
        (2000, 0.1): "3.42608936126643694475951138745e-3",
        (2000, 0.1333521432163324): "2.97841253486787167880113013004e-3",
        (2000, 0.1778279410038923): "2.58785380899951305667174817573e-3",
        (2000, 0.23713737056616552): "2.24747926723316742743486891593e-3",
        (2000, 0.31622776601683794): "1.95110382223943155301171580734e-3",
        (2000, 0.4216965034285822): "1.69323600584499554800519096111e-3",
        (2000, 0.5623413251903491): "1.4690188644464154086854782479e-3",
        (2000, 0.7498942093324559): "1.27417030668280795814257117273e-3",
        (2000, 1.0): "1.1049250951464154090692065511e-3",
    }
    # off the grid: points where the direct quadrature missed by 2.99 and
    # 3.63 times, and two beside points where it missed by 4.84 and 9.60
    _EXTRA = {1000: (2e-5, 5e-5, 0.001996), 2000: (0.0056178,)}

    @pytest.mark.parametrize("n", [500, 1000, 2000])
    def test_true_error_within_estimate(self, monkeypatch, n):
        # eighth-decade a from the seam to 1; the reference is the small-a
        # series at 60 digits (``_mp_j_series``) up to n a = 0.5, where its
        # least term is below 1e-55 of J, and the frozen one above
        mp = pytest.importorskip("mpmath")
        calls = _count_calls(monkeypatch, "_integrate_expsinh")
        grid = [10.0 ** (k / 8) for k in range(-40, 1)]
        points = [a for a in grid if a >= 1.0 / (50.0 * (n + 2))] + list(self._EXTRA.get(n, ()))
        for a in points:
            res = j_integral(IntegralParams(n, a))
            if n * a <= 0.5:
                with mp.workdps(60):
                    reference = mp.nstr(_mp_j_series(mp, n, a), 40)
            else:
                reference = self._FROZEN[n, a]
            assert abs(Fraction(res.value) - Fraction(reference)) <= res.abs_error_estimate, a
        assert calls == []
        assert len(points) >= 36


class TestErrorEstimateHolds:
    """True error <= abs_error_estimate at points where an n-free roundoff
    floor of one ulp of h*sum|w*f| misses the true error (at n = 17 only
    with 1 - exp(-2 pi x) formed by subtraction in the Bose factor).
    References are frozen from 32-digit mpmath evaluations of the defining
    integrals (cross-checked through J = sigma*T + eps) and compared
    exactly."""

    # the series from n = 5351, where a charge of 2(n + 8) ulps for F_n's
    # rounding sent the first two to the direct quadrature (11 134
    # evaluations, and AccuracyError after 22 341); the references are the
    # series at 60 digits (``_mp_j_series``)
    _SERIES_REFERENCES = [
        (5351, 1.0 / (50.0 * 5353), "4.1321806184299580759916977792924444e-2"),
        (5400, 1e-8, "4.1665724088433102062385805331985625e-2"),
        (50000, 1e7, "7.0627963856124991318093847937428861e-8"),
    ]

    @pytest.mark.parametrize(
        "n,a,reference",
        [
            (17, 7.163, "4.2647157482678174085236570468439e-3"),
            (27, 0.5159, "1.1790029247597635008071459980198e-2"),
            (28, 0.7296, "9.9397692071241566028946459956586e-3"),
            (29, 4.207, "4.2984727969703408641479646938022e-3"),
            (33, 0.177, "1.7073097055865026294858635584361e-2"),
            (38, 0.1731, "1.6288852937478504550237741934162e-2"),
            (60, 3.242, "3.4523468794866267023509683663399e-3"),
            (173, 8.526, "1.2822118508060311076390396983007e-3"),
            # a > 4 pi, where the integrand is sampled in its own length scale
            (9, 101.8, "1.4784463104640715207353288086125e-3"),
            (4, 21290.0, "1.8400113582634959432241624299123e-4"),
            (2, 106500.0, "1.1344722295280721964715150027411e-4"),
            (10, 1234000.0, "1.5340257634371112554325298827329e-5"),
            (9, 96720000.0, "1.4165734128629507497990522028989e-6"),
            # three more pool points at and above a = 50(n + 2), where, like the
            # four before them, J_n(a) is now the sum of its series
            (0, 1289.0, "2.1556435945686762938845231890091e-3"),
            (8, 1875.0, "4.3198349138067421213801297523363e-4"),
            (10, 3174000.0, "9.5682725660252386290743419636436e-6"),
            # at and below a = 1/(50(n + 2)), where J_n(a) is the sum of its
            # small-a series; the direct quadrature missed these by 2.56, 1.90
            # and 1.19 times its estimate
            (2000, 1e-8, "4.1666317474097265860711115887563e-2"),
            (2000, 1e-6, "4.1631788746612692954705743440076e-2"),
            (500, 1e-6, "4.1657929548462858829225089436137e-2"),
            # above n = 2000, where the series now run too; the direct
            # quadrature missed the first three by 2.56, 7.05 and 2.93 times,
            # and kept about nine digits at the fourth.  The fourth reference
            # is sigma*T + eps at 60 digits, since 60-digit quadrature of the
            # defining integral does not resolve its 2001 Laguerre zeros
            (2001, 1e-8, "4.1666317299568520803769873307225e-2"),
            (3000, 1.0 / (50.0 * 3002), "4.1321868520722073566909227642070e-2"),
            (3000, 1e-8, "4.1666142946395521189791257681686e-2"),
            (2001, 1e8, "1.1047616027630160430359790756591e-7"),
            *_SERIES_REFERENCES,
        ],
    )
    def test_j_integral(self, n, a, reference):
        res = j_integral(IntegralParams(n, a))
        assert abs(Fraction(res.value) - Fraction(reference)) <= res.abs_error_estimate

    @pytest.mark.parametrize("n,a,reference", _SERIES_REFERENCES)
    def test_series_references(self, n, a, reference):
        # the frozen series references above, rebuilt at 60 digits
        mp = pytest.importorskip("mpmath")
        with mp.workdps(60):
            assert abs(_mp_j_series(mp, n, a) / mp.mpf(reference) - 1) < 1e-33

    @pytest.mark.parametrize(
        "n,a,reference",
        [
            (214, 1.077, "1.0540589965221628413558478849444e-33"),
            (1736, 3.84, "3.0903222909644390275365157574958e-50"),
            # extreme scales, where the theta sums take tau far below 1
            (2, 3.317e-08, "2.1465617087966517914103858982007e+5"),
            (9, 9.672e07, "-2.0704035393500762419367949779304e-7"),
            # eps ~ -T here, while J = sigma*T + eps is only 0.042
            (4, 2.686e-08, "1.5495737504007631510886140387088e+5"),
        ],
    )
    def test_epsilon_integral(self, n, a, reference):
        # tolerance 1e-6 of the remainder's own bound, as a caller sizing it
        # from the bound would ask
        res = epsilon_integral(IntegralParams(n, a, tol=1e-6 * bound(n, a)))
        assert abs(Fraction(res.value) - Fraction(reference)) <= res.abs_error_estimate

    @pytest.mark.parametrize("e", [-25, -33, -39, -40, -45, -59, -98, -127, -150, -200, -254])
    def test_integrate_exp_decay(self, e):
        # a node exp(u) carries about |u| ulps; at c = 10^e the sums run over
        # up to 45 000 nodes with |u| in the hundreds, and a floor of a few
        # ulps of the value alone under-reports the rounding of those nodes
        c = 10.0 ** e
        try:
            res = integrate(lambda t: math.exp(-c * t), 0.0, math.inf)
        except AccuracyError:
            return
        assert abs(Fraction(res.value) - 1 / Fraction(c)) <= res.abs_error_estimate

    @pytest.mark.parametrize("workload", ["index-sweep", "scale-sweep"])
    def test_benchmark_pool(self, workload):
        # every J and eps point of the benchmark's 32-digit reference pool,
        # each called as the benchmark calls it: J at the default tolerance,
        # eps at 1e-6 of the library's bound
        with open(_POOL) as fh:
            points = json.load(fh)[workload]
        missed = []
        for point in points:
            n, a, ref = point["n"], point["a"], point["ref"]
            results = {}
            if "j" in ref:
                results["j"] = j_integral(IntegralParams(n, a))
            if "eps" in ref:
                results["eps"] = epsilon_integral(IntegralParams(n, a, tol=1e-6 * bound(n, a)))
            for name, res in results.items():
                if abs(Fraction(res.value) - Fraction(ref[name])) > res.abs_error_estimate:
                    missed.append((name, n, a))
        assert missed == []


class TestEpsilonIntegral:
    def test_odd_index_at_one_is_exactly_zero(self):
        res = epsilon_integral(IntegralParams(1, 1.0))
        assert res.value == 0.0
        assert res.abs_error_estimate == 0.0
        assert res.evaluations == 1
        assert epsilon_integral(IntegralParams(41, 1.0)).value == 0.0

    @pytest.mark.parametrize("n", [1, 3, 9])
    def test_odd_index_at_one_samples_no_theta_sum(self, monkeypatch, n):
        # the quadrature returns its exact zero before building an integrand
        calls = []
        theta = quadrature.theta_psi
        monkeypatch.setattr(quadrature, "theta_psi", lambda tau: calls.append(tau) or theta(tau))
        assert quadrature._eps_quadrature(n, 1.0, 1e-10) == QuadResult(0.0, 0.0, 1)
        assert calls == []

    def test_even_reference_value(self):
        res = epsilon_integral(IntegralParams(2, 1.0, tol=1e-11))
        assert res.value == pytest.approx(1.250e-5, abs=2e-8)
        # frozen from 40-digit mpmath quadrature
        assert res.value == pytest.approx(1.2503290434108733e-5, rel=1e-9, abs=0.0)

    def test_odd_reference_magnitude(self):
        res = epsilon_integral(IntegralParams(3, 2.0, tol=1e-11))
        assert res.value < 0.0  # negative for a > 1
        assert abs(res.value) == pytest.approx(2.018e-5, abs=2e-8)

    def test_positive_for_even_index(self):
        for a in (0.5, 1.0, 2.0):
            for k in (1, 2, 3):
                assert epsilon_integral(IntegralParams(2 * k, a, tol=1e-15)).value > 0.0

    @pytest.mark.parametrize("a", [0.25, 0.5, 0.9, 1.1, 2.0, 4.0])
    def test_odd_sign_follows_scale(self, a):
        eps = epsilon_integral(IntegralParams(3, a, tol=1e-15)).value
        assert math.copysign(1.0, eps) == math.copysign(1.0, 1.0 - a)

    def test_determinism(self):
        p = IntegralParams(8, 0.5, tol=1e-18)
        assert epsilon_integral(p) == epsilon_integral(p)

    def test_failure_reports_the_remainder(self):
        # eps_2(1e-8) ~ 7.1e5 cannot be resolved to 1e-13 absolute; the error
        # must carry eps and the requested tolerance, not the integral before
        # its 1/(4 pi a) factor and a tolerance 4 pi a times smaller
        with pytest.raises(AccuracyError) as excinfo:
            epsilon_integral(IntegralParams(2, 1e-8))
        assert "did not reach tolerance 1e-13:" in str(excinfo.value)
        # reference: J_2(1e-8) - T_2(1e-8), with J_2(1e-8) = 1/24 to 5e-10
        reference = 1.0 / 24.0 - t_even(1, 1e-8)
        assert excinfo.value.result.value == pytest.approx(reference, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize(
        "n,a,tol,value,estimate,evaluations",
        [
            # tol None: 1e-6 of the bound, as a caller sizing it from B asks
            (2, 1.0, 1e-10, 1.2503290434096424e-05, 6.503430489650914e-12, 49),
            (7, 2.0, None, -7.6631294112747e-07, 1.1867990382216816e-18, 75),
            # the G series from n = 11: 3 terms; the quadrature gave
            # 2.281603572796117e-12 +- 6.4e-24 in 57 evaluations
            (41, 0.5, None, 2.2816035728055556e-12, 1.9296889807567213e-23, 3),
        ],
        ids=["2-1.0-1e-10", "7-2.0-None", "41-0.5-None"],
    )
    def test_bitwise_snapshot(self, monkeypatch, n, a, tol, value, estimate, evaluations):
        # below n = 11 one positional driver call at length max(1, min(n,
        # sqrt(2n/(pi min(a, 1/a))))) and prefactor 1/(4 pi a); the counting
        # wrapper, like the benchmark's, rejects keywords.  Each value lies
        # within its estimate of a 32-digit mpmath quadrature of the remainder
        # integral (41-0.5: 9.4e-24 off, 4.1e-12 relative and 0.49 of its
        # estimate, against 8.0e-28 for the quadrature: the series stops at a
        # quarter of the tolerance, and each G at its term's share of it; it
        # was 6.5e-27 off while each G was summed to 1e-17 of itself)
        p = IntegralParams(n, a, tol=1e-6 * bound(n, a) if tol is None else tol)
        calls = _count_calls(monkeypatch, "_integrate_expsinh")
        res = epsilon_integral(p)
        assert (res.value, res.abs_error_estimate, res.evaluations) == (value, estimate, evaluations)
        assert calls == ([evaluations] if n < 11 else [])

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 10, 41, 200, 1000])
    @pytest.mark.parametrize("a", [2.0, 4.0, 8.0, 1 / 0.3, 10.0, 1e3, 1e8])
    def test_reciprocal_symmetry(self, n, a):
        # eps_n(1/a) = sigma(n) a^(3/2) eps_n(a), by which verify._Samples reads
        # eps at a power of two a > 1 off eps at 1/a; each side at tolerance
        # 1e-6 B, agreeing within the sum of the two scaled estimates
        direct = epsilon_integral(IntegralParams(n, a, tol=1e-6 * bound(n, a)))
        inverse = epsilon_integral(IntegralParams(n, 1.0 / a, tol=1e-6 * bound(n, 1.0 / a)))
        scale = a ** 1.5
        budget = inverse.abs_error_estimate + scale * direct.abs_error_estimate
        assert abs(inverse.value - sigma(n) * scale * direct.value) <= budget

    # eps_n(a) outside the window pi/(2k) << a << 2k/pi, from 45-digit mpmath.
    # For a >= 1e30 the Jacobi transform of Psi(t/a) gives, with u = (t-1)/(t+1),
    #   4 pi a sigma eps_n(a) = sqrt(a)/2 K(1/2) - K(0)/2 + sqrt(a) int t^-1/2 Psi(a/t) k(t) dt
    # (k the kernel, K(s) = int_1^inf t^-s k(t) dt = 2^-1/2 int_0^1 u^n (1-u)^-1/2
    # ((1-u)/(1+u))^s du, the last integral O(1/a) of the rest; sqrt(a) Psi(a t)
    # is below exp(-pi a)); a <= 1e-30 follows from eps_n(1/a) = sigma a^(3/2) eps_n(a).
    # At a = 1e30 a direct 45-digit quadrature of the remainder integral agrees
    # to 20 digits for n = 1 and 30.
    _OUTSIDE_WINDOW = {
        (1, 1e-100): 1.0987355991230197e98,
        (1, 1e-30): 1.0987355991230159e28,
        (1, 1e30): -1.0987355991230159e-17,
        (1, 1e100): -1.0987355991230197e-52,
        (1, 1e300): -1.0987355991230197e-152,
        (2, 1e-100): 7.1256095162053760e97,
        (2, 1e-30): 7.1256095162053460e27,
        (2, 1e30): 7.1256095162053460e-18,
        (2, 1e100): 7.1256095162053760e-53,
        (2, 1e300): 7.1256095162053760e-153,
        (30, 1e-100): 6.4688586501289822e96,
        (30, 1e-30): 6.4688586501288923e26,
        (30, 1e30): 6.4688586501288923e-19,
        (30, 1e100): 6.4688586501289822e-54,
        (30, 1e300): 6.4688586501289822e-154,
    }

    @pytest.mark.parametrize("n,a", sorted(_OUTSIDE_WINDOW))
    def test_outside_window_against_references(self, n, a):
        # the Jacobi part of Psi puts the mass at u ~ n, not at the exponential
        # peak sqrt(2n/(pi min(a, 1/a))): nodes placed past n return a wrong
        # value with a small estimate
        res = epsilon_integral(IntegralParams(n, a, tol=1e-6 * bound(n, a)))
        reference = self._OUTSIDE_WINDOW[n, a]
        assert abs(Fraction(res.value) - Fraction(reference)) <= res.abs_error_estimate
        assert res.evaluations <= 200

    @pytest.mark.parametrize("n", [1, 2, 30])
    def test_top_of_float_range(self, n):
        # 1/(4 pi a) is subnormal from a = 3.6e306 and was 0.0 from 1.4e307,
        # where eps came back as 0.0 with estimate 0.0.  sqrt(a)*eps_n(a) is
        # constant to 1e-150 relative here, so the 1e300 reference scales.
        limit = 1e150 * self._OUTSIDE_WINDOW[n, 1e300]
        for a in (3.6e306, 1e307, 1.5e307, 1e308, 1.7976931348623157e308):
            res = epsilon_integral(IntegralParams(n, a, tol=1e-15 / math.sqrt(a)))
            assert math.sqrt(a) * res.value == pytest.approx(limit, rel=1e-14, abs=0.0), a
            assert abs(res.value - limit / math.sqrt(a)) <= res.abs_error_estimate, a

    @pytest.mark.parametrize("n", [1, 2, 30])
    def test_outside_window_references_are_consistent(self, n):
        refs = self._OUTSIDE_WINDOW
        for a, inverse in ((1e30, 1e-30), (1e100, 1e-100)):
            assert refs[n, inverse] == pytest.approx(sigma(n) * a ** 1.5 * refs[n, a], rel=1e-15, abs=0.0)
        # sqrt(a) eps_n(a) -> sigma K(1/2)/(8 pi); the next term is K(0)/(K(1/2) sqrt(a))
        # relative, 1.4e-14 at n = 30 and a = 1e30
        limit = math.sqrt(1e300) * refs[n, 1e300]
        for a in (1e30, 1e100):
            assert math.sqrt(a) * refs[n, a] == pytest.approx(limit, rel=1e-13, abs=0.0)


class TestEpsilonSeries:
    """From n = 11, between J's seams, eps_n(a) is the sum of its G series,
    the bound's terms made exact; each side ends by its own tail bound, and
    where the series gives up the quadrature answers."""

    def test_benchmark_pool_without_quadrature(self, monkeypatch):
        # every index-sweep point from n = 11, called as the benchmark calls it
        with open(_POOL) as fh:
            points = [p for p in json.load(fh)["index-sweep"] if p["n"] >= 11]
        assert len(points) == 44
        calls = _count_calls(monkeypatch, "_integrate_expsinh")
        for point in points:
            n, a, ref = point["n"], point["a"], point["ref"]
            res = epsilon_integral(IntegralParams(n, a, tol=1e-6 * bound(n, a)))
            assert abs(Fraction(res.value) - Fraction(ref["eps"])) <= res.abs_error_estimate, (n, a)
        assert calls == []

    @pytest.mark.parametrize("n", [11, 13, 41])
    @pytest.mark.parametrize("offset", [-1e-3, 1e-3, -1e-8, 1e-8])
    def test_odd_index_near_one(self, n, offset):
        # the two sides cancel to |a - 1| of their size; the estimate's ulps
        # of the sum of magnitudes must cover that, against 30 digits
        mp = pytest.importorskip("mpmath")
        a = 1.0 + offset
        res = epsilon_integral(IntegralParams(n, a, tol=1e-6 * bound(n, a)))
        with mp.workdps(30):
            reference = mp.nstr(_mp_eps(mp, n, a), 32)
        assert res.evaluations <= 20
        assert math.copysign(1.0, res.value) == -math.copysign(1.0, offset)
        assert abs(Fraction(res.value) - Fraction(reference)) <= res.abs_error_estimate

    @pytest.mark.parametrize("n", [11, 12, 13, 30, 200, 2000])
    def test_against_the_quadrature_between_the_seams(self, monkeypatch, n):
        # quarter-decade a between J's seams, at 1e-6 of the bound: the two
        # agree within their two estimates, and only the series runs
        calls = _count_calls(monkeypatch, "_integrate_expsinh")
        checked = 0
        for e in range(-24, 24):
            a = 10.0 ** (e / 4)
            if not 1.0 / (50.0 * (n + 2)) < a < 50.0 * (n + 2):
                continue
            p = IntegralParams(n, a, tol=1e-6 * bound(n, a))
            res = epsilon_integral(p)
            assert calls == [], a
            direct = quadrature._eps_quadrature(p.n, p.a, p.tol)
            calls.clear()
            assert abs(res.value - direct.value) <= res.abs_error_estimate + direct.abs_error_estimate, a
            checked += 1
        assert checked >= 16

    @pytest.mark.parametrize("n,terms", [(10**8, 67), (10**10, 73), (10**12, 79)])
    def test_huge_index_at_the_mirror_seam(self, n, terms):
        # a = 1.01/(50(n + 2)), just inside the mirror seam, at the default
        # tolerance: the side at x = a ends by its own tail bound, in about
        # 60 + 1.5 ln n terms.  The quadrature stops on its roundoff floor
        # (3e-8 at n = 1e8, 3e-4 at 1e12); its best value agrees with the
        # series within the two estimates
        a = 1.01 / (50.0 * (n + 2))
        series = quadrature._eps_series(n, a, quadrature.DEFAULT_TOL)
        assert series.evaluations == terms
        try:
            direct = quadrature._eps_quadrature(n, a, DEFAULT_TOL)
        except AccuracyError as exc:
            direct = exc.result
        assert abs(series.value - direct.value) <= series.abs_error_estimate + direct.abs_error_estimate

    @pytest.mark.parametrize("n", [10**8, 10**10, 10**12])
    def test_huge_index_without_quadrature(self, monkeypatch, n):
        # at the same points J is sigma*T + eps and eps the G series, with no
        # driver call; J's quadrature would first build an n-entry table of
        # Laguerre steps, so that is refused outright
        def refuse(n):
            raise AssertionError(f"a Laguerre table of {n} steps")

        monkeypatch.setattr(quadrature, "_laguerre_steps", refuse)
        a = 1.01 / (50.0 * (n + 2))
        calls = _count_calls(monkeypatch, "_integrate_expsinh")
        j, eps = j_integral(IntegralParams(n, a)), epsilon_integral(IntegralParams(n, a))
        assert calls == []
        t, t_error = specfun._approximant(n, a)
        budget = j.abs_error_estimate + eps.abs_error_estimate + t_error
        assert abs(j.value - sigma(n) * t - eps.value) <= budget

    @pytest.mark.parametrize("n", [10**307, 4 * 10**307, 10**308], ids=["1e307", "4e307", "1e308"])
    def test_top_indices_from_the_series(self, monkeypatch, n):
        # every G underflows to 0.0 here, while the rounding charge's
        # sqrt((4n + 3) z) is inf (4n + 3 itself from n = 4.49e307): a zero
        # term charges nothing, so eps is 0 +- 0 from two G terms, as at
        # n = 10**300, and J is sigma*T from the series.  The NaN charge
        # 0 * inf sent J to its quadrature, which builds an n-entry table of
        # Laguerre steps first, so that is refused outright
        def refuse(n):
            raise AssertionError(f"a Laguerre table of {n} steps")

        monkeypatch.setattr(quadrature, "_laguerre_steps", refuse)
        calls = _count_calls(monkeypatch, "_integrate_expsinh")
        for a in (0.5, 1.0, 2.0):
            eps = epsilon_integral(IntegralParams(n, a))
            assert eps == QuadResult(0.0, 0.0, 2) == epsilon_integral(IntegralParams(10**300, a)), a
            j = j_integral(IntegralParams(n, a))
            assert j == quadrature._theorem(n, a, DEFAULT_TOL, quadrature._eps_series, 1.0), a
            t, _ = specfun._approximant(n, a)
            assert j.value == sigma(n) * t and j.abs_error_estimate <= 1e-14 * j.value, a
        assert calls == []

    @pytest.mark.parametrize("a", [1e-6, 1e-8])
    def test_gate_sums_no_term_past_the_budget(self, monkeypatch, a):
        # the side at x = a would need hundreds of terms, but a lies beyond
        # J's seams, where the G series is not summed: J - sigma*T answers
        # with no G and no quadrature, within the two estimates of the
        # quadrature
        p = IntegralParams(11, a, tol=1e-6 * bound(11, a))
        terms = _count_terms(monkeypatch)
        calls = _count_calls(monkeypatch, "_integrate_expsinh")
        res = epsilon_integral(p)
        assert terms == [] and calls == []
        direct = quadrature._eps_quadrature(p.n, p.a, p.tol)
        assert abs(res.value - direct.value) <= res.abs_error_estimate + direct.abs_error_estimate

    @pytest.mark.parametrize("n", [11, 12, 13, 20, 30, 200, 2000])
    def test_g_series_grid_within_estimate_of_30_digits(self, n):
        # quarter-decade a between J's seams x four tolerances: each G stops
        # at its term's share of the tolerance and charges twice its first
        # omitted pair.  eps by the G series, and J by sigma*T + eps, each lie
        # within its estimate of the G series summed at 30 digits
        mp = pytest.importorskip("mpmath")
        seam = 50.0 * (n + 2)
        answered = requests = 0
        for k in range(-20, 21):
            a = 10.0 ** (k / 4)
            if not 1.0 / seam < a < seam:
                continue
            requests += 8
            exact = None
            for tol in (1e-15, 1e-13, 1e-10, 1e-6 * bound(n, a)):
                eps = quadrature._eps_series(n, a, tol)
                j = quadrature._theorem(n, a, tol, quadrature._eps_series, 1.0)
                if exact is None and (eps or j):
                    with mp.workdps(30):
                        # odd n at a = 1: the sides cancel exactly, and at 30 digits to 1e-42
                        exact = _mp_eps(mp, n, a) if n % 2 == 0 or a != 1.0 else mp.mpf(0)
                        exact = mp.nstr(exact, 32), mp.nstr((-1) ** n * _mp_t(mp, n, a) + exact, 32)
                for res, reference in ((eps, exact and exact[0]), (j, exact and exact[1])):
                    if res is not None:
                        answered += 1
                        assert abs(Fraction(res.value) - Fraction(reference)) <= res.abs_error_estimate, (a, tol)
        # 1 458 of 1 552 requests (92-95% at each n); the worst is 0.50 of its
        # estimate, at (12, 1, 1e-15)
        assert answered >= 0.9 * requests

    def test_subnormal_first_term_answers_by_the_theorem(self, monkeypatch):
        # at (2000, 237.1) the side at x = a starts at e^(-pi a) = 5e-324, so
        # its G's room, share/(64 e sqrt(a)), is inf: that G stops at its
        # first pair, and its charge is finite.  J is sigma*T + eps, with no
        # driver call; the direct quadrature there misses by 16 times its
        # estimate
        n, a, tol = 2000, 237.1, 1e-10
        assert math.exp(-math.pi * a) == 5e-324
        calls = _count_calls(monkeypatch, "_integrate_expsinh")
        res = j_integral(IntegralParams(n, a, tol))
        assert calls == []
        assert res == quadrature._theorem(n, a, tol, quadrature._eps_series, 1.0)
        mp = pytest.importorskip("mpmath")
        with mp.workdps(30):
            assert abs(mp.mpf(res.value) - _mp_theorem_j(mp, n, a)) <= res.abs_error_estimate

    def test_frozen_pair_count_on_the_benchmark_pool(self, monkeypatch):
        # the pairs of G's expansion (``specfun._u_olver``) formed over the
        # 44 index-sweep points from n = 11, called as the benchmark calls
        # them: eps at 1e-6 of the bound (whose own G is summed to 1e-17 of
        # itself), J at the default tolerance up to n = 200.  313 expansions
        # form 743 pairs; summing every G to 1e-17 of itself formed 1 574
        formed = []

        class Counted(tuple):
            def __iter__(self):
                for pairs in tuple.__iter__(self):
                    formed.append(pairs)
                    yield pairs

        monkeypatch.setattr(specfun, "_OLVER", Counted(specfun._OLVER))
        terms = _count_terms(monkeypatch)
        with open(_POOL) as fh:
            points = [p for p in json.load(fh)["index-sweep"] if p["n"] >= 11]
        for point in points:
            n, a = point["n"], point["a"]
            epsilon_integral(IntegralParams(n, a, tol=1e-6 * bound(n, a)))
            if n <= 200:
                j_integral(IntegralParams(n, a))
        assert (len(points), len(terms), len(formed)) == (44, 313, 743)

    def test_rounding_charge_over_tol_stops_the_series(self, monkeypatch):
        # at (12, 10^-2.75) the charge for the terms' rounding, which never
        # shrinks, ends at 0.73 of T's rounding bound; asked for half of that
        # bound, the series gives up at the second G term, not after all 43
        n, a = 12, 10.0 ** -2.75
        terms = _count_terms(monkeypatch)
        assert quadrature._eps_series(n, a, 0.5 * specfun._approximant(n, a)[1]) is None
        assert len(terms) == 2


class TestEpsilonDifference:
    """On J's series side (``quadrature._j_side``), n = 0 included, eps_n(a)
    is J - sigma*T with J by its Bernoulli series, wherever T's rounding
    bound is at most half the tolerance and the combined estimate meets it;
    inside the window T's bound refuses the route and the quadrature runs."""

    @pytest.mark.parametrize(
        "n,a",
        [(n, 10.0 ** e) for n in (1, 2, 5, 10) for e in (-3, -2, 2, 3)] + [(11, 10.0 ** -4.5), (11, 10.0 ** 4.5)],
    )
    def test_within_estimate_of_30_digits(self, monkeypatch, n, a):
        # outside the window at 1e-6 of the bound, against the G series
        # summed at 30 digits: at most 0.034 of the estimate, 3.3e-15
        # relative, with no quadrature
        mp = pytest.importorskip("mpmath")
        p = IntegralParams(n, a, tol=1e-6 * bound(n, a))
        calls = _count_calls(monkeypatch, "_integrate_expsinh")
        res = epsilon_integral(p)
        assert calls == []
        with mp.workdps(30):
            reference = mp.nstr(_mp_eps(mp, n, a), 32)
        assert abs(Fraction(res.value) - Fraction(reference)) <= res.abs_error_estimate

    @pytest.mark.parametrize("n", [11, 30, 200])
    def test_where_the_g_series_gives_up(self, monkeypatch, n):
        # quarter-decade a over [1e-8, 1e8] at 1e-6 of the bound: beyond
        # J's seams, where the G series is not summed, the difference
        # answers, with no quadrature and within the two estimates of the
        # quadrature
        calls = _count_calls(monkeypatch, "_integrate_expsinh")
        checked = 0
        for e in range(-32, 33):
            a = 10.0 ** (e / 4)
            p = IntegralParams(n, a, tol=1e-6 * bound(n, a))
            if not quadrature._j_side(n, a):
                continue
            res = epsilon_integral(p)
            assert calls == [], a
            direct = quadrature._eps_quadrature(p.n, p.a, p.tol)
            calls.clear()
            assert abs(res.value - direct.value) <= res.abs_error_estimate + direct.abs_error_estimate, a
            checked += 1
        assert checked >= 16

    @pytest.mark.parametrize("a", [10.0 ** e for e in (-1.5, -1.25, 1.25, 1.5, 2, 4)])
    def test_index_zero_within_estimate_of_30_digits(self, monkeypatch, a):
        # eps_0 = J_0 - T_0, the theorem at n = 0, at the default tolerance,
        # against the G series summed at 30 digits: at most 0.034 of the
        # estimate, with no quadrature
        mp = pytest.importorskip("mpmath")
        calls = _count_calls(monkeypatch, "_integrate_expsinh")
        res = epsilon_integral(IntegralParams(0, a))
        assert calls == []
        with mp.workdps(30):
            reference = mp.nstr(_mp_eps(mp, 0, a), 32)
        assert abs(Fraction(res.value) - Fraction(reference)) <= res.abs_error_estimate

    def test_index_zero_inside_the_skip_bound(self, monkeypatch):
        # at a = 1 J_0's least term is far above 1e-13: J's series is not
        # tried, and eps_0 is one quadrature
        p = IntegralParams(0, 1.0)
        series = quadrature._j_series
        tried = []
        monkeypatch.setattr(quadrature, "_j_series", lambda *args: tried.append(args) or series(*args))
        counts = _count_quadratures(monkeypatch)
        res = epsilon_integral(p)
        assert tried == [] and counts == {"_j_quadrature": 0, "_eps_quadrature": 1}
        assert res == quadrature._eps_quadrature(p.n, p.a, p.tol)

    @pytest.mark.parametrize("n", [1, 2, 5, 10])
    @pytest.mark.parametrize("a", [1e2, 1e3, 1e5, 1e8])
    def test_reflection(self, monkeypatch, n, a):
        # eps_n(1/a) = sigma(n) a^(3/2) eps_n(a), both sides by the difference
        # (one by the large-a series, the other by the small-a one), within
        # the sum of the two scaled estimates
        p, q = IntegralParams(n, a, 1e-6 * bound(n, a)), IntegralParams(n, 1.0 / a, 1e-6 * bound(n, 1.0 / a))
        calls = _count_calls(monkeypatch, "_integrate_expsinh")
        direct, inverse = epsilon_integral(p), epsilon_integral(q)
        assert calls == []
        scale = a ** 1.5
        budget = inverse.abs_error_estimate + scale * direct.abs_error_estimate
        assert abs(inverse.value - sigma(n) * scale * direct.value) <= budget

    @pytest.mark.parametrize("n", [1, 2, 5, 10])
    @pytest.mark.parametrize("a", [0.25, 1.001, 3.0])
    def test_refused_below_twice_the_rounding_of_t(self, monkeypatch, n, a):
        # asked for eps to T's own rounding bound, J - sigma*T would be
        # roundoff: J's series is not even tried, and one quadrature runs
        p = IntegralParams(n, a, tol=specfun._approximant(n, a)[1])
        series = quadrature._j_series
        tried = []
        monkeypatch.setattr(quadrature, "_j_series", lambda *args: tried.append(args) or series(*args))
        calls = _count_calls(monkeypatch, "_integrate_expsinh")
        res = epsilon_integral(p)
        assert tried == [] and len(calls) == 1
        assert res == quadrature._eps_quadrature(p.n, p.a, p.tol)

    def test_running_give_up(self, monkeypatch):
        # at (8, 9.21) the series cannot meet 1e-6 of the bound: from j = 6
        # P_j times n = 0's least term exceeds it, and the sum stops there
        # (21 terms were summed before the quadrature ran)
        n, a = 8, 9.21
        p = IntegralParams(n, a, tol=1e-6 * bound(n, a))
        generator = quadrature._bernoulli_terms
        terms = []

        def counted(*args):
            for term in generator(*args):
                terms.append(term)
                yield term

        monkeypatch.setattr(quadrature, "_bernoulli_terms", counted)
        calls = _count_calls(monkeypatch, "_integrate_expsinh")
        res = epsilon_integral(p)
        assert len(terms) <= 6 and terms[-1] == math.inf
        assert len(calls) == 1 and res == quadrature._eps_quadrature(p.n, p.a, p.tol)

    def test_running_give_up_keeps_every_success(self):
        # n <= 10, 1/16-decade a in [1e-4, 1e4], four tolerances: every sum
        # whose estimate meets tol without the give-up (4 166 of them) is
        # returned bit for bit with it
        kept = 0
        for n in range(11):
            for k in range(-64, 65):
                a = 10.0 ** (k / 16)
                whole = quadrature._j_series(n, a, math.inf)
                for tol in (1e-15, 1e-13, 1e-10, 1e-6):
                    if whole.abs_error_estimate <= tol:
                        assert quadrature._j_series(n, a, tol) == whole, (n, a, tol)
                        kept += 1
        assert kept == 4166

    @pytest.mark.parametrize(
        "n,a,value,estimate,evaluations",
        [
            (10, 17.8, "0x1.cf71b8423a6cdp-9", "0x1.f813f65adff30p-43", 47),
            (1, 9.61, "0x1.4820c7f2d9fd7p-7", "0x1.f5392baa0af51p-43", 31),
            (10, 0.0487, "0x1.1c296934993b3p-5", "0x1.459342ce499e9p-46", 54),
        ],
    )
    def test_series_bits_at_the_reach(self, n, a, value, estimate, evaluations):
        # sums just inside the reach, frozen from the series before it took a
        # tolerance: the give-up changes none of their bits
        res = quadrature._j_series(n, a, 1e-6 * bound(n, a))
        assert (res.value.hex(), res.abs_error_estimate.hex(), res.evaluations) == (value, estimate, evaluations)


class TestSeriesSide:
    """From n = 11 one rule, ``quadrature._j_side``, picks the series for J
    and eps alike: at and beyond J's seams a = 50(n + 2) and 1/(50(n + 2))
    J's Bernoulli series, with eps = J - sigma*T; between them eps's G
    series, with J = sigma*T + eps."""

    @pytest.mark.parametrize("n", [11, 30, 200, 2000])
    def test_one_series_each_side(self, monkeypatch, n):
        # eighth-decade a over [1e-10, 1e10], eps at 1e-13 and 1e-6 of the
        # bound, J at 1e-13: beyond the seams neither function sums a G
        # term, between them neither calls J's series
        seam = 50.0 * (n + 2)
        requests = [
            (integral, a, tol)
            for a in (10.0 ** (k / 8) for k in range(-80, 81))
            for integral, tol in ((epsilon_integral, 1e-13), (epsilon_integral, 1e-6 * bound(n, a)), (j_integral, 1e-13))
        ]
        terms = _count_terms(monkeypatch)
        series = quadrature._j_series
        tried = []
        monkeypatch.setattr(quadrature, "_j_series", lambda *args: tried.append(args) or series(*args))
        sides = set()
        for integral, a, tol in requests:
            beyond = not 1.0 / seam < a < seam
            sides.add(beyond)
            terms.clear()
            tried.clear()
            try:
                integral(IntegralParams(n, a, tol))
            except AccuracyError:
                pass
            assert (terms if beyond else tried) == [], (integral.__name__, a, tol)
        assert sides == {False, True}

    @pytest.mark.parametrize("n", [11, 30, 200])
    def test_seam_points_within_estimate_of_30_digits(self, monkeypatch, n):
        # a a quarter and a half decade either side of each seam, at 1e-6 of
        # the bound, against the G series summed at 30 digits.  Beyond the
        # seams eps was the G series, 3e-6 to 1e-5 relative off and up to
        # 0.2 of its estimate; J - sigma*T is within 1e-14 relative and
        # 0.034 of its estimate
        mp = pytest.importorskip("mpmath")
        seam = 50.0 * (n + 2)
        calls = _count_calls(monkeypatch, "_integrate_expsinh")
        for e in (-0.5, -0.125, 0.125, 0.5):
            for a in (seam * 10.0 ** e, 1.0 / (seam * 10.0 ** e)):
                res = epsilon_integral(IntegralParams(n, a, tol=1e-6 * bound(n, a)))
                with mp.workdps(30):
                    reference = mp.nstr(_mp_eps(mp, n, a), 32)
                error = abs(Fraction(res.value) - Fraction(reference))
                assert error <= res.abs_error_estimate, a
                if e > 0:
                    assert error <= 1e-13 * abs(Fraction(reference)), a
        assert calls == []

    def test_frozen_raise_count(self):
        # eps at 11 indices x eighth-decade a over [1e-15, 1e15] x two
        # tolerances, 5 302 requests: the same 915 raise whichever series
        # answers beyond the seams
        raised = total = 0
        for n in (11, 12, 13, 20, 30, 50, 100, 200, 500, 1000, 2000):
            for k in range(-120, 121):
                a = 10.0 ** (k / 8)
                for tol in (1e-13, 1e-6 * bound(n, a)):
                    total += 1
                    try:
                        epsilon_integral(IntegralParams(n, a, tol))
                    except AccuracyError:
                        raised += 1
        assert (total, raised) == (5302, 915)


class TestGiveUpBranches:
    """Where G's expansion or eps's series gives up, u_scaled, epsilon_integral
    and j_integral each run their quadrature, once."""

    @pytest.fixture(params=["growing-pair", "short-table"])
    def failing_expansion(self, request, monkeypatch):
        # a first pair above 1 is larger than both pairs before it (taken as
        # 1); a table with no pair runs out before any G stops, even where
        # the room a G is given would take its first pair
        olver = specfun._OLVER
        if request.param == "growing-pair":
            table = (tuple((1e20 * odd, 1e20 * even) for odd, even in olver[0]),) + olver[1:]
        else:
            table = ()
        monkeypatch.setattr(specfun, "_OLVER", table)
        return olver

    def test_u_scaled(self, monkeypatch, failing_expansion):
        g0 = math.sqrt(math.pi) * gamma_half_ratio(30)
        assert specfun._u_olver(30, 2.0 * math.pi, g0) is None
        calls = _count_calls(monkeypatch, "_integrate_expsinh")
        value = u_scaled(30, 2.0 * math.pi)
        assert len(calls) == 1
        monkeypatch.setattr(specfun, "_OLVER", failing_expansion)
        assert value == pytest.approx(u_scaled(30, 2.0 * math.pi), rel=1e-13, abs=0.0)

    def test_epsilon_integral(self, monkeypatch, failing_expansion):
        p = IntegralParams(30, 1.0, 1e-15)
        calls = _count_calls(monkeypatch, "_integrate_expsinh")
        res = epsilon_integral(p)
        assert len(calls) == 1
        assert res == quadrature._eps_quadrature(p.n, p.a, p.tol)

    def test_j_integral(self, monkeypatch, failing_expansion):
        calls = _count_calls(monkeypatch, "_integrate_expsinh")
        res = j_integral(IntegralParams(30, 1.0))
        assert len(calls) == 1
        assert res == quadrature._j_quadrature(30, 1.0, DEFAULT_TOL)

    def test_epsilon_integral_over_tolerance(self, monkeypatch):
        # at 1e-30 the series stops at 1e-17 of each side, and its rounding
        # charge is far above the tolerance; the quadrature's floor is too
        p = IntegralParams(30, 1.0, 1e-30)
        assert quadrature._eps_series(30, 1.0, 1e-30) is None
        driver = quadrature._integrate_expsinh
        calls = []
        monkeypatch.setattr(quadrature, "_integrate_expsinh", lambda *args: calls.append(args) or driver(*args))
        with pytest.raises(AccuracyError, match="roundoff floor"):
            epsilon_integral(p)
        assert len(calls) == 1


class TestTheoremConsistency:
    """Closure J_n(a) = sigma*T_n(a) + eps_n(a), in the window where the
    remainder is large enough for the subtraction to carry signal."""

    @pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
    def test_residual_below_tolerance(self, n, a):
        eps = epsilon_integral(IntegralParams(n, a, tol=1e-15)).value
        if abs(eps) <= 1e-12:
            pytest.skip("remainder below the cancellation floor")
        t = t_even(n // 2, a) if n % 2 == 0 else t_odd((n - 1) // 2, a)
        j = j_integral(IntegralParams(n, a)).value
        assert abs(j - sigma(n) * t - eps) < 1e-12


class TestUScaled:
    def test_watson_expansion_oracle(self):
        # two-term Watson expansion 1/z - (3/2)/z^2; the next term is 3.8e-9
        z = 1000.0
        assert abs(u_scaled(0, z) - (1.0 / z - 1.5 / z ** 2)) < 5e-9

    def test_monotone_in_index(self):
        z = 2.0 * math.pi
        values = [u_scaled(n, z) for n in (0, 1, 2, 5, 9)]
        assert all(b < a for a, b in zip(values, values[1:]))
        assert all(v > 0.0 for v in values)

    def test_monotone_in_argument(self):
        for n in (0, 2):
            values = [u_scaled(n, z) for z in (1.0, 2.0, 2.0 * math.pi, 20.0)]
            assert all(b < a for a, b in zip(values, values[1:]))

    def test_asymptotic_normalisation(self):
        z = 1e6
        assert abs(z * u_scaled(0, z) - 1.0) < 2.0 / z

    def test_two_quadrature_schemes_agree(self):
        # independent scheme: adaptive Gauss-Kronrod on the same integrand
        n, z = 2, 2.0 * math.pi

        def f(t):
            return math.exp(-z * t) * (t / (1.0 + t)) ** n / ((1.0 + t) * math.sqrt(1.0 + t))

        expected, _ = scipy.integrate.quad(f, 0.0, math.inf, epsabs=1e-16, epsrel=1e-13)
        assert u_scaled(n, z) == pytest.approx(expected, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("n", [0, 1, 2, 5])
    @pytest.mark.parametrize("z", [1.0, 2.0 * math.pi])
    def test_against_scipy_hyperu(self, n, z):
        expected = math.gamma(n + 1) * scipy.special.hyperu(n + 1, 0.5, z)
        assert u_scaled(n, z) == pytest.approx(expected, rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("n", [0, 1, 2, 5, 10])
    def test_node_length_seams_against_mpmath_hyperu(self, monkeypatch, n):
        # the nodes sit at max(t*, min(max(1, 6/z), 32/z)): just above the
        # Kummer seam (n + 1) z = 0.1, where the quadrature takes over, and
        # either side of z = 6 and z = 32, where the length changes its rule.
        # Measured worst 6.3e-16, at (10, 6)
        mp = pytest.importorskip("mpmath")
        calls = _count_calls(monkeypatch, "_integrate_expsinh")
        seam = 0.1 / (n + 1)
        points = (seam * (1.0 + 1e-10), 1.5 * seam, 5.0, 5.99, 6.0, 6.01, 7.0, 30.0, 31.99, 32.0, 32.01, 40.0)
        with mp.workdps(40):
            for z in points:
                reference = mp.factorial(n) * mp.hyperu(n + 1, 0.5, z)
                assert abs(u_scaled(n, z) - reference) <= 1e-15 * reference, z
        assert len(calls) == len(points)

    def test_large_index_stays_finite(self):
        # (2k)! U(2k+1, 1/2, 2 pi) at k=50: the explicit factorial would overflow
        value = u_scaled(100, 2.0 * math.pi)
        assert 0.0 < value < 1e-20
        # frozen from 40-digit mpmath: 100! * hyperu(101, 1/2, 2*pi)
        assert value == pytest.approx(5.002305162e-22, rel=1e-8, abs=0.0)

    @pytest.mark.parametrize(
        "n,z,value,evaluations",
        [
            (1, 0.1, 0.6014611643643808, [175]),
            (10, 2.0 * math.pi, 5.927096269225447e-07, [121]),
            (1000, 1.0, 3.0682786607671375e-29, []),
        ],
        ids=["1-0.1", "10-2pi", "1000-1.0"],
    )
    def test_bitwise_snapshot(self, monkeypatch, n, z, value, evaluations):
        # above the series seam below n = 11: one positional driver call at
        # length max(t*, min(max(1, 6/z), 32/z)) and the default prefactor;
        # each value lies within 1.6e-14 relative of the 32-digit
        # n! hyperu(n+1, 1/2, z).  At (1, 0.1) the length was max(t*, 1), and
        # G 0.6014611643643811 in 201 evaluations, 1.8e-16 relative off the
        # 40-digit n! hyperu; now 3.7e-16 off.
        # From n = 11 up G is the uniform expansion and no quadrature runs:
        # at (1000, 1.0) the quadrature gave 3.0682786607672037e-29 in 70
        # evaluations, 1.5e-14 relative off the 40-digit n! hyperu; the
        # expansion is 6.3e-15 off
        calls = _count_calls(monkeypatch, "_integrate_expsinh")
        assert u_scaled(n, z) == value
        assert calls == evaluations

    def test_series_snapshot(self, monkeypatch):
        # below the seam G is summed, not integrated; 40-digit mpmath gives
        # 1.96494740456466993881...
        calls = _count_calls(monkeypatch, "_integrate_expsinh")
        assert u_scaled(0, 1e-4) == 1.9649474045646698
        assert calls == []

    @pytest.mark.parametrize("n", [1, 10, 100, 1000])
    def test_cost_is_flat_in_argument(self, monkeypatch, n):
        # the integrand peaks at t* ~ 2n/3 for small z and sqrt(n/z) for
        # large nz, far from 1; the nodes must follow it.  At (n + 1) z <= 0.1
        # the mass spreads over [1, 1/z] and the Kummer series replaces the
        # quadrature; from n = 11 up the uniform expansion does above it.
        calls = _count_calls(monkeypatch, "_integrate_expsinh")
        for e in range(-12, 4):
            z = 10.0 ** e
            before = len(calls)
            u_scaled(n, z)
            if (n + 1) * z <= 0.1 or n >= 11:
                assert len(calls) == before, (n, z)
        assert max(calls, default=0) <= 450, calls

    @pytest.mark.parametrize("n", [0, 1, 2, 10, 100, 2000])
    def test_accuracy_across_series_seam(self, n):
        # the series side cancels at most about one bit (the subtracted term
        # is at most 0.56 of the first); the rest is R(n)'s own rounding
        mp = pytest.importorskip("mpmath")
        series = (1e-300, 1e-100, 1e-12, 1e-4, 0.1)
        integrated = (0.1 * (1.0 + 1e-10), 0.15, 0.2, 1.0)
        with mp.workdps(40):
            for nz in series + integrated:
                z = nz / (n + 1)
                reference = mp.factorial(n) * mp.hyperu(n + 1, 0.5, z)
                rel = 1e-14 if (n + 1) * z <= 0.1 else 2e-14
                assert abs(u_scaled(n, z) - reference) <= rel * reference, nz
        assert u_scaled(n, 5e-324) > 0.0

    @pytest.mark.parametrize("n", [1000, 2000])
    def test_large_index_against_mpmath_hyperu(self, n):
        # above the seam G is the uniform expansion, whose exponent E carries
        # about |E| ulps (E = -487 at (2000, 31.6), 3.6e-14 off); the
        # quadrature it replaced carried n/2 ulps per sample
        mp = pytest.importorskip("mpmath")
        with mp.workdps(40):
            for z in (0.56, 1.0, 3.16, 31.6):
                reference = mp.factorial(n) * mp.hyperu(n + 1, 0.5, z)
                assert abs(u_scaled(n, z) - reference) <= 1e-13 * reference, z

    @pytest.mark.parametrize("n", [11, 12, 15, 20, 30, 100, 300, 1000, 2000])
    def test_expansion_against_mpmath_hyperu(self, monkeypatch, n):
        # from n = 11 up, above the Kummer seam, G is the uniform expansion at
        # every decade of z up to 1e12, with no quadrature.  Its exponent
        # E = -(u/2)(t/(t + sqrt(1 + t^2)) + asinh t) carries about |E| ulps,
        # or u/2 above t = 1, so G keeps about 13 digits where it is near the
        # bottom of the float range (measured worst on quarter decades:
        # 7.7e-14, at (1000, 31.6)).  Where E < -710, G is below the least
        # normal float and is left out.
        mp = pytest.importorskip("mpmath")
        calls = _count_calls(monkeypatch, "_integrate_expsinh")
        u = 4 * n + 3
        with mp.workdps(40):
            for e in range(-12, 13):
                z = 10.0 ** e
                if (n + 1) * z <= 0.1:
                    continue
                value = u_scaled(n, z)
                t = mp.sqrt(mp.mpf(z) / u)
                if -(u / mp.mpf(2)) * (t / (t + mp.sqrt(1 + t * t)) + mp.asinh(t)) < -710:
                    assert value < sys.float_info.min, z
                    continue
                reference = mp.factorial(n) * mp.hyperu(n + 1, 0.5, z)
                if reference < sys.float_info.min:
                    continue
                assert abs(value - reference) <= 1e-13 * reference, z
        assert calls == []

    @pytest.mark.parametrize("n", [11, 12, 20, 50, 100, 500, 2000])
    def test_expansion_below_the_kummer_seam(self, monkeypatch, n):
        # from n = 11 the expansion serves every z, and the Kummer series only
        # n <= 10.  Below (n + 1) z = 0.1 E is tiny, and G is within 6.3e-16
        # of 40-digit n! hyperu on half-decade z down to 1e-313 (worst at
        # (11, 2.6e-10); the Kummer series was within 9.0e-16 there, worst at
        # n = 2000).  Here: half decades over the first twenty decades below
        # the seam, then every thirtieth decade, where hyperu is slower
        mp = pytest.importorskip("mpmath")
        monkeypatch.setattr(quadrature, "_kummer_series", None)
        calls = _count_calls(monkeypatch, "_integrate_expsinh")
        seam = 0.1 / (n + 1)
        points = [seam * 10.0 ** (-k / 2) for k in range(41)] + [10.0 ** -k for k in range(30, 301, 30)] + [1e-313]
        with mp.workdps(40):
            for z in points:
                reference = _mp_g(mp, n, z)
                assert abs(u_scaled(n, z) - reference) <= 7e-16 * reference, z
        assert calls == []

    @pytest.mark.parametrize("n,z", [(27, 29.17), (11, 10 ** 1.05), (13, 10 ** 0.8), (17, 10 ** 3.9), (18, 10 ** 3.6)])
    def test_expansion_past_a_cancelled_pair(self, monkeypatch, n, z):
        # a pair of terms nearly cancels and the next one is larger (-9.0e-15,
        # then -1.33e-14 at (27, 29.17), a term of eps_27(0.5159)); a sum
        # that gave up at the first larger pair ran the quadrature here
        mp = pytest.importorskip("mpmath")
        calls = _count_calls(monkeypatch, "_integrate_expsinh")
        value = u_scaled(n, z)
        assert calls == []
        with mp.workdps(40):
            reference = mp.factorial(n) * mp.hyperu(n + 1, 0.5, z)
            assert abs(value - reference) <= 1e-13 * reference

    @pytest.mark.parametrize("z", [0.01, 1.0, 100.0, 1e4])
    def test_index_seam(self, monkeypatch, z):
        # n = 10 keeps its quadrature and n = 11 takes the expansion; both
        # lie within 1e-14 of 40-digit mpmath
        mp = pytest.importorskip("mpmath")
        calls = _count_calls(monkeypatch, "_integrate_expsinh")
        with mp.workdps(40):
            for n, quadratures in ((10, 1), (11, 0)):
                before = len(calls)
                value = u_scaled(n, z)
                assert len(calls) - before == quadratures, n
                reference = mp.factorial(n) * mp.hyperu(n + 1, 0.5, z)
                assert abs(value - reference) <= 1e-14 * reference, n

    def test_cost_map(self, monkeypatch):
        # every quarter decade of z from 1e-12 to 1e12 at indices up to 2000:
        # no point may cost more than 180 evaluations, and the total is
        # frozen.  Before the expansion the total was 69 993, with 867 at
        # (300, 1e3) and 433 at (30, 1.8e11); with it n >= 11 costs nothing,
        # and the total was 34 278, worst 391 at (1, 0.056), while the nodes
        # sat at length 1 below z = 16.  At six decay lengths 1/z the same
        # point is the worst, at 175
        calls = _count_calls(monkeypatch, "_integrate_expsinh")
        cost = {}
        for n in (0, 1, 2, 3, 5, 10, 30, 100, 300, 1000, 2000):
            for e in range(-48, 49):
                before = len(calls)
                u_scaled(n, 10.0 ** (e / 4))
                cost[n, e] = sum(calls[before:])
        assert max(cost.values()) <= 180, max(cost.items(), key=lambda item: item[1])
        assert sum(cost.values()) == 28186

    @pytest.mark.parametrize("n", [0, 1, 2, 10])
    def test_cost_is_flat_at_huge_argument(self, monkeypatch, n):
        # the mass lies within a few decay lengths 1/z of 0, where nodes at
        # length 1 are too sparse to resolve it within the level budget
        calls = _count_calls(monkeypatch, "_integrate_expsinh")
        for e in range(4, 309):
            u_scaled(n, 10.0 ** e)
        assert max(calls) <= 250, calls

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_huge_argument_against_mpmath_hyperu(self, n):
        # G_0 ~ 1/z is a normal float up to z = 1e308 and must not collapse to
        # 0.0; the absolute term admits gradual underflow, where G_1 and G_2
        # fall below the smallest normal float
        mp = pytest.importorskip("mpmath")
        with mp.workdps(30):
            for e in range(4, 309):
                z = 10.0 ** e
                value = u_scaled(n, z)
                reference = mp.factorial(n) * mp.hyperu(n + 1, 0.5, z)
                assert abs(value - reference) <= 1e-14 * reference + 5e-324, e

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            u_scaled(-1, 1.0)
        with pytest.raises(ValueError):
            u_scaled(0, 0.0)
        for n in (2.5, 2.0):
            with pytest.raises(ValueError, match=f"n must be a non-negative integer, got {n}"):
                u_scaled(n, 1.0)

    def test_infinite_argument_is_a_domain_error(self):
        # z is checked as a scale is everywhere: inf ran a quadrature to NaN
        with pytest.raises(ValueError, match="z must be positive and finite, got inf"):
            u_scaled(0, math.inf)


class TestFiniteCheckIntegrals:
    def test_even_base_case_analytic(self):
        # antiderivative of t^(-1/2)(1+t)^(-3/2) is 2 sqrt(t/(1+t))
        first, _ = finite_check_integrals(0)
        assert first == pytest.approx(math.sqrt(2.0), rel=1e-13, abs=0.0)

    def test_even_k1_closed_forms(self):
        first, second = finite_check_integrals(2)
        closed_first = math.sqrt(math.pi / 2.0) * gamma_half_ratio(2)
        closed_second = 2.0 * float(gauss_f(2)) - closed_first
        assert first == pytest.approx(closed_first, rel=1e-12, abs=0.0)
        assert second == pytest.approx(closed_second, rel=1e-12, abs=0.0)
        assert first == pytest.approx(0.75424723, abs=1e-8)
        assert second == pytest.approx(0.17908610, abs=1e-8)

    def test_odd_base_case_analytic(self):
        # integral_0^1 (1-t)/(1+t)^(5/2) dt via the antiderivative
        # 2/sqrt(1+t) - (4/3)(1+t)^(-3/2)
        _, second = finite_check_integrals(1)
        expected = (2.0 / math.sqrt(2.0) - (4.0 / 3.0) * 2.0 ** -1.5) - (2.0 - 4.0 / 3.0)
        assert second == pytest.approx(expected, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("parity", ["even", "odd"])
    @pytest.mark.parametrize("k", [0, 1, 2, 5, 10, 20, 30, 100, 500])
    def test_closed_forms_to_relative_tolerance(self, parity, k):
        m = 2 * k + (1 if parity == "odd" else 0)
        first, second = finite_check_integrals(m)
        closed_first = math.sqrt(math.pi / 2.0) * gamma_half_ratio(m)
        f2 = 2.0 * float(gauss_f(m))
        closed_second = f2 - closed_first if parity == "even" else f2 + closed_first
        assert abs(first - closed_first) / closed_first < 1e-12
        assert abs(second - closed_second) / abs(closed_second) < 1e-12

    @pytest.mark.parametrize("m", [1001, 2000])
    def test_large_index_against_mpmath_closed_forms(self, m):
        # the binary64 closed form of the second integral, 2F_m - sigma*first,
        # cancels (5.5e-15 off at m = 1001, 6.1e-15 at m = 2000), so the
        # references are the closed forms at 40 digits
        mp = pytest.importorskip("mpmath")
        first, second = finite_check_integrals(m)
        with mp.workdps(40):
            closed_first = mp.sqrt(mp.pi / 2) * mp.gamma(m + 1) / mp.gamma(m + mp.mpf(3) / 2)
            closed_second = 2 * mp.hyp2f1(-m, 1, mp.mpf(3) / 2, 2) - sigma(m) * closed_first
            assert abs(first - closed_first) / closed_first < 2e-14
            assert abs((second - closed_second) / closed_second) < 2e-14

    @pytest.mark.parametrize(
        "m,first,second,evaluations",
        [
            (0, 1.4142135623730951, 0.585786437626905, [85, 83]),
            (61, 0.15949228422416017, 0.008096900611086625, [111, 101]),
            (2000, 0.02801970277077076, 0.0002499062773393551, [103, 173]),
        ],
        ids=["0", "61", "2000"],
    )
    def test_bitwise_snapshot(self, monkeypatch, m, first, second, evaluations):
        # two positional driver calls, each at length max(1, sqrt(m))
        calls = _count_calls(monkeypatch, "_integrate_expsinh")
        assert finite_check_integrals(m) == (first, second)
        assert calls == evaluations

    @pytest.mark.parametrize("m", [0, 1, 10, 100, 1000, 2000])
    def test_cost_is_flat_in_index(self, monkeypatch, m):
        # the kernel rises over a length sqrt(m); tanh-sinh on the finite
        # form took 2 104 evaluations at m = 1000
        calls = _count_calls(monkeypatch, "_integrate_expsinh")
        finite_check_integrals(m)
        assert len(calls) == 2
        assert sum(calls) <= 500

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            finite_check_integrals(-1)
        for m in (2.5, 2.0):
            with pytest.raises(ValueError, match=f"m must be a non-negative integer, got {m}"):
                finite_check_integrals(m)
