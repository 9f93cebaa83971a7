"""Tests for the quadrature engine and the integral family.

The evaluation routine under test is double-exponential (exp-sinh, with
tanh-sinh run on the exp-sinh nodes); independent cross-checks use
Gauss-Kronrod quadrature from scipy (a different node family) and scipy's
confluent hypergeometric U.
"""

import math
from fractions import Fraction

import pytest
import scipy.integrate
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from ramanujan_integrals import (
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
from ramanujan_integrals import quadrature, run_suite
from ramanujan_integrals.quadrature import _bose_factor


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

    def test_failure_names_the_roundoff_floor(self):
        # 2(n + 8) ulps of J_30(1) ~ 2e-16 alone exceed the 1e-20 request
        with pytest.raises(AccuracyError) as excinfo:
            j_integral(IntegralParams(30, 1.0, tol=1e-20))
        message = str(excinfo.value)
        assert "roundoff floor" in message
        assert "level budget" not in message
        assert excinfo.value.result.value == pytest.approx(0.0083458190634480, abs=1e-15)

    def test_determinism(self):
        a = integrate(lambda t: math.exp(-t) / (1.0 + t), 0.0, math.inf)
        b = integrate(lambda t: math.exp(-t) / (1.0 + t), 0.0, math.inf)
        assert a == b


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
        # wrong from n ~ 20 on
        res = j_integral(IntegralParams(n, a))
        t = t_even(n // 2, a) if n % 2 == 0 else t_odd((n - 1) // 2, a)
        closed = sigma(n) * t
        eps = epsilon_integral(IntegralParams(n, a, tol=1e-18)).value
        assert abs(res.value - closed - eps) <= res.abs_error_estimate + 1e-15 * abs(closed)

    @pytest.mark.parametrize("n,evaluations", [(30, 704), (200, 2832)])
    def test_evaluation_count_snapshot(self, n, evaluations):
        # exact and machine-independent: a change here is a change in cost
        assert j_integral(IntegralParams(n, 1.0)).evaluations == evaluations

    @pytest.mark.parametrize("n", [0, 5, 10])
    def test_cost_is_flat_in_scale(self, n):
        # at large a the Gaussian squeezes the integrand towards x = 0, where
        # exp-sinh nodes are sparse unless x is taken in its own length scale
        at_one = j_integral(IntegralParams(n, 1.0)).evaluations
        for e in range(-8, 9):
            assert j_integral(IntegralParams(n, 10.0 ** e)).evaluations <= 2 * at_one, e

    @pytest.mark.parametrize(
        "n,a,value,estimate,evaluations",
        [
            # bench/pool.json points; the results of the integrand with its
            # Laguerre coefficients formed inline at every node, which the
            # tabulated coefficients must reproduce bit for bit
            (0, 2.34e-08, 0.04166666636036141, 1.4802973552847267e-16, 198),
            (38, 0.1731, 0.016288852937478546, 3.9495571831905435e-16, 727),
            (184, 2.788, 0.002158635625593458, 6.2454381943855e-16, 2775),
            # up to a = 4 pi the integrand is sampled at x itself
            (5, 4 * math.pi, 0.005476768274054172, 5.0804603410577747e-17, 321),
        ],
    )
    def test_bitwise_snapshot(self, n, a, value, estimate, evaluations):
        res = j_integral(IntegralParams(n, a))
        assert (res.value, res.abs_error_estimate, res.evaluations) == (value, estimate, evaluations)


class TestErrorEstimateHolds:
    """True error <= abs_error_estimate at points where an n-free roundoff
    floor of one ulp of h*sum|w*f| misses the true error (at n = 17 only
    with 1 - exp(-2 pi x) formed by subtraction in the Bose factor).
    References are frozen from 32-digit mpmath evaluations of the defining
    integrals (cross-checked through J = sigma*T + eps) and compared
    exactly."""

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
        ],
    )
    def test_j_integral(self, n, a, reference):
        res = j_integral(IntegralParams(n, a))
        assert abs(Fraction(res.value) - Fraction(reference)) <= res.abs_error_estimate

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


class TestEpsilonIntegral:
    def test_odd_index_at_one_is_exactly_zero(self):
        res = epsilon_integral(IntegralParams(1, 1.0))
        assert res.value == 0.0
        assert res.abs_error_estimate == 0.0
        assert res.evaluations == 1
        assert epsilon_integral(IntegralParams(41, 1.0)).value == 0.0

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

    def test_large_index_stays_finite(self):
        # (2k)! U(2k+1, 1/2, 2 pi) at k=50: the explicit factorial would overflow
        value = u_scaled(100, 2.0 * math.pi)
        assert 0.0 < value < 1e-20
        # frozen from 40-digit mpmath: 100! * hyperu(101, 1/2, 2*pi)
        assert value == pytest.approx(5.002305162e-22, rel=1e-8, abs=0.0)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            u_scaled(-1, 1.0)
        with pytest.raises(ValueError):
            u_scaled(0, 0.0)


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
