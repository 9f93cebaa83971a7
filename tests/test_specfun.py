"""Tests for the special-function building blocks.

Expected values are either analytic, derived from an independent in-test
oracle (exact rational sums, term-by-term summation, series expansions), or
frozen from 40-digit mpmath evaluations noted inline.
"""

import functools
import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramanujan_integrals import specfun
from ramanujan_integrals import (
    IntegralParams,
    bound,
    bound_asymptotic,
    epsilon_integral,
    gamma_half_ratio,
    gauss_f,
    lambda_factor,
    theta_psi,
)

SQRT_PI = math.sqrt(math.pi)


class TestGammaHalfRatio:
    def test_base_case(self):
        # Gamma(1)/Gamma(3/2) = 2/sqrt(pi)
        assert gamma_half_ratio(0) == 2.0 / SQRT_PI

    @pytest.mark.parametrize(
        "m,expected",
        [(1, 4.0 / (3.0 * SQRT_PI)), (2, 16.0 / (15.0 * SQRT_PI))],
    )
    def test_recurrence_steps(self, m, expected):
        assert gamma_half_ratio(m) == pytest.approx(expected, rel=1e-15, abs=0.0)

    def test_recurrence_is_bitwise_reproducible(self):
        # below m = 11; from there on R is Stirling's series
        for m in (1, 2, 7, 10):
            assert gamma_half_ratio(m) == (m * gamma_half_ratio(m - 1)) / (m + 0.5)

    @pytest.mark.parametrize("m", [10, 11, 12, 13, 20, 100, 2000, 50000])
    def test_against_mpmath(self, m):
        # m = 10 is the last recurrence step and m = 11 the first Stirling
        # sum; the recurrence's 2m roundings reached 3.2e-15 at m = 2000
        with mpmath.workdps(40):
            expected = mpmath.gamma(m + 1) / mpmath.gamma(m + mpmath.mpf(3) / 2)
            assert abs(gamma_half_ratio(m) - expected) <= 5e-16 * expected

    def test_stirling_constants_regenerate_exactly(self):
        # B_2k/(2k(2k - 1)) for k = 1..8, with the Bernoulli numbers from
        # sum_{j<=n} C(n + 1, j) B_j = 0
        bernoulli = [Fraction(1)]
        for n in range(1, 17):
            bernoulli.append(-sum(math.comb(n + 1, j) * bernoulli[j] for j in range(n)) / (n + 1))
        exact = [bernoulli[2 * k] / (2 * k * (2 * k - 1)) for k in range(1, 9)]
        assert specfun._STIRLING == tuple(float(c) for c in exact)

    @given(st.integers(min_value=1, max_value=400))
    def test_strictly_decreasing(self, m):
        assert 0.0 < gamma_half_ratio(m) < gamma_half_ratio(m - 1)

    def test_no_overflow_at_one_million(self):
        r = gamma_half_ratio(10 ** 6)
        assert 0.0 < r < 1e-2
        # R(m) ~ m**-0.5 for large m
        assert r == pytest.approx(10 ** -3, rel=1e-3, abs=0.0)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            gamma_half_ratio(-1)


def _kummer_exact(k: int, z: Fraction) -> Fraction:
    """Independent oracle: exact rational term-by-term summation."""
    total = term = Fraction(1)
    for r in range(k):
        term *= Fraction(r - k) * z / (Fraction(2 * r + 3, 2) * (r + 1))
        total += term
    return total


def _kummer(k: int, z: float) -> float:
    """1F1(-k; 3/2; z) through the J integrand's recurrence, unscaled."""
    return specfun._kummer_scaled(k, z, 1.0, specfun._laguerre_steps(k))


def _kummer_scaled_inline(n: int, z: float, scale: float) -> float:
    """Reference: the same recurrence with each step's coefficients formed
    inline from the integer m."""
    previous, current = scale, scale * (1.0 - z / 1.5)
    if n == 0:
        return previous
    for m in range(1, n):
        previous, current = current, ((2 * m + 1.5 - z) * current - m * previous) / (m + 1.5)
    return current


class TestKummerTerminating:
    @given(st.floats(-50.0, 50.0, allow_nan=False))
    def test_degree_zero_is_one(self, z):
        assert _kummer(0, z) == 1.0

    @given(st.integers(min_value=0, max_value=300))
    def test_value_one_at_origin(self, k):
        assert _kummer(k, 0.0) == 1.0

    def test_two_term_sum(self):
        # 1 - 4/3 at z=2
        assert _kummer(1, 2.0) == pytest.approx(-1.0 / 3.0, rel=1e-15, abs=0.0)

    def test_three_term_sum(self):
        # 1 - 4/3 + 4/15 at z=1
        assert _kummer(2, 1.0) == pytest.approx(-1.0 / 15.0, rel=4e-14, abs=0.0)

    @pytest.mark.parametrize("k", [1, 3, 6, 10])
    @pytest.mark.parametrize("z", [Fraction(1, 2), Fraction(2), Fraction(7, 2)])
    def test_against_exact_rational_oracle(self, k, z):
        exact = float(_kummer_exact(k, z))
        assert _kummer(k, float(z)) == pytest.approx(exact, rel=1e-12, abs=1e-14)

    # tolerances sized for the alternating power sum, which loses digits as
    # max|term|/|sum| grows (~1e9 at k=20, z=25); the recurrence is far
    # inside them
    @pytest.mark.parametrize("k,z,rel", [(4, 3.0, 1e-12), (12, 10.0, 1e-9), (20, 25.0, 1e-6)])
    def test_against_mpmath(self, k, z, rel):
        expected = float(mpmath.hyp1f1(-k, mpmath.mpf(3) / 2, z))
        assert _kummer(k, z) == pytest.approx(expected, rel=rel, abs=0.0)

    # far beyond where the power sum cancels to noise: the forward
    # recurrence stays within a few ulps even where |1F1| ~ 1e62
    @pytest.mark.parametrize("k,z", [(30, 40.0), (60, 80.0), (100, 50.0), (200, 300.0)])
    def test_large_degree_against_mpmath(self, k, z):
        with mpmath.workdps(40):
            expected = float(mpmath.hyp1f1(-k, mpmath.mpf(3) / 2, z))
        assert _kummer(k, z) == pytest.approx(expected, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("n", [0, 1, 2, 5, 50, 200])
    def test_step_table_is_bitwise_the_inline_recurrence(self, n):
        # the table holds exact floats and the operations keep their order,
        # so tabulating the coefficients must not move a single bit
        steps = specfun._laguerre_steps(n)
        assert len(steps) == max(n - 1, 0)
        top = 3.0 * max(n, 1)
        for i in range(121):
            z = top * i / 120
            for scale in (1.0, math.exp(-0.5 * z), 0.37):
                assert specfun._kummer_scaled(n, z, scale, steps) == _kummer_scaled_inline(n, z, scale), (z, scale)


_GAUSS_F_N_MAX = 5000


@functools.cache
def _gauss_f_recurrence() -> tuple[Fraction, ...]:
    """Independent oracle: F_0..F_5000 exactly, by the contiguous three-term
    recurrence in the index, f_{m+1} = (2m f_{m-1} - f_m) / (2m + 3) from
    f_0 = 1, f_1 = -1/3, in rational arithmetic."""
    values = [Fraction(1), Fraction(-1, 3)]
    for m in range(1, _GAUSS_F_N_MAX):
        values.append((2 * m * values[m - 1] - values[m]) / (2 * m + 3))
    return tuple(values)


def _gauss_f_relative_error(n: int) -> float:
    exact = float(_gauss_f_recurrence()[n])  # correctly rounded
    return abs(gauss_f(n) - exact) / abs(exact)


class TestGaussF:
    # gauss_f returns the float recurrence, stable in the index: each value is
    # held to 1e-14 relative of the exact rational (measured worst: 4.9e-15,
    # at n = 4990; 8.7e-15 for n <= 10 000 and 1.1e-14, at n = 43 987, for
    # n <= 50 000 against the recurrence at 60 digits)
    def test_first_values(self):
        assert gauss_f(0) == 1.0
        assert gauss_f(1) == -1.0 / 3.0
        # three-term exact sum (15 - 40 + 32)/15
        assert gauss_f(2) == pytest.approx(7.0 / 15.0, rel=1e-14, abs=0.0)

    def test_matches_exact_oracle_up_to_5000(self):
        for n in range(_GAUSS_F_N_MAX + 1):
            assert _gauss_f_relative_error(n) <= 1e-14, f"n={n}"

    # no deadline: the first example builds the oracle (about 0.4 s)
    @settings(deadline=None)
    @given(st.integers(min_value=0, max_value=_GAUSS_F_N_MAX))
    def test_random_index_matches_exact_oracle(self, n):
        assert _gauss_f_relative_error(n) <= 1e-14

    @pytest.mark.parametrize("n", [10000, 50000])
    def test_large_index_against_60_digit_recurrence(self, n):
        # the large-a series of J_n(a) takes F_n at every n
        with mpmath.workdps(60):
            previous, current = mpmath.mpf(0), mpmath.mpf(1)
            for m in range(n):
                previous, current = current, (2 * m * previous - current) / (2 * m + 3)
            assert abs(gauss_f(n) - current) <= 1e-14 * abs(current)

    def test_values_stay_modest(self):
        # the exact sum is O(1) even though individual terms grow like 2**n
        assert all(abs(float(gauss_f(n))) < 1.0 for n in range(1, 201))

    def test_sign_follows_parity(self):
        # The finite identity behind T_m reads
        #   2 F_m = int_0^1 (1-t)^m (1+t)^-(m+3/2) dt
        #           + sigma(m) int_0^1 t^-1/2 (1-t)^m (1+t)^-(m+3/2) dt.
        # Both integrals are positive, and t^-1/2 > 1 on (0, 1) makes the
        # second the larger, so F_m > 0 for even m and F_m < 0 for odd m.
        # drz_approx relies on F_2k > 0: its radicand 1 + a^2 + 2 pi a/(3 F_2k)
        # then exceeds 1 for every a > 0.
        for k in range(200):
            assert gauss_f(2 * k) > 0 > gauss_f(2 * k + 1), f"k={k}"

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            gauss_f(-5)

    @pytest.mark.parametrize("n", [2.5, 2.0])
    def test_rejects_non_integer(self, n):
        with pytest.raises(ValueError, match=f"n must be a non-negative integer, got {n}"):
            gauss_f(n)


class TestWatsonF:
    """From n = 11 up F_n = (sigma(n) sqrt(pi/2) R(n) + S_n)/2, S_n by Watson's lemma."""

    @pytest.mark.parametrize("n", [10, 11, 12, 13, 20, 100, 2000])
    def test_against_mpmath(self, n):
        # n = 10 is the last recurrence step and n = 11 the first Watson sum
        with mpmath.workdps(40):
            expected = mpmath.hyp2f1(-n, 1, mpmath.mpf(3) / 2, 2)
            assert abs(gauss_f(n) - expected) <= 5e-16 * abs(expected)

    def test_against_60_digit_recurrence_at_50000(self):
        # where the recurrence in binary64 was 1.1e-14 off
        with mpmath.workdps(60):
            previous, current = mpmath.mpf(0), mpmath.mpf(1)
            for m in range(50000):
                previous, current = current, (2 * m * previous - current) / (2 * m + 3)
            assert abs(gauss_f(50000) - current) <= 5e-16 * abs(current)

    def test_watson_table_regenerates_exactly(self):
        # c_k (2k)! with cosh(v/2)^(-1/2) = sum c_k v^(2k), from the series
        # of 1/cosh(v/2) and its square root, in w = v^2
        count = len(specfun._WATSON)
        cosh = [Fraction(1, 4 ** j * math.factorial(2 * j)) for j in range(count)]
        inverse = [Fraction(1)]
        for k in range(1, count):
            inverse.append(-sum(cosh[j] * inverse[k - j] for j in range(1, k + 1)))
        root = [Fraction(1)]
        for k in range(1, count):
            root.append((inverse[k] - sum(root[i] * root[k - i] for i in range(1, k))) / 2)
        exact = [c * math.factorial(2 * k) for k, c in enumerate(root)]
        assert specfun._WATSON == tuple(float(c) for c in exact)


class TestOlverTable:
    def test_regenerates_exactly(self):
        # A_0 = 1, A_(s+1) = -(1 - t^2)^2 A_s'/2 + (1/2) int_0^t (1/2 - 5 v^2/4) A_s
        # + c with A_(s+1)(0) = 0, in exact rationals; the float recurrence
        # leaves each coefficient within 5 ulps (measured: 4.5, in A_16)
        polys = [{0: Fraction(1)}]
        for _ in range(2 * len(specfun._OLVER)):
            new = {}
            for k, c in polys[-1].items():
                for power, weight in ((k - 1, -1), (k + 1, 2), (k + 3, -1)):
                    if k:
                        new[power] = new.get(power, 0) + Fraction(weight, 2) * k * c
                new[k + 1] = new.get(k + 1, 0) + c / (4 * (k + 1))
                new[k + 3] = new.get(k + 3, 0) - 5 * c / (8 * (k + 3))
            new[0] = Fraction(0)
            polys.append(new)
        # entry j - 1 pairs the tau^(2k+1) coefficient of A_(2j-1) with the
        # tau^(2k) one of A_(2j), highest k first; the odd column's two
        # powers above its degree are exact zeros
        for j, pairs in enumerate(specfun._OLVER, 1):
            assert len(pairs) == 3 * j + 1, j
            for s, column in ((2 * j - 1, [odd for odd, _ in pairs]), (2 * j, [even for _, even in pairs])):
                exact = polys[s]
                powers = range(3 * s + 4 if s % 2 else 3 * s, -1, -2)
                assert len(column) == len(powers), s
                for c, k in zip(column, powers):
                    if k > 3 * s:
                        assert c == 0.0, (s, k)
                        continue
                    value = exact.get(k, Fraction(0))
                    assert abs(Fraction(c) - value) <= 5 * Fraction(math.ulp(float(value))), (s, k)
                assert {k for k, c in exact.items() if c} <= set(powers), s

    def test_normalisation_at_zero_argument(self):
        # G_n(0) = sqrt(pi) R(n): the sum is exactly 1 at z -> 0
        g0 = SQRT_PI * gamma_half_ratio(20)
        assert specfun._u_olver(20, 1e-300, g0)[0] == pytest.approx(g0, rel=1e-15, abs=0.0)

    def test_never_gives_up_from_index_eleven(self):
        # n 11-15 x 1/32-decade z over [1e-20, 1e308], 52 485 points: the
        # expansion always converges, so u_scaled's quadrature from n = 11
        # and the G series' give-up on G carry no traffic and stay safety
        # exits (n 11-39 at 1/256-decade z, 2.4 million points, found none)
        for n in range(11, 16):
            g0 = SQRT_PI * gamma_half_ratio(n)
            for k in range(-640, 9857):
                z = 10.0 ** (k / 32)
                assert specfun._u_olver(n, z, g0) is not None, (n, z)


class TestThetaPsi:
    def test_single_term_regime(self):
        # the n=2 term is exp(-300 pi) times the first, far below one ulp of it
        assert theta_psi(100.0) == math.exp(-100.0 * math.pi)
        assert theta_psi(230.0) == math.exp(-230.0 * math.pi)
        # from tau = 4 the sum is q alone: there the n=2 term is at most
        # e^(-12 pi) = 4.3e-17 of q, below half an ulp, so summing it and the
        # rest returns q too
        for tau in (4.0, 4.5, 10.0):
            q = math.exp(-math.pi * tau)
            assert theta_psi(tau) == q == q + math.exp(-4.0 * math.pi * tau) + math.exp(-9.0 * math.pi * tau)

    def test_small_argument_sum(self):
        oracle = sum(math.exp(-math.pi * n * n) for n in (1, 2, 3))
        assert theta_psi(1.0) == pytest.approx(oracle, abs=1e-15)
        assert theta_psi(1.0) == pytest.approx(0.0432174, abs=5e-8)

    @pytest.mark.parametrize("tau", [0.05, 0.1, 0.5, 1.0, 2.0, 5.0, 20.0])
    def test_poisson_transformation(self, tau):
        lhs = theta_psi(tau) + 0.5 * (1.0 - tau ** -0.5)
        rhs = tau ** -0.5 * theta_psi(1.0 / tau)
        assert abs(lhs - rhs) < 1e-13

    def test_poisson_pair_tight(self):
        lhs = theta_psi(2.0) + 0.5 * (1.0 - 2.0 ** -0.5)
        rhs = 2.0 ** -0.5 * theta_psi(0.5)
        assert abs(lhs - rhs) < 1e-14

    @pytest.mark.parametrize("tau", [0.05, 0.3, 1.0, 4.0, 20.0, 100.0, 220.0])
    def test_against_mpmath_jtheta(self, tau):
        # Psi(tau) = (theta_3(0, q) - 1) / 2 at full relative precision, from
        # many terms (tau = 0.05) down to a leading term near 1e-300.  The
        # oracle takes q at the binary64 product pi*tau: its rounding alone
        # moves Psi(220) by 1.6e-14 relative.  theta_3 - 1 cancels 1.37*tau
        # digits, so carry that many more.
        with mpmath.workdps(30 + int(1.4 * tau)):
            q = mpmath.exp(-mpmath.mpf(math.pi * tau))
            expected = float((mpmath.jtheta(3, 0, q) - 1) / 2)
        assert theta_psi(tau) == pytest.approx(expected, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("tau", [1e-300, 1e-12, 1e-8, 1e-4, 0.0099, 0.01, 0.0101])
    def test_small_argument_against_mpmath(self, tau):
        # both sides of the 0.01 seam between the Jacobi transform and the
        # direct sum.  mpmath's jtheta rejects q this close to 1 at
        # tau = 1e-8, so below 1e-4 the oracle is the exact transform in
        # 40-digit arithmetic, with jtheta at 1/tau.
        with mpmath.workdps(40):
            x = mpmath.mpf(tau)
            if tau >= 1e-4:
                expected = (mpmath.jtheta(3, 0, mpmath.exp(-mpmath.pi * x)) - 1) / 2
            else:
                r = 1 / mpmath.sqrt(x)
                psi_inverse = (mpmath.jtheta(3, 0, mpmath.exp(-mpmath.pi / x)) - 1) / 2
                expected = r * psi_inverse + (r - 1) / 2
            expected = float(expected)
        assert theta_psi(tau) == pytest.approx(expected, rel=1e-15, abs=0.0)

    def test_cost_is_bounded(self, monkeypatch):
        # the direct sum alone takes ~3.4*tau**-0.5 exponentials (34 000 at
        # tau = 1e-8); with the transform below the seam no call takes more
        # than 37 (at tau = 0.01)
        class CountingMath:
            calls = 0

            def __getattr__(self, name):
                return getattr(math, name)

            def exp(self, x):
                CountingMath.calls += 1
                return math.exp(x)

        monkeypatch.setattr(specfun, "math", CountingMath())
        taus = [10.0 ** (e / 20.0) for e in range(-240, 50)] + [0.0099, 0.01, 0.0101, 300.0]
        worst = 0
        for tau in taus:
            CountingMath.calls = 0
            theta_psi(tau)
            worst = max(worst, CountingMath.calls)
        assert 0 < worst <= 40

    @settings(max_examples=60)
    @given(tau=st.floats(min_value=1e-10, max_value=100.0))
    def test_positive_and_below_geometric_majorant(self, tau):
        # strict in exact arithmetic; for pi*tau > 36 the majorant q/(1-q)
        # rounds to q itself, so equality is the best binary64 can show
        value = theta_psi(tau)
        q = math.exp(-math.pi * tau)
        assert 0.0 < value <= q / (1.0 - q)
        if tau < 5.0:
            assert value < q / (1.0 - q)

    def test_underflow_returns_zero(self):
        # the leading term exp(-pi*tau) itself underflows past tau = 237.18
        assert theta_psi(240.0) == 0.0
        assert theta_psi(300.0) == 0.0

    def test_limit_at_infinity(self):
        # epsilon_integral's integrand passes t/a or a*t = inf at extreme a
        # (17 samples per call at n = 1, a = 1e-300 or 1e300), so inf is not
        # a domain error
        assert theta_psi(math.inf) == 0.0
        for a in (1e-300, 1e300):
            res = epsilon_integral(IntegralParams(1, a, 1e-6 * bound(1, a)))
            assert math.isfinite(res.value) and res.value != 0.0, a

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            theta_psi(0.0)
        with pytest.raises(ValueError):
            theta_psi(-1.0)
        # NaN compares false with everything, so it must not reach the
        # summation loop, whose stopping tests would never fire
        with pytest.raises(ValueError):
            theta_psi(math.nan)


class TestLambdaFactor:
    def test_limit_at_large_argument(self):
        assert lambda_factor(50.0) == 1.0

    def test_limit_at_infinity(self):
        # bound_asymptotic passes 1/a = inf below a = 5.6e-309, so inf is not
        # a domain error
        assert lambda_factor(math.inf) == 1.0
        assert bound_asymptotic(2, 1e-320) == math.inf

    def test_at_one(self):
        # frozen from a 40-digit mpmath evaluation of the closed form
        assert lambda_factor(1.0) == pytest.approx(1.0020324866174822, rel=1e-15, abs=0.0)
        assert lambda_factor(1.0) == pytest.approx(1.0020325, abs=5e-8)

    def test_exceeds_one(self):
        # strictly above 1 wherever the excess is representable in binary64
        # (the excess ~exp(-2*pi*a) drops below one ulp around a = 5.8)
        for a in (0.05, 0.3, 1.0, 3.0, 5.0):
            assert lambda_factor(a) > 1.0
        for a in (8.0, 12.0, 100.0):
            assert lambda_factor(a) >= 1.0

    @settings(max_examples=60)
    @given(st.floats(min_value=0.1, max_value=10.0))
    def test_majorises_theta_sum(self, a):
        # strict until the excess of lambda over 1 falls below one ulp
        # (a ~ 5.8), where the two sides become the same binary64 number
        majorant = lambda_factor(a) * math.exp(-math.pi * a)
        if a < 5.0:
            assert theta_psi(a) < majorant
        else:
            assert theta_psi(a) <= majorant

    def test_domain_error(self):
        with pytest.raises(ValueError):
            lambda_factor(0.0)
        with pytest.raises(ValueError):
            lambda_factor(math.nan)
