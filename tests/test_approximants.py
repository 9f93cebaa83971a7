"""Tests for the closed-form approximants, bounds, and quartic-root formulas."""

import math
import sys

import pytest

import ramanujan_integrals
from ramanujan_integrals import (
    IntegralParams,
    approximant,
    bound,
    bound_asymptotic,
    bound_even,
    bound_odd,
    drz_approx,
    epsilon_integral,
    gamma_half_ratio,
    gauss_f,
    j_integral,
    lambda_factor,
    ramanujan_i,
    ramanujan_i_approx,
    t_even,
    t_odd,
    u_scaled,
)
from ramanujan_integrals import approximants
from reference_tables import fourth_digit_tol

PI = math.pi


def _bound_40_digits(n, a):
    """B_n(a) evaluated independently from its formula at 40 digits, with
    G_n = n! U(n+1, 1/2, z)."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        def energy(x):
            lam = 1 + mp.exp(-3 * mp.pi * x) + mp.exp(-2 * mp.pi * x) / (1 - mp.exp(-mp.pi * x))
            g = mp.factorial(n) * mp.hyperu(n + 1, mp.mpf(1) / 2, 2 * mp.pi * x)
            return x ** mp.mpf(0.25) * lam * mp.exp(-mp.pi * x) * g

        a = mp.mpf(a)
        return float(a ** mp.mpf(-0.75) / (4 * mp.sqrt(2) * mp.pi) * (energy(a) + energy(1 / a)))


_N_GRID = (*range(1, 41), 200, 1000)
_A_GRID = (1e-7, 0.1, 0.5, 1.0, 2.0, 10.0, 1e7)


class TestNIndexedCore:
    def test_approximant_is_the_papers_formula_for_each_parity(self):
        # the paper writes T_2k and T_2k+1 as two expressions; the signed
        # single formula must reproduce each bit for bit
        for n in _N_GRID:
            f, r, c = float(gauss_f(n)), gamma_half_ratio(n), math.sqrt(PI / 2.0)
            for a in _A_GRID:
                if n % 2 == 0:
                    paper = (0.5 * (1.0 + math.sqrt(a)) * c * r - f) / (4.0 * PI * a)
                    alias = t_even(n // 2, a)
                else:
                    paper = (0.5 * (1.0 - math.sqrt(a)) * c * r + f) / (4.0 * PI * a)
                    alias = t_odd(n // 2, a)
                assert approximant(n, a) == paper == alias, (n, a)

    def test_bound_aliases_agree(self):
        for n in _N_GRID:
            for a in _A_GRID:
                alias = bound_even(n // 2, a) if n % 2 == 0 else bound_odd(n // 2, a)
                assert bound(n, a) == alias, (n, a)

    @pytest.mark.parametrize(
        "n,a,reference",
        [
            # 32-digit mpmath values of T_n(a) frozen from bench/pool.json:
            # the largest indices, the worst points found over all 125 pool
            # points (3.6e-14 at (6, 0.02651), where the two terms of T cancel
            # to 1/120 of their size), and extreme a
            (1736, 3.84, "6.0765773185043695629935707388936e-4"),
            (1356, 0.507, "1.8724463988154624279841613339549e-3"),
            (1353, 0.2102, "-2.886291412674630138411423800466e-3"),
            (1266, 4.447, "6.6088588112815588166091317529232e-4"),
            (647, 0.1783, "-4.4679877622669697431368544185008e-3"),
            (214, 1.077, "3.1930146149399453508198379604746e-3"),
            (184, 2.788, "2.158635625593385016719422739353e-3"),
            (29, 0.1035, "-2.195820882900047582880807883849e-2"),
            (10, 0.01308, "-8.3643491548491179615921956795834e-3"),
            (6, 0.02651, "6.9680263642801113165919071264668e-3"),
            (6, 0.00204, "-1.0160505933123478768947745718725"),
            (4, 2.686e-08, "-1.5495733337341187522034806143626e+5"),
        ],
    )
    def test_approximant_against_32_digit_references(self, n, a, reference):
        assert approximant(n, a) == pytest.approx(float(reference), rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("fn", [approximant, bound])
    def test_index_domain(self, fn):
        with pytest.raises(ValueError):
            fn(0, 1.0)
        with pytest.raises(ValueError):
            fn(1, 0.0)


def test_package_exports_are_pinned():
    assert set(ramanujan_integrals.__all__) == {
        "gamma_half_ratio", "gauss_f", "lambda_factor", "theta_psi",
        "AccuracyError", "DEFAULT_TOL", "IntegralParams", "QuadResult", "epsilon_integral",
        "finite_check_integrals", "integrate", "j_integral", "u_scaled",
        "approximant", "bound", "bound_asymptotic",
        "drz_approx", "ramanujan_i", "ramanujan_i_approx",
        "sigma", "t_even", "t_odd", "bound_even", "bound_odd",
        "ALL_CHECK_GROUPS", "CheckResult", "SuiteReport", "TABLE_GRIDS", "TableRow",
        "TolProfile", "reproduce_table", "run_suite",
        "__version__",
    }
    assert len(ramanujan_integrals.__all__) == 33
    for name in ramanujan_integrals.__all__:
        assert hasattr(ramanujan_integrals, name), name


class TestTEven:
    def test_k1_at_one(self):
        # frozen from a 40-digit mpmath evaluation of the closed form
        assert t_even(1, 1.0) == pytest.approx(0.02288493435569816, rel=1e-15, abs=0.0)

    def test_gap_to_j_is_the_remainder(self):
        j = j_integral(IntegralParams(2, 1.0)).value
        assert j - t_even(1, 1.0) == pytest.approx(1.250e-5, abs=2e-8)

    def test_large_scale_asymptote(self):
        # sqrt(a) * T_2k(a) -> (1/(8 pi)) sqrt(pi/2) R(2k) as a grows
        a = 1e12
        limit = math.sqrt(PI / 2.0) * gamma_half_ratio(2) / (8.0 * PI)
        assert math.sqrt(a) * t_even(1, a) == pytest.approx(limit, rel=2e-6, abs=0.0)

    def test_domain(self):
        with pytest.raises(ValueError):
            t_even(0, 1.0)
        with pytest.raises(ValueError):
            t_even(1, -1.0)


class TestTOdd:
    def test_k0_at_one_gives_exact_j(self):
        assert t_odd(0, 1.0) == pytest.approx(-1.0 / (12.0 * PI), rel=1e-15, abs=0.0)
        j = j_integral(IntegralParams(1, 1.0)).value
        assert j == pytest.approx(-t_odd(0, 1.0), abs=1e-13)

    @pytest.mark.parametrize("k", [0, 1, 5, 20])
    def test_at_one_reduces_to_rational(self, k):
        # the gamma term carries the exact factor (1-sqrt(1))/2 == 0.0
        assert t_odd(k, 1.0) == float(gauss_f(2 * k + 1)) / (4.0 * PI * 1.0)

    def test_negative_gamma_branch_closes_with_quadrature(self):
        # a = 4 exercises (1 - sqrt(a))/2 < 0; J = -T + eps must close
        a = 4.0
        j = j_integral(IntegralParams(1, a)).value
        eps = epsilon_integral(IntegralParams(1, a, tol=1e-15)).value
        assert eps < 0.0
        assert j == pytest.approx(-t_odd(0, a) + eps, abs=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            t_odd(-1, 1.0)
        with pytest.raises(ValueError):
            t_odd(0, 0.0)


class TestBounds:
    @pytest.mark.parametrize(
        "k,a,printed",
        [(1, 1.0, 1.253e-5), (10, 2.0, 1.011e-9), (50, 1.0, 2.438e-24)],
    )
    def test_even_reference_values(self, k, a, printed):
        assert abs(bound_even(k, a) - printed) <= fourth_digit_tol(printed)

    @pytest.mark.parametrize("k,a,printed", [(0, 2.0, 2.376e-4), (40, 0.5, 1.891e-16)])
    def test_odd_reference_values(self, k, a, printed):
        assert abs(bound_odd(k, a) - printed) <= fourth_digit_tol(printed)

    def test_odd_bound_positive_where_remainder_vanishes(self):
        # at a=1 the odd remainder is exactly zero; the bound stays positive
        # (it is not sharp near a=1)
        assert bound_odd(0, 1.0) > 0.0
        assert epsilon_integral(IntegralParams(1, 1.0)).value == 0.0

    @pytest.mark.parametrize("k", [1, 5])
    @pytest.mark.parametrize("a", [2.0, 4.0, 1.3])
    def test_reciprocal_symmetry_even(self, k, a):
        assert bound_even(k, 1.0 / a) == pytest.approx(a ** 1.5 * bound_even(k, a), rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("k", [0, 3])
    @pytest.mark.parametrize("a", [2.0, 4.0])
    def test_reciprocal_symmetry_odd(self, k, a):
        assert bound_odd(k, 1.0 / a) == pytest.approx(a ** 1.5 * bound_odd(k, a), rel=1e-13, abs=0.0)

    def test_odd_bound_against_40_digit_evaluation(self):
        # B_5(1/2), the Table 3 cell whose printed 1.106e-5 is an erratum
        expected = _bound_40_digits(5, 0.5)
        assert bound_odd(2, 0.5) == pytest.approx(expected, rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("k", [1, 5])
    @pytest.mark.parametrize("a", [1e-7, 1e7, 0.1, 10.0, 1.0 / 200.0, 200.0])
    def test_extreme_scale_against_40_digit_evaluation(self, a, k):
        # lambda(x) needs 1 - exp(-pi x) at x = 1e-7 in one of the two energy
        # terms; formed by subtraction it costs ~1e-10 relative.  At the other
        # four a both energy terms are nonzero.
        assert bound_even(k, a) == pytest.approx(_bound_40_digits(2 * k, a), rel=1e-12, abs=0.0)
        assert bound_odd(k, a) == pytest.approx(_bound_40_digits(2 * k + 1, a), rel=1e-12, abs=0.0)

    def test_single_energy_evaluation_at_one_is_bitwise(self):
        # at a=1 the two energy terms coincide; doubling one evaluation must
        # equal the explicit two-term sum bit for bit
        k = 5
        energy = 1.0 ** 0.25 * lambda_factor(1.0) * math.exp(-PI) * u_scaled(2 * k, 2.0 * PI)
        coefficient = 1.0 ** -0.75 * (1.0 / (4.0 * math.sqrt(2.0) * PI))
        assert bound_even(k, 1.0) == coefficient * (energy + energy)

    @pytest.mark.parametrize("n,a", [(2, 0.5), (41, 2.0), (20, 1.0)])
    def test_dominates_remainder(self, n, a):
        b = bound_even(n // 2, a) if n % 2 == 0 else bound_odd((n - 1) // 2, a)
        eps = epsilon_integral(IntegralParams(n, a, tol=1e-6 * b)).value
        assert abs(eps) < b

    @pytest.mark.parametrize("n", [1, 2, 7, 30])
    def test_whole_float_range(self, n):
        # B_n(a) -> Gamma(n+1) Gamma(1/2)/Gamma(n+3/2) / (4 sqrt(2) pi^2) * a^(-3/2)
        # as a -> 0, which overflows binary64 below a ~ 1e-205
        log_small_a = math.log(math.sqrt(PI) * gamma_half_ratio(n) / (4.0 * math.sqrt(2.0) * PI * PI))
        for e in range(-320, 301):
            b = bound(n, 10.0 ** e)
            overflows = log_small_a - 1.5 * e * math.log(10.0) > math.log(sys.float_info.max)
            assert b > 0.0 and math.isinf(b) == overflows, (e, b)
        # at the smallest subnormal 1/a overflows too; its term must be 0.0,
        # not inf * 0 = NaN
        assert bound(n, 5e-324) == math.inf

    @pytest.mark.parametrize("n", [1, 2, 7, 30])
    def test_underflowed_term_is_not_integrated(self, n, monkeypatch):
        calls = []

        def counted(m, z):
            calls.append(z)
            return u_scaled(m, z)

        monkeypatch.setattr(approximants, "u_scaled", counted)
        for a, quadratures in ((1e4, 1), (1e-4, 1), (2.0, 2)):
            calls.clear()
            bound(n, a)
            assert len(calls) == quadratures, a

    def test_domain(self):
        with pytest.raises(ValueError):
            bound_even(0, 1.0)
        with pytest.raises(ValueError):
            bound_odd(-1, 1.0)
        with pytest.raises(ValueError):
            bound_even(1, -2.0)


# drz_approx and bound_asymptotic frozen when they took the half index k
_DRZ_BY_K = {
    (0, 1.0): 0.033620220760461866, (0, 2.0): 0.029485975488525554,
    (0, 10.0): 0.018486438744217282, (0, 1000.0): 0.002438200343908203,
    (1, 1.0): 0.022132416975902413, (1, 2.0): 0.01733341396444837,
    (1, 10.0): 0.009192506998888699, (1, 1000.0): 0.0011385278255899084,
    (5, 1.0): 0.01453680011369796, (5, 2.0): 0.010453578500865967,
    (5, 10.0): 0.004698205679599183, (5, 1000.0): 0.0005236190149768496,
    (10, 1.0): 0.011905171931690559, (10, 2.0): 0.008314500731496791,
    (10, 10.0): 0.003500259426204429, (10, 1000.0): 0.0003658900344478288,
    (50, 1.0): 0.007332201687968644, (50, 2.0): 0.004875403479976685,
    (50, 10.0): 0.0018269867374832909, (50, 1000.0): 0.00015948810135816654,
}
_ESTIMATE_BY_K = {
    (1, 0.1): 0.07981493962994443, (1, 0.5): 0.0007115352966862205,
    (1, 1.0): 0.00011780918911074384, (1, 2.0): 0.00025156571667020423,
    (1, 10.0): 0.002523970005394612,
    (5, 0.1): 0.002233861449728696, (5, 0.5): 6.422326778381592e-07,
    (5, 1.0): 8.236774393411252e-09, (5, 2.0): 2.2706354079947885e-07,
    (5, 10.0): 7.064090158388405e-05,
    (10, 0.1): 0.00019801732248070928, (10, 0.5): 4.3711777802405936e-09,
    (10, 1.0): 8.191809582524443e-12, (10, 2.0): 1.545444725090042e-09,
    (10, 10.0): 6.2618575520710494e-06,
    (50, 0.1): 1.3844624715375622e-08, (50, 0.5): 6.036421487936759e-18,
    (50, 1.0): 3.3764888115019214e-24, (50, 2.0): 2.134197284110136e-18,
    (50, 10.0): 4.378054745084734e-10,
}


class TestBoundAsymptotic:
    def test_direct_formula_oracle(self):
        # independent in-test evaluation of the a=1 reduction with its own
        # lambda value
        k = 50
        lam = 1.0 + math.exp(-3.0 * PI) + math.exp(-2.0 * PI) / (1.0 - math.exp(-PI))
        expected = lam / (4.0 * math.sqrt(PI)) * k ** -0.5 * math.exp(-4.0 * math.sqrt(PI * k))
        assert bound_asymptotic(2 * k, 1.0) == pytest.approx(expected, rel=1e-14, abs=0.0)
        assert bound_asymptotic(100, 1.0) == pytest.approx(3.3765e-24, rel=1e-4, abs=0.0)

    def test_reduction_at_one_equals_general_formula(self):
        for k in (5, 50):
            general = bound_asymptotic(2 * k, 1.0)
            reduced = lambda_factor(1.0) / (4.0 * math.sqrt(PI)) * k ** -0.5 * math.exp(
                -4.0 * math.sqrt(PI * k)
            )
            assert general == pytest.approx(reduced, rel=1e-15, abs=0.0)

    def test_tracks_bound_within_factor_two_at_large_k(self):
        ratio = bound_asymptotic(100, 1.0) / bound_even(50, 1.0)
        assert 0.5 <= ratio <= 2.0

    def test_ratio_moves_toward_one(self):
        ratios = [bound_asymptotic(2 * k, 1.0) / bound_even(k, 1.0) for k in (10, 20, 30, 50)]
        gaps = [abs(math.log(r)) for r in ratios]
        assert all(b < a for a, b in zip(gaps, gaps[1:]))

    def test_domain(self):
        for n in (0, 1):
            with pytest.raises(ValueError, match="the large-k estimate requires k >= 1"):
                bound_asymptotic(n, 1.0)

    @pytest.mark.parametrize("n", [3, 21])
    def test_rejects_odd_index(self, n):
        with pytest.raises(ValueError, match="the large-k estimate is defined for even n only"):
            bound_asymptotic(n, 1.0)

    def test_values_frozen_from_the_k_indexed_form(self):
        # bound_asymptotic(k, a) before it took n = 2k; the formula still uses k
        for (k, a), value in _ESTIMATE_BY_K.items():
            assert bound_asymptotic(2 * k, a) == value, (k, a)


def _drz_small_a(k, a):
    """Leading small-a behaviour of drz_approx: 1/24 + a*(F/(16 pi) - pi/(96 F))."""
    f = float(gauss_f(2 * k))
    return 1.0 / 24.0 + a * (f / (16.0 * PI) - PI / (96.0 * f))


def _drz_large_a(k, a):
    """Leading large-a behaviour of drz_approx:
    F/(4 pi sqrt(a)) * (1 - 1/sqrt(a) + pi/(6 a F))."""
    f = float(gauss_f(2 * k))
    sq = math.sqrt(a)
    return f / (4.0 * PI * sq) * (1.0 - 1.0 / sq + PI / (6.0 * a * f))


class TestDrz:
    def test_k0_against_direct_expression(self):
        expected = ((2.0 + 2.0 * PI / 3.0) ** 0.25 - 1.0) / (4.0 * PI)
        assert drz_approx(0, 1.0) == pytest.approx(expected, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
    def test_k0_equals_quartic_root_formula(self, a):
        # algebraic equivalence with the quartic-root approximation of I
        alpha = PI * a
        from_i = (ramanujan_i_approx(alpha) * alpha ** 0.25 - 1.0) / (4.0 * alpha)
        assert drz_approx(0, a) == pytest.approx(from_i, rel=1e-13, abs=0.0)

    def test_reference_error_profile(self):
        # frozen mpmath values of J_10(1), J_20(1)
        j10, j20 = 0.013358829242783151, 0.0099885169902155625
        err5 = abs(drz_approx(10, 1.0) - j10) / j10 * 100.0
        err10 = abs(drz_approx(20, 1.0) - j20) / j20 * 100.0
        assert err5 == pytest.approx(8.8, abs=0.3)
        assert err10 == pytest.approx(19.2, abs=0.3)
        assert err10 > err5

    @pytest.mark.parametrize("k", [0, 2, 7])
    def test_small_scale_expansion_mode(self, k):
        a = 1e-6
        assert _drz_small_a(k, a) == pytest.approx(drz_approx(2 * k, a), rel=1e-9, abs=0.0)
        assert _drz_small_a(k, 0.0) == pytest.approx(1.0 / 24.0, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("k", [0, 2, 7])
    def test_large_scale_expansion_mode(self, k):
        a = 1e8
        assert _drz_large_a(k, a) == pytest.approx(drz_approx(2 * k, a), rel=1e-10, abs=0.0)

    def test_domain(self):
        with pytest.raises(ValueError):
            drz_approx(-2, 1.0)
        with pytest.raises(ValueError):
            drz_approx(2, 0.0)

    @pytest.mark.parametrize("n", [1, 3, 21])
    def test_rejects_odd_index(self, n):
        with pytest.raises(ValueError, match="the quartic-root approximation is defined for even n only"):
            drz_approx(n, 1.0)

    def test_values_frozen_from_the_k_indexed_form(self):
        # drz_approx(k, a) before it took n = 2k: a >= 1 keeps its expression
        for (k, a), value in _DRZ_BY_K.items():
            assert drz_approx(2 * k, a) == value, (k, a)

    def test_whole_float_range_against_40_digits(self):
        # the same formula at 40 digits, with F rounded to binary64 as in the
        # library: below a = 1 the plain form cancelled (-0.0 from a = 1e-16,
        # NaN at 5e-324), and a^2 overflowed to +inf from a = 1.34e154
        mp = pytest.importorskip("mpmath")
        bad = []
        with mp.workdps(40):
            for k in (0, 1, 5, 50, 500):
                f = mp.mpf(gauss_f(2 * k))
                c = 2 * mp.pi / (3 * f)
                for e in range(-1292, 1233):
                    a = 10.0 ** (e / 4)
                    x = mp.mpf(a) * (a + c)
                    exact = f / (4 * mp.pi) * mp.expm1(mp.log1p(x) / 4) / x * (a + c)
                    error = abs(drz_approx(2 * k, a) / exact - 1)
                    if not error < 5e-16:  # also catches NaN
                        bad.append((k, a, float(error)))
        assert not bad, bad[:5]


class TestRamanujanI:
    def test_quartic_root_value(self):
        expected = (2.0 / PI + 2.0 / 3.0) ** 0.25
        assert ramanujan_i_approx(PI) == pytest.approx(expected, rel=1e-15, abs=0.0)
        assert ramanujan_i_approx(PI) == pytest.approx(1.0684641848256444, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("alpha", [PI / 2.0, PI, 2.0 * PI])
    def test_functional_equation(self, alpha):
        beta = PI ** 2 / alpha
        assert abs(ramanujan_i(alpha) - ramanujan_i(beta)) < 1e-10

    def test_small_argument_asymptotics(self):
        alpha = 0.01
        series = alpha ** -0.25 + alpha ** 0.75 / 6.0 - alpha ** 1.75 / 60.0
        assert ramanujan_i(alpha) == pytest.approx(series, abs=1e-6)

    def test_approx_is_good_for_small_argument(self):
        alpha = 0.01
        assert ramanujan_i(alpha) == pytest.approx(ramanujan_i_approx(alpha), rel=1e-4, abs=0.0)

    def test_domain(self):
        with pytest.raises(ValueError):
            ramanujan_i(0.0)
        with pytest.raises(ValueError):
            ramanujan_i_approx(-1.0)

