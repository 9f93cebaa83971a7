"""The public API and the CLI at the edges of the float range.

Every public function of a scale is called at the smallest subnormal, deep
in the subnormals, near the bottom and the top of the normal range, and at
the largest float.  Each call returns a finite value, overflows where its
docstring says it does, or raises ValueError or AccuracyError.  None
returns NaN, and the CLI exits 0 or 1 with an ``error:`` line, never a
traceback.
"""

import math
import sys

import pytest

from ramanujan_integrals import (
    AccuracyError,
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
    ramanujan_i,
    ramanujan_i_approx,
    sigma,
    t_even,
    t_odd,
    u_scaled,
)
from ramanujan_integrals.cli import main

EDGES = (5e-324, 1e-310, 1e-300, 1e300, 1e308, 1.7976931348623157e308)
INDICES = (0, 1, 2, 10)

# The documented overflows: T_n(a) ~ c/a to +-inf below about 6e-310, and
# B_n(a) ~ a^(-3/2), with its large-k estimate, to +inf below about 1e-205.
_T_OVERFLOW = 6e-310
_B_OVERFLOW = 1e-205

# name -> (f(index, a), a below which it may overflow, signs it may overflow to)
_FUNCTIONS = {
    "j_integral": (lambda n, a: j_integral(IntegralParams(n, a)).value, 0.0, ()),
    "epsilon_integral": (lambda n, a: epsilon_integral(IntegralParams(n, a)).value, 0.0, ()),
    "approximant": (approximant, _T_OVERFLOW, (1, -1)),
    "t_even": (t_even, _T_OVERFLOW, (1, -1)),
    "t_odd": (t_odd, _T_OVERFLOW, (1, -1)),
    "bound": (bound, _B_OVERFLOW, (1,)),
    "bound_even": (bound_even, _B_OVERFLOW, (1,)),
    "bound_odd": (bound_odd, _B_OVERFLOW, (1,)),
    "bound_asymptotic": (bound_asymptotic, _B_OVERFLOW, (1,)),
    "drz_approx": (drz_approx, 0.0, ()),
    "u_scaled": (u_scaled, 0.0, ()),
    "ramanujan_i": (lambda n, a: ramanujan_i(a), 0.0, ()),
    "ramanujan_i_approx": (lambda n, a: ramanujan_i_approx(a), 0.0, ()),
}


def _allowed(value, a, overflows_below, signs):
    """A finite value, or an infinity of an allowed sign below the documented edge."""
    if math.isinf(value):
        return a < overflows_below and math.copysign(1, value) in signs
    return math.isfinite(value)


@pytest.mark.parametrize("name", sorted(_FUNCTIONS))
def test_public_functions_at_the_edges(name):
    f, overflows_below, signs = _FUNCTIONS[name]
    bad = []
    for index in INDICES:
        for a in EDGES:
            try:
                value = f(index, a)
            except (ValueError, AccuracyError):
                continue
            if not _allowed(value, a, overflows_below, signs):
                bad.append((index, a, value))
    assert not bad, bad


# Above the largest float an index cannot enter the float formulas (n + 2,
# 4n + 3); 10**5000 has more digits than Python will format.
_HUGE_INDICES = (int(sys.float_info.max) + 1, 10 ** 400, 10 ** 5000)
_INDEX_ONLY = {"gamma_half_ratio": gamma_half_ratio, "gauss_f": gauss_f, "sigma": sigma}


@pytest.mark.parametrize("name", sorted(({*_FUNCTIONS} - {"ramanujan_i", "ramanujan_i_approx"}) | {*_INDEX_ONLY}))
def test_indices_above_the_float_range_are_rejected(name):
    f = _INDEX_ONLY.get(name)
    for index in _HUGE_INDICES:
        with pytest.raises(ValueError, match=r"must be at most 1\.79769e\+308, the largest float"):
            f(index) if f else _FUNCTIONS[name][0](index, 1.0)


def test_indices_at_the_top_of_the_float_range_take_the_expansion():
    # 4n + 3 overflows above n = 4.49e307; G's expansion forms its exponent
    # from n + 3/4, so u_scaled and bound return finite values there, where
    # they raised AccuracyError from a quadrature whose peak was inf/inf.
    # At z = 5e-324 t = sqrt(z/(4n + 3)) is subnormal, yet G_n(z) is still
    # G_n(0) e^(-sqrt((4n + 3) z)), 4e-8 below G_n(0)
    for n in (10**308, int(sys.float_info.max)):
        g = math.sqrt(math.pi) * gamma_half_ratio(n) * math.exp(-2.0 * math.sqrt((n + 0.75) * 5e-324))
        assert u_scaled(n, 5e-324) == pytest.approx(g, rel=1e-15, abs=0.0)
        for z in (1e-300, 1.0, 2.0 * math.pi, sys.float_info.max):
            assert u_scaled(n, z) == 0.0, z
        for a in (1e-3, 1.0, 2.0, 1e300):
            assert bound(n, a) == 0.0, a
    # z/(4n + 3) = 2.5e-401 underflows, but t is formed from sqrt(z) there:
    # G_n(z) = G_n(0) e^(-2), where it was G_n(0)
    g0 = math.sqrt(math.pi) * gamma_half_ratio(10**200)
    assert u_scaled(10**200, 1e-200) == pytest.approx(g0 * math.exp(-2.0), rel=1e-15, abs=0.0)


_COMMANDS = {
    # argv -> (a below which a printed value may be infinite, allowed signs)
    ("eval",): (0.0, ()),
    ("approx",): (_T_OVERFLOW, (1, -1)),
    ("approx", "--method", "drz"): (0.0, ()),
    ("bound",): (_B_OVERFLOW, (1,)),
    ("bound", "--estimate"): (_B_OVERFLOW, (1,)),
}


@pytest.mark.parametrize("argv", sorted(_COMMANDS), ids=" ".join)
def test_cli_at_the_edges(capsys, argv):
    overflows_below, signs = _COMMANDS[argv]
    bad = []
    for n in INDICES:
        for a in EDGES:
            code = main([*argv, "--n", str(n), "--a", repr(a)])
            out, err = capsys.readouterr()
            if code == 1 and out == "" and err.startswith("error: ") and "Traceback" not in err:
                continue
            values = [float(line) for line in out.splitlines()] if code == 0 else []
            fine = values and all(_allowed(v, a, overflows_below, signs) for v in values)
            if not fine or "Traceback" in err:
                bad.append((n, a, code, out, err))
    assert not bad, bad
