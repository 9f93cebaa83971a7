"""Reference-table reproduction and the numeric identity suite.

The suite turns the analytic statements behind the library into residual
checks: the theta-sum transformation, the finite check integrals against
their closed forms, closure of J = sigma*T + eps, remainder signs, bound
dominance, the modular relations between reciprocal arguments, and the
accuracy profile of the quartic-root approximation.  A failing check —
including a quadrature that cannot reach its tolerance — is recorded and
never aborts the run.

Everything here is pure computation; reports carry no timestamps and have a
deterministic check order.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass

from .approximants import approximant, bound, drz_approx, sigma
from .quadrature import (
    DEFAULT_TOL,
    AccuracyError,
    _eps_quadrature,
    _j_quadrature,
    finite_check_integrals,
)
from .specfun import gamma_half_ratio, gauss_f, theta_psi

__all__ = [
    "TableRow",
    "CheckResult",
    "SuiteReport",
    "TolProfile",
    "ALL_CHECK_GROUPS",
    "TABLE_GRIDS",
    "reproduce_table",
    "run_suite",
]

# (even-index?, k values, a values) for reference tables 1..3.
TABLE_GRIDS: dict[int, tuple[bool, tuple[int, ...], tuple[float, ...]]] = {
    1: (True, (1, 2, 3, 5, 10, 20, 30, 50), (1.0,)),
    2: (True, (1, 2, 3, 5, 10, 20, 30, 50), (2.0, 0.5)),
    3: (False, (0, 1, 2, 5, 10, 20, 30, 40), (2.0, 0.5)),
}

_POISSON_TAUS = (0.05, 0.1, 0.5, 1.0, 2.0, 5.0, 20.0)
_POISSON_TOL = 1e-13
_FINITE_REL_TOL = 1e-12
_CONSISTENCY_TOL = 1e-12
# |eps| below this is under the cancellation floor of J - sigma*T; the
# consistency check skips such points
_CONSISTENCY_WINDOW = 1e-12
_MODULAR_TOL = 1e-10
_DRZ_MARGIN_POINTS = 0.3
# relative tolerance of the remainder's quadrature: six digits of eps at any
# magnitude, even at 1e-24, with no bound to compute first
_EPS_REL_TOL = 1e-6


@dataclass(frozen=True)
class TableRow:
    """One reference-table row: index k, scale a, |remainder| and its bound."""

    k: int
    a: float
    script_j: float
    bound: float

    def __post_init__(self) -> None:
        if not self.script_j >= 0.0:
            raise ValueError("script_j must be non-negative")
        if not self.bound > 0.0:
            raise ValueError("bound must be positive")
        if self.script_j > self.bound:
            raise ValueError(
                f"remainder {self.script_j} exceeds its bound {self.bound} (k={self.k}, a={self.a})"
            )


@dataclass(frozen=True)
class CheckResult:
    name: str
    residual: float
    tolerance: float
    passed: bool


@dataclass(frozen=True)
class SuiteReport:
    checks: tuple[CheckResult, ...]
    overall: bool

    def to_dict(self) -> dict:
        return {"overall": self.overall, "checks": [asdict(c) for c in self.checks]}


@dataclass(frozen=True)
class TolProfile:
    """Check selection of the identity suite.

    ``checks=None`` runs every group; an empty tuple runs nothing and passes
    vacuously.  Unknown or repeated group names are rejected.  The check and
    quadrature tolerances are fixed by the suite, not by the profile.
    """

    checks: tuple[str, ...] | None = None

    def selected(self) -> tuple[str, ...]:
        if self.checks is None:
            return ALL_CHECK_GROUPS
        unknown = set(self.checks) - set(ALL_CHECK_GROUPS)
        if unknown:
            raise ValueError(f"unknown check groups: {sorted(unknown)}")
        if len(set(self.checks)) != len(self.checks):
            raise ValueError(f"repeated check groups: {list(self.checks)}")
        return self.checks


def _index_label(n: int) -> str:
    """Check-name fragment for index n, in the paper's k-indexed terms."""
    return f"{'odd' if n % 2 else 'even'}/k={n // 2}"


def _folds(a: float) -> bool:
    """True for a > 1 whose reciprocal is exact in binary64 (a power of two)."""
    return a > 1.0 and math.frexp(a)[0] == 0.5


class _Samples:
    """B_n(a), eps_n(a) and J_n(a) values, each computed at most once per
    instance.  eps is integrated to _EPS_REL_TOL of itself, ~6 significant
    digits at any magnitude, and asks nothing of B, which only the checks
    and tables that read it compute; J is integrated to DEFAULT_TOL.  A
    failed quadrature is not stored: asked again, it raises again.

    J is always ``_j_quadrature``, the direct quadrature of its defining
    integral, never ``j_integral``'s series or its sigma*T + eps, so the
    consistency, modular and drz checks test an integral computed
    independently of T and eps.  Likewise eps is always ``_eps_quadrature``,
    the quadrature of its integral, never ``epsilon_integral``'s G series,
    whose terms are the bound's own, nor its J - sigma*T, so the dominance
    checks compare B with an independent eps and closure does not hold by
    construction.

    B and eps at a power of two a > 1 are read off the sample at 1/a, by
    B_n(a) = a^(-3/2) B_n(1/a) and eps_n(a) = sigma(n) a^(-3/2) eps_n(1/a);
    a relative tolerance is the same at a and 1/a.  Other a, whose
    reciprocal would round, are integrated as they are.  J is never folded:
    the modular checks compare J at a and 1/a as independent quadratures."""

    def __init__(self):
        bound_at = functools.cache(bound)
        eps_at = functools.cache(lambda n, a: _eps_quadrature(n, a, 0.0, _EPS_REL_TOL).value)
        self.bound = lambda n, a: a ** -1.5 * bound_at(n, 1.0 / a) if _folds(a) else bound_at(n, a)
        self.eps = lambda n, a: sigma(n) * a ** -1.5 * eps_at(n, 1.0 / a) if _folds(a) else eps_at(n, a)
        self.j = functools.cache(lambda n, a: _j_quadrature(n, a, DEFAULT_TOL).value)


def reproduce_table(table_id: int) -> list[TableRow]:
    """Recompute a reference table on its exact (k, a) grid.

    Each row pairs the remainder magnitude with its bound from the suite's
    samples; the remainder is integrated to 1e-6 of itself, not of B.
    """
    if table_id not in TABLE_GRIDS:
        raise ValueError(f"table id must be 1, 2 or 3, got {table_id}")
    even, ks, a_values = TABLE_GRIDS[table_id]
    samples = _Samples()
    rows = []
    for a in a_values:
        for k in ks:
            n = 2 * k if even else 2 * k + 1
            rows.append(TableRow(k=k, a=a, script_j=abs(samples.eps(n, a)), bound=samples.bound(n, a)))
    return rows


def _modular_residual(samples: _Samples, n: int, a: float) -> float:
    """|lhs - sigma(n) * rhs| for the reciprocal-argument relation
    alpha^(-1/4) F_n + 4 alpha^(3/4) J_n(a) at alpha = pi*a, with rhs the
    same at beta = pi/a.  At a = 1 both sides read one J sample: exactly 0."""
    f = gauss_f(n)
    alpha = math.pi * a
    beta = math.pi / a
    lhs = alpha ** -0.25 * f + 4.0 * alpha ** 0.75 * samples.j(n, a)
    rhs = beta ** -0.25 * f + 4.0 * beta ** 0.75 * samples.j(n, 1.0 / a)
    return abs(lhs - sigma(n) * rhs)


def _check(name: str, tolerance: float, residual_fn, *args) -> CheckResult | None:
    """Score ``residual_fn(*args)``; a quadrature accuracy failure scores as
    infinite residual, and a residual of None means the check does not apply."""
    try:
        residual = residual_fn(*args)
    except AccuracyError:
        residual = math.inf
    if residual is None:
        return None
    return CheckResult(name, residual, tolerance, residual < tolerance)


def _checks_poisson(samples: _Samples) -> list[CheckResult]:
    def residual(tau):
        lhs = theta_psi(tau) + 0.5 * (1.0 - tau ** -0.5)
        rhs = tau ** -0.5 * theta_psi(1.0 / tau)
        return abs(lhs - rhs)

    return [_check(f"poisson/tau={tau:g}", _POISSON_TOL, residual, tau) for tau in _POISSON_TAUS]


def _checks_finite(samples: _Samples) -> list[CheckResult]:
    # closed_second cancels in binary64, by about sqrt(2 pi m) ulps: 5.5e-15
    # relative off at m = 1001 and 6.1e-15 at m = 2000, far below
    # _FINITE_REL_TOL
    def residual(m):
        first, second = finite_check_integrals(m)
        closed_first = math.sqrt(math.pi / 2.0) * gamma_half_ratio(m)
        closed_second = 2.0 * gauss_f(m) - sigma(m) * closed_first
        return max(
            abs(first - closed_first) / closed_first,
            abs(second - closed_second) / abs(closed_second),
        )

    return [
        _check(f"finite/{_index_label(m)}", _FINITE_REL_TOL, residual, m)
        for m in (0, 2, 4, 10, 20, 40, 60, 1, 3, 5, 11, 21, 41, 61)
    ]


def _checks_consistency(samples: _Samples) -> list[CheckResult]:
    def residual(n, a):
        eps = samples.eps(n, a)
        if abs(eps) <= _CONSISTENCY_WINDOW:
            return None
        return abs(samples.j(n, a) - sigma(n) * approximant(n, a) - eps)

    checks = [
        _check(f"consistency/n={n}/a={a:g}", _CONSISTENCY_TOL, residual, n, a)
        for a in (0.5, 1.0, 2.0)
        for n in (1, 2, 3, 4, 5, 6, 7)
    ]
    return [c for c in checks if c is not None]


def _checks_sign(samples: _Samples) -> list[CheckResult]:
    # eps_n(a) > 0 for even n; sign(eps_n(a)) = sign(1 - a) for odd n
    def residual(n, a):
        return -(math.copysign(1.0, 1.0 - a) if n % 2 else 1.0) * samples.eps(n, a)

    points = [(n, a) for n in (2, 4, 6) for a in (0.5, 1.0, 2.0)]
    points += [(n, a) for n in (1, 3) for a in (0.25, 0.5, 0.9, 1.1, 2.0, 4.0)]
    return [_check(f"sign/{_index_label(n)}/a={a:g}", 0.0, residual, n, a) for n, a in points]


def _checks_dominance(samples: _Samples) -> list[CheckResult]:
    def residual(n, a):
        return abs(samples.eps(n, a)) - samples.bound(n, a)

    return [
        _check(f"dominance/n={n}/a={a:g}", 0.0, residual, n, a)
        for n in (*range(1, 11), 20, 41)
        for a in (0.5, 1.0, 2.0)
    ]


def _checks_modular(samples: _Samples) -> list[CheckResult]:
    return [
        _check(f"modular/{_index_label(n)}/a={a:g}", _MODULAR_TOL, _modular_residual, samples, n, a)
        for n in (0, 2, 4, 1, 3, 5)
        for a in (0.5, 2.0)
    ]


def _checks_drz(samples: _Samples) -> list[CheckResult]:
    def error(k):
        """Percent relative error of the quartic-root formula at a = 1."""
        j = samples.j(2 * k, 1.0)
        return abs(drz_approx(2 * k, 1.0) - j) / abs(j) * 100.0

    out = [
        _check(f"drz/relative-error/k={k}", _DRZ_MARGIN_POINTS, lambda k, r: abs(error(k) - r), k, r)
        for k, r in ((5, 8.8), (10, 19.2))
    ]
    out.append(_check("drz/error-growth", 0.0, lambda: -(error(10) - error(5))))
    return out


_GROUP_RUNNERS = {
    "poisson": _checks_poisson,
    "finite": _checks_finite,
    "consistency": _checks_consistency,
    "sign": _checks_sign,
    "dominance": _checks_dominance,
    "modular": _checks_modular,
    "drz": _checks_drz,
}
ALL_CHECK_GROUPS = tuple(_GROUP_RUNNERS)


def run_suite(profile: TolProfile | None = None) -> SuiteReport:
    """Run the identity suite on the profile's check selection.

    The groups share one table of samples, so a bound or quadrature that
    several checks read is computed once per run.  The report's overall flag
    is the conjunction of all per-check flags (vacuously true for an empty
    selection).
    """
    profile = profile or TolProfile()
    samples = _Samples()
    results: list[CheckResult] = []
    for group in profile.selected():
        results.extend(_GROUP_RUNNERS[group](samples))
    return SuiteReport(tuple(results), all(c.passed for c in results))
