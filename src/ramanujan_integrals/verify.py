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

import math
from dataclasses import asdict, dataclass

from .approximants import approximant, bound, drz_approx, sigma
from .quadrature import (
    DEFAULT_TOL,
    AccuracyError,
    IntegralParams,
    QuadResult,
    epsilon_integral,
    finite_check_integrals,
    j_integral,
)
from .specfun import _check_index, gamma_half_ratio, gauss_f, theta_psi

__all__ = [
    "TableRow",
    "CheckResult",
    "SuiteReport",
    "TolProfile",
    "ALL_CHECK_GROUPS",
    "TABLE_GRIDS",
    "reproduce_table",
    "check_modular",
    "run_suite",
]

# (even-index?, k values, a values) for reference tables 1..3.
TABLE_GRIDS: dict[int, tuple[bool, tuple[int, ...], tuple[float, ...]]] = {
    1: (True, (1, 2, 3, 5, 10, 20, 30, 50), (1.0,)),
    2: (True, (1, 2, 3, 5, 10, 20, 30, 50), (2.0, 0.5)),
    3: (False, (0, 1, 2, 5, 10, 20, 30, 40), (2.0, 0.5)),
}

ALL_CHECK_GROUPS = ("poisson", "finite", "consistency", "sign", "dominance", "modular", "drz")

_POISSON_TAUS = (0.05, 0.1, 0.5, 1.0, 2.0, 5.0, 20.0)
_POISSON_TOL = 1e-13
_FINITE_REL_TOL = 1e-12
_CONSISTENCY_TOL = 1e-12
# |eps| below this is under the cancellation floor of J - sigma*T; the
# consistency check skips such points
_CONSISTENCY_WINDOW = 1e-12
_MODULAR_TOL = 1e-10
_DRZ_MARGIN_POINTS = 0.3
# remainder tolerance as a fraction of its bound; keeps eps accurate in the
# relative sense even at 1e-24
_EPS_REL_OF_BOUND = 1e-6


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
    """Quadrature tolerance of the identity suite, plus an optional check
    selection.

    ``checks=None`` runs every group; an empty tuple runs nothing and passes
    vacuously.  Unknown or repeated group names are rejected, and so is a
    ``quad_tol`` that is not positive and finite.
    """

    quad_tol: float = DEFAULT_TOL
    checks: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if not (self.quad_tol > 0.0 and math.isfinite(self.quad_tol)):
            raise ValueError(f"quad_tol must be positive and finite, got {self.quad_tol}")

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


def _epsilon_precise(n: int, a: float, b: float | None = None) -> QuadResult:
    """Remainder with tolerance scaled to its own bound ``b`` (cheap to
    compute), giving ~6 significant digits regardless of magnitude."""
    if b is None:
        b = bound(n, a)
    return epsilon_integral(IntegralParams(n, a, tol=_EPS_REL_OF_BOUND * b))


def reproduce_table(table_id: int) -> list[TableRow]:
    """Recompute a reference table on its exact (k, a) grid.

    Each row pairs the remainder magnitude with its bound; the bound is
    evaluated first and sets the remainder's quadrature tolerance.
    """
    if table_id not in TABLE_GRIDS:
        raise ValueError(f"table id must be 1, 2 or 3, got {table_id}")
    even, ks, a_values = TABLE_GRIDS[table_id]
    rows = []
    for a in a_values:
        for k in ks:
            n = 2 * k if even else 2 * k + 1
            b = bound(n, a)
            sj = abs(_epsilon_precise(n, a, b).value)
            rows.append(TableRow(k=k, a=a, script_j=sj, bound=b))
    return rows


def check_modular(n: int, a: float, tol: float = DEFAULT_TOL) -> float:
    """Residual of the reciprocal-argument relation at alpha = pi*a, beta = pi/a
    for index n >= 0:

        alpha^(-1/4) F_n + 4 alpha^(3/4) J_n(alpha)
            = sigma(n) * (the same at beta),

    so the beta side carries an overall minus sign for odd n.  Both J values
    come from independent quadratures; returns |lhs - rhs|.
    """
    _check_index("n", n, 0)
    f = gauss_f(n)
    alpha = math.pi * a
    beta = math.pi / a
    lhs = alpha ** -0.25 * f + 4.0 * alpha ** 0.75 * j_integral(IntegralParams(n, a, tol)).value
    rhs = beta ** -0.25 * f + 4.0 * beta ** 0.75 * j_integral(IntegralParams(n, 1.0 / a, tol)).value
    return abs(lhs - sigma(n) * rhs)


def _check(name: str, tolerance: float, residual_fn) -> CheckResult:
    """Build one check; a quadrature accuracy failure scores as infinite residual."""
    try:
        residual = residual_fn()
    except AccuracyError:
        return CheckResult(name, math.inf, tolerance, False)
    return CheckResult(name, residual, tolerance, residual < tolerance)


def _checks_poisson(profile: TolProfile) -> list[CheckResult]:
    out = []
    for tau in _POISSON_TAUS:

        def residual(tau=tau):
            lhs = theta_psi(tau) + 0.5 * (1.0 - tau ** -0.5)
            rhs = tau ** -0.5 * theta_psi(1.0 / tau)
            return abs(lhs - rhs)

        out.append(_check(f"poisson/tau={tau:g}", _POISSON_TOL, residual))
    return out


def _checks_finite(profile: TolProfile) -> list[CheckResult]:
    out = []
    for m in (0, 2, 4, 10, 20, 40, 60, 1, 3, 5, 11, 21, 41, 61):

        def residual(m=m):
            first, second = finite_check_integrals(m)
            closed_first = math.sqrt(math.pi / 2.0) * gamma_half_ratio(m)
            closed_second = 2.0 * gauss_f(m) - sigma(m) * closed_first
            return max(
                abs(first - closed_first) / closed_first,
                abs(second - closed_second) / abs(closed_second),
            )

        out.append(_check(f"finite/{_index_label(m)}", _FINITE_REL_TOL, residual))
    return out


def _checks_consistency(profile: TolProfile) -> list[CheckResult]:
    out = []
    for a in (0.5, 1.0, 2.0):
        for n in (1, 2, 3, 4, 5, 6, 7):
            name = f"consistency/n={n}/a={a:g}"
            try:
                eps = _epsilon_precise(n, a).value
            except AccuracyError:
                out.append(CheckResult(name, math.inf, _CONSISTENCY_TOL, False))
                continue
            if abs(eps) <= _CONSISTENCY_WINDOW:
                continue

            def residual(n=n, a=a, eps=eps):
                j = j_integral(IntegralParams(n, a, profile.quad_tol)).value
                return abs(j - sigma(n) * approximant(n, a) - eps)

            out.append(_check(name, _CONSISTENCY_TOL, residual))
    return out


def _checks_sign(profile: TolProfile) -> list[CheckResult]:
    points = [(n, a) for n in (2, 4, 6) for a in (0.5, 1.0, 2.0)]
    points += [(n, a) for n in (1, 3) for a in (0.25, 0.5, 0.9, 1.1, 2.0, 4.0)]
    # eps_n(a) > 0 for even n; sign(eps_n(a)) = sign(1 - a) for odd n
    return [
        _check(
            f"sign/{_index_label(n)}/a={a:g}",
            0.0,
            lambda n=n, a=a: -(math.copysign(1.0, 1.0 - a) if n % 2 else 1.0)
            * _epsilon_precise(n, a).value,
        )
        for n, a in points
    ]


def _checks_dominance(profile: TolProfile) -> list[CheckResult]:
    out = []
    for n in (*range(1, 11), 20, 41):
        for a in (0.5, 1.0, 2.0):

            def residual(n=n, a=a):
                b = bound(n, a)
                return abs(_epsilon_precise(n, a, b).value) - b

            out.append(_check(f"dominance/n={n}/a={a:g}", 0.0, residual))
    return out


def _checks_modular(profile: TolProfile) -> list[CheckResult]:
    return [
        _check(
            f"modular/{_index_label(n)}/a={a:g}",
            _MODULAR_TOL,
            lambda n=n, a=a: check_modular(n, a, profile.quad_tol),
        )
        for n in (0, 2, 4, 1, 3, 5)
        for a in (0.5, 2.0)
    ]


def _checks_drz(profile: TolProfile) -> list[CheckResult]:
    reference = {5: 8.8, 10: 19.2}
    out = []
    errors: dict[int, float] = {}
    for k in (5, 10):
        name = f"drz/relative-error/k={k}"
        try:
            j = j_integral(IntegralParams(2 * k, 1.0, profile.quad_tol)).value
            errors[k] = abs(drz_approx(k, 1.0) - j) / abs(j) * 100.0
        except AccuracyError:
            out.append(CheckResult(name, math.inf, _DRZ_MARGIN_POINTS, False))
            continue
        residual = abs(errors[k] - reference[k])
        out.append(CheckResult(name, residual, _DRZ_MARGIN_POINTS, residual < _DRZ_MARGIN_POINTS))
    if len(errors) == 2:
        growth = errors[10] - errors[5]
        out.append(CheckResult("drz/error-growth", -growth, 0.0, growth > 0.0))
    else:
        out.append(CheckResult("drz/error-growth", math.inf, 0.0, False))
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


def run_suite(profile: TolProfile | None = None) -> SuiteReport:
    """Run the identity suite under the given tolerance profile.

    The report's overall flag is the conjunction of all per-check flags
    (vacuously true for an empty selection).
    """
    profile = profile or TolProfile()
    results: list[CheckResult] = []
    for group in profile.selected():
        results.extend(_GROUP_RUNNERS[group](profile))
    return SuiteReport(tuple(results), all(c.passed for c in results))
