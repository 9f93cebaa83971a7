"""Ramanujan-type integrals J_n(a), their closed-form approximants T_n(a),
exponentially small remainders eps_n(a), and rigorous bounds B_n(a).

The decomposition J_n(a) = sigma*T_n(a) + eps_n(a) (sigma = +1 for even n,
-1 for odd n) is exact; the remainder is an explicit integral that decays
like exp(-4 sqrt(pi a k)) for n = 2k, and every quantity here is evaluated
by a cancellation-free route so that the remainder keeps full relative
accuracy down to 1e-24 in ordinary binary64 arithmetic.
"""

from .specfun import (
    gamma_half_ratio,
    gauss_f,
    kummer_terminating,
    lambda_factor,
    theta_psi,
)
from .quadrature import (
    AccuracyError,
    DEFAULT_TOL,
    IntegralParams,
    QuadResult,
    epsilon_integral,
    finite_check_integrals,
    integrate,
    j_integral,
    u_scaled,
)
from .approximants import (
    ApproxReport,
    approx_report,
    approximant,
    bound,
    bound_asymptotic,
    bound_even,
    bound_odd,
    drz_approx,
    drz_large_a,
    drz_small_a,
    ramanujan_i,
    ramanujan_i_approx,
    sigma,
    t_even,
    t_odd,
)
from .verify import (
    ALL_CHECK_GROUPS,
    CheckResult,
    SuiteReport,
    TABLE_GRIDS,
    TableRow,
    TolProfile,
    check_modular,
    reproduce_table,
    run_suite,
    script_j,
)

__version__ = "0.1.0"

__all__ = [
    "gamma_half_ratio",
    "gauss_f",
    "kummer_terminating",
    "lambda_factor",
    "theta_psi",
    "AccuracyError",
    "DEFAULT_TOL",
    "IntegralParams",
    "QuadResult",
    "epsilon_integral",
    "finite_check_integrals",
    "integrate",
    "j_integral",
    "u_scaled",
    "ApproxReport",
    "approx_report",
    "approximant",
    "bound",
    "bound_asymptotic",
    "drz_approx",
    "drz_large_a",
    "drz_small_a",
    "ramanujan_i",
    "ramanujan_i_approx",
    "sigma",
    # k-indexed aliases of approximant/bound (n = 2k, 2k + 1): the paper's
    # tables are indexed by k, and the benchmark calls and traces these names.
    "t_even",
    "t_odd",
    "bound_even",
    "bound_odd",
    "ALL_CHECK_GROUPS",
    "CheckResult",
    "SuiteReport",
    "TABLE_GRIDS",
    "TableRow",
    "TolProfile",
    "check_modular",
    "reproduce_table",
    "run_suite",
    "script_j",
    "__version__",
]
