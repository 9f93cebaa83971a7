"""Ramanujan-type integrals J_n(a), their closed-form approximants T_n(a),
exponentially small remainders eps_n(a), and rigorous bounds B_n(a).

The decomposition J_n(a) = sigma*T_n(a) + eps_n(a) (sigma = +1 for even n,
-1 for odd n) is exact; the remainder is an explicit integral that decays
like exp(-4 sqrt(pi a k)) for n = 2k, and every quantity here is evaluated
by a cancellation-free route so that the remainder keeps full relative
accuracy down to 1e-24 in ordinary binary64 arithmetic.

The public names are those of the four modules' ``__all__`` lists.
"""

from . import approximants, quadrature, specfun, verify
from .specfun import *
from .quadrature import *
from .approximants import *
from .verify import *

__version__ = "0.1.0"

__all__ = [
    *specfun.__all__,
    *quadrature.__all__,
    *approximants.__all__,
    *verify.__all__,
    "__version__",
]
