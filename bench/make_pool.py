"""Build the benchmark's reference pool: high-precision values for every
(function, n, a) point a workload seed can draw.

Run from the repository root (needs mpmath; takes several minutes):

    python bench/make_pool.py

The result, ``bench/pool.json``, is checked in so that no timed run needs
mpmath.  Every value is computed at 45-digit working precision (32 digits are
stored) by routes that share no code with the library:

* J_n(a) by direct quadrature of its defining integral, with mpmath's
  ``hyp1f1`` (which raises its own working precision on cancellation);
* T_n(a) from ``gamma`` and ``hyp2f1``;
* eps_n(a) by quadrature of the remainder integral, with theta sums taken
  through the Jacobi transform for arguments below 1, so that each needs only
  a few terms even at a = 1e-8;
* B_n(a) by quadrature of G_n(z) = n! U(n+1, 1/2, z);
* I(alpha) from its definition alpha^(-1/4) (1 + 4 alpha J_0(alpha/pi)).

Each point with n >= 1 is checked against the exact decomposition
J = sigma*T + eps before it is written; where direct J quadrature is too slow
(index-sweep, n > 60) the decomposition supplies J instead.

Candidates are drawn per stratum with a fixed generator seed; every pass of a
workload visits all of them, in rounds the workload seed decides.  The
n = 20-30 band and the a <= 1e-6 / a >= 1e6 ends have strata of their own, so
the known defects there are always drawn.
"""

from __future__ import annotations

import json
import math
import os
import random
import sys
import time

import mpmath as mp

POOL_SEED = 20180419
CANDIDATES = {"index-sweep": 2, "scale-sweep": 2}
DIGITS = 32          # significant digits stored per value
DPS = 45             # working precision
DIRECT_J_MAX_N = 60  # index-sweep J above this comes from sigma*T + eps

# index-sweep: n log-uniform in [1, 2000] (J only for n <= 200), a in [0.1, 10]
INDEX_N_BINS = (
    (1, 2), (3, 5), (6, 10), (11, 19), (20, 23), (24, 27), (28, 30),
    (31, 45), (46, 70), (71, 110), (111, 200), (201, 450), (451, 1000), (1001, 2000),
)
INDEX_A_BINS = ((0.1, 1.0), (1.0, 10.0))
# scale-sweep: n in [0, 10], a log-uniform in [1e-8, 1e8], half-decade strata
# at both ends
_E = [-8, -7.5, -7, -6.5, -6, -5, -4, -3, -2, -1, 0, 1, 2, 3, 4, 5, 6, 6.5, 7, 7.5, 8]
SCALE_A_BINS = tuple((10.0 ** lo, 10.0 ** hi) for lo, hi in zip(_E, _E[1:]))
SCALE_N_BINS = ((0, 5), (6, 10))


def psi(tau):
    """Psi(tau) = sum_{k>=1} exp(-pi k^2 tau); Jacobi transform below 1."""
    if tau < 1:
        s = 1 / mp.sqrt(tau)
        return s * psi(1 / tau) + (s - 1) / 2
    total = mp.mpf(0)
    k = 1
    while True:
        term = mp.exp(-mp.pi * k * k * tau)
        total += term
        if term < mp.eps * total:
            return total
        k += 1


def geometric(lo, hi, ratio=4):
    pts = [mp.mpf(lo)]
    while pts[-1] * ratio < hi:
        pts.append(pts[-1] * ratio)
    pts.append(mp.mpf(hi))
    return pts


def quad(f, pts, what):
    """Integral of f over the panels pts, to DIGITS relative digits.

    mpmath stops refining at an absolute error of 10**-dps, so the integrand
    is first scaled to O(1) by its largest value on a few probe points.
    """
    probes = []
    for lo, hi in zip(pts, pts[1:]):
        xs = [2 * lo + 1] if hi == mp.inf else [lo + (hi - lo) * c for c in (0.25, 0.5, 0.75)]
        probes += [abs(f(x)) for x in xs]
    scale = max(probes) or mp.mpf(1)
    val, err = mp.quad(lambda x: f(x) / scale, pts, error=True, maxdegree=10)
    val, err = val * scale, err * scale
    if err > mp.mpf(10) ** -(DIGITS - 1) * abs(val):
        raise RuntimeError(f"{what}: quadrature error {mp.nstr(err, 3)} for {mp.nstr(val, 10)}")
    return val


def j_ref(n, a):
    a = mp.mpf(a)

    def f(x):
        if x == 0:
            return mp.mpf(0)
        z = 2 * mp.pi * a * x * x
        return x * mp.exp(-z / 2) / mp.expm1(2 * mp.pi * x) * mp.hyp1f1(-n, 1.5, z)

    # exp(-z/2) 1F1(-n; 3/2; z) has n zeros in z < 4n + 10 and is below
    # 1e-60 of its peak past z = 4n + 400; the Bose factor is below 1e-48 past
    # x = 18.  The integral stops there, with two panels per zero.
    x_end = min(mp.mpf(18), mp.sqrt((4 * n + 400) / (2 * mp.pi * a)))
    x_osc = min(x_end, mp.sqrt((4 * n + 10) / (2 * mp.pi * a)))
    panels = 2 * n + 4
    pts = [x_osc * k / panels for k in range(panels + 1)]
    pts += geometric(x_osc, x_end, 2)[1:]
    return quad(f, pts, f"J n={n} a={a}")


def gauss_f_ref(m):
    return mp.re(mp.hyp2f1(-m, 1, 1.5, 2))


def t_ref(n, a):
    a = mp.mpf(a)
    r = mp.gamma(n + 1) / mp.gamma(n + 1.5)
    c = mp.sqrt(mp.pi / 2) * r / 2
    if n % 2 == 0:
        return ((1 + mp.sqrt(a)) * c - gauss_f_ref(n)) / (4 * mp.pi * a)
    return ((1 - mp.sqrt(a)) * c + gauss_f_ref(n)) / (4 * mp.pi * a)


def eps_ref(n, a):
    a = mp.mpf(a)
    sq = mp.sqrt(a)
    odd = n % 2 == 1

    def f(t):
        th = (sq * psi(a * t) - psi(t / a)) if odd else (psi(t / a) + sq * psi(a * t))
        return th * ((t - 1) / (t + 1)) ** n / (t + 1) ** 1.5

    top = 1e3 * max(a, 1 / a, n, 1)
    pts = [mp.mpf(1)] + [1 + p for p in geometric(1e-6, top, 2)] + [mp.inf]
    return quad(f, pts, f"eps n={n} a={a}") / (4 * mp.pi * a)


def g_ref(n, z):
    """G_n(z) = integral_0^inf exp(-z t) t^n (1+t)^(-n-3/2) dt."""

    def f(t):
        return mp.exp(-z * t) * (t / (1 + t)) ** n / (1 + t) ** 1.5

    lo = min(1, (n + 1) / z) * 1e-6
    hi = max(1, (n + 1) / z) * 1e4
    return quad(f, [mp.mpf(0)] + geometric(lo, hi, 2) + [mp.inf], f"G n={n} z={z}")


def bound_ref(n, a):
    a = mp.mpf(a)

    def energy(x):
        lam = 1 + mp.exp(-3 * mp.pi * x) + mp.exp(-2 * mp.pi * x) / -mp.expm1(-mp.pi * x)
        return x ** 0.25 * lam * mp.exp(-mp.pi * x) * g_ref(n, 2 * mp.pi * x)

    return a ** -0.75 / (4 * mp.sqrt(2) * mp.pi) * (energy(a) + energy(1 / a))


def i_refs(a):
    """(I(alpha), quartic-root approximant) at alpha = pi*a as the harness forms it."""
    alpha = mp.mpf(math.pi * a)
    j0 = j_ref(0, alpha / mp.pi)
    i = alpha ** -0.25 * (1 + 4 * alpha * j0)
    approx = (1 / alpha + alpha / mp.pi ** 2 + mp.mpf(2) / 3) ** 0.25
    return i, approx


def s(x):
    return mp.nstr(x, DIGITS, min_fixed=1, max_fixed=0)


def check_decomposition(n, a, j, t, e):
    sig = -1 if n % 2 else 1
    resid = abs(j - sig * t - e)
    scale = abs(j) + abs(t) + abs(e)
    if resid > mp.mpf(10) ** -(DIGITS - 1) * scale:
        raise RuntimeError(f"J = sigma*T + eps fails at n={n} a={a}: residual {mp.nstr(resid, 3)}")


def draw(rng, n_bin, a_bin):
    lo, hi = n_bin
    if lo == 0:
        n = rng.randint(lo, hi)
    else:
        n = int(round(math.exp(rng.uniform(math.log(lo - 0.499), math.log(hi + 0.499)))))
    a = float(f"{math.exp(rng.uniform(math.log(a_bin[0]), math.log(a_bin[1]))):.4g}")
    return n, a


def index_point(n, a):
    t, e, b = t_ref(n, a), eps_ref(n, a), bound_ref(n, a)
    ref = {"t": t, "eps": e, "bound": b}
    if n <= 200:
        sig = -1 if n % 2 else 1
        j = sig * t + e
        if n <= DIRECT_J_MAX_N:
            check_decomposition(n, a, j_ref(n, a), t, e)
        ref["j"] = j
    return ref


def scale_point(n, a):
    ref = {"j": j_ref(n, a)}
    if n >= 1:
        ref.update(t=t_ref(n, a), eps=eps_ref(n, a), bound=bound_ref(n, a))
        check_decomposition(n, a, ref["j"], ref["t"], ref["eps"])
    ref["i"], ref["i_approx"] = i_refs(a)
    return ref


def build(name, n_bins, a_bins, point_fn, rng):
    points = []
    for n_bin in n_bins:
        for a_bin in a_bins:
            stratum = f"n{n_bin[0]}-{n_bin[1]}/a{a_bin[0]:.3g}-{a_bin[1]:.3g}"
            for _ in range(CANDIDATES[name]):
                n, a = draw(rng, n_bin, a_bin)
                t0 = time.time()
                ref = point_fn(n, a)
                print(f"{name} {stratum} n={n} a={a:g} ({time.time() - t0:.1f} s)", file=sys.stderr, flush=True)
                points.append({"stratum": stratum, "n": n, "a": a, "ref": {k: s(v) for k, v in ref.items()}})
    return points


def main() -> None:
    mp.mp.dps = DPS
    rng = random.Random(POOL_SEED)
    pool = {
        "generator": {"seed": POOL_SEED, "mpmath": mp.__version__, "dps": DPS, "digits": DIGITS},
        "index-sweep": build("index-sweep", INDEX_N_BINS, INDEX_A_BINS, index_point, rng),
        "scale-sweep": build("scale-sweep", SCALE_N_BINS, SCALE_A_BINS, scale_point, rng),
    }
    out = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pool.json")
    with open(out, "w") as fh:
        json.dump(pool, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
