"""Workload inputs, the library calls they make, and the reference checks.

Workloads (why each exists is in README.md):

* ``paper``: ``reproduce_table(1|2|3)`` and ``run_suite`` one check group at a
  time; the seed only shuffles the call order.
* ``index-sweep``: n log-uniform in [1, 2000], a in [0.1, 10]; J (n <= 200),
  B, eps (tol = 1e-6 B) and T per point.
* ``scale-sweep``: n in [0, 10], a log-uniform in [1e-8, 1e8]; J, B, eps, T,
  I(pi a) and its quartic-root approximant per point.

A pass of a sweep visits every point of the reference pool (``pool.json``)
once, in rounds of one point per stratum; the seed decides which candidate
falls in which round and the order within each round.

Every call gets a verdict per operation it performs:

* ``ok``: value within its limit of the reference;
* ``flagged``: the library said it failed (AccuracyError, or a suite check
  that reports ``passed=False``);
* ``wrong``: returned without complaint, but outside its limit.  For a
  QuadResult the limit is the call's own ``abs_error_estimate``; for closed
  forms (T, B, the quartic root) it is 1e-12 relative; for I(alpha) it is the
  J tolerance propagated through 4 alpha^(3/4), plus 1e-12 relative;
* ``error``: any other exception.  The harness cannot vouch for such a run,
  so it reports ``correct: false``.
"""

from __future__ import annotations

import importlib.util
import json
import math
import os
import random
from dataclasses import dataclass, field
from typing import Callable

WORKLOADS = ("paper", "index-sweep", "scale-sweep")

# Nearest-rank percentile reported as call_tail_ms: the highest whole one that
# leaves at least ten calls beyond it in the shortest run of a sweep
# (MIN_PASSES passes), and in fifty passes of ``paper`` (see README.md).
TAIL_PERCENTILE = {"paper": 98.0, "index-sweep": 97.0, "scale-sweep": 98.0}

CLOSED_FORM_REL = 1e-12
EPS_OF_BOUND = 1e-6      # remainder tolerance as a share of its bound
J_MAX_N = 200            # index-sweep runs J only up to here
I_TOL = 1e-13            # ramanujan_i's default J tolerance

# One warm-up call per entry point a workload uses; it also fills the lazily
# built quadrature node tables.  Run with the library bound to ``lib``.
WARM_UP = {
    "paper": (
        "lib.reproduce_table(1)\n"
        "lib.run_suite(lib.TolProfile(checks=('finite',)))\n"
    ),
    "index-sweep": (
        "lib.j_integral(lib.IntegralParams(1, 1.0))\n"
        "lib.epsilon_integral(lib.IntegralParams(2, 1.0, 1e-10))\n"
        "lib.t_even(1, 1.0)\nlib.t_odd(0, 1.0)\n"
        "lib.bound_even(1, 1.0)\nlib.bound_odd(0, 1.0)\n"
    ),
}
WARM_UP["scale-sweep"] = WARM_UP["index-sweep"] + (
    "lib.ramanujan_i(3.141592653589793)\nlib.ramanujan_i_approx(3.141592653589793)\n"
)

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


@dataclass
class Call:
    """One library call: ``run(outputs)`` performs it, where ``outputs`` holds
    the results of earlier calls on the same point; ``check(out)`` returns one
    (verdict, error/estimate ratio or None) pair per operation."""

    kind: str
    key: tuple
    run: Callable[[dict], object]
    check: Callable[[object], list]
    needs: str | None = None


@dataclass
class Verdicts:
    counts: dict = field(default_factory=lambda: {"ok": 0, "flagged": 0, "wrong": 0, "error": 0})

    def add(self, verdicts) -> None:
        for verdict, _ in verdicts:
            self.counts[verdict] += 1

    @property
    def attempted(self) -> int:
        return sum(self.counts.values())

    @property
    def failed(self) -> int:
        return self.attempted - self.counts["ok"]


def _failure(lib, out, n_ops=1):
    verdict = "flagged" if isinstance(out, lib.AccuracyError) else "error"
    return [(verdict, None)] * n_ops


def _closed_form(lib, ref: float, abs_limit: float = 0.0):
    def check(out):
        if isinstance(out, BaseException):
            return _failure(lib, out)
        ok = math.isfinite(out) and abs(out - ref) <= abs_limit + CLOSED_FORM_REL * abs(ref)
        return [("ok" if ok else "wrong", None)]

    return check


def _quad(lib, ref: float):
    def check(out):
        if isinstance(out, BaseException):
            return _failure(lib, out)
        err = abs(out.value - ref)
        ratio = err / out.abs_error_estimate if out.abs_error_estimate > 0 else (0.0 if err == 0 else math.inf)
        ok = math.isfinite(out.value) and err <= out.abs_error_estimate
        return [("ok" if ok else "wrong", ratio)]

    return check


def fingerprint(out) -> str:
    """Bit-exact identity of a call's output, for the determinism check."""
    if isinstance(out, BaseException):
        result = getattr(out, "result", None)
        return f"{type(out).__name__}:{result!r}"
    return repr(out)


# --------------------------------------------------------------------------
# sweeps
# --------------------------------------------------------------------------


def load_pool(workload: str) -> list[list[dict]]:
    """The workload's candidate points, grouped by stratum in file order."""
    with open(os.path.join(BENCH_DIR, "pool.json")) as fh:
        points = json.load(fh)[workload]
    strata: dict[str, list[dict]] = {}
    for p in points:
        p["ref"] = {k: float(v) for k, v in p["ref"].items()}
        strata.setdefault(p["stratum"], []).append(p)
    return list(strata.values())


def _parity_calls(lib, n: int, a: float, ref: dict) -> list[Call]:
    """B, eps (tolerance from the library's own B) and T at full index n."""
    k, odd = n // 2, n % 2 == 1

    def bound(_):
        return lib.bound_odd(k, a) if odd else lib.bound_even(k, a)

    def eps(outputs):
        return lib.epsilon_integral(lib.IntegralParams(n, a, EPS_OF_BOUND * outputs["bound"]))

    def t(_):
        return lib.t_odd(k, a) if odd else lib.t_even(k, a)

    return [
        Call("bound", ("bound", n, a), bound, _closed_form(lib, ref["bound"])),
        Call("eps", ("eps", n, a), eps, _quad(lib, ref["eps"]), needs="bound"),
        Call("t", ("t", n, a), t, _closed_form(lib, ref["t"])),
    ]


def _j_call(lib, n: int, a: float, ref: dict) -> Call:
    return Call("j", ("j", n, a), lambda _: lib.j_integral(lib.IntegralParams(n, a)), _quad(lib, ref["j"]))


def index_point_calls(lib, point: dict) -> list[Call]:
    n, a, ref = point["n"], point["a"], point["ref"]
    calls = _parity_calls(lib, n, a, ref)
    if n <= J_MAX_N:
        calls.append(_j_call(lib, n, a, ref))
    return calls


def scale_point_calls(lib, point: dict) -> list[Call]:
    n, a, ref = point["n"], point["a"], point["ref"]
    alpha = math.pi * a
    calls = [_j_call(lib, n, a, ref)]
    if n >= 1:
        calls += _parity_calls(lib, n, a, ref)
    calls += [
        Call(
            "i", ("i", a), lambda _: lib.ramanujan_i(alpha),
            _closed_form(lib, ref["i"], abs_limit=4.0 * alpha ** 0.75 * I_TOL),
        ),
        Call("i_approx", ("i_approx", a), lambda _: lib.ramanujan_i_approx(alpha), _closed_form(lib, ref["i_approx"])),
    ]
    return calls


# --------------------------------------------------------------------------
# paper
# --------------------------------------------------------------------------


def load_published():
    """Published tables from the repository's test data (read only)."""
    path = os.path.join(os.path.dirname(BENCH_DIR), "tests", "reference_tables.py")
    spec = importlib.util.spec_from_file_location("reference_tables", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _table_call(lib, published, table_id: int) -> Call:
    blocks = getattr(published, f"TABLE{table_id}")
    tol = published.fourth_digit_tol
    n_rows = sum(len(rows) for rows in blocks.values())

    def check(out):
        if isinstance(out, BaseException):
            return _failure(lib, out, n_rows)
        by_key = {(row.k, row.a): row for row in out}
        verdicts = []
        for a, rows in blocks.items():
            for k, printed_j, printed_b in rows:
                row = by_key.get((k, a))
                ok = (
                    row is not None
                    and abs(row.script_j - printed_j) <= tol(printed_j)
                    and abs(row.bound - printed_b) <= tol(printed_b)
                )
                verdicts.append(("ok" if ok else "wrong", None))
        return verdicts

    return Call("table", ("table", table_id), lambda _: lib.reproduce_table(table_id), check)


def _group_call(lib, group: str) -> Call:
    def check(out):
        if isinstance(out, BaseException):
            return [("error", None)]
        return [("ok" if c.passed else "flagged", None) for c in out.checks]

    profile = lib.TolProfile(checks=(group,))
    return Call("group", ("group", group), lambda _: lib.run_suite(profile), check)


class Workload:
    """Generates the calls of one workload for one seed, round by round.

    A pass visits every input once.  For a sweep it is split into rounds of
    one point per stratum: pass q shuffles each stratum's candidates with a
    generator seeded by (seed, q), and round j takes the j-th of each.  Every
    round thus has the same mix of cheap and costly inputs, and every pass
    covers the whole pool.  ``paper`` has one round per pass.
    """

    def __init__(self, lib, name: str, seed: int):
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
        self.lib, self.name, self.seed = lib, name, seed
        if name == "paper":
            published = load_published()
            self._paper = [_table_call(lib, published, t) for t in (1, 2, 3)]
            self._paper += [_group_call(lib, g) for g in lib.ALL_CHECK_GROUPS]
            self.rounds_per_pass = 1
        else:
            self._strata = load_pool(name)
            self._point_calls = index_point_calls if name == "index-sweep" else scale_point_calls
            self.rounds_per_pass = len(self._strata[0])
            if any(len(s) != self.rounds_per_pass for s in self._strata):
                raise ValueError(f"{name}: every stratum needs the same number of candidates")
        self._cached = (None, None)

    def round_calls(self, index: int) -> list[list[Call]]:
        """Round ``index`` as a list of points, each a list of dependent calls."""
        q, j = divmod(index, self.rounds_per_pass)
        if self._cached[0] != q:
            self._cached = (q, self._pass_rounds(random.Random(self.seed * 1_000_003 + q)))
        return self._cached[1][j]

    def _pass_rounds(self, rng: random.Random) -> list[list[list[Call]]]:
        if self.name == "paper":
            rounds = [[[c] for c in self._paper]]
        else:
            orders = [rng.sample(s, len(s)) for s in self._strata]
            rounds = [[self._point_calls(self.lib, order[j]) for order in orders]
                      for j in range(self.rounds_per_pass)]
        for points in rounds:
            rng.shuffle(points)
        return rounds
