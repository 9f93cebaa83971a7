"""Measurement machinery shared by the benchmark modes: the tail-percentile
rule, layer-boundary wrappers (evaluation counters and trace spans) and the
self-time computation over recorded spans.

Wrappers replace public names in each library module's namespace.  The
library resolves those names at call time, so a call from ``verify`` into
``approximants`` into ``quadrature`` into ``specfun`` passes through every
wrapper without any change to the library itself.
"""

from __future__ import annotations

import math
import statistics
import time
from collections import defaultdict

# (public name, layer span name); listed from the bottom layer up.
TRACED_NAMES = (
    ("gauss_f", "specfun.gauss_f"),
    ("gamma_half_ratio", "specfun.gamma_half_ratio"),
    ("theta_psi", "specfun.theta_psi"),
    ("j_integral", "quadrature.j"),
    ("epsilon_integral", "quadrature.eps"),
    ("u_scaled", "quadrature.u_scaled"),
    ("finite_check_integrals", "quadrature.finite"),
    ("t_even", "approximants.t"),
    ("t_odd", "approximants.t"),
    ("bound_even", "approximants.bound"),
    ("bound_odd", "approximants.bound"),
    ("drz_approx", "approximants.drz"),
    ("ramanujan_i", "approximants.ramanujan_i"),
    ("ramanujan_i_approx", "approximants.ramanujan_i"),
    ("reproduce_table", "verify.reproduce_table"),
)
# Counted but not timed: one call costs about as much as a span would.
COUNTED_NAMES = (("lambda_factor", "specfun.lambda_factor"),)
# The two quadrature drivers in ``quadrature`` that every integral goes
# through, nested ones (inside u_scaled, finite_check_integrals, verify)
# included.
QUAD_DRIVERS = ("_integrate_expsinh", "_integrate_tanhsinh")


def percentile(values, q: float) -> float:
    """Nearest-rank q-th percentile: the smallest value with at least q% of
    the sample at or below it."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def beyond(n: int, q: float) -> int:
    """Number of samples above the nearest-rank q-th percentile of n samples."""
    return n - max(1, math.ceil(q / 100.0 * n))


def spread(values) -> float:
    """Interquartile distance as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


# Mean time of calibration_kernel, timed between workload points, on the
# machine the benchmark was tuned on (a shared 2-vCPU x86-64 virtual machine,
# Python 3.11.7).  End-to-end times are reported in that machine's seconds:
# scaled by this over the kernel's mean time during the same run.
KERNEL_REF_S = 1.3e-3
# CPU time of a bare ``python -c pass`` on the same machine.  setup_s is a
# fresh interpreter's set-up time over that of a bare one spawned beside it,
# in these seconds: the kernel loop tracks spawn cost poorly, a spawn tracks it
# well.
PYTHON_START_REF_S = 0.08


def calibration_kernel() -> float:
    """Fixed pure-Python work shaped like the library's calls: a float loop
    like its integrand sums, then tuple, list and dict allocation like its
    bookkeeping (about 1.3 ms between workload points).  Timed between points
    to track the machine's speed."""
    s = 0.0
    for i in range(2000):
        s += math.exp(-1e-3 * i) * (i + 0.5) / (i + 1.5)
    d = {}
    for i in range(1500):
        t = (i, float(i) * 0.5)
        d[t] = [t[1], i]
    return s + len(d)


def kernel_seconds(clock=time.process_time) -> float:
    """Time of one calibration_kernel run."""
    t0 = clock()
    calibration_kernel()
    return clock() - t0


def _modules(lib):
    return (lib, lib.specfun, lib.quadrature, lib.approximants, lib.verify)


class Patches:
    """Replaces public names in every library namespace; ``restore`` undoes it."""

    def __init__(self, lib):
        self.lib = lib
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, name: str, make_wrapper, home=None) -> None:
        """Wrap ``name`` as found in ``home`` (default: the package) wherever
        a library module binds that same object."""
        original = getattr(home or self.lib, name)
        wrapper = make_wrapper(original)
        for module in _modules(self.lib):
            if getattr(module, name, None) is original:
                self._saved.append((module, name, original))
                setattr(module, name, wrapper)

    def restore(self) -> None:
        for module, name, original in reversed(self._saved):
            setattr(module, name, original)
        self._saved.clear()


def wrap_quad_driver(lib, fn, add):
    """Wrap a quadrature driver so that ``add(evaluations)`` sees the
    QuadResult.evaluations of every integral it computes; one that raised
    AccuracyError contributes the evaluations of its best estimate."""
    accuracy_error = lib.AccuracyError

    def counted(*args):
        try:
            result = fn(*args)
        except accuracy_error as exc:
            add(exc.result.evaluations)
            raise
        add(result.evaluations)
        return result

    return counted


class EvalCounter:
    """Sums QuadResult.evaluations over every quadrature the library runs.

    The one integrand evaluation of epsilon_integral's shortcut for odd n at
    a = 1 is not a quadrature and is not counted.
    """

    def __init__(self, lib):
        self.evaluations = 0
        self._patches = Patches(lib)
        for name in QUAD_DRIVERS:
            self._patches.replace(name, lambda fn: wrap_quad_driver(lib, fn, self._add), lib.quadrature)

    def _add(self, evaluations: int) -> None:
        self.evaluations += evaluations

    def close(self) -> None:
        self._patches.restore()


class Span:
    __slots__ = ("name", "start", "end", "parent", "evaluations", "raised")

    def __init__(self, name: str, start: float, parent: int):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.evaluations = 0
        self.raised = False


class Recorder:
    """Records one span per wrapped call: name, start, end, parent index.

    The evaluations of each quadrature go to the innermost open span.  Spans
    stay in memory; ``write`` dumps them once the run is over.
    """

    def __init__(self, lib, clock=time.perf_counter):
        self.spans: list[Span] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._clock = clock
        self._lib = lib
        self._patches = Patches(lib)
        for name, span_name in TRACED_NAMES:
            self._patches.replace(name, lambda fn, s=span_name: self._wrap(s, fn))
        for name in QUAD_DRIVERS:
            self._patches.replace(name, lambda fn: wrap_quad_driver(lib, fn, self._add_evaluations), lib.quadrature)
        for name, count_name in COUNTED_NAMES:
            self._patches.replace(name, lambda fn, c=count_name: self._count(c, fn))
        self._patches.replace("run_suite", self._wrap_suite)

    def _open(self, name: str) -> Span:
        stack = self._stack
        span = Span(name, self._clock(), stack[-1] if stack else -1)
        stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _add_evaluations(self, evaluations: int) -> None:
        if self._stack:
            self.spans[self._stack[-1]].evaluations += evaluations

    def _wrap(self, span_name, fn):
        accuracy_error = self._lib.AccuracyError
        spans, stack, clock = self.spans, self._stack, self._clock

        def traced(*args, **kwargs):
            span = Span(span_name, clock(), stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            except accuracy_error:
                span.raised = True
                raise
            finally:
                stack.pop()
                span.end = clock()

        return traced

    def _wrap_suite(self, fn):
        def traced(profile=None):
            groups = profile.checks if profile is not None and profile.checks else ("all",)
            span = self._open("verify.group." + "+".join(groups))
            try:
                return fn(profile)
            finally:
                self._stack.pop()
                span.end = self._clock()

        return traced

    def _count(self, count_name, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[count_name] += 1
            return fn(*args, **kwargs)

        return counted

    def close(self) -> None:
        self._patches.restore()

    def write(self, path: str, count: int) -> None:
        """Write the first ``count`` spans as CSV."""
        with open(path, "w") as fh:
            fh.write("index,name,start,end,parent,evaluations,raised\n")
            for i, s in enumerate(self.spans[:count]):
                fh.write(f"{i},{s.name},{s.start!r},{s.end!r},{s.parent},{s.evaluations},{int(s.raised)}\n")


def self_times(spans) -> list[float]:
    """Each span's duration minus the time covered by its direct children."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.end - s.start
    return own


def root_of(spans) -> list[int]:
    """Index of the top-level span each span descends from (parents precede
    their children in recording order)."""
    roots: list[int] = []
    for i, s in enumerate(spans):
        roots.append(i if s.parent < 0 else roots[s.parent])
    return roots


def layer_totals(spans) -> dict[str, dict[str, float]]:
    """Per span name: calls, self seconds, inclusive seconds, own evaluations
    (those of quadratures run directly inside its spans), raised."""
    own = self_times(spans)
    out: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0, "evals": 0, "raised": 0}
    )
    for s, t in zip(spans, own):
        row = out[s.name]
        row["calls"] += 1
        row["self_s"] += t
        row["total_s"] += s.end - s.start
        row["evals"] += s.evaluations
        row["raised"] += int(s.raised)
    return out
