"""Acceptance suite: every exit criterion at its stated tolerance.

Each criterion prints one pass/fail line (run with ``pytest -s`` to see them
inline).  Criterion values marked as reference-table data compare against the
published 4-significant-digit values within plus or minus two units of the
fourth significant digit.

One printed cell of Table 3 (a=0.5, k=2, bound: 1.106e-5) is a misprint.
The bound formula is symmetric, B_n(1/a) = a^(3/2) * B_n(a); every other
(a=2, a=0.5) bound pair of Tables 2 and 3 obeys this within rounding, and this
cell misses it by 8.9%.  Criterion 2 compares the cell against the value the
symmetry derives from the printed a=2 cell (``reference_tables.BOUND_ERRATA``) and
checks that the symmetry singles out exactly the listed errata.

One comparison is expected to fail and is left failing on purpose: the
order-of-magnitude note on the large-k estimate asks for agreement within a
factor of 2 down to k=10, but the estimate/bound ratio at k=10 is 2.09 (it
enters the factor-2 band only from k=12 on).
"""

import math
import time
from fractions import Fraction

import pytest

import ramanujan_integrals as ri
from reference_tables import BOUND_ERRATA, TABLE1, TABLE2, TABLE3, fourth_digit_tol


def _report(criterion: str, ok: bool, detail: str = "") -> None:
    line = f"acceptance {criterion}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)


@pytest.fixture(scope="module")
def table1_rows():
    start = time.perf_counter()
    rows = ri.reproduce_table(1)
    return rows, time.perf_counter() - start


@pytest.fixture(scope="module")
def tables23_rows():
    start = time.perf_counter()
    rows = {2: ri.reproduce_table(2), 3: ri.reproduce_table(3)}
    return rows, time.perf_counter() - start


def _compare_rows(rows, reference, errata):
    """Yield mismatch descriptions for computed rows vs printed (k, J, B),
    with each erratum bound, keyed (a, k), compared against its corrected value."""
    by_key = {(row.k, row.a): row for row in rows}
    for a, block in reference.items():
        for k, printed_j, printed_b in block:
            row = by_key[(k, a)]
            expected_b = errata.get((a, k), printed_b)
            if abs(row.script_j - printed_j) > fourth_digit_tol(printed_j):
                yield f"k={k} a={a}: remainder {row.script_j:.4e} vs printed {printed_j:.4e}"
            if abs(row.bound - expected_b) > fourth_digit_tol(expected_b):
                yield f"k={k} a={a}: bound {row.bound:.4e} vs expected {expected_b:.4e}"


def _bound_symmetry_misses(reference):
    """Yield the (a=0.5, k) cells whose printed bound breaks
    B(1/2) = 2^(3/2) * B(2) against the printed a=2 cell beyond rounding."""
    for (k, _, bound_2), (k_half, _, bound_half) in zip(reference[2.0], reference[0.5]):
        assert k == k_half
        if abs(bound_half - 2.0 ** 1.5 * bound_2) > fourth_digit_tol(bound_half):
            yield (0.5, k)


def test_criterion_01_table1(table1_rows):
    rows, elapsed = table1_rows
    mismatches = list(_compare_rows(rows, TABLE1, BOUND_ERRATA.get(1, {})))
    ok = not mismatches and elapsed < 60.0
    _report("crit-01 table-1 reproduction", ok, f"{elapsed:.2f}s")
    assert elapsed < 60.0
    assert not mismatches, mismatches


def test_criterion_02_tables_2_and_3(tables23_rows):
    rows, elapsed = tables23_rows
    # The misprinted Table 3 bound (a=0.5, k=2) is compared against the value
    # the bound's reciprocal symmetry derives from the printed a=2 cell.  The
    # erratum checks itself: the symmetry must hold for every other printed
    # (a=2, a=0.5) bound pair and fail for each listed erratum alone, so a
    # wrong erratum or a second misprint fails here.
    for table_id, reference in ((2, TABLE2), (3, TABLE3)):
        misses = set(_bound_symmetry_misses(reference))
        assert misses == set(BOUND_ERRATA.get(table_id, {})), (table_id, misses)
    mismatches = list(_compare_rows(rows[2], TABLE2, BOUND_ERRATA.get(2, {}))) + list(
        _compare_rows(rows[3], TABLE3, BOUND_ERRATA.get(3, {}))
    )
    ok = not mismatches and elapsed < 120.0
    _report("crit-02 tables-2-3 reproduction", ok, f"{elapsed:.2f}s; {len(mismatches)} mismatch(es)")
    assert elapsed < 120.0
    assert not mismatches, mismatches


def test_criterion_03_exact_odd_evaluation():
    failures = []
    for k in (0, 1, 2, 5):
        n = 2 * k + 1
        j = ri.j_integral(ri.IntegralParams(n, 1.0)).value
        exact = -float(ri.gauss_f(n)) / (4.0 * math.pi)
        if abs(j - exact) > 1e-11:
            failures.append(f"k={k}: |{j} - {exact}| > 1e-11")
        if ri.epsilon_integral(ri.IntegralParams(n, 1.0)).value != 0.0:
            failures.append(f"k={k}: odd remainder at a=1 not exactly zero")
    _report("crit-03 exact odd evaluation", not failures)
    assert not failures, failures


def test_criterion_04_decomposition_consistency():
    failures = []
    window = 0
    for a in (0.5, 1.0, 2.0):
        for n in range(1, 11):
            b = ri.bound_even(n // 2, a) if n % 2 == 0 else ri.bound_odd((n - 1) // 2, a)
            eps = ri.epsilon_integral(ri.IntegralParams(n, a, tol=1e-6 * b)).value
            if abs(eps) <= 1e-12:
                continue
            window += 1
            t = ri.t_even(n // 2, a) if n % 2 == 0 else ri.t_odd((n - 1) // 2, a)
            j = ri.j_integral(ri.IntegralParams(n, a)).value
            residual = abs(j - ri.sigma(n) * t - eps)
            if residual >= 1e-12:
                failures.append(f"n={n} a={a}: residual {residual:.3e}")
    _report("crit-04 decomposition consistency", not failures, f"{window} cases in window")
    assert window >= 20
    assert not failures, failures


def test_criterion_05_bound_dominance():
    failures = []
    count = 0
    for n in (*range(1, 11), 20, 41):
        for a in (0.5, 1.0, 2.0):
            count += 1
            b = ri.bound_even(n // 2, a) if n % 2 == 0 else ri.bound_odd((n - 1) // 2, a)
            eps = abs(ri.epsilon_integral(ri.IntegralParams(n, a, tol=1e-6 * b)).value)
            if not eps < b:
                failures.append(f"n={n} a={a}: |eps|={eps:.4e} !< B={b:.4e}")
    _report("crit-05 bound dominance", not failures, f"{count} assertions")
    assert count == 36
    assert not failures, failures


def test_criterion_06_poisson_identity():
    failures = []
    for tau in (0.05, 0.1, 0.5, 1.0, 2.0, 5.0, 20.0):
        lhs = ri.theta_psi(tau) + 0.5 * (1.0 - tau ** -0.5)
        rhs = tau ** -0.5 * ri.theta_psi(1.0 / tau)
        if abs(lhs - rhs) >= 1e-13:
            failures.append(f"tau={tau}: residual {abs(lhs - rhs):.3e}")
    _report("crit-06 poisson identity", not failures)
    assert not failures, failures


def test_criterion_07_modular_relations():
    # the suite's modular group: n = 2k and 2k + 1 for k = 0, 1, 2 at a = 0.5, 2
    report = ri.run_suite(ri.TolProfile(checks=("modular",)))
    assert len(report.checks) == 12
    failures = [
        f"{c.name}: residual {c.residual:.3e}" for c in report.checks if not c.residual < 1e-10
    ]
    _report("crit-07 modular relations", not failures)
    assert not failures, failures


def test_criterion_08_quartic_root_error_profile():
    j10 = ri.j_integral(ri.IntegralParams(10, 1.0)).value
    j20 = ri.j_integral(ri.IntegralParams(20, 1.0)).value
    err5 = abs(ri.drz_approx(10, 1.0) - j10) / abs(j10) * 100.0
    err10 = abs(ri.drz_approx(20, 1.0) - j20) / abs(j20) * 100.0
    ok = abs(err5 - 8.8) < 0.3 and abs(err10 - 19.2) < 0.3 and err10 > err5
    _report("crit-08 quartic-root error profile", ok, f"{err5:.2f}%, {err10:.2f}%")
    assert abs(err5 - 8.8) < 0.3
    assert abs(err10 - 19.2) < 0.3
    assert err10 > err5


def test_criterion_09_small_scale_limit():
    failures = []
    for n in (2, 3):
        j = ri.j_integral(ri.IntegralParams(n, 1e-4)).value
        if abs(j - 1.0 / 24.0) >= 5e-4:
            failures.append(f"n={n}: J = {j}")
    _report("crit-09 small-scale limit", not failures)
    assert not failures, failures


def _gauss_f_recurrence(n_max: int) -> list[Fraction]:
    """F_0..F_n_max exactly, by the contiguous recurrence in rationals."""
    values = [Fraction(1), Fraction(-1, 3)]
    for m in range(1, n_max):
        values.append((2 * m * values[m - 1] - values[m]) / (2 * m + 3))
    return values


def test_criterion_10_property_suite():
    failures = []

    for n, exact in enumerate(_gauss_f_recurrence(5000)):
        if abs(ri.gauss_f(n) - float(exact)) > 1e-14 * abs(float(exact)):
            failures.append(f"gauss_f off the exact rational by more than 1e-14 relative at n={n}")

    z = 2.0 * math.pi
    g_by_n = [ri.u_scaled(n, z) for n in (0, 1, 2, 5, 9)]
    if not all(b < a for a, b in zip(g_by_n, g_by_n[1:])):
        failures.append("scaled-U not decreasing in the index")
    for n in (0, 2):
        g_by_z = [ri.u_scaled(n, z) for z in (1.0, 2.0, 6.0, 20.0)]
        if not all(b < a for a, b in zip(g_by_z, g_by_z[1:])):
            failures.append(f"scaled-U not decreasing in the argument at n={n}")

    for k, a in ((1, 2.0), (5, 4.0)):
        left = ri.bound_even(k, 1.0 / a)
        right = a ** 1.5 * ri.bound_even(k, a)
        if abs(left - right) / right >= 1e-13:
            failures.append(f"even bound symmetry k={k} a={a}")
        left = ri.bound_odd(k, 1.0 / a)
        right = a ** 1.5 * ri.bound_odd(k, a)
        if abs(left - right) / right >= 1e-13:
            failures.append(f"odd bound symmetry k={k} a={a}")

    for a in (0.25, 0.5, 0.9, 1.1, 2.0, 4.0):
        for k in (0, 1):
            eps = ri.epsilon_integral(ri.IntegralParams(2 * k + 1, a, tol=1e-15)).value
            if math.copysign(1.0, eps) != math.copysign(1.0, 1.0 - a):
                failures.append(f"odd remainder sign at k={k} a={a}")

    _report("crit-10 property suite", not failures)
    assert not failures, failures


def test_note_large_k_estimate_order_of_magnitude():
    ratios = {k: ri.bound_asymptotic(2 * k, 1.0) / ri.bound_even(k, 1.0) for k in (10, 20, 30, 50)}
    gaps = [abs(math.log(r)) for r in ratios.values()]
    monotone = all(b < a for a, b in zip(gaps, gaps[1:]))
    outside = {k: r for k, r in ratios.items() if abs(math.log(r)) >= math.log(2.0)}
    ok = monotone and not outside
    _report(
        "note large-k estimate",
        ok,
        "ratios " + ", ".join(f"k={k}: {r:.3f}" for k, r in ratios.items()),
    )
    assert monotone
    # The factor-2 band is not attainable at k=10: the estimate/bound ratio
    # there is 2.09 by direct evaluation (and by the published table values
    # themselves).  The ratio converges as sqrt(k) * ln(ratio) ~ 2.3 (2.34,
    # 2.32, 2.30, 2.29, 2.27 at k = 10, 20, 50, 100, 1000), so the band is
    # entered from k=12 (ratio 1.961) onward.  Left failing on purpose rather
    # than widening the tolerance or moving the case.
    assert not outside, f"estimate/bound ratio outside [0.5, 2]: {outside}"
