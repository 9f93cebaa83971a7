"""Tests for table reproduction and the identity suite."""

import collections
import dataclasses
import math

import pytest

from ramanujan_integrals import (
    ALL_CHECK_GROUPS,
    DEFAULT_TOL,
    AccuracyError,
    QuadResult,
    SuiteReport,
    TableRow,
    TolProfile,
    reproduce_table,
    run_suite,
)
from ramanujan_integrals import specfun, verify
from ramanujan_integrals.verify import _POISSON_TAUS, TABLE_GRIDS
from reference_tables import fourth_digit_tol


@pytest.fixture(scope="module")
def tables():
    return {i: reproduce_table(i) for i in (1, 2, 3)}


class TestReproduceTable:
    def test_grids_match_reference_layout(self, tables):
        assert [(r.k, r.a) for r in tables[1]] == [(k, 1.0) for k in TABLE_GRIDS[1][1]]
        assert len(tables[2]) == 16 and len(tables[3]) == 16
        assert {r.a for r in tables[2]} == {2.0, 0.5}

    @pytest.mark.parametrize(
        "table_id,a,k,printed_j,printed_b",
        [
            (1, 1.0, 3, 9.818e-8, 9.838e-8),
            (2, 2.0, 30, 6.016e-15, 6.398e-15),
            (3, 0.5, 0, 6.307e-4, 6.720e-4),
        ],
    )
    def test_spot_rows(self, tables, table_id, a, k, printed_j, printed_b):
        row = next(r for r in tables[table_id] if r.k == k and r.a == a)
        assert abs(row.script_j - printed_j) <= fourth_digit_tol(printed_j)
        assert abs(row.bound - printed_b) <= fourth_digit_tol(printed_b)

    def test_every_row_satisfies_dominance(self, tables):
        for rows in tables.values():
            for row in rows:
                assert 0.0 <= row.script_j <= row.bound

    def test_table_row_rejects_dominance_violation(self):
        with pytest.raises(ValueError):
            TableRow(k=1, a=1.0, script_j=2.0e-5, bound=1.0e-5)
        with pytest.raises(ValueError):
            TableRow(k=1, a=1.0, script_j=1.0e-5, bound=0.0)

    def test_unknown_id(self):
        with pytest.raises(ValueError):
            reproduce_table(4)


def _modular_residual(n, a):
    return verify._modular_residual(verify._Samples(DEFAULT_TOL), n, a)


class TestCheckModular:
    def test_even_residual_small(self):
        assert _modular_residual(2, 2.0) < 1e-10

    def test_odd_at_one_reproduces_exact_evaluation(self):
        assert _modular_residual(1, 1.0) < 1e-10

    def test_symmetric_instance_is_identically_zero(self):
        # a=1 maps alpha and beta to the same point; both sides are computed
        # by the same expressions and cancel exactly
        assert _modular_residual(4, 1.0) == 0.0


class TestRunSuite:
    def test_default_profile_passes(self, default_suite_report):
        report = default_suite_report
        assert isinstance(report, SuiteReport)
        assert report.overall
        assert all(c.passed for c in report.checks)
        assert len(report.checks) > 100

    def test_overall_is_conjunction(self, default_suite_report):
        assert default_suite_report.overall == all(
            c.passed for c in default_suite_report.checks
        )

    def test_poisson_points_use_the_direct_theta_sum(self):
        # theta_psi takes the Jacobi transform below its seam; a poisson
        # check reaching there would compare the transform with itself
        for tau in _POISSON_TAUS:
            assert tau >= specfun._JACOBI_SEAM
            assert 1.0 / tau >= specfun._JACOBI_SEAM

    def test_deterministic_order(self, default_suite_report):
        # group selection preserves the fixed construction order
        names = [c.name for c in default_suite_report.checks]
        poisson_only = [c.name for c in run_suite(TolProfile(checks=("poisson",))).checks]
        assert names[: len(poisson_only)] == poisson_only

    def test_unattainable_tolerance_records_accuracy_failures(self):
        report = run_suite(TolProfile(quad_tol=1e-30, checks=("drz",)))
        assert not report.overall
        assert any(math.isinf(c.residual) and not c.passed for c in report.checks)

    def test_failing_quadratures_are_recorded_not_raised(self, monkeypatch):
        def fail(p):
            raise AccuracyError("forced failure", QuadResult(0.0, 1.0, 1))

        monkeypatch.setattr(verify, "epsilon_integral", fail)
        monkeypatch.setattr(verify, "j_integral", fail)
        report = run_suite()
        groups = {g: [c for c in report.checks if c.name.split("/")[0] == g] for g in ALL_CHECK_GROUPS}
        # groups without J or eps quadratures still run and pass
        assert all(c.passed for g in ("poisson", "finite") for c in groups[g])
        assert len(groups["poisson"]) == 7 and len(groups["finite"]) == 14
        # every check behind a failed quadrature is scored, none is dropped:
        # consistency keeps even the odd a = 1 points it skips when eps = 0
        sizes = {"consistency": 21, "sign": 21, "dominance": 36, "modular": 12, "drz": 3}
        for group, size in sizes.items():
            assert len(groups[group]) == size, group
            for check in groups[group]:
                assert math.isinf(check.residual) and check.passed is False, check
        assert not report.overall

    def test_each_quadrature_runs_once_per_run(self, monkeypatch):
        calls = collections.Counter()

        def counting(name):
            fn = getattr(verify, name)

            def wrapper(p):
                calls[name, p.n, p.a, p.tol] += 1
                return fn(p)

            return wrapper

        for name in ("j_integral", "epsilon_integral"):
            monkeypatch.setattr(verify, name, counting(name))
        # the groups share their J and eps samples: no key is integrated twice
        run_suite()
        assert len(calls) > 50
        assert max(calls.values()) == 1
        # modular reads J at a and 1/a from one sample per (n, a) point, and
        # nothing is kept from one run to the next
        for _ in range(2):
            calls.clear()
            run_suite(TolProfile(checks=("modular",)))
            assert sum(calls.values()) == 12
            assert {key[0] for key in calls} == {"j_integral"}

    def test_empty_selection_is_vacuous_pass(self):
        report = run_suite(TolProfile(checks=()))
        assert report.overall
        assert report.checks == ()

    def test_unknown_group_rejected(self):
        with pytest.raises(ValueError):
            run_suite(TolProfile(checks=("poisson", "nonsense")))

    @pytest.mark.parametrize("quad_tol", [-1.0, 0.0, math.nan, math.inf])
    def test_profile_rejects_quad_tol_not_positive_finite(self, quad_tol):
        # rejected up front, not passed or raised inside some check groups only
        with pytest.raises(ValueError, match="quad_tol"):
            TolProfile(quad_tol=quad_tol, checks=("poisson",))

    def test_profile_sets_only_quad_tol_and_checks(self):
        # the per-group check tolerances are fixed constants of the suite
        assert [f.name for f in dataclasses.fields(TolProfile)] == ["quad_tol", "checks"]

    def test_repeated_group_rejected(self):
        # running a group twice would report each of its checks twice
        with pytest.raises(ValueError, match="repeated"):
            run_suite(TolProfile(checks=("poisson", "poisson")))

    def test_group_selection_runs_subset(self):
        report = run_suite(TolProfile(checks=("poisson",)))
        assert report.overall
        assert len(report.checks) == 7
        assert all(c.name.startswith("poisson/") for c in report.checks)

    def test_report_dict_shape(self, default_suite_report):
        payload = default_suite_report.to_dict()
        assert payload["overall"] is True
        assert set(payload["checks"][0]) == {"name", "residual", "tolerance", "passed"}
        assert len(payload["checks"]) == len(default_suite_report.checks)

    def test_all_groups_present_by_default(self, default_suite_report):
        prefixes = {c.name.split("/")[0] for c in default_suite_report.checks}
        assert prefixes == set(ALL_CHECK_GROUPS)
