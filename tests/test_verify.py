"""Tests for table reproduction and the identity suite."""

import collections
import dataclasses
import math

import pytest

from ramanujan_integrals import (
    ALL_CHECK_GROUPS,
    DEFAULT_TOL,
    AccuracyError,
    IntegralParams,
    QuadResult,
    SuiteReport,
    TableRow,
    TolProfile,
    bound,
    epsilon_integral,
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
        # a NaN remainder fails no comparison with its bound
        with pytest.raises(ValueError, match="non-negative"):
            TableRow(k=1, a=1.0, script_j=math.nan, bound=1.0)

    def test_unknown_id(self):
        with pytest.raises(ValueError):
            reproduce_table(4)

    @pytest.mark.parametrize("table_id", [2, 3])
    def test_reciprocal_columns_share_one_quadrature(self, monkeypatch, table_id):
        calls = collections.Counter()
        for name in ("epsilon_integral", "bound"):
            monkeypatch.setattr(verify, name, _counting(calls, name, getattr(verify, name)))
        reproduce_table(table_id)
        # 8 rows at a = 0.5 are computed; the 8 at a = 2 are read off them
        assert calls == {"epsilon_integral": 8, "bound": 8}

    @pytest.mark.parametrize("table_id", [2, 3])
    def test_reciprocal_columns_are_scaled_bit_for_bit(self, tables, table_id):
        rows = {(r.k, r.a): r for r in tables[table_id]}
        for k in TABLE_GRIDS[table_id][1]:
            folded, computed = rows[k, 2.0], rows[k, 0.5]
            assert folded.script_j == 2.0 ** -1.5 * computed.script_j
            assert folded.bound == 2.0 ** -1.5 * computed.bound


def _counting(calls, name, fn):
    """``fn`` counting its calls into ``calls[name]``."""

    def wrapper(*args):
        calls[name] += 1
        return fn(*args)

    return wrapper


def _modular_residual(n, a):
    return verify._modular_residual(verify._Samples(), n, a)


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
        # a run of one group, as the benchmark makes them, reproduces that
        # group's slice of the full run in order, field for field, bit for bit
        def fields(checks):
            return [(c.name, c.residual.hex(), c.tolerance.hex(), c.passed) for c in checks]

        start = 0
        for group in ALL_CHECK_GROUPS:
            alone = run_suite(TolProfile(checks=(group,))).checks
            assert fields(alone) == fields(default_suite_report.checks[start : start + len(alone)]), group
            start += len(alone)
        assert start == len(default_suite_report.checks)

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

            def wrapper(*args):
                n, a = (args[0].n, args[0].a) if len(args) == 1 else args
                # the suite has no tolerance setting: every J is at the default
                assert name != "j_integral" or args[0].tol == DEFAULT_TOL
                # eps and B at a and 1/a are one sample; J at a and 1/a are two
                calls[name, n, a if name == "j_integral" else min(a, 1.0 / a)] += 1
                return fn(*args)

            return wrapper

        for name in ("j_integral", "epsilon_integral", "bound"):
            monkeypatch.setattr(verify, name, counting(name))
        # the groups share their J, eps and B samples: no key is computed twice
        run_suite()
        assert len(calls) > 50
        assert max(calls.values()) == 1
        assert {key[0] for key in calls} == {"j_integral", "epsilon_integral", "bound"}
        # modular reads J at a and 1/a from one sample per (n, a) point, and
        # nothing is kept from one run to the next
        for _ in range(2):
            calls.clear()
            run_suite(TolProfile(checks=("modular",)))
            assert sum(calls.values()) == 12
            assert {key[0] for key in calls} == {"j_integral"}

    @pytest.mark.parametrize("n", [1, 3])
    @pytest.mark.parametrize("a", [0.9, 1.1])
    def test_unpaired_sign_samples_are_direct_quadratures(self, n, a):
        # 1/0.9 and 1/1.1 round in binary64, so these points are not folded
        name = f"sign/odd/k={n // 2}/a={a:g}"
        check = next(c for c in run_suite(TolProfile(checks=("sign",))).checks if c.name == name)
        direct = epsilon_integral(IntegralParams(n, a, 1e-6 * bound(n, a))).value
        assert check.residual == math.copysign(1.0, a - 1.0) * direct

    def test_empty_selection_is_vacuous_pass(self):
        report = run_suite(TolProfile(checks=()))
        assert report.overall
        assert report.checks == ()

    def test_unknown_group_rejected(self):
        with pytest.raises(ValueError):
            run_suite(TolProfile(checks=("poisson", "nonsense")))

    def test_profile_sets_only_checks(self):
        # the check and quadrature tolerances are fixed constants of the suite
        assert [f.name for f in dataclasses.fields(TolProfile)] == ["checks"]

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
