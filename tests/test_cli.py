"""Tests for the command-line front end: exit codes, formats, round-trips."""

import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys

import pytest

import ramanujan_integrals
from ramanujan_integrals import (
    CheckResult,
    IntegralParams,
    SuiteReport,
    TABLE_GRIDS,
    bound,
    bound_asymptotic,
    bound_even,
    drz_approx,
    j_integral,
    reproduce_table,
    t_even,
)
from ramanujan_integrals.cli import main

# the src/ directory this package was imported from, for child interpreters
_SRC = os.path.dirname(os.path.dirname(os.path.abspath(ramanujan_integrals.__file__)))


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def strict_json(text):
    """``json.loads`` that rejects the non-standard Infinity, -Infinity and NaN."""

    def reject(token):
        raise ValueError(f"non-standard json token {token}")

    return json.loads(text, parse_constant=reject)


def _count_driver_calls(monkeypatch):
    """Record every exp-sinh quadrature the library runs from here on."""
    driver = ramanujan_integrals.quadrature._integrate_expsinh
    calls = []

    def counted(*args):
        calls.append(args)
        return driver(*args)

    monkeypatch.setattr(ramanujan_integrals.quadrature, "_integrate_expsinh", counted)
    return calls


class TestEval:
    def test_known_value_text(self, capsys):
        code, out, err = run_cli(capsys, "eval", "--n", "1", "--a", "1")
        assert code == 0
        assert err == ""
        value = float(out)
        assert value == pytest.approx(1.0 / (12.0 * math.pi), abs=1e-13)
        # text mode prints 15 significant digits
        assert out.strip() == f"{value:.15g}"
        assert out.startswith("0.0265258238486492")

    def test_large_index(self, capsys):
        # the Kummer power sum raised AccuracyError here
        code, out, err = run_cli(capsys, "eval", "--n", "30", "--a", "1")
        assert code == 0
        assert err == ""
        assert out.startswith("0.0083458190634480")

    def test_index_via_k_and_parity(self, capsys):
        code_n, out_n, _ = run_cli(capsys, "eval", "--n", "3", "--a", "2")
        code_k, out_k, _ = run_cli(capsys, "eval", "--k", "1", "--parity", "odd", "--a", "2")
        assert code_n == code_k == 0
        assert out_n == out_k

    def test_json_fields(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "--n", "2", "--a", "1", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["command"] == "eval"
        assert payload["n"] == 2 and payload["a"] == 1.0
        assert payload["value"] == pytest.approx(0.022897437646132268, abs=1e-12)
        assert payload["abs_error_estimate"] >= 0.0
        assert payload["evaluations"] >= 1

    def test_top_of_float_range_to_full_precision(self, capsys, monkeypatch):
        # the quadrature met its absolute tolerance 1e-13 at level 3 and printed
        # 3.7136152588194e-156, 2.2e-8 off; the series needs no quadrature, and
        # its evaluation count is the number of terms it summed
        calls = _count_driver_calls(monkeypatch)
        code, out, err = run_cli(capsys, "eval", "--n", "2", "--a", "1e308", "--format", "json")
        assert code == 0 and err == ""
        payload = strict_json(out)
        assert payload["value"] == pytest.approx(3.713615338810893e-156, rel=1e-14, abs=0.0)
        assert payload["evaluations"] == j_integral(IntegralParams(2, 1e308)).evaluations == 1
        assert calls == []

    def test_unattainable_tolerance_at_a_huge_index(self, capsys, monkeypatch):
        # J's quadrature first built a table of 1e8 Laguerre steps here; from
        # n = 11 no quadrature runs, and the miss is an error line
        def refuse(*args):
            raise AssertionError("no quadrature runs from n = 11")

        monkeypatch.setattr(ramanujan_integrals.quadrature, "_laguerre_steps", refuse)
        monkeypatch.setattr(ramanujan_integrals.quadrature, "_integrate_expsinh", refuse)
        code, out, err = run_cli(capsys, "eval", "--n", "100000000", "--a", "1", "--tol", "1e-20")
        assert code == 1 and out == ""
        assert err.startswith("error: no series reached tolerance 1e-20") and "Traceback" not in err

    def test_csv_layout(self, capsys):
        code, out, err = run_cli(capsys, "eval", "--n", "2", "--a", "1", "--format", "csv")
        assert code == 0 and err == ""
        result = j_integral(IntegralParams(2, 1.0))
        # floats are written by repr, so they read back exactly
        assert out == (
            "command,n,a,value,abs_error_estimate,evaluations\n"
            f"eval,2,1.0,{result.value!r},{result.abs_error_estimate!r},{result.evaluations}\n"
        )

    def test_negative_scale_is_domain_error(self, capsys):
        code, out, err = run_cli(capsys, "eval", "--a", "-1", "--n", "2")
        assert code == 1
        assert out == ""
        assert "error" in err and "usage" in err.lower() or "--help" in err


class TestParsing:
    def test_unknown_flag(self, capsys):
        code, _, err = run_cli(capsys, "eval", "--n", "1", "--a", "1", "--bogus")
        assert code == 1
        assert "error:" in err

    def test_non_numeric_argument(self, capsys):
        code, _, err = run_cli(capsys, "eval", "--n", "1", "--a", "abc")
        assert code == 1
        assert "error:" in err

    def test_missing_required_flag(self, capsys):
        code, _, err = run_cli(capsys, "eval", "--n", "1")
        assert code == 1
        assert "error:" in err

    def test_missing_index(self, capsys):
        code, _, err = run_cli(capsys, "eval", "--a", "1")
        assert code == 1
        assert "index" in err

    @pytest.mark.parametrize(
        "index,message",
        [(("--n", "-1"), "n must be a non-negative integer, got -1"),
         (("--k", "-1", "--parity", "even"), "--k must be non-negative")],
        ids=["n", "k"],
    )
    def test_negative_index(self, capsys, index, message):
        code, out, err = run_cli(capsys, "eval", *index, "--a", "1")
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: {message}\n")

    def test_conflicting_index_flags(self, capsys):
        code, _, err = run_cli(capsys, "eval", "--n", "2", "--k", "1", "--parity", "even", "--a", "1")
        assert code == 1

    def test_unknown_command(self, capsys):
        code, _, err = run_cli(capsys, "frobnicate")
        assert code == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ("table", "--id", "1"),
            ("approx", "--n", "2", "--a", "1"),
            ("bound", "--n", "2", "--a", "1"),
            ("verify",),
        ],
        ids=["table", "approx", "bound", "verify"],
    )
    def test_tol_is_not_an_option(self, capsys, argv):
        # only eval runs a quadrature at a requested tolerance: approx and
        # bound are closed forms, table integrates every remainder to a fixed
        # fraction of its bound, and verify checks fixed thresholds on samples
        # at the library's own tolerances
        code, out, err = run_cli(capsys, *argv, "--tol", "1e-30")
        assert code == 1
        assert out == ""
        assert "error: unrecognized arguments: --tol" in err

    def test_eval_takes_tol(self, capsys):
        # --tol is the absolute tolerance of J_n(a), the one quadrature the
        # CLI runs at a requested tolerance
        code, out, _ = run_cli(capsys, "eval", "--n", "1", "--a", "1", "--tol", "1e-10")
        assert code == 0
        assert out.startswith("0.02652582384864")

    def test_eval_tol_accepts_what_the_library_accepts(self, capsys):
        # inf asks for any accuracy: J at the first level that may return,
        # with its estimate; 0 and NaN are rejected by IntegralParams
        code, out, _ = run_cli(capsys, "eval", "--n", "1", "--a", "1", "--tol", "inf", "--format", "json")
        assert code == 0
        payload = strict_json(out)
        result = j_integral(IntegralParams(1, 1.0, math.inf))
        assert (payload["value"], payload["abs_error_estimate"], payload["evaluations"]) == (
            result.value, result.abs_error_estimate, result.evaluations)
        for tol in ("0", "-1e-13", "nan"):
            code, out, err = run_cli(capsys, "eval", "--n", "1", "--a", "1", f"--tol={tol}")
            assert code == 1 and out == ""
            assert err.startswith(f"error: tol must be positive, got {float(tol)}\n"), tol

    @pytest.mark.parametrize("command", ["eval", "approx", "bound"])
    @pytest.mark.parametrize("a", ["-1", "0", "inf", "nan"])
    def test_scale_is_checked_by_the_library(self, capsys, command, a):
        code, out, err = run_cli(capsys, command, "--n", "2", "--a", a)
        assert code == 1 and out == ""
        assert err.startswith(f"error: a must be positive and finite, got {float(a)}\n")

    @pytest.mark.parametrize(
        "argv,least",
        [(("eval",), "non-negative"), (("approx",), "positive"), (("bound",), "positive"),
         (("approx", "--method", "drz"), "non-negative")],
        ids=["eval", "approx", "bound", "drz"],
    )
    def test_index_is_checked_by_the_library(self, capsys, argv, least):
        # the least n is the core's: 0 for J and the quartic-root formula, 1 for T and B
        bad = "-1" if least == "non-negative" else "0"
        code, out, err = run_cli(capsys, *argv, "--n", bad, "--a", "1")
        assert code == 1 and out == ""
        assert err.startswith(f"error: n must be a {least} integer, got {bad}\n")

    @pytest.mark.parametrize("command", ["eval", "approx", "bound"])
    def test_index_above_the_float_range_is_an_error(self, capsys, command):
        # it used to end in an OverflowError traceback
        code, out, err = run_cli(capsys, command, "--n", "1" + "0" * 400, "--a", "1")
        assert code == 1 and out == ""
        assert err.startswith("error: n must be at most 1.79769e+308, the largest float\n")

    def test_table_ids_are_the_library_grids(self, capsys):
        # --id's choices are TABLE_GRIDS' keys, stated once, and --help lists them
        with pytest.raises(SystemExit):
            main(["table", "--help"])
        assert "--id {1,2,3}" in capsys.readouterr().out
        assert tuple(TABLE_GRIDS) == (1, 2, 3)


class TestApprox:
    def test_t_value(self, capsys):
        code, out, _ = run_cli(capsys, "approx", "--n", "2", "--a", "1")
        assert code == 0
        assert float(out) == pytest.approx(t_even(1, 1.0), rel=1e-14, abs=0.0)

    def test_drz_method(self, capsys):
        code, out, _ = run_cli(capsys, "approx", "--n", "0", "--a", "1", "--method", "drz")
        assert code == 0
        assert float(out) == pytest.approx(0.033620220760461866, rel=1e-12, abs=0.0)

    def test_csv_layout(self, capsys):
        code, out, _ = run_cli(capsys, "approx", "--n", "0", "--a", "1", "--method", "drz", "--format", "csv")
        assert code == 0
        assert out == f"command,method,n,a,value\napprox,drz,0,1.0,{drz_approx(0, 1.0)!r}\n"

    def test_json_writes_non_finite_value_as_null(self, capsys):
        # T_2(a) ~ -0.071/a overflows to -inf at a subnormal a; text and csv
        # print it as it is
        code, out, _ = run_cli(capsys, "approx", "--n", "2", "--a", "1e-320", "--format", "json")
        assert code == 0
        assert strict_json(out)["value"] is None
        _, text, _ = run_cli(capsys, "approx", "--n", "2", "--a", "1e-320")
        assert text == "-inf\n"
        _, csv_out, _ = run_cli(capsys, "approx", "--n", "2", "--a", "1e-320", "--format", "csv")
        assert csv_out.splitlines()[1].endswith(",-inf")

    def test_drz_rejects_odd_index(self, capsys):
        code, _, err = run_cli(capsys, "approx", "--n", "3", "--a", "1", "--method", "drz")
        assert code == 1
        assert "even" in err


class TestBound:
    def test_value(self, capsys):
        code, out, _ = run_cli(capsys, "bound", "--n", "2", "--a", "1")
        assert code == 0
        assert float(out) == pytest.approx(bound_even(1, 1.0), rel=1e-14, abs=0.0)

    def test_estimate_warns_outside_window(self, capsys):
        # k=1: the window [pi/(2k), 2k/pi] = [1.57, 0.637] contains nothing; always warns
        code, out, err = run_cli(capsys, "bound", "--n", "2", "--a", "1", "--estimate")
        assert code == 0
        assert "warning" in err
        assert len(out.strip().splitlines()) == 2

    def test_estimate_quiet_inside_window(self, capsys):
        code, out, err = run_cli(capsys, "bound", "--n", "40", "--a", "1", "--estimate")
        assert code == 0
        assert err == ""

    @pytest.mark.parametrize("a", [5.0, 7.0])
    def test_estimate_window_is_symmetric_in_inverse(self, capsys, a):
        # k = 10: [pi/20, 20/pi] = [0.157, 6.37]; a and 1/a warn alike, as the
        # ratio of estimate to bound is the same at both
        _, _, err = run_cli(capsys, "bound", "--n", "20", "--a", str(a), "--estimate")
        _, _, err_inverse = run_cli(capsys, "bound", "--n", "20", "--a", str(1.0 / a), "--estimate")
        assert ("warning" in err) == ("warning" in err_inverse) == (a > 20.0 / math.pi)

    def test_csv_layout(self, capsys):
        code, out, _ = run_cli(capsys, "bound", "--n", "4", "--a", "2", "--format", "csv")
        assert code == 0
        assert out == f"command,n,a,bound\nbound,4,2.0,{bound(4, 2.0)!r}\n"

    def test_csv_layout_with_estimate(self, capsys):
        code, out, _ = run_cli(capsys, "bound", "--n", "4", "--a", "2", "--estimate", "--format", "csv")
        assert code == 0
        assert out == (
            "command,n,a,bound,estimate\n"
            f"bound,4,2.0,{bound(4, 2.0)!r},{bound_asymptotic(4, 2.0)!r}\n"
        )

    def test_estimate_requires_positive_k(self, capsys, monkeypatch):
        calls = _count_driver_calls(monkeypatch)
        code, _, err = run_cli(capsys, "bound", "--n", "1", "--a", "1", "--estimate")
        assert code == 1
        assert "k >= 1" in err
        assert calls == []  # rejected before B_1 is integrated

    @pytest.mark.parametrize(
        "index", [("--n", "21"), ("--k", "10", "--parity", "odd")], ids=["n", "k-parity"]
    )
    def test_estimate_rejects_odd_index(self, capsys, monkeypatch, index):
        # the estimate is of B_2k; printing it beside B_2k+1 would mislabel it
        calls = _count_driver_calls(monkeypatch)
        code, out, err = run_cli(capsys, "bound", *index, "--a", "1", "--estimate")
        assert code == 1
        assert out == ""
        assert "even n only" in err
        assert calls == []


class TestTable:
    def test_csv_layout(self, capsys):
        code, out, err = run_cli(capsys, "table", "--id", "1", "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "k,a,script_j,bound"
        assert len(lines) == 9
        assert not any(line != line.rstrip() for line in lines)
        assert "\r" not in out
        assert out.endswith("\n") and not out.endswith("\n\n")

    def test_csv_round_trip_is_byte_identical(self, capsys):
        _, out, _ = run_cli(capsys, "table", "--id", "1", "--format", "csv")
        reader = csv.DictReader(io.StringIO(out))
        lines = ["k,a,script_j,bound"]
        for record in reader:
            k = int(record["k"])
            a = float(record["a"])
            sj = float(record["script_j"])
            b = float(record["bound"])
            lines.append(f"{k},{a!r},{sj:.6e},{b:.6e}")
        assert "\n".join(lines) + "\n" == out

    def test_csv_matches_library_values(self, capsys):
        _, out, _ = run_cli(capsys, "table", "--id", "1", "--format", "csv")
        rows = reproduce_table(1)
        for line, row in zip(out.splitlines()[1:], rows):
            _, _, sj, b = line.split(",")
            assert float(sj) == pytest.approx(row.script_j, rel=1e-6, abs=0.0)
            assert float(b) == pytest.approx(row.bound, rel=1e-6, abs=0.0)

    @pytest.mark.parametrize(
        "table_id,digest",
        [
            (1, "ba581354bcf27168f17115652615f70cb4fb6234d99f1fe99a1cef7e43bb1055"),
            (2, "9896674c91fd2c4593594bec6954d3facc872fd756c22f5e8a33406511215b9f"),
            (3, "80ada92ad845ef5be8cbecf09f84ab9dc10170175eff96d15aa27b3ed9d9f514"),
        ],
    )
    def test_csv_golden_output(self, capsys, table_id, digest):
        # the published reproduction, byte for byte: any change to a table's
        # CSV must be deliberate and come with new digests
        code, out, _ = run_cli(capsys, "table", "--id", str(table_id), "--format", "csv")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--id", "3", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["id"] == 3
        assert len(payload["rows"]) == 16
        assert set(payload["rows"][0]) == {"k", "a", "script_j", "bound"}

    def test_text_uses_15_digits(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--id", "1")
        assert code == 0
        first = out.splitlines()[0].split()
        assert first[0] == "1"
        assert float(first[2]) == pytest.approx(1.2503290434108733e-5, rel=1e-9, abs=0.0)

    def test_invalid_id(self, capsys):
        code, _, err = run_cli(capsys, "table", "--id", "7")
        assert code == 1

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "table1.csv"
        code, out, _ = run_cli(capsys, "table", "--id", "1", "--format", "csv", "--out", str(target))
        assert code == 0
        assert out == ""
        _, direct, _ = run_cli(capsys, "table", "--id", "1", "--format", "csv")
        assert target.read_text() == direct

    def test_unwritable_out_path_is_an_error(self, tmp_path, capsys):
        target = tmp_path / "no" / "such" / "dir" / "x"
        code, out, err = run_cli(capsys, "eval", "--n", "1", "--a", "1", "--out", str(target))
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "No such file or directory" in err


class TestVerify:
    def test_exit_code_follows_overall(self, capsys):
        code, out, _ = run_cli(capsys, "verify")
        assert code == 0
        assert out.strip().endswith("overall: pass")
        assert "FAIL" not in out

    def test_json_report(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["command"] == "verify"
        assert payload["overall"] is True
        assert len(payload["checks"]) > 100

    def test_json_golden_output(self, capsys):
        # the identity suite's report, byte for byte, like the table CSVs:
        # a changed residual anywhere must be deliberate and come with a new
        # digest.  Re-frozen when G's quadrature nodes moved to six of its
        # decay lengths 1/z: 17 dominance residuals at n = 2-10 moved in
        # their last digits (each listed in CHANGES.md), and all pass.
        # Re-frozen when eps's quadrature integrated psi/sqrt(a) + phi under
        # 1/(4 pi sqrt(a)) and J's formed 2 pi (a x) x: 38 residuals
        # (dominance 18, consistency 10, sign 10) moved in their last digits
        # (each listed in CHANGES.md), and all pass.  Re-frozen when J's
        # quadrature integrated in y = x^2: 23 residuals (consistency 12,
        # modular 8, drz 3) moved (each listed in CHANGES.md), and all pass
        code, out, _ = run_cli(capsys, "verify", "--format", "json")
        assert code == 0
        digest = "59596f83eda0b7869353fd38f5b4086bc4d709c0ee49a3bed0cd26149f89e6f9"
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_json_check_names_and_order(self, capsys):
        _, out, _ = run_cli(capsys, "verify", "--format", "json")
        names = [c["name"] for c in json.loads(out)["checks"]]
        expected = [f"poisson/tau={tau}" for tau in ("0.05", "0.1", "0.5", "1", "2", "5", "20")]
        expected += [
            f"finite/{parity}/k={k}" for parity in ("even", "odd") for k in (0, 1, 2, 5, 10, 20, 30)
        ]
        expected += [
            f"consistency/n={n}/a={a}"
            for a in ("0.5", "1", "2")
            for n in range(1, 8)
            if a != "1" or n % 2 == 0  # odd eps_n(1) = 0 is skipped
        ]
        expected += [f"sign/even/k={k}/a={a}" for k in (1, 2, 3) for a in ("0.5", "1", "2")]
        expected += [
            f"sign/odd/k={k}/a={a}" for k in (0, 1) for a in ("0.25", "0.5", "0.9", "1.1", "2", "4")
        ]
        expected += [
            f"dominance/n={n}/a={a}" for n in (*range(1, 11), 20, 41) for a in ("0.5", "1", "2")
        ]
        expected += [
            f"modular/{parity}/k={k}/a={a}"
            for parity in ("even", "odd")
            for k in (0, 1, 2)
            for a in ("0.5", "2")
        ]
        expected += ["drz/relative-error/k=5", "drz/relative-error/k=10", "drz/error-growth"]
        assert len(names) == 110
        assert names == expected

    def test_csv_report(self, capsys, monkeypatch, default_suite_report):
        import ramanujan_integrals.cli as cli_module

        monkeypatch.setattr(cli_module, "run_suite", lambda: default_suite_report)
        code, out, _ = run_cli(capsys, "verify", "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "name,residual,tolerance,passed"
        assert lines[1:] == [
            f"{c.name},{c.residual!r},{c.tolerance!r},{c.passed}" for c in default_suite_report.checks
        ]
        records = list(csv.DictReader(io.StringIO(out)))
        assert [float(r["residual"]) for r in records] == [c.residual for c in default_suite_report.checks]
        assert out.endswith("\n") and not out.endswith("\n\n")

    def test_failure_exit_code(self, capsys, failing_suite):
        code, out, _ = run_cli(capsys, "verify")
        assert code == 2
        assert "FAIL" in out

    def test_json_writes_infinite_residual_as_null(self, capsys, failing_suite):
        code, out, _ = run_cli(capsys, "verify", "--format", "json")
        assert code == 2
        payload = strict_json(out)
        assert payload["overall"] is False
        assert payload["checks"][1] == {
            "name": "drz/error-growth", "residual": None, "tolerance": 0.0, "passed": False
        }
        # text and csv keep the infinite residual
        _, csv_out, _ = run_cli(capsys, "verify", "--format", "csv")
        assert csv_out.splitlines()[2] == "drz/error-growth,inf,0.0,False"
        _, text, _ = run_cli(capsys, "verify")
        assert "FAIL drz/error-growth residual=inf" in text


@pytest.fixture
def failing_suite(monkeypatch):
    """The CLI's ``run_suite`` returning a report whose one failing check is
    scored with an infinite residual, as a failed quadrature is."""
    import ramanujan_integrals.cli as cli_module

    checks = (
        CheckResult("poisson/tau=1", 0.0, 1e-13, True),
        CheckResult("drz/error-growth", math.inf, 0.0, False),
    )
    monkeypatch.setattr(cli_module, "run_suite", lambda: SuiteReport(checks, False))


def run_child(*argv):
    """Run a fresh interpreter that imports this same checkout of the package."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, env.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env)


def test_module_is_runnable():
    proc = run_child("-m", "ramanujan_integrals.cli", "approx", "--n", "1", "--a", "1")
    assert proc.returncode == 0
    assert proc.stdout.startswith("-0.02652582384864")

    proc = run_child("-m", "ramanujan_integrals.cli")
    assert proc.returncode == 1  # missing command is a parse error
    assert proc.stderr.startswith("error: the following arguments are required: command\n")


def test_main_module_invocation():
    proc = run_child(
        "-c",
        "from ramanujan_integrals.cli import main; raise SystemExit("
        "main(['eval', '--n', '1', '--a', '1']))",
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("0.02652582384864")
