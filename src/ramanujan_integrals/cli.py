"""Command-line front end.

Commands: ``eval`` (J_n(a) and its error estimate), ``approx`` (closed-form
approximant), ``bound`` (remainder bound, optionally with the large-k
estimate), ``table`` (reference-table reproduction) and ``verify`` (identity
suite).  Output formats: text (15 significant digits), csv, json.

Exit codes: 0 success, 1 parse, domain or output-file error (reported as
``error: ...``), 2 identity-suite failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

from .approximants import approximant, bound, bound_asymptotic, drz_approx
from .quadrature import DEFAULT_TOL, AccuracyError, IntegralParams, j_integral
from .verify import TABLE_GRIDS, reproduce_table, run_suite

__all__ = ["main", "entrypoint"]

_USAGE_HINT = "run 'ramint <command> --help' for usage"


class _CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; route through _CliError so
    # main() can keep exit code 1 for parse problems and 2 for suite failure.
    def error(self, message: str):
        raise _CliError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="ramint", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_index_args(p: _Parser) -> None:
        p.add_argument("--n", type=int, help="full index n (parity inferred)")
        p.add_argument("--k", type=int, help="half index k, used with --parity")
        p.add_argument("--parity", choices=("even", "odd"), help="parity for --k")
        p.add_argument("--a", type=float, required=True, help="scale a > 0")
        add_output_args(p)

    def add_output_args(p: _Parser) -> None:
        p.add_argument("--format", choices=("text", "csv", "json"), default="text")
        p.add_argument("--out", help="write output to this path instead of stdout")

    p_eval = sub.add_parser("eval", help="J_n(a) with its error estimate")
    add_index_args(p_eval)
    p_eval.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p_approx = sub.add_parser("approx", help="closed-form approximant T_n(a)")
    add_index_args(p_approx)
    p_approx.add_argument(
        "--method",
        choices=("t", "drz"),
        default="t",
        help="t: exact-remainder approximant; drz: quartic-root formula (even n)",
    )
    p_bound = sub.add_parser("bound", help="remainder bound B_n(a)")
    add_index_args(p_bound)
    p_bound.add_argument(
        "--estimate", action="store_true", help="also print the large-k estimate (even n only)"
    )
    p_table = sub.add_parser("table", help="reproduce a reference table")
    p_table.add_argument("--id", type=int, required=True, choices=tuple(TABLE_GRIDS))
    add_output_args(p_table)
    p_verify = sub.add_parser("verify", help="run the identity suite")
    add_output_args(p_verify)
    return parser


def _resolve_index(args) -> int:
    if args.n is not None:
        if args.k is not None or args.parity is not None:
            raise _CliError("give either --n or --k with --parity, not both")
        return args.n
    if args.k is None or args.parity is None:
        raise _CliError("missing index: give --n, or --k with --parity")
    if args.k < 0:
        raise _CliError("--k must be non-negative")
    return 2 * args.k if args.parity == "even" else 2 * args.k + 1


def _json_safe(value):
    """``value`` with every non-finite float replaced by None: json has no
    inf or nan, and ``json.dumps`` would write them as bare tokens."""
    if isinstance(value, dict):
        return {key: _json_safe(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_json_safe(item) for item in value]
    return None if isinstance(value, float) and not math.isfinite(value) else value


def _emit(args, payload: dict, csv_lines: list[str], text_lines: list[str]) -> None:
    """Write ``payload`` as one json line (non-finite numbers as null), or the
    csv or text lines, to ``--out`` or stdout."""
    json_line = json.dumps(_json_safe(payload), allow_nan=False)
    lines = {"json": [json_line], "csv": csv_lines, "text": text_lines}[args.format]
    text = "\n".join(lines) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        with open(args.out, "w", newline="") as handle:
            handle.write(text)


def _scalar_output(args, fields: dict, *shown: float) -> int:
    """Emit one command's result: ``shown`` one per line as text, else every
    field as a json object or a csv header and row."""
    csv_lines = [",".join(fields), ",".join(map(str, fields.values()))]
    _emit(args, fields, csv_lines, [f"{value:.15g}" for value in shown])
    return 0


def _cmd_eval(args) -> int:
    n = _resolve_index(args)
    result = j_integral(IntegralParams(n, args.a, args.tol))
    fields = {
        "command": "eval",
        "n": n,
        "a": args.a,
        "value": result.value,
        "abs_error_estimate": result.abs_error_estimate,
        "evaluations": result.evaluations,
    }
    return _scalar_output(args, fields, result.value)


def _cmd_approx(args) -> int:
    n = _resolve_index(args)
    value = (drz_approx if args.method == "drz" else approximant)(n, args.a)
    fields = {"command": "approx", "method": args.method, "n": n, "a": args.a, "value": value}
    return _scalar_output(args, fields, value)


def _cmd_bound(args) -> int:
    n = _resolve_index(args)
    # the estimate first: an index it rejects costs no quadrature
    estimate = bound_asymptotic(n, args.a) if args.estimate else None
    value = bound(n, args.a)
    fields = {"command": "bound", "n": n, "a": args.a, "bound": value}
    if not args.estimate:
        return _scalar_output(args, fields, value)
    # [pi/(2k), 2k/pi] with n = 2k: symmetric in a <-> 1/a, as B and the estimate are
    lo, hi = math.pi / n, n / math.pi
    if not (lo <= args.a <= hi):
        sys.stderr.write(
            f"warning: a={args.a:g} is outside [pi/(2k), 2k/pi] = "
            f"[{lo:.3g}, {hi:.3g}]; the large-k estimate degrades there\n"
        )
    fields["estimate"] = estimate
    return _scalar_output(args, fields, value, estimate)


def _cmd_table(args) -> int:
    rows = reproduce_table(args.id)
    payload = {"command": "table", "id": args.id, "rows": [dataclasses.asdict(r) for r in rows]}
    csv_lines = ["k,a,script_j,bound"]
    csv_lines += [f"{r.k},{r.a!r},{r.script_j:.6e},{r.bound:.6e}" for r in rows]
    text_lines = [f"{r.k} {r.a:.15g} {r.script_j:.15g} {r.bound:.15g}" for r in rows]
    _emit(args, payload, csv_lines, text_lines)
    return 0


def _cmd_verify(args) -> int:
    report = run_suite()
    csv_lines = ["name,residual,tolerance,passed"]
    csv_lines += [f"{c.name},{c.residual!r},{c.tolerance!r},{c.passed}" for c in report.checks]
    text_lines = [
        f"{'pass' if c.passed else 'FAIL'} {c.name} residual={c.residual:.3g} "
        f"tolerance={c.tolerance:.3g}"
        for c in report.checks
    ]
    text_lines.append(f"overall: {'pass' if report.overall else 'FAIL'}")
    _emit(args, {"command": "verify", **report.to_dict()}, csv_lines, text_lines)
    return 0 if report.overall else 2


_COMMANDS = {
    "eval": _cmd_eval,
    "approx": _cmd_approx,
    "bound": _cmd_bound,
    "table": _cmd_table,
    "verify": _cmd_verify,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except (_CliError, ValueError, AccuracyError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n{_USAGE_HINT}\n")
        return 1


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
