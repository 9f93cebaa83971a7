"""Benchmark for ramanujan_integrals: one closed-loop client, one process.

    python3 bench/run.py --workload index-sweep --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
runs the same rounds untraced and then traced, and reports per-layer metrics.
``--workload all`` runs every workload in turn.  Every output is checked
against its reference; the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.

End-to-end times are CPU seconds of the process doing the work
(``time.process_time`` for library calls, child rusage for spawned
interpreters), calibrated against reference work timed during the same run,
since a shared machine's speed drifts: a fixed kernel loop for library calls,
a bare interpreter spawned beside each set-up spawn for setup_s.  Every pass
repeats the same calls, and each call counts by its mean over the repeats.  A
run makes whole passes, at least MIN_PASSES, and stops before a further pass
would take it past ``--seconds``.  The traced run reads the wall clock, which
is cheaper per span.

The library is imported from ``src/`` of the checkout this file sits in; the
benchmark exits with status 2, printing no result, when that is missing.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

import harness
import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")

MIN_PASSES = 2       # timed passes per run, so that every call is repeated
TRACE_MAX_ROUNDS = 8  # bounds span memory: a paper round records ~29 000 spans
SETUP_SPAWNS = 9     # (set-up, bare) interpreter pairs per run; setup_s uses their median ratio
AUX_SPAWNS = 3       # per traced-run subprocess measurement (cold tables, CLI)
SPAWN_TIMEOUT = 60

_SETUP_CHILD = "import sys\nsys.path.insert(0, sys.argv[1])\nimport ramanujan_integrals as lib\nexec(sys.argv[2])\n"
_COLD_CHILD = """import math, sys, time
sys.path.insert(0, sys.argv[1])
from ramanujan_integrals import AccuracyError, integrate

def timed(f, lo, hi):
    # tol = rel_tol = 0 is never met, so the call builds every level's nodes
    t0 = time.process_time()
    try:
        integrate(f, lo, hi, tol=0.0, rel_tol=0.0)
    except AccuracyError:
        pass
    return time.process_time() - t0

cold = 0.0
for f, lo, hi in ((lambda x: math.exp(-x) / (1.0 + x), 0.0, math.inf),
                  (lambda x: 1.0 / (1.0 + x * x), 0.0, 1.0)):
    first = timed(f, lo, hi)
    cold += first - timed(f, lo, hi)
print(repr(cold))
"""
# ``ramint eval --n 1 --a 1`` prints J_1(1) = 1/(12 pi).
_CLI_ARGS = ("-m", "ramanujan_integrals.cli", "eval", "--n", "1", "--a", "1")
_CLI_EXPECT = "0.0265258238486492"

END_TO_END_UNITS = {
    "setup_s": "s",
    "calls_per_s": "1/s",
    "call_p50_ms": "ms",
    "call_tail_ms": "ms",
    "quad_evals": "count",
    "ok_frac": "ratio",
    "trusted_frac": "ratio",
    "peak_rss_mb": "MB",
}


def load_library():
    """Import ramanujan_integrals from this checkout's src/ or exit 2."""
    if not os.path.isfile(os.path.join(SRC, "ramanujan_integrals", "__init__.py")):
        print(f"benchmark: no library sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import ramanujan_integrals as lib

    if os.path.dirname(os.path.dirname(os.path.abspath(lib.__file__))) != SRC:
        print(f"benchmark: imported {lib.__file__}, not the checkout's copy", file=sys.stderr)
        sys.exit(2)
    return lib


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def spawn(args, env=None) -> tuple[float, str]:
    """Run one child interpreter to completion; return (its CPU seconds, stdout)."""
    before = _children_cpu()
    done = subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=SPAWN_TIMEOUT, check=True,
    )
    return _children_cpu() - before, done.stdout


class Window:
    """Calls made round by round, each timed on its own.

    ``records`` holds (round, call, seconds, output, verdicts, span range) per
    call.  With ``whole_passes``, whole passes run, at least MIN_PASSES of
    them, until one more pass at the mean pace so far would end past
    ``seconds`` of ``clock`` time.  Otherwise rounds run until ``seconds``
    have passed.  Either way, no more than ``rounds`` rounds run.
    """

    def __init__(self, workload, *, seconds=None, rounds=None, whole_passes=True, counter=None, recorder=None,
                 clock=time.process_time):
        per_pass = workload.rounds_per_pass
        records = []
        self.first_pass_evals = self.first_pass_rss_mb = None
        self.kernel_times = []
        spans = recorder.spans if recorder is not None else None
        evals0 = counter.evaluations if counter is not None else 0
        start = clock()
        r = 0
        while True:
            for point in workload.round_calls(r):
                outputs = {}
                for call in point:
                    if call.needs is not None and not _usable(outputs.get(call.needs)):
                        continue
                    first_span = len(spans) if spans is not None else 0
                    t0 = clock()
                    try:
                        out = call.run(outputs)
                    except workload.lib.AccuracyError as exc:
                        out = exc
                    except Exception as exc:  # recorded; the run reports correct: false
                        traceback.print_exc(file=sys.stderr)
                        out = exc
                    elapsed = clock() - t0
                    outputs[call.kind] = out
                    span_range = (first_span, len(spans)) if spans is not None else None
                    records.append((r, call, elapsed, out, span_range))
                self.kernel_times.append(harness.kernel_seconds(clock))
            r += 1
            if r == per_pass:
                # Later passes only grow the harness's own records.
                self.first_pass_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
                if counter is not None:
                    self.first_pass_evals = counter.evaluations - evals0
            if rounds is not None and r >= rounds:
                break
            if seconds is not None:
                elapsed = clock() - start
                if whole_passes:
                    passes = r / per_pass
                    if r % per_pass == 0 and passes >= MIN_PASSES and elapsed * (passes + 1) / passes > seconds:
                        break
                elif elapsed >= seconds:
                    break
        self.wall = clock() - start
        self.rounds = r
        self.records = [(r, call, dt, out, call.check(out), sr) for r, call, dt, out, sr in records]


def _usable(out) -> bool:
    return isinstance(out, float) and math.isfinite(out) and out > 0.0


def judge(windows):
    """Verdict totals over the windows and whether the run can be trusted:
    no unexpected exception and bit-identical outputs for repeated inputs."""
    totals = workloads.Verdicts()
    seen = {}
    deterministic = True
    for window in windows:
        for _, call, _, out, verdicts, _ in window.records:
            totals.add(verdicts)
            fp = workloads.fingerprint(out)
            if seen.setdefault(call.key, fp) != fp:
                deterministic = False
                print(f"benchmark: {call.key} gave two different outputs", file=sys.stderr)
    correct = deterministic and totals.counts["error"] == 0
    return totals, correct


def end_to_end(lib, name: str, seed: int, seconds: float) -> dict:
    counter = harness.EvalCounter(lib)
    try:
        exec(workloads.WARM_UP[name], {"lib": lib})
        workload = workloads.Workload(lib, name, seed)
        setup, bare = [], []
        for _ in range(SETUP_SPAWNS):
            bare.append(spawn(["-c", "pass"])[0])
            setup.append(spawn(["-c", _SETUP_CHILD, SRC, workloads.WARM_UP[name]])[0])
        window = Window(workload, seconds=seconds, counter=counter)
    finally:
        counter.close()

    totals, correct = judge([window])
    first = workloads.Verdicts()
    for r, _, _, _, verdicts, _ in window.records:
        if r < workload.rounds_per_pass:
            first.add(verdicts)
    # The machine's speed drifts by up to 1.7x over tens of seconds, for the
    # library and the calibration kernel alike.  Every pass makes the same
    # calls, so each call is timed by its mean over the run's repeats and
    # scaled by the kernel's mean over the same run.
    scale = harness.KERNEL_REF_S / statistics.fmean(window.kernel_times)
    repeats = {}
    for _, call, dt, _, _, _ in window.records:
        repeats.setdefault(call.key, []).append(dt)
    times = [scale * statistics.fmean(repeats[call.key]) for _, call, _, _, _, _ in window.records]
    q = workloads.TAIL_PERCENTILE[name]
    values = {
        "setup_s": harness.PYTHON_START_REF_S * statistics.median(s / b for s, b in zip(setup, bare)),
        "calls_per_s": len(times) / sum(times),
        "call_p50_ms": 1e3 * statistics.median(times),
        "call_tail_ms": 1e3 * harness.percentile(times, q),
        "quad_evals": window.first_pass_evals,
        "ok_frac": first.counts["ok"] / first.attempted,
        "trusted_frac": 1.0 - first.counts["wrong"] / first.attempted,
        "peak_rss_mb": window.first_pass_rss_mb,
    }
    info = {
        "speed_scale": scale,
        "setup_uncalibrated_s": statistics.median(setup),
        "bare_interpreter_s": statistics.median(bare),
        "passes": window.rounds // workload.rounds_per_pass,
        "calls": len(times),
        "tail_percentile": q,
        "calls_beyond_tail": harness.beyond(len(times), q),
        "fail_frac": 1.0 - values["ok_frac"],
        "wrong_frac": 1.0 - values["trusted_frac"],
        "first_pass_operations": first.attempted,
        "verdicts": dict(totals.counts),
    }
    if info["calls_beyond_tail"] < 10:
        print(f"benchmark: only {info['calls_beyond_tail']} calls beyond p{q:g}", file=sys.stderr)
    metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    return {"correct": correct, "attempted": totals.attempted, "failed": totals.failed,
            "metrics": metrics, "info": info}


def _median_spawn(args, env=None, parse=None):
    runs = [spawn(args, env) for _ in range(AUX_SPAWNS)]
    return runs, statistics.median(parse(out) if parse else wall for wall, out in runs)


def per_layer(lib, name: str, seed: int, seconds: float) -> dict:
    exec(workloads.WARM_UP[name], {"lib": lib})
    workload = workloads.Workload(lib, name, seed)
    # Wall clock here: a CPU-time read costs ~0.5 us, too much at one span
    # per theta sum.
    clock = time.perf_counter
    plain = Window(workload, seconds=seconds / 2.0, rounds=TRACE_MAX_ROUNDS, whole_passes=False, clock=clock)
    recorder = harness.Recorder(lib, clock)
    try:
        traced = Window(workload, rounds=plain.rounds, recorder=recorder, clock=clock)
    finally:
        recorder.close()
    totals, correct = judge([plain, traced])

    spans = recorder.spans
    per_round = 1.0 / traced.rounds
    layers = harness.layer_totals(spans)

    def get(span_name, key):
        row = layers.get(span_name)
        return row[key] * per_round if row else 0

    m = {}
    for span_name in ("quadrature.j", "quadrature.eps"):
        evals = get(span_name, "evals")
        m[f"{span_name}.calls"] = (get(span_name, "calls"), "count")
        m[f"{span_name}.self_s"] = (get(span_name, "self_s"), "s")
        m[f"{span_name}.evals"] = (evals, "count")
        m[f"{span_name}.us_per_eval"] = (1e6 * get(span_name, "total_s") / evals if evals else 0.0, "us")

    j_checks = [v for _, call, _, _, verdicts, _ in traced.records if call.kind == "j" for v in verdicts]
    ratios = [r for _, r in j_checks if r is not None and math.isfinite(r)]
    m["quadrature.j.raised"] = (get("quadrature.j", "raised"), "count")
    m["quadrature.j.wrong"] = (sum(v == "wrong" for v, _ in j_checks) * per_round, "count")
    m["quadrature.j.err_over_est_max"] = (max(ratios, default=0.0), "ratio")

    # Evaluations are useful when spent in a call whose every operation was
    # right, and not in a quadrature that itself raised.
    roots = harness.root_of(spans)
    good_roots = set()
    for _, _, _, _, verdicts, (lo, hi) in traced.records:
        if all(v == "ok" for v, _ in verdicts):
            good_roots.update(i for i in range(lo, hi) if spans[i].parent < 0)
    all_evals = sum(s.evaluations for s in spans)
    useful = sum(s.evaluations for s, r in zip(spans, roots) if r in good_roots and not s.raised)
    m["quadrature.useful_eval_frac"] = (useful / all_evals if all_evals else 0.0, "ratio")

    for span_name in ("quadrature.u_scaled", "quadrature.finite"):
        m[f"{span_name}.evals"] = (get(span_name, "evals"), "count")
    for span_name in ("quadrature.u_scaled", "quadrature.finite", "specfun.gauss_f",
                      "specfun.gamma_half_ratio", "specfun.theta_psi", "approximants.t",
                      "approximants.bound", "approximants.drz", "approximants.ramanujan_i"):
        m[f"{span_name}.calls"] = (get(span_name, "calls"), "count")
        m[f"{span_name}.self_s"] = (get(span_name, "self_s"), "s")
    m["specfun.lambda_factor.calls"] = (recorder.counts.get("specfun.lambda_factor", 0) * per_round, "count")
    m["verify.reproduce_table.self_s"] = (get("verify.reproduce_table", "self_s"), "s")
    for group in lib.ALL_CHECK_GROUPS:
        m[f"verify.group.{group}.s"] = (get(f"verify.group.{group}", "total_s"), "s")

    _, cold = _median_spawn(["-c", _COLD_CHILD, SRC], parse=float)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH")))))
    cli_runs, cli = _median_spawn(list(_CLI_ARGS), env=env)
    if any(_CLI_EXPECT not in out for _, out in cli_runs):
        print("benchmark: ramint eval printed the wrong J_1(1)", file=sys.stderr)
        correct = False
    _, startup = _median_spawn(["-c", "pass"])
    m["quadrature.node_tables.cold_s"] = (cold, "s")
    m["cli.eval_process_s"] = (cli, "s")
    m["cli.python_startup_s"] = (startup, "s")

    covered = sum(s.end - s.start for s in spans if s.parent < 0)
    m["trace.overhead_frac"] = (traced.wall / plain.wall - 1.0, "ratio")
    m["trace.wall_s"] = (traced.wall * per_round, "s")
    m["trace.harness_s"] = ((traced.wall - covered) * per_round, "s")

    os.makedirs(OUT_DIR, exist_ok=True)
    # The first traced round is written out; later rounds only add volume.
    first_round_spans = max((sr[1] for r, _, _, _, _, sr in traced.records if r == 0), default=0)
    recorder.write(os.path.join(OUT_DIR, f"spans-{name}-{seed}.csv"), first_round_spans)
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in m.items()}
    info = {"rounds": traced.rounds, "spans": len(spans), "verdicts": dict(totals.counts)}
    return {"correct": correct, "attempted": totals.attempted, "failed": totals.failed,
            "metrics": metrics, "info": info}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    lib = load_library()
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    if any(n not in workloads.WORKLOADS for n in names):
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)} or all")

    measure = per_layer if args.trace else end_to_end
    results = {}
    for name in names:
        result = measure(lib, name, args.seed, args.seconds)
        results[name] = result
        for key, value in result["info"].items():
            print(f"{name:12s} {key:40s} {value}")
        for key, metric in result["metrics"].items():
            print(f"{name:12s} {key:40s} {metric['value']:.6g} {metric['unit']}")
        print(f"{name:12s} {'correct':40s} {result['correct']} "
              f"({result['failed']} of {result['attempted']} operations failed)")

    if len(names) == 1:
        result = results[names[0]]
        final = {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}/{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
