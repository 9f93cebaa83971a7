"""Run the benchmark on several seeds and report, per end-to-end metric, the
median and the interquartile spread as a share of the median, against the
bound in BENCHMARK.json.

    python3 bench/steady.py --workload index-sweep --seeds 1-10

Each run lasts run_seconds from BENCHMARK.json.  A metric is steady when its
spread is below a third of its bound.  Exits 1 when some metric is not steady.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

from harness import spread  # noqa: E402


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        cmd = [*spec["command"], "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True).stdout
        result = json.loads(out.strip().splitlines()[-1])
        row = {k: m["value"] for k, m in result["metrics"].items()}
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}/{result['attempted']} "
              + " ".join(f"{k}={v:.6g}" for k, v in row.items()), flush=True)
        for k, v in row.items():
            values.setdefault(k, []).append(v)

    steady = True
    summary = {"workload": args.workload, "seconds": seconds, "seeds": args.seeds, "median": {}, "spread": {}}
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        s = spread(values[name])
        ok = s < bound / 3.0
        steady &= ok
        summary["median"][name] = statistics.median(values[name])
        summary["spread"][name] = s
        print(f"{name:14s} median {statistics.median(values[name]):.6g} {metric['unit']:6s} "
              f"spread {s:.4f}  bound {bound:g}  {'ok' if ok else 'NOT STEADY'}")
    summary["per_seed"] = {k: values[k] for k in ("quad_evals", "ok_frac", "trusted_frac")}
    print(json.dumps(summary))
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
