#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload cpu_transient --seeds 1-10 [--trace 0]

Runs the command from BENCHMARK.json once per seed (from the repository
root), checks every result line against the contract (keys, names,
units, correct == true), and prints for each metric the median, the
quartiles and the spread: (Q3 - Q1) / median, from
statistics.quantiles(values, n=4). Spreads are compared with each
end-to-end metric's bound and with a third of it. Exits non-zero when a
run fails, a result line is malformed or a spread exceeds its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def seeds_arg(text):
    out = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            out.extend(range(int(lo), int(hi) + 1))
        else:
            out.append(int(part))
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    ap.add_argument("--seconds", type=int, help="override run_seconds")
    args = ap.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    table = bench["per_layer" if args.trace else "end_to_end"]
    seconds = args.seconds or bench["run_seconds"]
    values = {m["name"]: [] for m in table}
    ok = True
    for seed in args.seeds:
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(seconds), "--trace", str(args.trace)]
        t0 = time.time()
        proc = subprocess.run(cmd, capture_output=True, text=True)
        took = time.time() - t0
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"seed {seed}: exit {proc.returncode}, no result line\n{proc.stderr}", file=sys.stderr)
            return 1
        problems = []
        if proc.returncode != 0:
            problems.append(f"exit code {proc.returncode}")
        if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
            problems.append(f"keys {sorted(result)}")
        if result.get("correct") is not True or result.get("failed") != 0 or result.get("attempted", 0) < 1:
            problems.append("not correct")
        metrics = result.get("metrics", {})
        if sorted(metrics) != sorted(values):
            problems.append(f"metric names {sorted(metrics)}")
        for m in table:
            got = metrics.get(m["name"], {})
            if got.get("unit") != m["unit"] or not isinstance(got.get("value"), (int, float)):
                problems.append(f"{m['name']}: {got}")
            else:
                values[m["name"]].append(got["value"])
        shown = " ".join(f"{k}={v['value']:.5g}" for k, v in metrics.items() if isinstance(v, dict) and "value" in v)
        print(f"seed {seed}: {took:.1f} s, exit {proc.returncode}: {shown}", flush=True)
        if problems:
            ok = False
            print(f"seed {seed}: " + "; ".join(problems), file=sys.stderr)

    if len(args.seeds) < 2:
        return 0 if ok else 1
    print(f"\n{'metric':<32} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for m in table:
        v = values[m["name"]]
        if len(v) < 2:
            continue
        q1, _, q3 = statistics.quantiles(v, n=4)
        med = statistics.median(v)
        spread = (q3 - q1) / med if med else float("inf") if q3 != q1 else 0.0
        bound = m.get("bound")
        verdict = ""
        if bound is not None:
            if spread > bound and m["name"] != "setup_s":
                verdict, ok = "OVER BOUND", False
            elif spread > bound / 3:
                verdict = "over a third of bound"
        print(f"{m['name']:<32} {med:>12.5g} {q1:>12.5g} {q3:>12.5g} {spread:>8.4f} "
              f"{bound if bound is not None else '':>6} {verdict}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
