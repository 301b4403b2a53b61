#!/usr/bin/env python3
"""Runs the benchmark once per seed, one process each, and prints every
metric's median, quartiles and spread (the interquartile distance as a
share of the median, by statistics.quantiles(values, n=4)) beside the
bound BENCHMARK.json gives it.

    python3 perfbench/spread.py --workload fleet --seeds 1-10
    python3 perfbench/spread.py --workload refine --seeds 1-5 --trace 1

Run it from the root of the repository. Each run's result line is kept
in .bench_build/spread-<workload>.jsonl.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    os.makedirs(".bench_build", exist_ok=True)
    log = open(f".bench_build/spread-{args.workload}.jsonl", "a")
    runs = []
    for seed in seeds(args.seeds):
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(bench["run_seconds"]), "--trace", args.trace]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        calib = [l for l in proc.stderr.splitlines() if "calibration" in l]
        last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "{}"
        res = json.loads(last)
        runs.append(res)
        log.write(json.dumps({"seed": seed, "result": res}) + "\n")
        log.flush()
        print(f"seed {seed}: exit {proc.returncode}, correct {res.get('correct')}, "
              f"attempted {res.get('attempted')}, failed {res.get('failed')}; "
              f"{calib[-1].split(': ')[-1] if calib else ''}", flush=True)
    names = sorted({k for r in runs for k in r.get("metrics", {})})
    print(f"{'metric':32} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
    for name in names:
        xs = [r["metrics"][name]["value"] for r in runs if name in r.get("metrics", {})]
        if len(xs) < 2:
            continue
        q1, _, q3 = statistics.quantiles(xs, n=4)
        med = statistics.median(xs)
        sp = (q3 - q1) / abs(med) if med else float("inf")
        b = bounds.get(name)
        flag = "" if b is None else ("  ok" if sp <= b / 3 else ("  >1/3" if sp <= b else "  OVER"))
        print(f"{name:32} {med:14.6g} {q1:14.6g} {q3:14.6g} {sp:8.4f} {b if b is not None else '':>6}{flag}")
    fails = {(r.get("failed", 0), r.get("attempted", 0)) for r in runs}
    print(f"failed/attempted per run: {sorted(fails)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
