#!/usr/bin/env python3
"""Steadiness check for the benchmark, the way its harness judges it.

Runs every workload of BENCHMARK.json ten times (or --runs N), each with
another --seed, and prints for each end-to-end metric the distance between
the first and third quartile of its values as a share of their median,
next to the metric's bound. Exits non-zero when a spread other than
setup_s's exceeds its bound. Run from the checkout root:

    python3 bench/spread.py [--runs 10] [--workload W] [--first-seed 1]
"""
import argparse
import json
import statistics
import subprocess
import sys
import time


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    ok = True
    for w in workloads:
        values = {m["name"]: [] for m in bench["end_to_end"]}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = bench["command"] + ["--workload", w, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            t = time.time()
            out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
            result = json.loads(out.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                print(f"{w} seed {seed}: incorrect or failed operations", file=sys.stderr)
                ok = False
            for name, m in result["metrics"].items():
                values[name].append(m["value"])
            shown = " ".join(f"{n}={m['value']:.4g}" for n, m in result["metrics"].items())
            print(f"# {w} seed {seed}: {time.time() - t:.1f} s wall  {shown}", flush=True)
        for m in bench["end_to_end"]:
            v = values[m["name"]]
            q1, q2, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / q2
            over = spread > m["bound"] and m["name"] != "setup_s"
            ok &= not over
            print(f"{w:<22} {m['name']:<22} median {q2:>12.4f} {m['unit']:<6} "
                  f"spread {spread:7.4f}  bound {m['bound']:.2f}"
                  f"  {'OVER' if over else 'third' if spread > m['bound'] / 3 else 'ok'}", flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
