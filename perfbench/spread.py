#!/usr/bin/env python3
"""Run one workload under several seeds and report each metric's spread.

Usage, from the repository root:

    python3 perfbench/spread.py --workload repro-sweep --seeds 1,2,3,4,5 --seconds 25

For every metric it prints the median of the runs, the interquartile range
as a share of the median (statistics.quantiles, n=4) and, for end-to-end
metrics, the bound from BENCHMARK.json next to it.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1,2,3,4,5")
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bounds = {m["name"]: m["bound"] for m in json.load(f)["end_to_end"]}
    values = {}
    for seed in args.seeds.split(","):
        cmd = ["bash", "perfbench/run.sh", "--workload", args.workload, "--seed", seed,
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        out = subprocess.run(cmd, capture_output=True, text=True)
        last = out.stdout.strip().splitlines()[-1] if out.stdout.strip() else "{}"
        res = json.loads(last)
        if out.returncode != 0 or not res.get("correct"):
            sys.stderr.write(out.stderr)
            sys.exit(f"seed {seed}: run failed (exit {out.returncode})")
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + ", ".join(f"{k}={v['value']:.4g}" for k, v in sorted(res["metrics"].items())
                                          if k in bounds), flush=True)
    for name in sorted(values):
        xs = values[name]
        med = statistics.median(xs)
        spread = 0.0
        if len(xs) >= 2 and med:
            q = statistics.quantiles(xs, n=4)
            spread = abs(q[2] - q[0]) / abs(med)
        bound = bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s" and spread > bound / 3:
            flag = "  <-- above a third of the bound"
        print(f"{name:40s} median {med:14.6g}  spread {spread:7.4f}"
              + (f"  bound {bound}" if bound is not None else "") + flag)


if __name__ == "__main__":
    main()
