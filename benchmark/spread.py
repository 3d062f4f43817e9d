#!/usr/bin/env python3
"""Steadiness check of the benchmark, the way its acceptance protocol runs it.

Runs BENCHMARK.json's command ten times on each workload, each time with
another --seed, and prints for every end-to-end metric the distance between
the first and third quartile of its ten values (statistics.quantiles, n=4) as
a share of their median, beside the metric's bound. Run it from the root of
the repository:

    python3 benchmark/spread.py [--runs 10] [--first-seed 1] [--json out.json]
"""
import argparse
import json
import statistics
import subprocess
import sys
import time


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--json", help="write every value measured to this file")
    args = ap.parse_args()

    spec = json.load(open("BENCHMARK.json"))
    values = {}  # workload -> metric -> [value per seed]
    rounds = {}  # workload -> metric -> [[value per round] per seed]
    for wl in (w["name"] for w in spec["workloads"]):
        values[wl] = {}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = spec["command"] + ["--workload", wl, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            start = time.time()
            out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
            res = json.loads(out.strip().splitlines()[-1])
            if not res["correct"] or res["failed"]:
                sys.exit(f"{wl} seed {seed}: {res['failed']} of {res['attempted']} operations failed")
            for name, m in res["metrics"].items():
                values[wl].setdefault(name, []).append(m["value"])
            for line in out.splitlines():
                if " rounds: " in line:
                    name, rest = line.split()[0], line.split(" rounds: ")[1]
                    rounds.setdefault(wl, {}).setdefault(name, []).append([float(x) for x in rest.split()])
            print(f"{wl} seed {seed}: {time.time() - start:.1f}s", file=sys.stderr)

    if args.json:
        json.dump({"values": values, "rounds": rounds}, open(args.json, "w"), indent=1)
    worst = 0.0
    print(f"{'workload':14} {'metric':24} {'median':>12} {'spread %':>9} {'bound %':>8}")
    for wl, metrics in values.items():
        for m in spec["end_to_end"]:
            xs = metrics[m["name"]]
            q = statistics.quantiles(xs, n=4)
            med = statistics.median(xs)
            spread = (q[2] - q[0]) / med
            flag = ""
            if m["name"] != "setup_s":
                worst = max(worst, spread / m["bound"])
                flag = "  > bound" if spread > m["bound"] else ("  > bound/3" if spread > m["bound"] / 3 else "")
            print(f"{wl:14} {m['name']:24} {med:12.6g} {100 * spread:9.2f} {100 * m['bound']:8.0f}{flag}")
    print(f"worst spread is {worst:.2f} of its bound")


if __name__ == "__main__":
    main()
