#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py WORKLOAD [--seeds 1-10] [--seconds S]

Runs `perfbench/run.py --workload WORKLOAD --trace 0` once per seed and
prints, per metric, the median and the spread: the distance between the
first and third quartiles (statistics.quantiles, n=4) as a share of the
median, next to the metric's bound from BENCHMARK.json.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("workload")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int)
    a = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    seconds = a.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values = {}
    for seed in seeds(a.seeds):
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", a.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True)
        last = out.stdout.strip().splitlines()[-1] if out.stdout.strip() else ""
        if out.returncode != 0 or not last.startswith("{"):
            sys.exit("seed %d failed (exit %d): %s" % (seed, out.returncode, out.stderr[-2000:]))
        r = json.loads(last)
        meta = json.loads(out.stdout.strip().splitlines()[-2])
        print("seed %d: steal=%.3f correct=%s attempted=%d failed=%d  %s" % (
            seed, meta["host"]["cpu_steal_share"], r["correct"], r["attempted"], r["failed"],
            " ".join("%s=%.4g" % (k, v["value"]) for k, v in r["metrics"].items())),
            flush=True)
        for k, v in r["metrics"].items():
            values.setdefault(k, []).append(v["value"])
    for k, vs in values.items():
        med = statistics.median(vs)
        q = statistics.quantiles(vs, n=4) if len(vs) > 1 else [vs[0]] * 3
        spread = (q[2] - q[0]) / med if med else float("inf")
        print("%-18s median %-12.6g spread %.4f  bound %s  %s" % (
            k, med, spread, bounds.get(k), "ok" if spread < bounds.get(k, 0) / 3 else "WIDE"))


if __name__ == "__main__":
    main()
