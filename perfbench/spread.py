#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

Run from the root of a checkout:

    python3 perfbench/spread.py --workload fullchip --seeds 1-10 [--trace 0]

For every metric it prints the median of the runs and the distance
between the first and third quartile as a share of that median (as
statistics.quantiles(values, n=4) gives them), next to the metric's
bound from BENCHMARK.json. Each run's result line is appended to
.bench_build/spread/<workload>.jsonl.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def seeds(spec):
    if "-" in spec:
        lo, hi = spec.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",")]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    out_dir = os.path.join(".bench_build", "spread")
    os.makedirs(out_dir, exist_ok=True)
    log = open(os.path.join(out_dir, args.workload + ".jsonl"), "a")
    values = {}
    for seed in seeds(args.seeds):
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(bench["run_seconds"]), "--trace", args.trace]
        t0 = time.monotonic()
        run = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        wall = time.monotonic() - t0
        if run.returncode != 0:
            print(run.stderr, file=sys.stderr)
            return 1
        line = json.loads(run.stdout.strip().splitlines()[-1])
        log.write(json.dumps({"seed": seed, "result": line}) + "\n")
        log.flush()
        if not line["correct"]:
            print("seed %d: %d of %d operations failed" % (seed, line["failed"], line["attempted"]))
        for name, m in line["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print("seed %d (%.1fs): %s" % (seed, wall, " ".join("%s=%.5g" % (n, m["value"]) for n, m in sorted(line["metrics"].items()))))
    for name, vs in sorted(values.items()):
        med = statistics.median(vs)
        spread = float("nan")
        if len(vs) >= 2 and med != 0:
            q = statistics.quantiles(vs, n=4)
            spread = (q[2] - q[0]) / abs(med)
        print("%-28s median=%-14.6g spread=%.4f bound=%s n=%d" % (name, med, spread, bounds.get(name), len(vs)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
