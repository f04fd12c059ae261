#!/usr/bin/env python3
"""Steadiness report: runs the benchmark repeatedly on one commit and prints,
for every end-to-end metric of every workload, the median and quartiles of
its values and their spread (Q3 - Q1) as a share of the median. A metric
whose spread exceeds its bound in BENCHMARK.json is flagged.

Run from the repository root:

    python3 perfbench/steady.py --runs 10                    # every workload
    python3 perfbench/steady.py --workload serve_mixed --runs 5 --out a.json
    python3 perfbench/steady.py --runs 10 --compare a.json   # median drift

Each run gets its own seed (--seed0, --seed0 + 1, ...). With --compare the
report also flags a metric whose median got worse than the earlier set's
median by more than its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(command, workload, seed, seconds):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(args, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: outputs were not correct: {result}")
    return result


def worse_by(metric, new, old):
    """How much worse `new` is than `old`, as a share of `old`."""
    change = (new - old) / old
    return change if metric["better"] == "lower" else -change


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", action="append",
                   help="workload to run (repeatable; default: all)")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seed0", type=int, default=1)
    p.add_argument("--seconds", type=float, help="default: run_seconds")
    p.add_argument("--out", help="write the raw values here as JSON")
    p.add_argument("--compare", help="an earlier --out file to compare medians with")
    a = p.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = a.workload or [w["name"] for w in bench["workloads"]]
    seconds = a.seconds or bench["run_seconds"]
    metrics = bench["end_to_end"]
    earlier = {}
    if a.compare:
        with open(a.compare) as f:
            earlier = json.load(f)

    values = {}
    flagged = 0
    for w in workloads:
        runs = []
        for i in range(a.runs):
            r = run_once(bench["command"], w, a.seed0 + i, seconds)
            runs.append(r)
            print(f"{w} seed {a.seed0 + i}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in r["metrics"].items()), flush=True)
        values[w] = {m["name"]: [r["metrics"][m["name"]]["value"] for r in runs]
                     for m in metrics}
        print(f"\n{w}: {a.runs} runs")
        print(f"  {'metric':14} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6}  flags")
        for m in metrics:
            v = values[w][m["name"]]
            q1, med, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0],) * 3
            spread = (q3 - q1) / med if med else float("inf")
            flags = []
            if spread > m["bound"]:
                flags.append("SPREAD>BOUND")
            elif spread > m["bound"] / 3:
                flags.append("spread>bound/3")
            old = earlier.get(w, {}).get(m["name"])
            if old:
                drift = worse_by(m, med, statistics.median(old))
                flags.append(f"drift={drift:+.3f}")
                if drift > m["bound"]:
                    flags.append("WORSE>BOUND")
            flagged += any(f.isupper() for f in flags)
            print(f"  {m['name']:14} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:8.4f} {m['bound']:6.3f}  {' '.join(flags)}")
        print()
    if a.out:
        with open(a.out, "w") as f:
            json.dump(values, f, indent=1)
    sys.exit(1 if flagged else 0)


if __name__ == "__main__":
    main()
