#!/usr/bin/env python3
"""Steadiness of the repo benchmark's end-to-end metrics.

    python3 perfbench/steadiness.py [--workloads a,b] [--runs 10]
                                    [--first-seed 1] [--seconds S]
                                    [--save FILE] [--against FILE]

Runs perfbench/run.py --trace 0 once per seed (first-seed, first-seed+1, ...)
for each workload, from the root of a checkout, and prints for every
end-to-end metric its median, first and third quartile over the runs
(statistics.quantiles(values, n=4)), the spread (q3 - q1) / median, and the
metric's bound from BENCHMARK.json.

  spread < 1/3            the target: below a third of the bound
  spread over 1/3 bound   within the bound, above the target
  SPREAD OVER BOUND       the benchmark would be refused (setup_s is exempt)

--save writes the raw values; --against reads values saved by an earlier set
of runs and checks that this set's median is not worse than that set's by
more than the bound, for every metric. The exit code is nonzero when a run
fails or a check does not hold.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def one_run(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    p = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    last = json.loads(p.stdout.strip().splitlines()[-1])
    if p.returncode != 0 or not last["correct"]:
        raise RuntimeError("%s seed %d failed:\n%s" % (workload, seed,
                                                       p.stdout))
    return {k: v["value"] for k, v in last["metrics"].items()}


def worse_by(metric, new, old):
    """How much worse `new` is than `old`, as a share of `old`."""
    if old == 0:
        return 0.0
    change = (new - old) / old
    return change if metric["better"] == "lower" else -change


def main():
    spec = load_spec()
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--save")
    ap.add_argument("--against")
    args = ap.parse_args()

    metrics = spec["end_to_end"]
    values = {}
    for w in args.workloads.split(","):
        values[w] = {m["name"]: [] for m in metrics}
        for k in range(args.runs):
            seed = args.first_seed + k
            t0 = time.monotonic()
            got = one_run(w, seed, args.seconds)
            for m in metrics:
                values[w][m["name"]].append(got[m["name"]])
            print("%s seed %d (%.1f s): %s" % (
                w, seed, time.monotonic() - t0, " ".join(
                    "%s=%.6g" % (m["name"], got[m["name"]]) for m in metrics)),
                file=sys.stderr, flush=True)
    if args.save:
        with open(args.save, "w") as f:
            json.dump(values, f, indent=1)
    prior = None
    if args.against:
        with open(args.against) as f:
            prior = json.load(f)

    ok = True
    print("%-22s %-20s %12s %12s %12s %8s %6s  %s" % (
        "workload", "metric", "median", "q1", "q3", "spread", "bound",
        "verdict"))
    for w, per_metric in values.items():
        for m in metrics:
            vals = per_metric[m["name"]]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            verdict = []
            if m["name"] != "setup_s":
                if spread > m["bound"]:
                    verdict.append("SPREAD OVER BOUND")
                    ok = False
                elif spread >= m["bound"] / 3:
                    verdict.append("spread over 1/3 bound")
                else:
                    verdict.append("spread < 1/3")
            if prior is not None and w in prior:
                old = statistics.median(prior[w][m["name"]])
                drift = worse_by(m, med, old)
                if drift > m["bound"]:
                    verdict.append("MEDIAN WORSE BY %.3f" % drift)
                    ok = False
                else:
                    verdict.append("median vs prior %+.3f" % -drift)
            print("%-22s %-20s %12.6g %12.6g %12.6g %8.4f %6.3f  %s" % (
                w, m["name"], med, q1, q3, spread, m["bound"],
                ", ".join(verdict)))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
