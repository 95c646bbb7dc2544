#!/usr/bin/env python3
"""The Renaissance repo benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout. The first call configures and builds
perfbench/ (the library from src/ plus the trial programs) into
$CARGO_TARGET_DIR, default .bench_build/.

A run repeats trials of one workload for about --seconds seconds. Each trial
is a fresh process of the C++ trial program with its own trial seed, derived
from --seed, so the same --seed gives the same inputs. Set-up is sampled in
extra set-up-only processes as well, because a process sets up once.

--trace 0 prints the end-to-end metrics (medians over the run's trials).
--trace 1 runs every trial twice, untraced and traced, checks that both
produced the same deterministic outcome, and prints the per-layer metrics
of the traced trials plus the tracing overhead.

Human-readable lines go first; the last line of stdout is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
The exit code is nonzero when a trial fails a correctness or determinism
check, or when the program cannot be built.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ["wan_bootstrap", "fabric_churn", "rocketfuel_recovery",
             "fabric_churn_sharded"]
SETUP_SAMPLES = 15  # set-up measurements per run (trials + set-up-only)
RUN_LIMIT_S = 160   # a run must end within 180 s, so trial processes that
                    # would run past this are killed and count as failed
MIN_TRIALS = 1


def load_metrics():
    """name -> unit of the end-to-end and per-layer metrics, in the order
    BENCHMARK.json lists them (it sits at the root, next to perfbench/)."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


END_TO_END, PER_LAYER = load_metrics()


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build():
    """Configure and build perfbench/; returns the build directory."""
    if not os.path.isdir(os.path.join(ROOT, "src")):
        raise RuntimeError("no src/ next to perfbench/: not a full checkout")
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", out, "-j", jobs], check=True,
                   stdout=sys.stderr, stderr=sys.stderr)
    return out


def trial_seed(seed, i):
    """Seed of trial i of a run (SplitMix64 of the run seed and i)."""
    z = (seed + 0x9E3779B97F4A7C15 * (i + 1)) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return (z ^ (z >> 31)) >> 1  # fits a signed 64-bit JSON number exactly


class Runner:
    def __init__(self, bdir, size):
        self.bdir = bdir
        self.size = size
        self.deadline = time.monotonic() + RUN_LIMIT_S

    def trial(self, workload, seed, traced=False, setup_only=False,
              sim_threads=None, spans=None):
        exe = "perfbench_trial_traced" if traced else "perfbench_trial"
        cmd = [os.path.join(self.bdir, exe), "--workload", workload,
               "--seed", str(seed), "--size", self.size]
        if setup_only:
            cmd.append("--setup-only")
        if sim_threads:
            cmd += ["--sim-threads", str(sim_threads)]
        if spans:
            cmd += ["--spans", spans]
        try:
            p = subprocess.run(
                cmd, capture_output=True, text=True,
                timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            return {"ok": False, "errors": ["timed out"]}
        try:
            out = json.loads(p.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            out = {"ok": False, "errors": ["no result: " + p.stderr.strip()]}
        if p.returncode != 0:
            out["ok"] = False
            out.setdefault("errors", []).append("exit code %d" % p.returncode)
        return out


def median(values):
    return statistics.median(values) if values else 0.0


def mean(values):
    return statistics.fmean(values) if values else 0.0


def same_outcome(a, b):
    return a.get("det") == b.get("det")


def run_workload(runner, workload, seed, seconds, trace):
    """One benchmark run: (correct, attempted, failed, metrics, info,
    problems)."""
    start = time.monotonic()
    runner.deadline = start + RUN_LIMIT_S
    problems = []
    trials = []    # untraced trial results
    traced = []    # (untraced twin, traced, traced serial or None)
    setups = []
    i = 0
    while True:
        t0 = time.monotonic()
        s = trial_seed(seed, i)
        plain = runner.trial(workload, s)
        trials.append(plain)
        if trace:
            spans = None
            if i == 0:  # keep the spans of the run's first traced trial
                spans = os.path.join(runner.bdir, "spans", workload + ".tsv")
                os.makedirs(os.path.dirname(spans), exist_ok=True)
            tr = runner.trial(workload, s, traced=True, spans=spans)
            serial = None
            if workload == "fabric_churn_sharded":
                serial = runner.trial(workload, s, traced=True, sim_threads=1)
            traced.append((plain, tr, serial))
            for r in (tr, serial):
                if r is not None and not same_outcome(plain, r):
                    problems.append("trial %d: traced outcome differs from "
                                    "untraced" % i)
        elif workload == "fabric_churn_sharded" and i == 0:
            ref_start = time.monotonic()
            serial = runner.trial(workload, s, sim_threads=1)
            if not same_outcome(plain, serial):
                problems.append("trial 0: sharded outcome differs from serial")
            # The serial reference is not part of the measured budget.
            start += time.monotonic() - ref_start
            t0 += time.monotonic() - ref_start
        i += 1
        last = time.monotonic() - t0
        if len(trials) >= MIN_TRIALS and \
                time.monotonic() - start + last > seconds:
            break
    for r in trials:
        if r.get("ok") and "setup_s" in r.get("host", {}):
            setups.append(r["host"]["setup_s"])
    while len(setups) < SETUP_SAMPLES and time.monotonic() < runner.deadline:
        r = runner.trial(workload, trial_seed(seed, i), setup_only=True)
        i += 1
        if not r.get("ok"):
            problems.append("set-up failed: %s" % r.get("errors"))
            break
        setups.append(r["host"]["setup_s"])

    failed = 0
    for k, r in enumerate(trials):
        if not r.get("ok"):
            failed += 1
            problems.append("trial %d failed: %s" % (k, r.get("errors")))
    for _, tr, serial in traced:
        for r in (tr, serial):
            if r is not None and not r.get("ok"):
                problems.append("traced trial failed: %s" % r.get("errors"))
    good = [r for r in trials if r.get("ok")]
    info = e2e_info(good, setups)
    if trace:
        metrics = layer_metrics(traced)
    else:
        metrics = {k: info[k] for k in END_TO_END}
    correct = not problems and bool(good)
    return correct, len(trials), failed, metrics, info, problems


def e2e_info(good, setups):
    """Every end-to-end figure of a run, including the workload-specific ones
    that are not in the benchmark's gated set. Host figures are medians over
    the trials. Simulated figures are exact per trial seed but vary between
    seeds; a run reports their mean over its trial seeds, which spreads less
    from run to run than their median."""
    h = [r["host"] for r in good]
    d = [r["det"] for r in good]
    rec = [statistics.median(x["recovery_sim_s"]) for x in d
           if x["recovery_sim_s"]]
    flows = [x["arrivals"] / y["timeline_wall_s"] for x, y in zip(d, h)
             if x["arrivals"] > 0 and y["timeline_wall_s"] > 0]
    return {
        "trial_wall_s": median([x["trial_wall_s"] for x in h]),
        "sim_rate": median([x["timeline_sim_s"] / y["timeline_wall_s"]
                            for x, y in zip(d, h) if y["timeline_wall_s"] > 0]),
        "bootstrap_sim_s": mean([x["bootstrap_sim_s"] for x in d]),
        "cmds_per_node_iter": mean([x["cmds_per_node_iter"] for x in d]),
        "setup_s": median(setups),
        "peak_rss_mb": median([x["peak_rss_mb"] for x in h]),
        "flows_per_s": median(flows),
        "recovery_sim_s": mean(rec),
        "trials": len(good),
        "setup_samples": len(setups),
    }


def layer_metrics(traced):
    """Medians over the traced trials of every per-layer metric."""
    ok = [(p, t, s) for p, t, s in traced
          if p.get("ok") and t.get("ok") and same_outcome(p, t) and
          (s is None or (s.get("ok") and same_outcome(p, s)))]
    out = {}
    for name in PER_LAYER:
        vals = []
        for plain, tr, serial in ok:
            layers = tr["layers"]
            if name in layers:
                v = layers[name]
            elif name == "net.shard_overhead_s":
                v = (layers["net.run_until_s"] -
                     serial["layers"]["net.run_until_s"]) if serial else 0.0
            elif name == "trace.overhead_s":
                v = tr["host"]["trial_wall_s"] - plain["host"]["trial_wall_s"]
            elif name == "flows_per_s":
                wall = plain["host"]["timeline_wall_s"]
                v = plain["det"]["arrivals"] / wall if wall > 0 else 0.0
            elif name == "recovery_sim_s":
                rec = plain["det"]["recovery_sim_s"]
                v = statistics.median(rec) if rec else 0.0
            else:
                raise KeyError(name)
            vals.append(v)
        out[name] = median(vals)
    return out


def print_report(workload, seed, seconds, trace, info, metrics, problems):
    print("workload %s  seed %d  seconds %d  trace %d  trials %d  "
          "set-up samples %d" % (workload, seed, seconds, trace,
                                 info["trials"], info["setup_samples"]))
    units = dict(END_TO_END, flows_per_s="1/s", recovery_sim_s="s")
    for name, unit in units.items():
        print("  %-22s %14.6g %s" % (name, info[name], unit))
    if trace:
        for name, unit in PER_LAYER.items():
            print("  %-30s %14.6g %s" % (name, metrics[name], unit))
    for p in problems:
        print("  FAILED: " + p)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--all", action="store_true",
                    help="run every workload, one after another")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--size", choices=["full", "tiny"], default="full",
                    help="tiny: the smoke-test scale of every workload")
    args = ap.parse_args()
    if not args.all and not args.workload:
        ap.error("give --workload NAME or --all")
    try:
        runner = Runner(build(), args.size)
    except (RuntimeError, OSError, subprocess.CalledProcessError) as e:
        log("perfbench: build failed: %s" % e)
        return 1
    workloads = WORKLOADS if args.all else [args.workload]
    results = {}
    all_correct = True
    for w in workloads:
        correct, attempted, failed, metrics, info, problems = run_workload(
            runner, w, args.seed, args.seconds, args.trace)
        print_report(w, args.seed, args.seconds, args.trace, info, metrics,
                     problems)
        all_correct &= correct
        results[w] = {"correct": correct, "attempted": attempted,
                      "failed": failed,
                      "metrics": {k: {"value": v, "unit": units_of(k)}
                                  for k, v in metrics.items()}}
    if args.all:
        last = {"correct": all_correct,
                "attempted": sum(r["attempted"] for r in results.values()),
                "failed": sum(r["failed"] for r in results.values()),
                "metrics": {"%s.%s" % (w, k): v for w, r in results.items()
                            for k, v in r["metrics"].items()}}
    else:
        last = results[args.workload]
    sys.stdout.flush()
    print(json.dumps(last))
    return 0 if all_correct else 1


def units_of(name):
    return END_TO_END.get(name) or PER_LAYER[name]


if __name__ == "__main__":
    sys.exit(main())
