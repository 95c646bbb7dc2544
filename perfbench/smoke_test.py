#!/usr/bin/env python3
"""Smoke test of the repo benchmark.

    python3 perfbench/smoke_test.py

Runs every workload at its tiny size (--size tiny) through the same code as
the real benchmark, untraced and traced, and checks that every metric of
BENCHMARK.json is printed with its unit, that the metric list still holds
every name the benchmark defines, that a fixed seed repeats its
deterministic outputs exactly, and that failures and outcome mismatches
make a run incorrect. Takes about a minute, most of it the first build.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402

# The metrics the benchmark defines. BENCHMARK.json may list more, not fewer.
END_TO_END = ["trial_wall_s", "sim_rate", "bootstrap_sim_s",
              "cmds_per_node_iter", "setup_s", "peak_rss_mb"]
WORKLOAD_SPECIFIC = ["flows_per_s", "recovery_sim_s"]
PER_LAYER = [
    "net.run_until_s", "net.self_s", "net.events", "net.events_per_s",
    "net.ns_per_event", "net.packets_sent", "net.packets_delivered",
    "net.drops", "net.control_bytes", "net.shard_overhead_s", "net.windows",
    "transport.retransmissions", "transport.retx_ratio", "transport.sessions",
    "detect.rounds", "detect.liveness_changes",
    "core.iteration_s", "core.self_s", "core.iterations",
    "core.iteration_us_p50", "core.iteration_us_p99", "core.fanout_s",
    "core.allocs_per_iteration", "core.view_hit_ratio", "core.view_rebuilds",
    "core.planner_reuse_ratio", "core.planner_full_plans", "core.commands",
    "core.messages", "core.replies_discarded_ratio",
    "monitor.check_s", "monitor.checks", "monitor.short_circuit_ratio",
    "monitor.reference_compiles", "monitor.walk_sweeps",
    "monitor.oracle_maxflow_runs",
    "flows.compile_ms", "flows.churn_gen_s", "flows.arrivals",
    "switchd.flow_ops_s", "switchd.ns_per_flow_op", "switchd.installs",
    "switchd.evictions", "switchd.eviction_ratio", "switchd.overflow_rejects",
    "switchd.lookups", "switchd.lookup_cost", "switchd.peak_rules",
    "topo.resolve_s", "sim.build_s", "faults.inject_s", "trace.overhead_s",
] + WORKLOAD_SPECIFIC


def bench(*args, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
           "--size", "tiny", "--seconds", "1"] + list(args)
    p = subprocess.run(cmd, capture_output=True, text=True, cwd=cwd,
                       timeout=900)
    return p


def last_json(p):
    return json.loads(p.stdout.strip().splitlines()[-1])


class Names(unittest.TestCase):
    def test_benchmark_json_lists_every_metric(self):
        self.assertEqual(list(run.END_TO_END), END_TO_END)
        for name in PER_LAYER:
            self.assertIn(name, run.PER_LAYER)


class Workloads(unittest.TestCase):
    def check_line(self, p, expected):
        self.assertEqual(p.returncode, 0, p.stdout + p.stderr)
        line = last_json(p)
        self.assertEqual(sorted(line), ["attempted", "correct", "failed",
                                        "metrics"])
        self.assertTrue(line["correct"], p.stdout)
        self.assertGreaterEqual(line["attempted"], 1)
        self.assertEqual(line["failed"], 0)
        self.assertEqual(sorted(line["metrics"]), sorted(expected))
        for name, m in line["metrics"].items():
            self.assertEqual(m["unit"], expected[name], name)
            self.assertTrue(math.isfinite(m["value"]), name)
        return line

    def test_every_workload_untraced_and_traced(self):
        for w in run.WORKLOADS:
            with self.subTest(workload=w):
                p = bench("--workload", w, "--seed", "7", "--trace", "0")
                line = self.check_line(p, run.END_TO_END)
                for name in END_TO_END:
                    if name != "setup_s":
                        self.assertGreater(line["metrics"][name]["value"], 0)
                self.assertIn("seed 7", p.stdout)
                for name in WORKLOAD_SPECIFIC:
                    self.assertIn(name, p.stdout)
                p = bench("--workload", w, "--seed", "7", "--trace", "1")
                self.check_line(p, run.PER_LAYER)

    def test_fixed_seed_repeats_deterministic_outputs(self):
        bdir = run.build()
        runner = run.Runner(bdir, "tiny")
        for w in ("rocketfuel_recovery", "fabric_churn_sharded"):
            a = runner.trial(w, 11)
            b = runner.trial(w, 11)
            self.assertTrue(a["ok"], a)
            self.assertEqual(a["det"], b["det"])
            self.assertNotEqual(a["det"], runner.trial(w, 12)["det"])

    def test_all_runs_every_workload(self):
        p = bench("--all", "--trace", "0")
        self.assertEqual(p.returncode, 0, p.stdout + p.stderr)
        line = last_json(p)
        self.assertTrue(line["correct"])
        for w in run.WORKLOADS:
            self.assertIn("%s.trial_wall_s" % w, line["metrics"])

    def test_refuses_without_the_program(self):
        # A directory with only BENCHMARK.json and perfbench/ cannot build.
        tmp = os.path.join(run.build_dir(), "smoke_no_program")
        shutil.rmtree(tmp, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
        try:
            p = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "fabric_churn", "--seed", "1", "--seconds", "1",
                 "--trace", "0"], capture_output=True, text=True, cwd=tmp,
                timeout=180, env=dict(os.environ, CARGO_TARGET_DIR="build"))
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        self.assertNotEqual(p.returncode, 0)
        self.assertNotIn('"correct"', p.stdout)


class FailurePaths(unittest.TestCase):
    """run_workload against a stub runner: the accounting, not the program."""

    class Stub:
        bdir = run.build_dir()

        def __init__(self, results):
            self.results = results

        def trial(self, workload, seed, traced=False, setup_only=False,
                  sim_threads=None, spans=None):
            r = json.loads(json.dumps(self.results[traced]))
            if setup_only:
                return {"ok": True, "host": {"setup_s": 0.001}}
            return r

    GOOD = {"ok": True, "errors": [],
            "det": {"bootstrap_sim_s": 0.3, "recovery_sim_s": [0.2],
                    "cmds_per_node_iter": 2.5, "timeline_sim_s": 1.0,
                    "arrivals": 10, "counters_fp": "00"},
            "host": {"setup_s": 0.001, "trial_wall_s": 0.5,
                     "timeline_wall_s": 0.4, "peak_rss_mb": 8.0}}

    def test_failed_trial_makes_the_run_incorrect(self):
        bad = dict(self.GOOD, ok=False, errors=["no legitimacy"])
        correct, attempted, failed, _, _, problems = run.run_workload(
            self.Stub({False: bad}), "fabric_churn", 1, 0, trace=0)
        self.assertFalse(correct)
        self.assertEqual((attempted, failed), (1, 1))
        self.assertTrue(problems)

    def test_sharded_mismatch_makes_the_run_incorrect(self):
        class Flaky(self.Stub):
            def trial(self, workload, seed, sim_threads=None, **kw):
                r = super().trial(workload, seed, **kw)
                if sim_threads == 1:
                    r["det"]["counters_fp"] = "ff"
                return r
        correct, _, failed, _, _, problems = run.run_workload(
            Flaky({False: self.GOOD}), "fabric_churn_sharded", 1, 0, trace=0)
        self.assertFalse(correct)
        self.assertEqual(failed, 0)
        self.assertIn("sharded", problems[0])

    def test_traced_mismatch_makes_the_run_incorrect(self):
        traced = json.loads(json.dumps(self.GOOD))
        traced["det"]["bootstrap_sim_s"] = 0.31
        traced["layers"] = {}
        correct, _, _, _, _, problems = run.run_workload(
            self.Stub({False: self.GOOD, True: traced}), "wan_bootstrap", 1,
            0, trace=1)
        self.assertFalse(correct)
        self.assertIn("traced outcome differs", problems[0])


if __name__ == "__main__":
    unittest.main(verbosity=2)
