#!/usr/bin/env python3
"""Self-test of the benchmark of record.

    python3 perfbench/test_perfbench.py

Runs perfbench/run.py (which builds on first use) with one-second runs
and checks that:
  - the same seed twice gives byte-identical simulated metrics;
  - a second seed runs clean (correct, nothing failed);
  - every printed metric name and unit matches BENCHMARK.json, for both
    the untraced (end-to-end) and the traced (per-layer) output;
  - in the traced run, per-layer handler host time plus the timer
    residual adds up to that run's host time.
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
HOST_METRICS = {"host_run_s", "setup_s", "peak_rss_mb"}
# Everything the traced run's host time is split into.
HOST_PARTS = [
    "consensus.follower_propose_host_s", "consensus.commit_host_s",
    "consensus.vote_host_s", "consensus.view_change_host_s",
    "batch_pipeline.host_s", "two_pc.host_s", "read_only_service.host_s",
    "client.host_s", "watch_service.host_s", "watch_client.host_s",
    "net.filter_host_s", "sim.timer_host_s",
]


def run(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", "1", "--trace",
         str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    # Keep numbers as printed so equality means byte equality.
    return json.loads(proc.stdout.strip().splitlines()[-1],
                      parse_float=str, parse_int=str)


def units(catalogue):
    return {m["name"]: m["unit"] for m in catalogue}


class PerfbenchTest(unittest.TestCase):

    def test_same_seed_gives_identical_simulated_metrics(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                first, second = run(workload, 7, 0), run(workload, 7, 0)
                for key in ("correct", "attempted", "failed"):
                    self.assertEqual(first[key], second[key])
                for name, metric in first["metrics"].items():
                    if name in HOST_METRICS:
                        continue
                    self.assertEqual(metric, second["metrics"][name], name)

    def test_second_seed_runs_clean_with_catalogued_metrics(self):
        expected = units(BENCHMARK["end_to_end"])
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                result = run(workload, 8, 0)
                self.assertIs(result["correct"], True)
                self.assertEqual(result["failed"], "0")
                self.assertGreater(int(result["attempted"]), 0)
                printed = {n: m["unit"] for n, m in result["metrics"].items()}
                self.assertEqual(printed, expected)

    def test_traced_run_catalogue_and_host_time_split(self):
        expected = units(BENCHMARK["per_layer"])
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                result = run(workload, 8, 1)
                self.assertIs(result["correct"], True)
                printed = {n: m["unit"] for n, m in result["metrics"].items()}
                self.assertEqual(printed, expected)
                values = {n: float(m["value"])
                          for n, m in result["metrics"].items()}
                total = sum(values[n] for n in HOST_PARTS)
                self.assertAlmostEqual(total, values["trace.host_run_s"],
                                       delta=1e-6)


if __name__ == "__main__":
    unittest.main()
