#!/usr/bin/env python3
"""The benchmark's own checks: determinism, the oversubscription guard and
the output contract. Run from the root of a checkout:

    python3 perfbench/test_perfbench.py

Builds perfbench through run.py first (same build directory), then runs
short measurements of each workload.
"""
import json
import os
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = [sys.executable, str(HERE / "run.py")]
SECONDS = "1"


def bench_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload, seed, trace, cpus=None):
    """Runs one measurement, on the given CPUs only when `cpus` is set;
    returns (exit code, stdout lines)."""
    pin = None if cpus is None else (lambda: os.sched_setaffinity(0, cpus))
    done = subprocess.run(
        RUN + ["--workload", workload, "--seed", str(seed), "--seconds", SECONDS,
               "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, preexec_fn=pin)
    return done.returncode, done.stdout.splitlines()


def result(workload, seed, trace):
    code, lines = run(workload, seed, trace)
    if code != 0 or not lines:
        raise AssertionError(f"{workload} seed {seed} trace {trace}: exit {code}")
    return json.loads(lines[-1])


class Determinism(unittest.TestCase):
    def assert_same_virt(self, workload):
        a = result(workload, 7, 0)["metrics"]["virt_makespan_us"]["value"]
        b = result(workload, 7, 0)["metrics"]["virt_makespan_us"]["value"]
        self.assertEqual(a, b, f"{workload}: virt_makespan_us differs between "
                               "two same-seed runs")

    def test_pt2pt_intra_host_virtual_time_repeats(self):
        self.assert_same_virt("pt2pt_intra_host")

    def test_sched_churn_virtual_time_repeats(self):
        self.assert_same_virt("sched_churn")

    def test_halo_fattree_spread_is_recorded(self):
        # A known defect: identical fat-tree jobs do not reproduce their
        # virtual makespan. Record the spread; do not assert it is 0.
        metrics = result("halo_fattree", 7, 1)["metrics"]
        spread = metrics["mpi.runtime.virt_spread_frac"]["value"]
        print(f"\nhalo_fattree mpi.runtime.virt_spread_frac = {spread}")
        self.assertGreaterEqual(spread, 0.0)


class MatcherRace(unittest.TestCase):
    def test_misdelivery_is_counted_as_failed(self):
        # A known defect: pre-posted same-tag irecvs race the window's
        # arrivals. The probe is not a timed workload; record the share it
        # misdelivers and check that every misdelivery counts as failed.
        self.assertNotIn("pt2pt_matcher_race",
                         [w["name"] for w in bench_spec()["workloads"]])
        code, lines = run("pt2pt_matcher_race", 7, 0)
        self.assertEqual(code, 0)
        r = json.loads(lines[-1])
        self.assertTrue(r["correct"], "misdelivery must not read as corruption")
        line = next(l for l in lines if ": misdelivered " in l)
        misdelivered, windowed = (int(x) for x in line.split()[2:5:2])
        print(f"\npt2pt_matcher_race: misdelivered {misdelivered} of {windowed}")
        self.assertEqual(r["failed"], misdelivered)


class Guard(unittest.TestCase):
    def test_refuses_more_ranks_than_budget(self):
        # The rank budget is the CPUs the process may run on; two are fewer
        # than the workload's four ranks.
        two = set(sorted(os.sched_getaffinity(0))[:2])
        code, lines = run("pt2pt_intra_host", 1, 0, cpus=two)
        self.assertNotEqual(code, 0)
        self.assertFalse(lines and lines[-1].startswith("{"),
                         "a refused run must not print a result")


class Contract(unittest.TestCase):
    def test_untraced_prints_end_to_end_metrics(self):
        spec = bench_spec()
        names = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        for workload in (w["name"] for w in spec["workloads"]):
            r = result(workload, 3, 0)
            self.assertEqual(set(r), {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(r["correct"], workload)
            self.assertGreaterEqual(r["attempted"], 1)
            got = {k: v["unit"] for k, v in r["metrics"].items()}
            self.assertEqual(got, names, workload)
            for k, v in r["metrics"].items():
                self.assertNotEqual(v["value"], 0, f"{workload}: {k} is 0")

    def test_traced_prints_per_layer_metrics_within_nproc(self):
        spec = bench_spec()
        names = {m["name"]: m["unit"] for m in spec["per_layer"]}
        nproc = len(os.sched_getaffinity(0))
        for workload in (w["name"] for w in spec["workloads"]):
            r = result(workload, 3, 1)
            got = {k: v["unit"] for k, v in r["metrics"].items()}
            self.assertEqual(got, names, workload)
            peak = r["metrics"]["mpi.runtime.threads_peak"]["value"]
            self.assertGreaterEqual(peak, 1)
            self.assertLessEqual(peak, nproc, workload)

    def test_zero_predictions(self):
        pt2pt = result("pt2pt_intra_host", 5, 1)["metrics"]
        halo = result("halo_fattree", 5, 1)["metrics"]
        for name in ("fabric.hca_ops", "net.congested_transfers", "net.peak_link_util",
                     "mpi.pt2pt.misdelivered_frac"):
            self.assertEqual(pt2pt[name]["value"], 0, f"pt2pt_intra_host {name}")
        for name in ("fabric.shm_ops", "fabric.cma_ops"):
            self.assertEqual(halo[name]["value"], 0, f"halo_fattree {name}")


if __name__ == "__main__":
    unittest.main(verbosity=2)
