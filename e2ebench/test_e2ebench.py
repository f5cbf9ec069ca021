#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 -m unittest discover -s e2ebench -p 'test_*.py'

They build the binary (as run.py does) and check that inputs are a
pure function of the seed, that another seed keeps each workload's
defining properties, that every run prints every catalogued metric
with its unit, and that a checkout without sources fails cleanly.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402

WORKLOADS = ["serve_hot", "serve_cold", "serve_longtail", "eval_sweep"]


def catalogue():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def dump_inputs(seed):
    out = subprocess.run([run.BINARY, "--dump-inputs", "--seed", str(seed),
                          "--seconds", "5"],
                         check=True, stdout=subprocess.PIPE, text=True).stdout
    inputs = {}
    for line in out.splitlines():
        if line.startswith("inputs "):
            record = json.loads(line[len("inputs "):])
            inputs[record["workload"]] = record
    return out, inputs


class InputTests(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()
        cls.raw_a, cls.a = dump_inputs(5)
        cls.raw_b, cls.b = dump_inputs(5)
        cls.raw_c, cls.c = dump_inputs(6)

    def test_same_seed_gives_identical_inputs(self):
        self.assertEqual(self.raw_a, self.raw_b)
        self.assertEqual(sorted(self.a), sorted(WORKLOADS))

    def test_other_seed_gives_other_inputs(self):
        for wl in WORKLOADS:
            self.assertNotEqual(self.a[wl]["digest"], self.c[wl]["digest"], wl)

    def test_hot_keeps_family_mix_and_fits_the_hot_tier(self):
        for rec in (self.a["serve_hot"], self.c["serve_hot"]):
            self.assertEqual(rec["kinds"], self.a["serve_hot"]["kinds"])
            # Every question is its own slot key, bound to one
            # retriever; with the per-shard warm-up keys they stay
            # well under the 1024-bundle hot tier.
            self.assertEqual(rec["distinct_slot_keys"], rec["items"])
            self.assertEqual(rec["keys"], rec["items"])
            self.assertLess(rec["keys"] + 2 * 12, 0.7 * rec["hot_capacity"])
            for kind, intents in rec["intents"].items():
                self.assertNotIn("|", intents, kind)
                self.assertNotEqual(intents, "unknown", kind)

    def test_cold_slot_keys_are_all_new(self):
        for rec in (self.a["serve_cold"], self.c["serve_cold"]):
            self.assertEqual(rec["distinct_slot_keys"], rec["checked"])
            self.assertEqual(rec["kinds"], {"hit_miss": rec["checked"]})
            self.assertEqual(rec["intents"], {"hit_miss": "hit_miss"})

    def test_longtail_population_spans_three_tiers(self):
        for rec in (self.a["serve_longtail"], self.c["serve_longtail"]):
            self.assertEqual(rec["distinct_slot_keys"], rec["items"])
            keys, hot = rec["keys"], rec["hot_capacity"]
            fit = rec["secondary_fit_keys"]
            # Head fits the hot tier, body only the secondary tier,
            # tail neither.
            self.assertGreater(keys, hot)
            self.assertGreater(fit, hot)
            self.assertLess(hot + fit, keys)

    def test_eval_suites_keep_the_table1_composition(self):
        a, c = self.a["eval_sweep"], self.c["eval_sweep"]
        self.assertEqual(a["categories"], c["categories"])
        self.assertEqual(a["questions"], 100 * a["suites"])


class OutputTests(unittest.TestCase):
    def test_every_metric_is_printed_with_its_unit(self):
        bench = catalogue()
        for wl in WORKLOADS:
            for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
                with self.subTest(workload=wl, trace=trace):
                    proc = subprocess.run(
                        [sys.executable, os.path.join(HERE, "run.py"),
                         "--workload", wl, "--seed", "3", "--seconds", "1",
                         "--trace", trace],
                        cwd=ROOT, stdout=subprocess.PIPE, text=True,
                        timeout=300)
                    self.assertEqual(proc.returncode, 0)
                    result = json.loads(proc.stdout.strip().splitlines()[-1])
                    self.assertEqual(set(result), {"correct", "attempted",
                                                   "failed", "metrics"})
                    self.assertTrue(result["correct"], proc.stdout[-2000:])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    want = {m["name"]: m["unit"] for m in bench[key]}
                    got = {n: m["unit"] for n, m in result["metrics"].items()}
                    self.assertEqual(got, want)
                    for name, m in result["metrics"].items():
                        self.assertIsInstance(m["value"], (int, float), name)


class CheckoutTests(unittest.TestCase):
    def test_fails_without_sources(self):
        bare = os.path.join(ROOT, ".bench_build", "no-sources")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "e2ebench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "e2ebench/run.py", "--workload", "serve_hot",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, timeout=120)
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
