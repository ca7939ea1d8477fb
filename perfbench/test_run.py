"""Tests of run.py: python3 -m unittest -v test_run (from perfbench/)."""

import json
import os
import re
import unittest

import run

METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")


class PercentileTest(unittest.TestCase):
    def test_hundred_samples_leave_ten_beyond_p90(self):
        values = list(range(1, 101))
        self.assertEqual(run.percentile(values, 0.90), (90, 10))
        self.assertEqual(run.percentile(values, 0.50), (50, 50))

    def test_order_of_samples_does_not_matter(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0]
        self.assertEqual(run.percentile(values, 0.5), (3.0, 2))
        self.assertEqual(run.percentile(list(reversed(values)), 0.5), (3.0, 2))

    def test_too_few_samples_show_in_the_count(self):
        # 99 windows leave only 9 samples beyond p90: not reportable.
        _, beyond = run.percentile(list(range(99)), 0.90)
        self.assertEqual(beyond, 9)

    def test_extremes(self):
        self.assertEqual(run.percentile([7.0], 0.9), (7.0, 0))
        self.assertEqual(run.percentile([1, 2, 3], 0.0), (1, 2))
        self.assertEqual(run.percentile([1, 2, 3], 1.0), (3, 0))
        with self.assertRaises(ValueError):
            run.percentile([], 0.5)


class MetricNameTest(unittest.TestCase):
    def setUp(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            self.spec = json.load(f)

    def test_every_metric_name_is_well_formed(self):
        for group in ("end_to_end", "per_layer"):
            for m in self.spec[group]:
                self.assertRegex(m["name"], METRIC_NAME)
                self.assertIsNotNone(METRIC_NAME.fullmatch(m["name"]), m["name"])

    def test_names_are_unique(self):
        names = [m["name"] for g in ("end_to_end", "per_layer") for m in self.spec[g]]
        self.assertEqual(len(names), len(set(names)))

    def test_per_layer_values_cover_the_spec(self):
        layers = {m["name"]: 1.0 for m in self.spec["per_layer"]}
        layers["ledger.unattributed_s"] = 0.5
        layers["ledger.wall_s"] = 10.0
        traced = [{"layers": layers, "packets": 90, "run_wall_s": 1.0}]
        untraced = [{"packets": 100, "run_wall_s": 1.0}]
        values = run.per_layer(traced, untraced)
        for m in self.spec["per_layer"]:
            self.assertIn(m["name"], values)
        self.assertAlmostEqual(values["ledger.coverage"], 0.95)
        self.assertAlmostEqual(values["obs.trace_overhead"], 0.10)


class CheckSurfaceTest(unittest.TestCase):
    def test_testbed_windows_compare_one_by_one(self):
        ref = {"window_predicted": [3, 0, 7], "average_accuracy": 0.5}
        self.assertEqual(run.check_surface("testbed-kmeans", dict(ref), ref), (3, 0))
        got = {"window_predicted": [3, 1, 7], "average_accuracy": 0.5}
        self.assertEqual(run.check_surface("testbed-kmeans", got, ref), (3, 1))
        short = {"window_predicted": [3, 0], "average_accuracy": 0.5}
        self.assertEqual(run.check_surface("testbed-cnn", short, ref), (2, 1))
        drift = {"window_predicted": [3, 0, 7], "average_accuracy": 0.25}
        self.assertEqual(run.check_surface("testbed-cnn", drift, ref), (3, 3))

    def test_fleet_digests_fail_every_window(self):
        ref = {"row_digest": "1", "verdict_digest": "2", "action_digest": "3",
               "conservation_ok": True, "windows": 34}
        self.assertEqual(run.check_surface("fleet-ids", dict(ref), ref), (34, 0))
        self.assertEqual(run.check_surface("fleet-ids", dict(ref, verdict_digest="9"), ref),
                         (34, 34))
        broken = dict(ref, conservation_ok=False)
        self.assertEqual(run.check_surface("fleet-ids", broken, broken), (34, 34))


if __name__ == "__main__":
    unittest.main()
