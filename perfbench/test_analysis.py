"""Tests of the benchmark's report arithmetic.

    python3 perfbench/test_analysis.py
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import analysis  # noqa: E402
import run  # noqa: E402


class PercentileRule(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(analysis.percentile(values, "50"), 50)
        self.assertEqual(analysis.percentile(values, "95"), 95)
        self.assertEqual(analysis.percentile(values, "99.9"), 100)
        self.assertEqual(analysis.percentile([7.0], "95"), 7.0)
        self.assertEqual(analysis.percentile(list(reversed(values)), "90"), 90)

    def test_samples_beyond_is_exact_at_the_edges(self):
        # 0.95 * 200 is not exactly 190 in binary floating point; the rank
        # must still be 190, leaving exactly ten samples beyond it.
        self.assertEqual(analysis.samples_beyond(200, "95"), 10)
        self.assertEqual(analysis.samples_beyond(199, "95"), 9)
        self.assertEqual(analysis.samples_beyond(1000, "99"), 10)
        self.assertEqual(analysis.samples_beyond(10000, "99.9"), 10)

    def test_highest_percentile_with_ten_beyond(self):
        self.assertIsNone(analysis.tail_percentile(19))
        self.assertEqual(analysis.tail_percentile(20), "50")
        self.assertEqual(analysis.tail_percentile(99), "50")
        self.assertEqual(analysis.tail_percentile(100), "90")
        self.assertEqual(analysis.tail_percentile(199), "90")
        self.assertEqual(analysis.tail_percentile(200), "95")
        self.assertEqual(analysis.tail_percentile(999), "95")
        self.assertEqual(analysis.tail_percentile(1000), "99")
        self.assertEqual(analysis.tail_percentile(10000), "99.9")

    def test_end_to_end_refuses_a_thin_tail(self):
        def result(epochs):
            return {"passes": [warmup_pass(), untraced_pass(epochs)],
                    "host_speed": [REF, REF, REF], "peak_rss_kb": 3072,
                    "baseline_rss_kb": 1024, "overhead_frac": 0.01,
                    "map_error": 0.1}
        with self.assertRaises(ValueError):
            run.end_to_end(result(199))
        metrics, _ = run.end_to_end(result(200))
        self.assertAlmostEqual(metrics["access_ns"]["value"], 1e8)
        self.assertAlmostEqual(metrics["peak_rss_mb"]["value"], 2.0)
        self.assertAlmostEqual(metrics["map_accuracy"]["value"], 0.9)


class HostSpeed(unittest.TestCase):
    def test_factor_is_one_at_the_reference_speed(self):
        self.assertAlmostEqual(analysis.speed_factor(REF, REF), 1.0)

    def test_a_host_twice_as_slow_halves_the_times(self):
        slow = tuple(2 * x for x in REF)
        self.assertAlmostEqual(analysis.speed_factor(slow, slow), 0.5)
        # Bracketing probes are averaged; the kernels combine geometrically.
        self.assertAlmostEqual(analysis.speed_factor(REF, slow), 1 / 1.5)
        self.assertAlmostEqual(
            analysis.speed_factor((REF[0] * 4, REF[1]), (REF[0] * 4, REF[1])), 0.5)

    def test_times_are_rescaled_per_pass(self):
        slow = tuple(2 * x for x in REF)
        passes = [warmup_pass(), untraced_pass(100, wall_s=2.0, setup_s=0.2),
                  untraced_pass(100, wall_s=1.0, setup_s=0.15)]
        result = {"passes": passes, "host_speed": [REF, slow, slow, REF],
                  "peak_rss_kb": 2048, "baseline_rss_kb": 1024,
                  "overhead_frac": 0.01, "map_error": 0.1}
        metrics, _ = run.end_to_end(result)
        # Pass 1 ran entirely at half speed, pass 2 between half and full.
        self.assertAlmostEqual(metrics["access_ns"]["value"],
                               (2.0 * 0.5 * 1e8 + 1.0 / 1.5 * 1e8) / 2)
        self.assertAlmostEqual(metrics["setup_s"]["value"], 0.1)


REF = run.analysis.REFERENCE_SPEED


def warmup_pass():
    return {"traced": False, "warmup": True, "wall_s": 9.0, "epoch_ms": [9.0],
            "setup_s": 9.0, "extra_setup_s": [], "counts": {"dsm.accesses": 1},
            "program_s": {}}


def untraced_pass(epochs, wall_s=1.0, setup_s=0.1, traced=False):
    return {"traced": traced, "warmup": False, "wall_s": wall_s,
            "epoch_ms": [1.0] * epochs, "setup_s": setup_s,
            "extra_setup_s": [setup_s, setup_s],
            "counts": {"dsm.accesses": 10}, "program_s": {}}


class SelfTime(unittest.TestCase):
    def test_children_are_subtracted_from_their_parent(self):
        spans = [("pass", 0, 100, -1),
                 ("serve", 10, 40, 0),
                 ("fold", 40, 50, 0),
                 ("tick", 60, 90, 0)]
        self.assertEqual(analysis.self_times(spans),
                         {"pass": 30, "serve": 30, "fold": 10, "tick": 30})

    def test_self_times_sum_to_the_root(self):
        spans = [("pass", 0, 1000, -1),
                 ("serve", 0, 300, 0),
                 ("tick", 300, 900, 0),
                 ("fold", 400, 500, 2)]
        selfs = analysis.self_times(spans)
        self.assertEqual(selfs["tick"], 500)
        self.assertEqual(sum(selfs.values()), 1000)

    def test_overlapping_and_overhanging_children_count_once(self):
        spans = [("pass", 0, 100, -1),
                 ("a", 10, 60, 0),
                 ("b", 40, 80, 0),
                 ("c", 90, 130, 0)]  # overhangs its parent's end
        self.assertEqual(analysis.self_times(spans)["pass"], 100 - 70 - 10)

    def test_same_name_accumulates(self):
        spans = [("pass", 0, 100, -1), ("serve", 0, 10, 0), ("serve", 20, 45, 0)]
        self.assertEqual(analysis.self_times(spans)["serve"], 35)


class FailureShare(unittest.TestCase):
    def test_share(self):
        self.assertEqual(analysis.failure_share(200, 0), 0.0)
        self.assertEqual(analysis.failure_share(200, 5), 0.025)
        self.assertEqual(analysis.failure_share(1, 1), 1.0)

    def test_rejects_impossible_counts(self):
        for attempted, failed in ((0, 0), (10, 11), (10, -1)):
            with self.assertRaises(ValueError):
                analysis.failure_share(attempted, failed)
        with self.assertRaises(TypeError):
            analysis.failure_share(10.0, 1)


class MetricNames(unittest.TestCase):
    def test_legal_metrics_pass(self):
        analysis.check_metrics({
            "access_ns": {"value": 41.5, "unit": "ns"},
            "whole_run.build_full_s": {"value": 0.0, "unit": "s"},
            "dsm.sampled_frac": {"value": 0.04, "unit": "fraction"},
            "9lives": {"value": 3, "unit": "1/s"},
        })

    def test_illegal_metrics_fail(self):
        bad = [
            {"_x": {"value": 1, "unit": "s"}},
            {"a" * 65: {"value": 1, "unit": "s"}},
            {"x y": {"value": 1, "unit": "s"}},
            {"x": {"value": 1, "unit": ""}},
            {"x": {"value": 1, "unit": "seconds per op!"}},
            {"x": {"value": 1, "unit": "a" * 17}},
            {"x": {"value": float("nan"), "unit": "s"}},
            {"x": {"value": True, "unit": "s"}},
            {"x": {"value": "1", "unit": "s"}},
            {"x": {"value": 1}},
        ]
        for metrics in bad:
            with self.assertRaises(ValueError, msg=str(metrics)):
                analysis.check_metrics(metrics)

    def test_benchmark_json_declares_legal_metrics(self):
        bench = benchmark_json()
        declared = {m["name"]: {"value": 1.0, "unit": m["unit"]}
                    for m in bench["end_to_end"] + bench["per_layer"]}
        analysis.check_metrics(declared)
        self.assertEqual(len(declared),
                         len(bench["end_to_end"]) + len(bench["per_layer"]))

    def test_reports_print_exactly_the_declared_metrics(self):
        bench = benchmark_json()
        counts = {name: 4 for name in run.COUNT_METRICS}
        counts["migration.suggested"] = 8
        program = {"tick.build_s": 0.5, "tick.densify_s": 0.01,
                   "tick.migration_s": 0.0, "arbiter.decision_s": 0.0}

        passes = [warmup_pass(), untraced_pass(200), untraced_pass(200, traced=True)]
        for p in passes:
            p["counts"], p["program_s"] = counts, program
        result = {"passes": passes, "host_speed": [REF] * 4,
                  "peak_rss_kb": 2048, "baseline_rss_kb": 1024,
                  "overhead_frac": 0.01, "map_error": 0.1,
                  "shape": {"tenants": 1}}
        spans = [[2, "pass", 0, 1000, -1, -1], [2, "serve", 0, 400, 0, 0],
                 [2, "fold", 400, 500, 0, 0], [2, "tick", 500, 990, 0, 0],
                 [2, "build_full", 990, 1000, 0, -1]]
        e2e, _ = run.end_to_end(result)
        layers, _, ok = run.per_layer(result, spans)
        self.assertTrue(ok)
        self.assertEqual(
            {n: m["unit"] for n, m in e2e.items()},
            {m["name"]: m["unit"] for m in bench["end_to_end"]})
        self.assertEqual(
            {n: m["unit"] for n, m in layers.items()},
            {m["name"]: m["unit"] for m in bench["per_layer"]})
        self.assertAlmostEqual(layers["serve.share"]["value"], 0.4)
        self.assertAlmostEqual(layers["migration.executed_frac"]["value"], 0.5)


def benchmark_json():
    import json
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


if __name__ == "__main__":
    unittest.main()
