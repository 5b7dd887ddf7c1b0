"""Unit tests of the benchmark's judging rules.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import os
import statistics
import unittest

import benchlib

HERE = os.path.dirname(os.path.abspath(__file__))


def span(id, name, start, end, parent=0, trace=0):
    return {"id": id, "name": name, "start": start, "end": end,
            "parent": parent, "trace": trace}


class TailPercentileTest(unittest.TestCase):
    def test_p99_needs_ten_samples_beyond(self):
        q, value = benchlib.tail_percentile(list(range(1, 1001)))
        self.assertEqual((q, value), (99, 990))

    def test_falls_back_to_the_highest_percentile_with_ten_beyond(self):
        # 999 samples: p99's rank is 990, leaving 9 beyond it.
        q, value = benchlib.tail_percentile(list(range(1, 1000)))
        self.assertEqual((q, value), (98, 980))
        q, _ = benchlib.tail_percentile(list(range(200)))
        self.assertEqual(q, 95)

    def test_too_few_samples_have_no_tail(self):
        self.assertEqual(benchlib.tail_percentile(list(range(19))),
                         (None, None))
        self.assertEqual(benchlib.tail_percentile(list(range(20)))[0], 50)

    def test_summary_states_the_sample_count(self):
        summary = benchlib.latency_summary([3.0, 1.0, 2.0])
        self.assertEqual(summary["n"], 3)
        self.assertEqual(summary["p50"], 2.0)
        self.assertIsNone(summary["tail"])


class SelfTimeTest(unittest.TestCase):
    def test_self_time_subtracts_children(self):
        spans = [span(1, "root", 0.0, 10.0),
                 span(2, "child", 1.0, 4.0, parent=1),
                 span(3, "child", 5.0, 6.0, parent=1),
                 span(4, "leaf", 1.5, 2.0, parent=2)]
        times = benchlib.self_times(spans)
        self.assertEqual(times["root"], (1, 10.0, 6.0))
        self.assertEqual(times["child"], (2, 4.0, 3.5))
        self.assertEqual(times["leaf"], (1, 0.5, 0.5))

    def test_overlapping_children_count_once(self):
        # Two client threads' spans overlap inside one parent.
        spans = [span(1, "loop", 0.0, 10.0),
                 span(2, "rtt", 2.0, 6.0, parent=1),
                 span(3, "rtt", 4.0, 8.0, parent=1)]
        self.assertAlmostEqual(benchlib.self_times(spans)["loop"][2], 4.0)

    def test_children_are_clipped_to_the_parent(self):
        spans = [span(1, "p", 0.0, 2.0), span(2, "c", 1.0, 3.0, parent=1)]
        self.assertAlmostEqual(benchlib.self_times(spans)["p"][2], 1.0)


class VerdictTest(unittest.TestCase):
    base = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0]

    def test_better_needs_nine_of_ten_wins_and_a_gap_beyond_the_iqr(self):
        faster = [v * 1.2 for v in self.base]
        self.assertEqual(benchlib.verdict(self.base, faster, "higher", 0.1),
                         "better")
        self.assertEqual(benchlib.verdict(self.base, faster, "lower", 0.1),
                         "worse")

    def test_eight_wins_is_not_enough(self):
        change = [v * 1.2 for v in self.base]
        change[0] = change[1] = 50.0
        self.assertNotEqual(
            benchlib.verdict(self.base, change, "higher", 0.5), "better")

    def test_gap_inside_the_parent_spread_is_not_better(self):
        base = [90.0, 110.0] * 5
        change = [v + 1.0 for v in base]
        self.assertEqual(benchlib.verdict(base, change, "higher", 0.25),
                         "unchanged")
        self.assertEqual(benchlib.verdict(base, change, "higher", 0.05),
                         "unresolved")

    def test_identical_exact_values_are_unchanged(self):
        self.assertEqual(benchlib.verdict([14.8] * 10, [14.8] * 10,
                                          "lower", 0.0), "unchanged")
        # Seed-dependent but exact: equal pair by pair, wide across seeds.
        by_seed = [14.8, 15.4, 16.2, 12.2, 18.4, 13.0, 14.3, 14.5, 15.3, 14.6]
        self.assertEqual(benchlib.verdict(by_seed, list(by_seed), "lower",
                                          0.0), "unchanged")
        moved = list(by_seed)
        moved[4] = 18.5
        self.assertEqual(benchlib.verdict(by_seed, moved, "lower", 0.0),
                         "unresolved")

    def test_small_shift_within_bound_is_unchanged(self):
        change = [v * 1.01 for v in self.base]
        change[3] = 99.0  # break the 9-of-10 streak
        change[5] = 99.0
        self.assertEqual(benchlib.verdict(self.base, change, "higher", 0.1),
                         "unchanged")


class NameValidationTest(unittest.TestCase):
    def test_metric_names(self):
        for good in ("setup_s", "mem.page_table.ns_per_lookup", "p99-ms", "9a"):
            self.assertTrue(benchlib.NAME_RE.match(good), good)
        for bad in ("", "_x", "has space", "a/b", "é", "x" * 65):
            self.assertFalse(benchlib.NAME_RE.match(bad), bad)

    def test_spec_problems(self):
        spec = {"workloads": [{"name": "w", "why": "x"}],
                "end_to_end": [{"name": "bad name", "unit": "s",
                                "better": "lower", "bound": 0.5}],
                "per_layer": [{"name": "w", "unit": "count",
                               "better": "higher"}]}
        problems = " ".join(benchlib.validate_spec(spec))
        self.assertIn("bad name", problems)
        self.assertIn("bound", problems)
        self.assertIn("used twice", problems)
        self.assertIn("setup_s is required", problems)

    def test_the_committed_spec_is_valid(self):
        with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
            self.assertEqual(benchlib.validate_spec(json.load(f)), [])


class JudgeTest(unittest.TestCase):
    raw = {"attempted": 32, "failed": 0, "failures": [],
           "checks": [{"name": "BFS/grit: traced == untraced",
                       "expected": "cycles=10", "actual": "cycles=10"}]}

    def test_matching_outputs_pass(self):
        self.assertEqual(benchlib.judge(self.raw), (32, 0, []))

    def test_mismatched_simulated_output_is_a_failed_operation(self):
        raw = dict(self.raw, checks=[{"name": "BFS/grit: traced == untraced",
                                      "expected": "cycles=10",
                                      "actual": "cycles=11"}])
        attempted, failed, problems = benchlib.judge(raw)
        self.assertEqual((attempted, failed), (32, 1))
        self.assertIn("cycles=11", problems[0])

    def test_document_checks_and_driver_failures_add_up(self):
        raw = dict(self.raw, failed=2, failures=["a: partial", "b: partial"])
        extra = [{"name": "json", "expected": "x", "actual": "y"}]
        self.assertEqual(benchlib.judge(raw, extra)[:2], (32, 3))


def unit(label, wall, cpu, accesses, rss):
    return {"label": label, "wall_s": wall, "cpu_s": cpu,
            "accesses": accesses, "ops": 1, "peak_rss_mib": rss}


class EndToEndTest(unittest.TestCase):
    def test_rates_use_per_label_medians(self):
        raw = {"units": [
            unit("a", 1.0, 2.0, 100, 10.0), unit("a", 3.0, 2.0, 100, 30.0),
            unit("a", 2.0, 2.0, 100, 12.0), unit("b", 2.0, 4.0, 300, 11.0)],
            "setup_s": [0.3, 0.1, 0.2]}
        m = benchlib.end_to_end(raw)
        self.assertEqual(m["accesses_per_s"], 100.0)
        self.assertEqual(m["requests_per_s"], 0.5)
        self.assertEqual(m["cpu_s"], 3.0)
        self.assertEqual(m["setup_s"], statistics.median([0.3, 0.1, 0.2]))
        self.assertEqual(m["peak_rss_mib"], 12.0)

    def test_lanes_pool_units_and_add_counts(self):
        lane0 = {"units": [unit("a", 1.0, 1.0, 100, 10.0)], "setup_s": [0.1],
                 "attempted": 2, "failed": 0, "failures": [], "checks": []}
        lane1 = {"units": [unit("a", 3.0, 1.0, 100, 10.0),
                           unit("a", 2.0, 1.0, 100, 10.0)],
                 "setup_s": [0.3], "attempted": 3, "failed": 1,
                 "failures": ["a: partial"],
                 "checks": [{"name": "c", "expected": 1, "actual": 2}]}
        raw = benchlib.merge_lanes([lane0, lane1])
        self.assertEqual(len(raw["units"]), 3)
        self.assertEqual(benchlib.end_to_end(raw)["accesses_per_s"], 50.0)
        self.assertEqual(raw["setup_s"], [0.1, 0.3])
        self.assertEqual(benchlib.judge(raw)[:2], (5, 2))


if __name__ == "__main__":
    unittest.main()
