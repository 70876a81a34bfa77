#!/usr/bin/env python3
"""Self-tests of the benchmark's metric code: python3 perfbench/test_run.py"""

import json
import os
import random
import statistics
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def record(**overrides):
    rec = {"info": {}, "setup_s": [0.1], "op_s": [0.001], "untraced_op_s": [],
           "attempted": 1, "failed": 0, "good": 1, "timed_s": 1.0,
           "peak_rss_kb": 1024.0, "counters": {}, "samples": {},
           "errors": [], "spans": []}
    rec.update(overrides)
    return rec


class QuantileTest(unittest.TestCase):
    def test_matches_inclusive_quantiles(self):
        rng = random.Random(7)
        for n in (2, 3, 10, 101, 1000):
            xs = [rng.lognormvariate(0, 2) for _ in range(n)]
            q = statistics.quantiles(xs, n=10, method="inclusive")
            self.assertAlmostEqual(run.quantile(xs, 0.5), q[4])
            self.assertAlmostEqual(run.quantile(xs, 0.9), q[8])

    def test_edges(self):
        self.assertEqual(run.quantile([], 0.5), 0.0)
        self.assertEqual(run.quantile([3.0], 0.9), 3.0)
        self.assertEqual(run.quantile([1.0, 2.0], 0.5), 1.5)


class SampleRuleTest(unittest.TestCase):
    def test_hundred_ops_leave_ten_beyond_p90(self):
        ops = list(range(1, 101))
        self.assertEqual(run.beyond(ops, run.quantile(ops, 0.9)), 10)

    def test_short_run_is_flagged(self):
        short = record(op_s=[i * 1e-3 for i in range(1, 51)])
        errors = run.validity_errors("curate-snb", short, False, {})
        self.assertTrue(any("beyond p90" in e for e in errors))
        enough = record(op_s=[i * 1e-3 for i in range(1, 101)])
        self.assertEqual(run.validity_errors("curate-snb", enough, False, {}), [])

    def test_ties_at_p90_do_not_count_as_beyond(self):
        ops = [1.0] * 95 + [2.0] * 5
        self.assertEqual(run.beyond(ops, run.quantile(ops, 0.9)), 5)


class SelfTimeTest(unittest.TestCase):
    def test_leaf_is_its_duration(self):
        self.assertEqual(run.self_times([["a", 10, 25, -1, 0]]), [15])

    def test_children_are_subtracted_once_where_they_overlap(self):
        spans = [["op", 0, 100, -1, 0],
                 ["x", 10, 30, 0, 0],
                 ["y", 20, 50, 0, 0],   # overlaps x by 10
                 ["z", 90, 120, 0, 0]]  # sticks out of the parent
        selfs = run.self_times(spans)
        self.assertEqual(selfs[0], 100 - 40 - 10)
        self.assertEqual(selfs[1:], [20, 30, 30])

    def test_grandchildren_only_reduce_their_parent(self):
        spans = [["op", 0, 100, -1, 0],
                 ["bind", 0, 40, 0, 0],
                 ["inner", 10, 20, 1, 0]]
        self.assertEqual(run.self_times(spans), [60, 30, 10])


class MetricSetTest(unittest.TestCase):
    def test_every_declared_metric_is_reported(self):
        bench_path = os.path.join(run.ROOT, "BENCHMARK.json")
        with open(bench_path) as f:
            bench = json.load(f)
        self.assertEqual([m["name"] for m in bench["end_to_end"]],
                         [n for n, _ in run.END_TO_END])
        self.assertEqual([(m["name"], m["unit"]) for m in bench["per_layer"]],
                         run.PER_LAYER)
        self.assertEqual(set(run.end_to_end_metrics(record())),
                         {n for n, _ in run.END_TO_END})
        self.assertEqual(set(run.per_layer_metrics(record())),
                         {n for n, _ in run.PER_LAYER})

    def test_per_layer_from_spans(self):
        ms = 1_000_000
        spans = [["op", 0, 10 * ms, -1, 0],
                 ["sparql.bind", 0, 1 * ms, 0, 0],
                 ["engine.execute", 2 * ms, 6 * ms, 0, 0],
                 ["op", 20 * ms, 40 * ms, -1, 1],
                 ["engine.execute", 20 * ms, 38 * ms, 3, 1]]
        rec = record(spans=spans, op_s=[0.010, 0.020], untraced_op_s=[0.010],
                     samples={"engine.rows": [100, 500]},
                     counters={"core.candidates": 10, "core.dp_runs_saved": 4})
        m = run.per_layer_metrics(rec)
        self.assertAlmostEqual(m["sparql.bind_us"], 1000)
        self.assertAlmostEqual(m["engine.execute_ms.p50"], 11)
        self.assertAlmostEqual(m["engine.rows_per_s"], 600 / 0.022)
        self.assertAlmostEqual(m["core.dedup_ratio"], 0.4)
        self.assertAlmostEqual(m["trace.overhead_frac"], 0.5)


if __name__ == "__main__":
    unittest.main()
