"""Tests of the benchmark's own rules: the percentile rule, self-time
subtraction, run windows, the metric-name grammar, and agreement between
BENCHMARK.json and the metrics the benchmark emits.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import re
import unittest
from pathlib import Path

import metrics
import run

BENCH_DIR = Path(__file__).resolve().parent
SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def fake_doc(workload):
    """A small raw run document shaped like the runner's output for
    `workload`: traced requests alternating between a derived plan and a
    cache hit, on the workload's route, plus the untraced latencies."""
    route = "morpheus" if workload == "factorized" else "dag"
    n = 300
    doc = {
        "header": {"workload": workload, "optimized": True},
        "setup_seconds": [0.02, 0.01, 0.03],
        "latencies": [0.001 * (1 + i % 50) for i in range(n)],
        "latency_ends": [0.01 * (i + 1) for i in range(n)],
        "writes": ([["update", 0.004], ["append_batch", 0.03]] * 30
                   if workload == "mixed_rw" else []),
        "attempted": n,
        "failed": 0,
        "failures": [],
        "peak_rss_kib": 400 * 1024,
        "traced_latencies": [0.010] * 40,
        "queue_wait_ms": [0.05, 0.09],
        "mnc_sketch_s": [0.03, 0.02, 0.025],
        "versions_peak": 14,
        "pinned_peak": 2,
        "retired_total": 40,
        "cache_hits": 1,
        "cache_misses": 1,
        "morpheus_speedups": [2.0, 8.0] if route == "morpheus" else [],
        "morpheus_rwfind_s": [0.001] if route == "morpheus" else [],
        "morpheus_exec_s": [0.004] if route == "morpheus" else [],
    }
    spans = []
    requests = []
    for req in range(40):
        hit, t0 = req % 2 == 1, float(req)
        wall = 0.010
        root = len(spans)
        spans.append([req, "request", -1, t0, t0 + wall])
        spans.append([req, "parse", root, t0, t0 + 0.0001])
        prepare = len(spans)
        spans.append([req, "prepare", root, t0 + 0.0001, t0 + 0.006])
        if not hit:
            spans.append([req, "rwfind", prepare, t0 + 0.001, t0 + 0.006])
        execute = len(spans)
        spans.append([req, "execute", root, t0 + 0.006, t0 + wall])
        if route == "dag":
            spans.append([req, "compile", execute, t0 + 0.006, t0 + 0.007])
        requests.append({
            "request": req, "pipeline": "P1.1", "opt_class": False,
            "estimator": "naive", "route": route, "hit": hit,
            "rwfind_s": 0.0 if hit else 0.005, "improved": True,
            "gamma_ratio": 4.0,
            "chase": {"rounds": 3, "tgd_applications": 100,
                      "facts_added": 50, "merges": 4,
                      "pruned_applications": 20, "budget_exhausted": False},
            "exec": {"seconds": 0.002, "operator_s": 0.002,
                     "critical_path_s": 0.001, "plan_nodes": 5,
                     "cse_hits": 1, "fused_nodes": 1,
                     "fused_ops_eliminated": 1, "intermediate_nnz": 1e4,
                     "ops": {"%*%": 0.0015, "t": 0.0005}},
        })
    doc["spans"] = spans
    doc["requests"] = requests
    return doc


class PercentileRuleTest(unittest.TestCase):
    def test_reports_when_ten_samples_lie_beyond(self):
        self.assertAlmostEqual(metrics.percentile(range(1, 21), 50), 10.5)
        self.assertTrue(89 < metrics.percentile(range(1, 101), 90) < 92)
        self.assertAlmostEqual(metrics.percentile([5.0] * 30, 50), 5.0)

    def test_estimate_falls_between_clusters_at_a_gap(self):
        # 100 fast and 20 slow requests: the nearest rank (108) is a slow
        # one; the estimate weighs both sides of the gap.
        p90 = metrics.percentile([1.0] * 100 + [10.0] * 20, 90)
        self.assertTrue(1.0 < p90 < 10.0)

    def test_refuses_with_fewer_than_ten_beyond(self):
        with self.assertRaises(metrics.TooFewSamples):
            metrics.percentile(range(1, 20), 50)
        with self.assertRaises(metrics.TooFewSamples):
            metrics.percentile(range(1, 100), 90)
        with self.assertRaises(metrics.TooFewSamples):
            metrics.percentile([], 50)

    def test_order_does_not_matter(self):
        self.assertAlmostEqual(metrics.percentile(list(range(40, 0, -1)), 50),
                               metrics.percentile(list(range(1, 41)), 50))

    def test_zero_only_when_no_samples(self):
        self.assertEqual(metrics.percentile_or_zero([], 50), 0.0)
        with self.assertRaises(metrics.TooFewSamples):
            metrics.percentile_or_zero([1.0, 2.0], 50)


class SelfTimeTest(unittest.TestCase):
    def test_children_are_subtracted_once(self):
        spans = [
            [0, "request", -1, 0.0, 10.0],
            [0, "a", 0, 1.0, 3.0],
            [0, "b", 0, 2.0, 5.0],  # Overlaps a: [1, 5] counts once.
            [0, "c", 0, 6.0, 7.0],
            [0, "d", 3, 6.5, 7.0],  # Grandchild: only c loses it.
        ]
        self.assertEqual(metrics.self_times(spans), [5.0, 2.0, 3.0, 0.5, 0.5])

    def test_child_outside_parent_is_clipped(self):
        spans = [[0, "p", -1, 0.0, 2.0], [0, "c", 0, 1.0, 4.0]]
        self.assertEqual(metrics.self_times(spans), [1.0, 3.0])

    def test_unattributed_ratio_is_root_self_over_root_wall(self):
        doc = fake_doc("mixed_rw")
        m = metrics.per_layer(doc)
        # Every request's children cover its whole 10 ms wall.
        self.assertAlmostEqual(m["trace.unattributed_ratio"], 0.0)
        # Open a 1 ms gap in every request: 10% of the wall is unattributed.
        for span in doc["spans"]:
            if span[1] == "execute":
                span[3] += 0.001
        m = metrics.per_layer(doc)
        self.assertAlmostEqual(m["trace.unattributed_ratio"], 0.1)


class WindowTest(unittest.TestCase):
    def test_equal_windows_in_completion_order(self):
        lat = list(range(500))
        ends = [i * 0.1 for i in range(500)][::-1]  # Reverse completion.
        ws = metrics.windows(lat, ends)
        self.assertEqual(len(ws), 5)
        self.assertTrue(all(len(w[0]) == 100 for w in ws))
        self.assertEqual(ws[0][0][0], 499)

    def test_short_runs_use_one_window(self):
        self.assertEqual(len(metrics.windows([1.0] * 150, range(150))), 1)


class NameGrammarTest(unittest.TestCase):
    def test_every_name_and_unit_is_well_formed(self):
        names = [w["name"] for w in SPEC["workloads"]]
        names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
        for name in names:
            self.assertRegex(name, metrics.NAME_RE)
        self.assertEqual(len(names), len(set(names)))
        for m in SPEC["end_to_end"] + SPEC["per_layer"]:
            self.assertRegex(m["unit"], UNIT_RE)

    def test_grammar_rejects_bad_names(self):
        for bad in ["", "_x", "a b", "kernel.%*%", "x" * 65]:
            self.assertIsNone(metrics.NAME_RE.match(bad))


class SpecAgreementTest(unittest.TestCase):
    def test_spec_matches_the_metric_tables(self):
        self.assertEqual(
            [(m["name"], m["unit"], m["better"], m["bound"])
             for m in SPEC["end_to_end"]],
            [tuple(row) for row in metrics.END_TO_END])
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]],
            [row[:3] for row in metrics.PER_LAYER])
        self.assertEqual([w["name"] for w in SPEC["workloads"]], run.WORKLOADS)

    def test_every_workload_emits_exactly_the_spec_metrics(self):
        e2e = {m["name"] for m in SPEC["end_to_end"]}
        layer = {m["name"] for m in SPEC["per_layer"]}
        for workload in run.WORKLOADS:
            doc = fake_doc(workload)
            self.assertEqual(set(metrics.result_line(doc, False)["metrics"]),
                             e2e, workload)
            self.assertEqual(set(metrics.result_line(doc, True)["metrics"]),
                             layer, workload)

    def test_runner_knows_every_workload(self):
        source = (BENCH_DIR / "src" / "workloads.cc").read_text()
        for workload in run.WORKLOADS:
            self.assertIn(f'"{workload}"', source)

    def test_spec_obeys_the_contract_limits(self):
        self.assertEqual(set(SPEC), {"command", "paths", "run_seconds",
                                     "workloads", "end_to_end", "per_layer"})
        self.assertTrue(1 <= SPEC["run_seconds"] <= 60)
        self.assertTrue(2 <= len(SPEC["workloads"]) <= 8)
        for w in SPEC["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
        for m in SPEC["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertLessEqual(m["bound"], 0.25)
        setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["unit"], "s")
        self.assertEqual(setup[0]["better"], "lower")
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in SPEC["end_to_end"]))
        for m in SPEC["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})


class ResultLineTest(unittest.TestCase):
    def test_failures_make_the_result_incorrect(self):
        doc = fake_doc("cold_plan")
        self.assertTrue(metrics.result_line(doc, False)["correct"])
        doc["failed"] = 1
        self.assertFalse(metrics.result_line(doc, False)["correct"])

    def test_unattributed_time_fails_a_traced_run(self):
        doc = fake_doc("mixed_rw")
        self.assertTrue(metrics.result_line(doc, True)["correct"])
        # A 1 ms gap in every 10 ms request: 10% unattributed.
        for span in doc["spans"]:
            if span[1] == "execute":
                span[3] += 0.001
        self.assertFalse(metrics.result_line(doc, True)["correct"])
        # The untraced run does not compute the ratio.
        self.assertTrue(metrics.result_line(doc, False)["correct"])

    def test_every_value_carries_its_unit(self):
        line = metrics.result_line(fake_doc("factorized"), True)
        for name, m in line["metrics"].items():
            self.assertEqual(m["unit"], metrics.UNITS[name])
            self.assertIsInstance(m["value"], float)


if __name__ == "__main__":
    unittest.main()
