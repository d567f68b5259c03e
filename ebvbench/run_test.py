#!/usr/bin/env python3
"""Unit tests for ebvbench/run.py (stdlib unittest):

    python3 ebvbench/run_test.py
"""

import importlib.util
import math
import os
import subprocess
import tempfile
import unittest
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "ebvbench_run", Path(__file__).resolve().parent / "run.py")
run = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(run)


def span(name, tid, ts_us, dur_us):
    return {"name": name, "ph": "X", "tid": tid, "ts": ts_us, "dur": dur_us}


class SelfTimeTest(unittest.TestCase):
    def test_nested_spans_on_several_tracks(self):
        # Track 0: rep [0,100) holds convert [10,30) and run [40,60);
        # run holds superstep [45,50). Track 1 overlaps rep in time but
        # is another thread, so it covers none of rep.
        summary = run.TraceSummary([
            span("bench.rep", 0, 0, 100),
            span("bench.convert", 0, 10, 20),
            span("bench.run", 0, 40, 20),
            span("superstep", 0, 45, 5),
            span("compute", 1, 0, 50),
        ])
        self.assertAlmostEqual(summary.self_ms("bench.rep"), 60e-3)
        self.assertAlmostEqual(summary.self_ms("bench.run"), 15e-3)
        self.assertAlmostEqual(summary.self_ms("superstep"), 5e-3)
        self.assertAlmostEqual(summary.self_ms("compute"), 50e-3)
        self.assertAlmostEqual(summary.total_ms("bench.rep"), 100e-3)

    def test_overlapping_children_count_once(self):
        # x [10,50) and y [30,70) overlap: together they cover 60 of the
        # parent. z [90,120) crosses the parent's end, so it is no child.
        spans = [(0, 0, 100), (0, 10, 40), (0, 30, 40), (0, 90, 30)]
        self.assertEqual(run.self_times(spans), [40, 40, 40, 30])

    def test_identical_spans_and_microsecond_decimals(self):
        summary = run.TraceSummary([
            span("outer", 2, "1.500", "2.250"),
            span("inner", 2, "1.500", "2.250"),
        ])
        self.assertAlmostEqual(summary.self_ms("outer"), 0.0)
        self.assertAlmostEqual(summary.self_ms("inner"), 2.25e-3)

    def test_instants_are_counted(self):
        summary = run.TraceSummary([
            {"name": "steal", "ph": "i", "tid": 1, "ts": 3, "s": "t"},
            {"name": "steal", "ph": "i", "tid": 2, "ts": 4, "s": "t"},
            {"name": "thread_name", "ph": "M", "tid": 1, "args": {}},
        ])
        self.assertEqual(summary.n("steal"), 2)
        self.assertEqual(summary.n("park"), 0)


class PipelineLayersTest(unittest.TestCase):
    def test_wall_times_come_from_spans_only(self):
        rusage = {f: 1 for f in run.RUSAGE_FIELDS}
        rep = {"warmup": False, "pipeline_s": 1.0,
               "calls": {c: rusage for c in run.CALLS}}
        raw = {"threads": 4, "edges": 1000, "peak_resident_workers": 0,
               "reps": [dict(rep, traced=True), dict(rep, traced=False)]}
        traced = run.TraceSummary([span("bench.rep", 0, 0, 100),
                                   span("bench.partition", 0, 0, 40)])
        decomposition = [span("bench.edge-order", 0, 0, 1000),
                         span("bench.eva-score", 0, 1000, 3000),
                         span("bench.edge-order", 0, 4000, 2000),
                         span("bench.eva-score", 0, 6000, 5000),
                         span("bench.edge-order", 0, 11000, 9000),
                         span("bench.eva-score", 0, 20000, 4000)]
        names = ["partition.total_ms", "partition.edge_order_ms",
                 "partition.eva_score_ms", "partition.edges_per_s",
                 "graph.open.cpu_ms"]
        m = run.pipeline_layers(raw, [traced], decomposition, names)
        self.assertAlmostEqual(m["partition.total_ms"], 0.04)
        self.assertAlmostEqual(m["partition.edges_per_s"], 1000 / 40e-6)
        self.assertEqual(m["partition.edge_order_ms"], 2.0)
        self.assertEqual(m["partition.eva_score_ms"], 4.0)
        self.assertEqual(m["graph.open.cpu_ms"], 1)


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = [7, 1, 10, 3, 5, 2, 9, 4, 8, 6]
        self.assertEqual(run.percentile(values, 0.50), 5)
        self.assertEqual(run.percentile(values, 0.99), 10)
        self.assertEqual(run.percentile(values, 0.10), 1)
        self.assertEqual(run.percentile(values, 0.11), 2)
        self.assertEqual(run.percentile(values, 0.0), 1)
        self.assertEqual(run.percentile([42], 0.99), 42)

    def test_empty_is_an_error(self):
        with self.assertRaises(ValueError):
            run.percentile([], 0.5)


class ServeLatencyTest(unittest.TestCase):
    def test_latency_runs_from_the_intended_send_time(self):
        # The generator fell 30 ms behind on the second and third
        # requests; each still waited in the client queue, so their
        # latency counts from when they were due.
        raw = {"requests": [
            ["degree", 0.0, 0.0, 1.0, True],
            ["lookup", 10.0, 40.0, 41.0, True],
            ["stats", 20.0, 41.0, 42.0, True],
            ["neighbors", 30.0, 42.0, 43.0, False],
            ["run", 50.0, 50.0, 900.0, True],
        ]}
        mix, runs, lags, within = run.serve_requests(raw)
        self.assertEqual(mix, [1.0, 31.0, 22.0, 13.0])
        self.assertEqual(runs, [850.0])
        self.assertEqual(lags, [0.0, 30.0, 21.0, 12.0, 0.0])
        # Within limit: the first request and the run; the late ones miss
        # 10 ms, and the failed one counts as missing regardless.
        self.assertEqual(within, 2)

    def test_layer_metrics(self):
        raw = {"requests": [["degree", 0.0, 5.0, 6.0, True],
                            ["run", 0.0, 0.0, 700.0, True]],
               "overloaded": 3}
        events = [
            dict(span("serve.queue-wait", 0, 0, 500), args={"v": 1}),
            dict(span("serve.queue-wait", 0, 600, 100), args={"v": 4}),
            dict(span("serve.handler", 0, 500, "20.5"), args={"v": 1}),
            dict(span("serve.handler", 0, 700, 699000), args={"v": 4}),
        ]
        names = ["serve.queue_wait_p50_ms", "serve.handler_p50_ms",
                 "serve.run_handler_p50_ms", "serve.overloaded",
                 "serve.gen_lag_p99_ms", "serve.request_p99_ms",
                 "serve.run_p50_ms", "serve.slo_ratio", "bsp.run_ms"]
        m = run.serve_layers(raw, events, names)
        self.assertEqual(m["serve.queue_wait_p50_ms"], 0.5)
        self.assertEqual(m["serve.handler_p50_ms"], 0.0205)
        self.assertEqual(m["serve.run_handler_p50_ms"], 699.0)
        self.assertEqual(m["serve.overloaded"], 3)
        self.assertEqual(m["serve.gen_lag_p99_ms"], 5.0)
        self.assertEqual(m["serve.request_p99_ms"], 6.0)
        self.assertEqual(m["serve.run_p50_ms"], 700.0)
        self.assertEqual(m["serve.slo_ratio"], 1.0)
        self.assertEqual(m["bsp.run_ms"], 0)


def by_seed(values):
    return dict(enumerate(values, start=1))


class VerdictTest(unittest.TestCase):
    LATENCY = {"name": "latency_ms", "better": "lower", "bound": 0.10}
    SLO = {"name": "slo_ratio", "better": "higher", "bound": 0.01}
    MESSAGES = {"name": "messages", "better": "lower", "bound": 0.2}
    REPLICATION = {"name": "replication_factor", "better": "lower",
                   "bound": 0.005}

    def verdict(self, spec, base, change):
        return run.verdict(spec, by_seed(base), by_seed(change))

    def test_exact_metric_bit_equal(self):
        self.assertEqual(self.verdict(self.MESSAGES, [5, 6, 7], [5, 6, 7]),
                         "bit-equal")

    def test_exact_metric_is_compared_seed_by_seed_not_by_bound(self):
        # One seed 0.1% worse is a regression however small the bound says
        # a median may move, and however much the other seeds gained.
        self.assertEqual(self.verdict(self.MESSAGES, [100, 200, 300],
                                      [80, 200, 300.3]), "worse")
        self.assertEqual(self.verdict(self.REPLICATION, [4.45] * 3,
                                      [4.46, 4.45, 4.45]), "worse")
        self.assertEqual(self.verdict(self.MESSAGES, [100, 200, 300],
                                      [80, 200, 300]), "better")

    def test_exact_metric_pairs_by_seed(self):
        self.assertEqual(run.verdict(self.MESSAGES, {1: 100, 2: 200},
                                     {2: 200, 3: 50}), "bit-equal")
        self.assertEqual(run.verdict(self.MESSAGES, {1: 100}, {2: 100}),
                         "unresolved")

    def test_lower_is_better(self):
        base = [100, 101, 99, 100, 100]
        self.assertEqual(self.verdict(self.LATENCY, base, [105, 106, 104, 105, 105]),
                         "within bound")
        self.assertEqual(self.verdict(self.LATENCY, base, [115, 116, 114, 115, 115]),
                         "worse")
        self.assertEqual(self.verdict(self.LATENCY, base, [50, 51, 49, 50, 50]),
                         "within bound")

    def test_higher_is_better(self):
        base = [0.99, 0.99, 0.99, 0.99]
        self.assertEqual(self.verdict(self.SLO, base, [0.97] * 4), "worse")
        self.assertEqual(self.verdict(self.SLO, base, [0.995] * 4), "within bound")

    def test_pairs_cancel_the_spread_between_seeds(self):
        # Seeds differ by 2x, but every seed reads 5% slower: the change is
        # resolved as within the 10% bound, and 15% slower is worse.
        base = [50, 100, 75, 60, 90]
        self.assertEqual(self.verdict(self.LATENCY, base,
                                      [v * 1.05 for v in base]), "within bound")
        self.assertEqual(self.verdict(self.LATENCY, base,
                                      [v * 1.15 for v in base]), "worse")

    def test_wide_spread_is_unresolved_unless_every_pair_wins(self):
        base = [100] * 5
        self.assertEqual(self.verdict(self.LATENCY, base, [85, 105, 125, 95, 115]),
                         "unresolved")
        self.assertEqual(self.verdict(self.LATENCY, base, [40, 50, 60, 45, 99]),
                         "better")
        self.assertEqual(self.verdict(self.SLO, [0.5, 0.7, 0.9, 0.6],
                                      [0.95, 0.96, 0.97, 0.98]), "better")

    def test_relative_iqr(self):
        self.assertEqual(run.relative_iqr([3.0]), 0.0)
        self.assertTrue(math.isinf(run.relative_iqr([-1.0, 0.0, 0.0, 1.0, 2.0])))


class WorkDirTest(unittest.TestCase):
    def test_temporary_files_of_dead_runs_are_removed(self):
        child = subprocess.Popen(["true"])
        child.wait()
        dead = child.pid
        with tempfile.TemporaryDirectory(dir=Path(__file__).parent) as tmp:
            work = run.work_dir(Path(tmp), "powerlaw-cc", 7, "c0de")
            live = [work / "edges.txt", work / f"rep.{os.getpid()}-0.ebvs"]
            orphans = [work / f"rep.{dead}-0.ebvs",
                       work / f"edges.txt.tmp.{dead}-3",
                       work / f"ebv-mbox.{dead}-1.4.tmp"]
            for f in live + orphans:
                f.touch()
            self.assertEqual(run.work_dir(Path(tmp), "powerlaw-pr", 7, "c0de"),
                             work)
            self.assertEqual(sorted(work.iterdir()), sorted(live))

    def test_changed_sources_do_not_reuse_cached_outputs(self):
        with tempfile.TemporaryDirectory(dir=Path(__file__).parent) as tmp:
            root = Path(tmp) / "checkout"
            (root / "src" / "partition").mkdir(parents=True)
            (root / "ebvbench").mkdir()
            for name in ("CMakeLists.txt", "ebvbench/CMakeLists.txt",
                         "ebvbench/harness.cpp", "src/partition/ebv.cpp"):
                (root / name).write_text("v1\n")
            build = Path(tmp) / "build"
            before = run.code_digest(root)
            self.assertEqual(run.code_digest(root), before)
            cached = run.work_dir(build, "serve-mix", 3, before)
            (cached / "serve.ebvp").touch()

            (root / "src" / "partition" / "ebv.cpp").write_text("v2\n")
            after = run.code_digest(root)
            self.assertNotEqual(after, before)
            fresh = run.work_dir(build, "serve-mix", 3, after)
            self.assertNotEqual(fresh, cached)
            self.assertEqual(list(fresh.iterdir()), [])

            # A file moved between directories changes the digest too.
            (root / "src" / "partition" / "ebv.cpp").rename(root / "src" / "ebv.cpp")
            (root / "src" / "ebv.cpp").write_text("v1\n")
            self.assertNotEqual(run.code_digest(root), before)


class SeedTest(unittest.TestCase):
    def test_ranges_and_lists(self):
        self.assertEqual(run.parse_seeds("1-3,7"), [1, 2, 3, 7])


if __name__ == "__main__":
    unittest.main()
