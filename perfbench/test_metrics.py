"""Unit tests of the benchmark's own arithmetic (metrics.py).

Run from the repository root: python3 -m unittest discover -s perfbench
"""

import json
import unittest
from pathlib import Path

import metrics

HERE = Path(__file__).resolve().parent


def raw_record(workload="bulk-2e20", phases=None, **extra):
    raw = {
        "workload": workload, "threads": 4, "peak_rss_kb": 2048, "local_rounds": 7,
        "drained": True, "setup_s": [3.0, 1.0, 2.0], "errors": [], "layers": {},
        "offline_ms": {}, "spans": [],
        "phases": phases if phases is not None else [
            {"traced": False, "wall_s": 2.0, "ops": [
                {"kind": "a", "ms": 10.0, "ok": True, "edges": 100, "rounds": 3},
                {"kind": "a", "ms": 30.0, "ok": True, "edges": 100, "rounds": 3},
                {"kind": "a", "ms": 20.0, "ok": True, "edges": 100, "rounds": 3},
            ]}],
    }
    raw.update(extra)
    return raw


class TailTest(unittest.TestCase):
    def test_exactly_ten_samples_beyond(self):
        samples = list(range(1, 1001))
        value, percentile, n = metrics.tail(samples)
        self.assertEqual(n, 1000)
        self.assertEqual(sum(1 for s in samples if s > value), 10)
        self.assertAlmostEqual(percentile, 99.0)

    def test_smallest_sample_count_with_a_tail(self):
        samples = [(7 * i) % 22 + 1 for i in range(22)]  # 1..22, shuffled
        value, percentile, _ = metrics.tail(samples)
        self.assertEqual(value, 12)  # ten samples beyond, above the median
        self.assertGreater(value, sorted(samples)[10])
        self.assertAlmostEqual(percentile, 100.0 * 12 / 22)

    def test_order_does_not_matter(self):
        samples = [float(x % 37) for x in range(200)]
        self.assertEqual(metrics.tail(samples), metrics.tail(sorted(samples)))

    def test_too_few_samples_fall_back_to_the_median(self):
        self.assertEqual(metrics.tail([3, 9, 1]), (3, 50.0, 3))
        self.assertEqual(metrics.tail(list(range(10))), (4.5, 50.0, 10))
        # 21 samples: the value with ten beyond it is the median itself.
        self.assertEqual(metrics.tail(list(range(21))), (10, 50.0, 21))

    def test_no_samples(self):
        with self.assertRaises(ValueError):
            metrics.tail([])


class SelfTimeTest(unittest.TestCase):
    def test_no_children(self):
        self.assertEqual(metrics.self_time((10, 50), []), 40)

    def test_overlapping_children_count_once(self):
        # [10,30] and [20,50] cover 40 together; [60,70] adds 10.
        self.assertEqual(metrics.self_time((0, 100), [(20, 50), (10, 30), (60, 70)]), 50)

    def test_nested_and_identical_children(self):
        self.assertEqual(metrics.self_time((0, 100), [(10, 90), (20, 30), (10, 90)]), 20)

    def test_children_are_clipped_to_the_parent(self):
        self.assertEqual(metrics.self_time((0, 100), [(-50, 10), (90, 200)]), 80)
        self.assertEqual(metrics.self_time((0, 100), [(150, 200)]), 100)

    def test_fully_covered(self):
        self.assertEqual(metrics.self_time((0, 100), [(0, 60), (40, 100)]), 0)


class AccountingTest(unittest.TestCase):
    def serve_raw(self, ops, drained=True):
        return raw_record("serve-tcp", [{"traced": False, "wall_s": 1.0, "ops": ops}],
                          drained=drained)

    @staticmethod
    def request(expect, answer, ok=True):
        return {"kind": "k", "ms": 1.0, "ok": ok, "edges": 0, "rounds": 0,
                "expect": expect, "answer": answer}

    def test_expected_refusal_is_a_success(self):
        raw = self.serve_raw([self.request("bad_request", "bad_request"),
                              self.request("done_failed", "done_failed"),
                              self.request("done", "done")])
        self.assertEqual(metrics.accounting(raw), (4, 0))  # three requests + drain
        self.assertEqual(metrics.end_to_end(raw)[0]["ok_share"], 1.0)

    def test_unexpected_answers_fail(self):
        raw = self.serve_raw([self.request("done", "bad_request"),
                              self.request("bad_request", "done"),
                              self.request("pong", "disconnect")])
        self.assertEqual(metrics.accounting(raw), (4, 3))

    def test_never_admitted_is_a_failure(self):
        raw = self.serve_raw([self.request("done", "rejected"), self.request("done", "done")])
        self.assertEqual(metrics.accounting(raw), (3, 1))
        self.assertAlmostEqual(metrics.end_to_end(raw)[0]["ok_share"], 2 / 3)

    def test_expected_answer_with_wrong_rows_fails(self):
        raw = self.serve_raw([self.request("done", "done", ok=False)])
        self.assertEqual(metrics.accounting(raw), (2, 1))

    def test_undrained_daemon_is_a_failure(self):
        raw = self.serve_raw([self.request("done", "done")], drained=False)
        self.assertEqual(metrics.accounting(raw), (2, 1))

    def test_sweeps_count_rows(self):
        ops = [{"kind": "sweep", "ms": 5.0, "ok": True, "edges": 9, "rounds": 4,
                "rows": 294, "failed_rows": 0},
               {"kind": "sweep", "ms": 5.0, "ok": False, "edges": 9, "rounds": 4,
                "rows": 294, "failed_rows": 2}]
        raw = raw_record("landscape", [{"traced": False, "wall_s": 10.0, "ops": ops}])
        self.assertEqual(metrics.accounting(raw), (588, 2))

    def test_verifier_verdict_feeds_failures(self):
        raw = raw_record()
        raw["phases"][0]["ops"][1]["ok"] = False
        self.assertEqual(metrics.accounting(raw), (3, 1))


class EndToEndTest(unittest.TestCase):
    def test_values(self):
        values, tail = metrics.end_to_end(raw_record())
        self.assertEqual(values["setup_s"], 2.0)
        self.assertEqual(values["op_ms_p50"], 20.0)
        self.assertEqual(values["op_ms_tail"], 20.0)
        self.assertEqual(tail, {"percentile": 50.0, "samples": 3})
        self.assertEqual(values["ops_per_s"], 1.5)
        self.assertEqual(values["verified_edges_per_s"], 150.0)
        self.assertEqual(values["peak_rss_mb"], 2.0)
        self.assertEqual(values["local_rounds"], 7)
        self.assertEqual(set(values), {name for name, _, _ in metrics.END_TO_END})


class PerLayerTest(unittest.TestCase):
    def test_bulk_op_breakdown(self):
        spans = [[1, 0, 1, "setup", 0, 5_000_000], [2, 1, 1, "graph.build", 0, 5_000_000],
                 [3, 0, 3, "op:mis/luby", 0, 10_000_000],
                 [4, 3, 3, "shuffled_ids", 0, 1_000_000],
                 [5, 3, 3, "ids_valid", 1_000_000, 3_000_000],
                 [6, 3, 3, "solve", 3_000_000, 9_000_000],
                 [7, 3, 3, "check", 9_000_000, 9_500_000]]
        phases = [{"traced": False, "wall_s": 1.0, "ops": [
                      {"kind": "mis/luby", "ms": 10.0, "ok": True, "edges": 1, "rounds": 1}]},
                  {"traced": True, "wall_s": 1.0, "ops": [
                      {"kind": "mis/luby", "ms": 11.0, "ok": True, "edges": 1, "rounds": 1}]}]
        values = metrics.per_layer(raw_record(phases=phases, spans=spans,
                                              layers={"engine.bytes_slab": 64}))
        self.assertEqual(values["graph.build_ms"], 5.0)
        self.assertEqual(values["graph.builds"], 1)
        self.assertEqual(values["ids.assign_ms"], 1.0)
        self.assertEqual(values["ids.validate_ms"], 2.0)
        self.assertEqual(values["algo.solve_ms.mis-luby"], 6.0)
        self.assertEqual(values["checker.check_ms"], 0.5)
        self.assertEqual(values["engine.bytes_slab"], 64)
        self.assertEqual(values["serve.accept_ms"], 0.0)
        self.assertAlmostEqual(values["trace.overhead_pct"], 10.0)
        self.assertAlmostEqual(values["trace.coverage"], 0.95)
        self.assertEqual(list(values), [name for name, _, _ in metrics.PER_LAYER])

    def test_sweep_rows_on_the_pool(self):
        spans = [[1, 0, 1, "op:sweep", 0, 100_000_000],
                 [2, 1, 1, "graph.build", 0, 10_000_000],
                 [3, 1, 1, "run_batch", 10_000_000, 90_000_000],
                 [4, 3, 1, "row:coloring/decomposition-sweep", 10_000_000, 50_000_000],
                 [5, 3, 1, "row:coloring/decomposition-sweep", 10_000_000, 30_000_000],
                 [6, 3, 1, "row:mis/luby", 20_000_000, 90_000_000],
                 [7, 1, 1, "to_json", 90_000_000, 95_000_000]]
        values = metrics.per_layer(raw_record("landscape", spans=spans))
        self.assertEqual(values["algo.solve_ms.coloring-decomposition-sweep"], 60.0)
        self.assertEqual(values["runner.row_ms_max"], 70.0)
        self.assertAlmostEqual(values["thread_pool.utilization"], 130.0 / (4 * 80.0))
        self.assertEqual(values["graph.builds"], 1)
        self.assertEqual(values["runner.render_ms"], 5.0)
        self.assertAlmostEqual(values["trace.coverage"], 0.95)


class DefinitionTest(unittest.TestCase):
    def test_benchmark_json_matches(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]],
                         metrics.END_TO_END)
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
                         metrics.PER_LAYER)

    def test_every_layer_is_documented(self):
        layers = json.loads((HERE / "layers.json").read_text())["layers"]
        self.assertEqual([entry["metric"] for entry in layers],
                         [name for name, _, _ in metrics.PER_LAYER])
        e2e = {name for name, _, _ in metrics.END_TO_END}
        for entry in layers:
            self.assertTrue(set(entry["moves"]) <= e2e, entry["metric"])


if __name__ == "__main__":
    unittest.main()
