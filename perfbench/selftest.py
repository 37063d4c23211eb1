"""Self-tests for the benchmark's own arithmetic and wiring.

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import harness  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from harness import Op  # noqa: E402


class SelfTime(unittest.TestCase):
    def test_nested_spans(self):
        spans = [(0.0, 10.0, -1), (2.0, 5.0, 0), (3.0, 4.0, 1)]
        self.assertEqual(tracer.self_times(spans), [7.0, 2.0, 1.0])

    def test_overlapping_children_count_once(self):
        spans = [(0.0, 10.0, -1), (1.0, 4.0, 0), (3.0, 6.0, 0), (8.0, 9.0, 0)]
        self.assertEqual(tracer.self_times(spans)[0], 10.0 - 5.0 - 1.0)

    def test_child_clipped_to_parent(self):
        spans = [(0.0, 10.0, -1), (8.0, 12.0, 0), (-1.0, 1.0, 0)]
        self.assertEqual(tracer.self_times(spans)[0], 10.0 - 2.0 - 1.0)

    def test_leaf_and_siblings(self):
        spans = [(0.0, 4.0, -1), (0.0, 1.0, 0), (1.0, 2.0, 0), (5.0, 6.0, -1)]
        self.assertEqual(tracer.self_times(spans), [2.0, 1.0, 1.0, 1.0])


class Percentile(unittest.TestCase):
    def test_nearest_rank(self):
        samples = list(range(1, 101))
        self.assertEqual(harness.percentile(samples, 0.9), 90)
        self.assertEqual(harness.percentile(reversed(samples), 0.5), 50)

    def test_refuses_fewer_than_ten_beyond(self):
        with self.assertRaises(ValueError):
            harness.percentile(range(99), 0.9)
        with self.assertRaises(ValueError):
            harness.percentile(range(19), 0.5)
        self.assertEqual(harness.percentile(range(20), 0.5), 9)

    def test_rejects_out_of_range_fraction(self):
        with self.assertRaises(ValueError):
            harness.percentile(range(100), 1.0)


def _op(key, run, check=lambda r: r is True, expect=None):
    return Op(key, run=run, check=check, expect=expect)


def _boom():
    raise RuntimeError("boom")


class FailedRatio(unittest.TestCase):
    def test_every_failure_kind_counts(self):
        ops = [
            _op("ok", lambda: True),
            _op("wrong verdict", lambda: False),
            _op("raises", _boom),
            _op("check raises", lambda: True, check=lambda r: r["missing"]),
            _op("differs from reference", lambda: True, expect=harness.digest(False)),
            _op("matches reference", lambda: True, expect=harness.digest(True)),
        ]
        tally = harness.run_pass(ops)
        self.assertEqual((tally.attempted, tally.failed, tally.completed), (6, 4, 2))
        self.assertAlmostEqual(tally.failed_ratio, 4 / 6)
        self.assertEqual(len(tally.durations), 6)
        self.assertTrue(tally.failures[0].startswith("wrong verdict"))

    def test_time_bound_respects_min_ops_and_whole_passes(self):
        ticks = iter(range(1000))
        tally, setups = harness.run_passes([lambda: [_op("ok", lambda: True)]], seconds=0,
                                           min_ops=3, clock=lambda: next(ticks))
        self.assertEqual((tally.attempted, len(setups)), (3, 3))
        pool = [lambda: [_op("a", lambda: True), _op("b", lambda: True)], lambda: [_op("c", lambda: True)]]
        ticks = iter(range(1000))
        tally, setups = harness.run_passes(pool, seconds=0, min_ops=4, clock=lambda: next(ticks))
        self.assertEqual((tally.keys, len(setups)), (["a", "b", "c"] * 2, 2))

    def test_setup_sums_each_builders_median_scaled_build(self):
        tally = harness.run_pass([_op("ok", lambda: True)] * harness.MIN_OPS)
        setups = [[(3.0, 1.0), (1.0, 1.0)], [(4.0, 2.0), (5.0, 1.0)], [(4.0, 1.0), (4.0, 1.0)]]
        self.assertEqual(harness.end_to_end(tally, setups, 1.0, 1.0)["setup_s"], (7.0, "s"))


class FullSpeed(unittest.TestCase):
    def test_typical_time_is_the_median_scaled_repeat(self):
        tally = harness.Tally(durations=[2.0, 1.5, 3.0, 0.5], keys=["a", "a", "a", "b"],
                              probes=[2.0, 1.0, 1.5, 0.5])
        self.assertEqual(harness.typical_times(tally, 0.5), {"a": 0.75, "b": 0.5})

    def test_a_slowdown_that_hits_probe_and_op_alike_cancels(self):
        fast = harness.Tally(durations=[1.0, 2.0, 3.0], keys=["a", "b", "c"], probes=[1.0] * 3)
        slow = harness.Tally(durations=[1.5, 4.0, 4.5], keys=["a", "b", "c"], probes=[1.5, 2.0, 1.5])
        self.assertEqual(harness.typical_times(fast, 1.0), harness.typical_times(slow, 1.0))

    def test_probe_brackets_every_op_and_build(self):
        calls = []
        probe = harness.Probe(lambda: calls.append("probe"), 1.0)
        ops, times = harness.build([lambda: calls.append("build") or [_op("a", lambda: calls.append("a") or True)]],
                                   probe)
        tally = harness.run_pass(ops * 2, probe=probe)
        self.assertEqual(calls, ["probe", "build", "probe", "probe", "a", "probe", "a", "probe"])
        self.assertEqual((len(times), len(tally.probes)), (1, 2))

    def test_every_pass_gets_a_fresh_pool(self):
        built = []

        def builder():
            op = _op("ok", lambda: True)
            built.append(op)
            return [op]

        seen = []
        harness.run_passes([builder], seconds=0, attach=seen.extend, min_ops=3)
        self.assertEqual(len({id(op) for op in built}), 3)
        self.assertEqual(seen, built)

    def test_extend_merges(self):
        a = harness.run_pass([_op("raises", _boom)] * 2)
        b = harness.run_pass([_op("ok", lambda: True)] * 3)
        a.extend(b)
        self.assertEqual((a.attempted, a.failed, len(a.durations)), (5, 2, 5))


class Wiring(unittest.TestCase):
    def test_wrappers_cover_every_importing_module_and_come_off(self):
        from minkpair import core, planar, spatial

        original = core.linear_feasible
        ops, _ = harness.build(run.draw("summand3", 5, None)[:1])
        t = tracer.Tracer()
        t.install()
        try:
            self.assertIsNot(core.linear_feasible, original)
            self.assertIs(spatial.linear_feasible, core.linear_feasible)
            self.assertIs(planar.linear_feasible, core.linear_feasible)
            results = [t.invoke(op) for op in ops]
        finally:
            t.uninstall()
        self.assertIs(core.linear_feasible, original)
        self.assertIs(spatial.linear_feasible, original)
        self.assertTrue(all(op.check(r) for op, r in zip(ops, results)))
        names = set(t.names)
        self.assertTrue({"op", "spatial.summand_criterion3", "core.linear_feasible"} <= names)
        roots = [i for i, p in enumerate(t.parent) if p < 0]
        self.assertEqual([(t.names[i], t.op[i]) for i in roots], [("op", 0), ("op", 1)])
        metrics, by_module = tracer.layer_metrics(t, {"trace.overhead_ratio": 1.0,
                                                      "cli.interpreter_s": 0.0, "cli.import_s": 0.0})
        self.assertEqual(list(metrics), [m for m, _, _ in tracer.PER_LAYER])
        self.assertGreater(metrics["core.linear_feasible.calls"][0], 0)
        self.assertGreater(by_module["core"], 0)

    def test_benchmark_json_matches_the_code(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
                         list(tracer.PER_LAYER))
        tally = harness.run_pass([_op("ok", lambda: True)] * harness.MIN_OPS)
        e2e = harness.end_to_end(tally, [[(1.0, 1.0)]], 1.0, 1.0)
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]],
                         [(name, unit) for name, (_, unit) in e2e.items()])


if __name__ == "__main__":
    unittest.main()
