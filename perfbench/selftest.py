"""Self-tests of the benchmark's own arithmetic and checks; run in seconds:

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import threading
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def span(sid, parent, name, t0, t1, thread=1, rnd=1, n=0, m=0):
    return (sid, parent, name, t0, t1, thread, rnd, n, m)


class SpanArithmetic(unittest.TestCase):
    def test_self_time_two_thread_tree(self):
        # thread 1: a [0,10] > b [1,4] > d [2,3]; a > c [5,7]
        # thread 2: e [2,9] > f [3,8], overlapping a in time only
        tree = [
            span(4, 2, "d", 2.0, 3.0), span(2, 1, "b", 1.0, 4.0),
            span(3, 1, "c", 5.0, 7.0), span(1, 0, "a", 0.0, 10.0),
            span(6, 5, "f", 3.0, 8.0, thread=2), span(5, 0, "e", 2.0, 9.0, thread=2),
        ]
        got = spans.self_times(tree)
        want = {1: 5.0, 2: 2.0, 3: 2.0, 4: 1.0, 5: 2.0, 6: 5.0}
        for sid, value in want.items():
            self.assertAlmostEqual(got[sid], value, msg=f"span {sid}")
        totals = spans.span_totals(tree)
        self.assertAlmostEqual(totals[("a", "round")]["self"], 5.0)
        self.assertAlmostEqual(sum(t["self"] for t in totals.values()), 17.0)

    def test_parent_stacks_are_per_thread(self):
        tracer = spans.Tracer()
        barrier = threading.Barrier(2, timeout=10)
        inner = tracer.wrap("inner", lambda: barrier.wait())
        outer = tracer.wrap("outer", lambda: inner())
        workers = [threading.Thread(target=outer) for _ in range(2)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=10)
            self.assertFalse(w.is_alive())
        by_id = {s[0]: s for s in tracer.spans}
        inners = [s for s in tracer.spans if s[2] == "inner"]
        self.assertEqual(len(inners), 2)
        for s in inners:
            self.assertEqual(by_id[s[1]][2], "outer")
            self.assertEqual(by_id[s[1]][5], s[5])

    def test_tail_needs_ten_beyond(self):
        self.assertEqual(spans.tail(list(range(1, 21))), (10, 50.0, 20))
        value, pct, n = spans.tail(list(range(100, 0, -1)))
        self.assertEqual((value, pct, n), (90, 90.0, 100))
        self.assertEqual(spans.tail(list(range(10))), (None, None, 10))

    def test_probe_useful_ratio_from_known_mask(self):
        mask = np.array([[1, 0, 0], [1, 1, 0], [0, 0, 1], [1, 0, 0]], dtype=bool)
        rows, useful = spans._probe_rows((None, None, mask, 5, None), {}, None)
        self.assertEqual((rows, useful), (5 * 4 * 3, 5 * 5))
        one_column = np.array([[1, 0, 0], [1, 0, 0]], dtype=bool)
        self.assertEqual(spans._probe_rows((None, None, one_column, 5, None), {}, None),
                         (10, 10))
        trace = [span(1, 0, "uncertainty.probe", 0.0, 1.0, n=rows, m=useful),
                 span(2, 0, "fedsim.local_update", 0.0, 2.0)]
        got = run.layer_metrics(trace, rounds=1)
        self.assertAlmostEqual(got["uncertainty.probe_useful_ratio"], 25 / 60)
        self.assertEqual(got["uncertainty.probe_rows"], 60)

    def test_client_idle_ratio(self):
        # two threads, phase [0, 4]: busy 4 + 2 of capacity 8
        trace = [span(1, 0, "fedsim.local_update", 0.0, 4.0, thread=1),
                 span(2, 0, "fedsim.local_update", 0.0, 2.0, thread=2)]
        self.assertEqual(spans.client_phase(trace), (4.0, 0.25))

    def test_digest_mismatch_detected(self):
        self.assertEqual(run.digest_mismatches(["a", "a", "b", None, "a"]), [2])
        self.assertEqual(run.digest_mismatches([None, "b", "b"]), [])

    def test_coverage_guard_names_the_span(self):
        trace = [span(1, 0, "uncertainty.probe", 0.0, 1.0)]
        errors = spans.coverage_errors(
            trace, {"uncertainty.probe": False, "nn.adam": True})
        self.assertEqual(len(errors), 2)
        self.assertIn("nn.adam", errors[0])
        self.assertIn("uncertainty.probe", errors[1])


class Declarations(unittest.TestCase):
    def test_benchmark_json_matches_the_code(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            bench = json.load(fh)
        self.assertEqual([w["name"] for w in bench["workloads"]],
                         list(workloads.BENCHMARK_WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in bench["end_to_end"]},
                         run.END_TO_END_UNITS)
        self.assertEqual(
            {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]},
            {k: (v["unit"], v["better"]) for k, v in run.LAYERS.items()})
        for name, entry in run.LAYERS.items():
            self.assertTrue(set(entry["on"]) <= set(workloads.BENCHMARK_WORKLOADS), name)


class Smoke(unittest.TestCase):
    """The whole traced path on a tiny config, then a tampered output."""

    def test_smoke_run_and_tampered_digest(self):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = run.main(["--workload", "smoke", "--seed", "3",
                             "--seconds", "1", "--trace", "1"])
        result = json.loads(out.getvalue().splitlines()[-1])
        self.assertEqual(code, 0)
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertEqual(set(result["metrics"]), set(run.LAYERS))
        self.assertGreater(result["metrics"]["uncertainty.probe_calls"]["value"], 0)

        set_dir = os.path.join(run.OUT, "smoke", "s3-t1")
        rounds = workloads.WORKLOADS["smoke"]["rounds"]
        digests = [run.check_outputs(os.path.join(set_dir, f"rep{i}"), rounds)[0]
                   for i in range(2)]
        self.assertEqual(run.digest_mismatches(digests), [])
        path = os.path.join(set_dir, "rep1", "rounds.jsonl")
        with open(path, "rb") as fh:
            raw = bytearray(fh.read())
        last_digit = raw.index(b",", raw.index(b"test_mae")) - 1
        raw[last_digit] = ord("1") if raw[last_digit] != ord("1") else ord("2")
        with open(path, "wb") as fh:
            fh.write(bytes(raw))
        digests[1] = run.check_outputs(os.path.join(set_dir, "rep1"), rounds)[0]
        self.assertEqual(run.digest_mismatches(digests), [1])


if __name__ == "__main__":
    unittest.main()
