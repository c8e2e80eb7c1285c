"""Tests of the benchmark's own arithmetic on synthetic inputs.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""
import math
import unittest

import metrics as M


class PercentileRule(unittest.TestCase):
    def test_p99_when_ten_samples_lie_beyond_it(self):
        self.assertEqual(M.tail_percentile(range(1, 1001)), (99.0, 990, 1000))

    def test_falls_back_to_the_highest_percentile_with_ten_beyond(self):
        # 999 samples leave only 9 beyond rank 990, so p95 is reported.
        self.assertEqual(M.tail_percentile(range(1, 1000)), (95.0, 950, 999))
        self.assertEqual(M.tail_percentile(range(20))[0], 50.0)
        self.assertIsNone(M.tail_percentile(range(19)))

    def test_never_reports_above_the_wanted_percentile(self):
        self.assertEqual(M.tail_percentile(range(100000), want=99.0)[0], 99.0)

    def test_failures_count_as_missing_the_limit(self):
        lat = [1.0] * 985 + [math.inf] * 15
        self.assertEqual(M.tail_percentile(lat)[1], math.inf)


class SelfTime(unittest.TestCase):
    def test_nested_spans(self):
        parent = M.Span("parent", "x", 0, 100, tid=1)
        first = M.Span("first", "x", 10, 20, tid=1)
        second = M.Span("second", "x", 40, 20, tid=1)
        grandchild = M.Span("grandchild", "x", 45, 5, tid=1)
        after = M.Span("after", "x", 100, 10, tid=1)  # starts as parent ends
        other_thread = M.Span("other", "x", 0, 100, tid=2)
        own = M.self_times([grandchild, other_thread, after, second, parent, first])
        self.assertEqual(own[id(parent)], 60)
        self.assertEqual(own[id(first)], 20)
        self.assertEqual(own[id(second)], 15)
        self.assertEqual(own[id(grandchild)], 5)
        self.assertEqual(own[id(after)], 10)
        self.assertEqual(own[id(other_thread)], 100)

    def test_union_clips_and_merges(self):
        self.assertEqual(M.union_length([(0, 10), (5, 20), (30, 40), (90, 200)], 0, 100), 40)

    def test_bench_spans_land_on_the_trace_time_base(self):
        anchor = M.Span("bench.anchor", "bench", 2000.0, 0.0, tid=7)
        merged = M.merge_bench_spans([anchor], [["bench.train", 1_500_000, 1_800_000]],
                                     3_000_000, 3_000_000)
        (train,) = merged
        # epoch = 3_000_000 ns - 2000 µs, so the span starts 500 µs after it.
        self.assertEqual((train.ts, train.dur, train.tid), (500.0, 300.0, 7))


def one_connection(due, service):
    """A closed server with one connection: request i is sent when it is due
    or when the previous reply arrives, whichever is later."""
    sent, done, free = [], [], 0.0
    for d, s in zip(due, service):
        start = max(d, free)
        sent.append(start)
        free = start + s
        done.append(free)
    return {"due_ms": due, "sent_ms": sent, "done_ms": done, "ok": [1] * len(due),
            "phase": "ladder", "rate": 500.0}


class OpenLoop(unittest.TestCase):
    def test_latency_is_timed_from_the_due_time_when_the_server_stalls(self):
        due = [2.0 * i for i in range(1000)]
        service = [1.0] * 1000
        service[10] = 51.0  # a 50 ms stall while serving request 10
        w = one_connection(due, service)
        lat, lag = M.open_loop_latencies(w)
        # Request 11 was due at 22 ms but could only be sent at 71 ms.
        self.assertEqual(lag[11], 49.0)
        self.assertEqual(lat[11], 50.0)
        self.assertEqual(w["done_ms"][11] - w["sent_ms"][11], 1.0)
        # The queue behind the stall drains one ms per request: 50 requests wait.
        self.assertEqual(sum(1 for x in lat if x > 1.0), 50)
        self.assertEqual(M.tail_percentile(lat)[1], 41.0)
        self.assertFalse(M.backlog_grew(lag))
        # 5% of requests over the limit: p90 still meets it.
        self.assertTrue(M.window_meets_limit(w))
        service[10] = 201.0  # a 200 ms stall delays 200 requests
        self.assertFalse(M.window_meets_limit(one_connection(due, service)))

    def test_growing_backlog_fails_the_limit(self):
        due = [2.0 * i for i in range(1000)]
        lat, lag = M.open_loop_latencies(one_connection(due, [2.5] * 1000))
        self.assertTrue(M.backlog_grew(lag))

    def test_max_qps_is_the_highest_passing_ladder_rate(self):
        due = [2.0 * i for i in range(1000)]
        ok = one_connection(due, [1.0] * 1000)
        slow = one_connection(due, [1.0] * 1000)
        slow["ok"] = [1] * 880 + [0] * 120  # refused requests miss the limit
        fast = dict(ok, rate=800.0)
        self.assertEqual(M.max_qps([ok, dict(slow, rate=900.0), fast]), 800.0)
        self.assertEqual(M.max_qps([dict(slow, rate=300.0)]), 0.0)


if __name__ == "__main__":
    unittest.main()
