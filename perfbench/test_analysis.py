"""Tests of the benchmark's parsing and statistics helpers.

    python3 perfbench/test_analysis.py
"""

import unittest

import analysis

EXPOSITION = """\
# TYPE rpe_server_frames_sent_total counter
rpe_server_frames_sent_total 1234
# TYPE rpe_shard_sessions_open gauge
rpe_shard_sessions_open{shard="0"} 3
rpe_shard_sessions_open{shard="1"} 4
# TYPE rpe_server_request_latency_seconds histogram
rpe_server_request_latency_seconds_bucket{le="1.024e-06"} 5
rpe_server_request_latency_seconds_bucket{le="+Inf"} 9
rpe_server_request_latency_seconds_sum 0.5
rpe_server_request_latency_seconds_count 9
rpe_last_retrain_ms 712.5
"""


class PrometheusTest(unittest.TestCase):
    def test_parses_series_with_and_without_labels(self):
        m = analysis.parse_prometheus(EXPOSITION)
        self.assertEqual(m['rpe_server_frames_sent_total'], 1234)
        self.assertEqual(m['rpe_shard_sessions_open{shard="1"}'], 4)
        self.assertEqual(
            m['rpe_server_request_latency_seconds_bucket{le="+Inf"}'], 9)
        self.assertEqual(m['rpe_last_retrain_ms'], 712.5)

    def test_family_sum_adds_labelled_series_only_of_that_name(self):
        m = analysis.parse_prometheus(EXPOSITION)
        self.assertEqual(analysis.family_sum(m, 'rpe_shard_sessions_open'), 7)
        # The histogram's _count is its own family, not a prefix match.
        self.assertEqual(
            analysis.family_sum(m, 'rpe_server_request_latency_seconds'), 0)
        self.assertEqual(analysis.family_sum(m, 'rpe_absent_total'), 0)

    def test_delta(self):
        before = analysis.parse_prometheus('a_total 10\n')
        after = analysis.parse_prometheus('a_total 25\n')
        self.assertEqual(analysis.delta(before, after, 'a_total'), 15)

    def test_rejects_malformed_lines(self):
        with self.assertRaises(ValueError):
            analysis.parse_prometheus('not a sample line at all\n')


def ev(name, span, parent, ts, dur):
    return {'name': name, 'ts': ts, 'dur': dur,
            'args': {'span': span, 'parent': parent}}


class SelfTimeTest(unittest.TestCase):
    def test_self_time_subtracts_the_union_of_children(self):
        events = [
            ev('request.advance', 1, 0, 100.0, 50.0),
            # Two overlapping children cover [110, 130]; one lies outside
            # the parent (decode happens before the root starts).
            ev('advance.step', 2, 1, 110.0, 15.0),
            ev('advance.step', 3, 1, 120.0, 10.0),
            ev('frame.decode', 4, 1, 90.0, 5.0),
        ]
        t = analysis.self_times(events)
        self.assertAlmostEqual(t['request.advance']['self_us'], 30.0)
        self.assertAlmostEqual(t['request.advance']['mean_us'], 50.0)
        self.assertEqual(t['advance.step']['count'], 2)
        self.assertAlmostEqual(t['advance.step']['mean_us'], 12.5)
        self.assertAlmostEqual(t['advance.step']['self_us'], 12.5)
        self.assertAlmostEqual(t['frame.decode']['self_us'], 5.0)

    def test_children_are_clipped_to_the_parent(self):
        events = [ev('root', 1, 0, 0.0, 10.0), ev('child', 2, 1, 8.0, 10.0)]
        self.assertAlmostEqual(analysis.self_times(events)['root']['self_us'],
                               8.0)

    def test_root_filter_keeps_only_chosen_requests(self):
        events = [
            ev('request.advance', 1, 0, 0.0, 10.0),
            ev('shard.route', 2, 1, 1.0, 2.0),
            ev('request.stats', 3, 0, 20.0, 100.0),
            ev('shard.route', 4, 3, 21.0, 98.0),
        ]
        t = analysis.self_times(events, roots={'request.advance'})
        self.assertNotIn('request.stats', t)
        self.assertEqual(t['shard.route']['count'], 1)
        self.assertAlmostEqual(t['shard.route']['mean_us'], 2.0)


class PercentileTest(unittest.TestCase):
    def test_interpolates_between_ranks(self):
        got = analysis.percentile([1.0, 2.0, 3.0, 4.0, 5.0], 50, min_beyond=0)
        self.assertEqual(got, (3.0, 2))
        got = analysis.percentile([0.0, 10.0], 25, min_beyond=0)
        self.assertAlmostEqual(got[0], 2.5)

    def test_needs_ten_samples_beyond(self):
        samples = [float(i) for i in range(1000)]
        p99 = analysis.percentile(samples, 99)
        self.assertIsNotNone(p99)
        self.assertEqual(p99[1], 10)
        self.assertIsNone(analysis.percentile(samples[:900], 99))
        self.assertIsNone(analysis.percentile(samples, 99.9))
        self.assertIsNotNone(analysis.percentile(samples * 10, 99.9))

    def test_empty(self):
        self.assertIsNone(analysis.percentile([], 50))

    def test_median(self):
        self.assertEqual(analysis.median([3, 1, 2]), 2)
        self.assertEqual(analysis.median([4, 1, 2, 3]), 2.5)
        self.assertIsNone(analysis.median([]))


if __name__ == '__main__':
    unittest.main()
