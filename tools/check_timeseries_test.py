#!/usr/bin/env python3
"""Unit tests for check_timeseries.py over synthetic series directories.

Run: python3 tools/check_timeseries_test.py (stdlib unittest only).
"""

import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import check_timeseries  # noqa: E402


def sample(seq, t_nanos, ingested):
    return {"seq": seq, "t_nanos": t_nanos,
            "counters": {"ingest.rows": ingested}, "gauges": {},
            "histograms": {}}


class CheckSeriesTest(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.dir = self._tmp.name

    def tearDown(self):
        self._tmp.cleanup()

    def write(self, name, samples):
        with open(os.path.join(self.dir, name), "w", encoding="utf-8") as f:
            for s in samples:
                f.write(json.dumps(s) + "\n")

    def check(self):
        return check_timeseries.check_series(self.dir)

    def test_seven_digit_index_continues_the_series(self):
        self.write("metrics-999999.jsonl", [sample(1, 0, 0), sample(2, 5, 3)])
        self.write("metrics-1000000.jsonl", [sample(3, 9, 7)])
        self.assertEqual(self.check(), (3, 1))

    def test_retained_series_may_start_mid_run(self):
        # Retention removed metrics-000001..3; the oldest kept file holds
        # samples 7-8 of the first run, then a second run starts.
        self.write("metrics-000004.jsonl",
                   [sample(7, 70, 40), sample(8, 80, 41)])
        self.write("metrics-000005.jsonl",
                   [sample(1, 0, 0), sample(2, 10, 2)])
        self.assertEqual(self.check(), (4, 2))

    def test_index_gap_fails(self):
        self.write("metrics-000001.jsonl", [sample(1, 0, 0)])
        self.write("metrics-000003.jsonl", [sample(2, 5, 1)])
        with self.assertRaisesRegex(check_timeseries.SeriesError, "index gap"):
            self.check()

    def test_later_run_must_start_at_seq_one(self):
        self.write("metrics-000001.jsonl", [sample(1, 0, 0), sample(2, 5, 1)])
        self.write("metrics-000002.jsonl", [sample(5, 0, 0)])
        with self.assertRaisesRegex(check_timeseries.SeriesError,
                                    "does not follow"):
            self.check()


if __name__ == "__main__":
    unittest.main()
