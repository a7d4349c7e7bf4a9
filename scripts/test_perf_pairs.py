#!/usr/bin/env python3
"""Unit tests of scripts/perf_pairs.py's verdict logic.

    python3 scripts/test_perf_pairs.py
"""

import math
import pathlib
import sys
import unittest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
import perf_pairs  # noqa: E402


class ParseSeedsTest(unittest.TestCase):
    def test_single_and_range(self):
        self.assertEqual(perf_pairs.parse_seeds("3"), [3])
        self.assertEqual(perf_pairs.parse_seeds("1-4"), [1, 2, 3, 4])

    def test_rejects_reversed_range(self):
        with self.assertRaises(ValueError):
            perf_pairs.parse_seeds("5-2")


class StatsTest(unittest.TestCase):
    def test_quartiles_inclusive(self):
        self.assertEqual(perf_pairs.quartiles([4, 1, 3, 2, 5]), (2, 3, 4))
        self.assertEqual(perf_pairs.quartiles([7]), (7, 7, 7))

    def test_wins_follow_direction(self):
        parent, change = [10, 10, 10], [9, 11, 10]
        self.assertEqual(perf_pairs.wins(parent, change, "lower"), 1)
        self.assertEqual(perf_pairs.wins(parent, change, "higher"), 1)

    def test_spread_of_zero_median(self):
        self.assertEqual(perf_pairs.spread([0, 0, 0]), 0.0)
        self.assertTrue(math.isinf(perf_pairs.spread([-1, 0, 1])))


PARENT = [100, 101, 102, 103, 104, 105, 106, 107, 108, 109]  # IQR 4.5


class VerdictTest(unittest.TestCase):
    def test_gain_needs_nine_of_ten_and_more_than_the_iqr(self):
        change = [p - 10 for p in PARENT]
        self.assertEqual(perf_pairs.verdict(PARENT, change, "lower", 0.25),
                         "gain")
        # Better on all ten pairs, but by less than the parent's IQR.
        small = [p - 2 for p in PARENT]
        self.assertEqual(perf_pairs.verdict(PARENT, small, "lower", 0.25),
                         "within bound")
        # Far better in the median, but only 8 of 10 pairs won.
        eight = [p - 10 for p in PARENT[:8]] + [p + 1 for p in PARENT[8:]]
        self.assertEqual(perf_pairs.wins(PARENT, eight, "lower"), 8)
        self.assertEqual(perf_pairs.verdict(PARENT, eight, "lower", 0.25),
                         "within bound")

    def test_direction_higher(self):
        change = [p + 10 for p in PARENT]
        self.assertEqual(perf_pairs.verdict(PARENT, change, "higher", 0.25),
                         "gain")
        self.assertEqual(perf_pairs.verdict(PARENT, change, "lower", 0.25),
                         "within bound")

    def test_worse_beyond_the_bound(self):
        change = [p * 1.3 for p in PARENT]
        self.assertEqual(perf_pairs.verdict(PARENT, change, "lower", 0.25),
                         "worse")
        self.assertEqual(perf_pairs.verdict(PARENT, change, "lower", 0.5),
                         "within bound")
        lower = [p * 0.7 for p in PARENT]
        self.assertEqual(perf_pairs.verdict(PARENT, lower, "higher", 0.25),
                         "worse")

    def test_wide_spread_is_unresolved(self):
        noisy = [50, 150, 60, 140, 70, 130, 80, 120, 90, 110]
        self.assertEqual(perf_pairs.verdict(PARENT, noisy, "lower", 0.25),
                         "unresolved")
        self.assertEqual(perf_pairs.verdict(noisy, PARENT, "lower", 0.25),
                         "unresolved")

    def test_unbounded_metric_reports_gain_or_dash(self):
        change = [p - 10 for p in PARENT]
        self.assertEqual(perf_pairs.verdict(PARENT, change, "lower", None),
                         "gain")
        self.assertEqual(perf_pairs.verdict(PARENT, PARENT, "lower", None),
                         "-")

    def test_rejects_unpaired_runs(self):
        with self.assertRaises(ValueError):
            perf_pairs.verdict(PARENT, PARENT[:5], "lower", 0.25)


if __name__ == "__main__":
    unittest.main()
