#!/usr/bin/env python3
"""The benchmark's own tests: the tail-percentile rule, the metric-name
grammar, the backlog guard, the TBT mode check, the speed scaling, and
seeded workload generation. Run from the repository root:

    python3 perfbench/test_perfbench.py

The workload test builds perfbench_serving first (as run.py does).
"""
import json
import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


class TailRuleTest(unittest.TestCase):
    def test_tail_has_ten_beyond_and_is_the_highest_such(self):
        for n in range(20, 3000):
            tail = run.tail_tenths(n)
            self.assertGreaterEqual(run.beyond(tail, n), run.MIN_BEYOND)
            if tail < 999:
                self.assertLess(run.beyond(tail + 1, n), run.MIN_BEYOND)

    def test_known_sample_counts(self):
        self.assertEqual(run.tail_tenths(20), 526)     # p52.6, 10 beyond
        self.assertEqual(run.tail_tenths(100), 909)    # p90.9
        self.assertEqual(run.tail_tenths(3460), 997)   # p99.7
        self.assertEqual(run.tail_tenths(100000), 999)

    def test_too_few_samples_for_p50(self):
        self.assertIsNone(run.tail_tenths(19))
        with self.assertRaises(ValueError):
            run.summarize([1.0] * 19)

    def test_percentile_interpolates_like_the_library(self):
        values = [4.0, 1.0, 3.0, 2.0, 5.0]
        self.assertEqual(run.percentile(values, 500), 3.0)
        self.assertAlmostEqual(run.percentile(values, 900), 4.6)
        self.assertEqual(run.percentile(values, 1000), 5.0)

    def test_summary_reports_label_and_counts(self):
        s = run.summarize([float(i) for i in range(40)])
        self.assertEqual(s["n"], 40)
        self.assertEqual(s["tail_label"], "p76.9")
        self.assertEqual(s["tail_beyond"], 10)
        self.assertAlmostEqual(s["p50"], 19.5)


class NameGrammarTest(unittest.TestCase):
    def test_grammar(self):
        for ok in ("ttft_p50_s", "model.qkv_s_per_row", "a-b.c_9", "9x"):
            self.assertTrue(run.NAME_RE.match(ok), ok)
        for bad in ("", "_lead", ".lead", "has space", "slash/no", "x" * 65,
                    "tab\t", "ünicode"):
            self.assertFalse(run.NAME_RE.match(bad), bad)
        for ok in ("s", "ms", "1/s", "tok/s", "%", "B/token", "MAC/token"):
            self.assertTrue(run.UNIT_RE.match(ok), ok)
        self.assertFalse(run.UNIT_RE.match("a unit"))

    def test_declared_metrics_follow_the_contract(self):
        with open(run.BENCHMARK_JSON) as f:
            spec = json.load(f)
        run.validate_declared(spec)
        self.assertEqual(set(spec), {"command", "paths", "run_seconds",
                                     "workloads", "end_to_end", "per_layer"})
        self.assertTrue(2 <= len(spec["workloads"]) <= 8)
        for w in spec["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])
        e2e = {m["name"]: m for m in spec["end_to_end"]}
        self.assertEqual(e2e["setup_s"]["unit"], "s")
        self.assertEqual(e2e["setup_s"]["better"], "lower")
        for m in spec["end_to_end"]:
            self.assertLessEqual(m["bound"], 0.25)
            self.assertLessEqual(m["bound"], e2e["setup_s"]["bound"])
        for m in spec["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})

    def test_invalid_declaration_is_rejected(self):
        spec = {"end_to_end": [{"name": "bad name", "unit": "s"}],
                "per_layer": []}
        with self.assertRaises(ValueError):
            run.validate_declared(spec)
        spec = {"end_to_end": [{"name": "x", "unit": "s"}],
                "per_layer": [{"name": "x", "unit": "s"}]}
        with self.assertRaises(ValueError):
            run.validate_declared(spec)


class BacklogGuardTest(unittest.TestCase):
    def test_steady_queue_passes(self):
        waits = [0.01, 0.05, 0.0, 0.02] * 10
        self.assertTrue(run.backlog_guard(waits, jct_p50=1.2)["ok"])

    def test_draining_queue_passes(self):
        waits = [2.0 - 0.05 * i for i in range(40)]
        self.assertTrue(run.backlog_guard(waits, jct_p50=2.4)["ok"])

    def test_late_burst_within_one_service_time_passes(self):
        waits = [0.0] * 30 + [0.5] * 10
        self.assertTrue(run.backlog_guard(waits, jct_p50=1.2)["ok"])

    def test_growing_queue_fails(self):
        # Offered load past capacity: every request waits longer than the
        # one before it.
        waits = [0.1 * i for i in range(40)]
        g = run.backlog_guard(waits, jct_p50=1.2)
        self.assertFalse(g["ok"])
        self.assertGreater(g["last"], g["first"])


class TbtModesTest(unittest.TestCase):
    def test_percentile_far_from_the_boundary_passes(self):
        gaps = [0.006] * 960 + [0.18] * 40   # 4% slow steps
        m = run.tbt_modes(gaps, [500, run.tail_tenths(len(gaps))])
        self.assertTrue(m["ok"])
        self.assertAlmostEqual(m["slow_share"], 0.04)

    def test_percentile_on_the_boundary_fails(self):
        gaps = [0.006] * 990 + [0.18] * 10   # slow mode starts at p99
        m = run.tbt_modes(gaps, [500, 990])
        self.assertFalse(m["ok"])

    def test_single_mode_passes(self):
        m = run.tbt_modes([0.005 + 1e-5 * i for i in range(300)], [500, 966])
        self.assertTrue(m["ok"])
        self.assertEqual(m["slow_share"], 0.0)


class SpeedScaleTest(unittest.TestCase):
    @staticmethod
    def raw(slices, rate_rps=0.0):
        samples = [0.5, 0.7, 0.6]
        return {
            "setup_s": [0.6, 0.5, 0.7],
            "rate_rps": rate_rps,
            "untraced": {"ttft_s": samples * 7, "tbt_s": samples * 7,
                         "jct_s": samples * 7, "generated": 300,
                         "makespan_s": 10.0, "completed": 21,
                         "submitted": 21},
            "sampled": 1, "sampled_match": 1,
            "wire_bytes_per_prompt_token": 380.0, "peak_rss_mib": 80.0,
            "speed": {"reference_slice_s": 0.03, "slices_s": slices},
        }

    def test_reference_speed_leaves_wall_values(self):
        m, _, _, scale = run.end_to_end(self.raw([0.02, 0.03, 0.04]))
        self.assertEqual(scale, 1.0)
        self.assertAlmostEqual(m["setup_s"], 0.6)
        self.assertAlmostEqual(m["tokens_per_s"], 30.0)

    def test_slower_machine_scales_times_down_and_rates_up(self):
        m, notes, _, scale = run.end_to_end(self.raw([0.06, 0.05, 0.07]))
        self.assertAlmostEqual(scale, 0.5 ** run.SPEED_ELASTICITY)
        for k in run.SCALED_TIMES:
            self.assertAlmostEqual(m[k], 0.6 * scale, msg=k)
            self.assertIn("wall 0.6", notes[k])
        self.assertAlmostEqual(m["tokens_per_s"], 30.0 / scale)
        # Counts and fractions are not clock readings.
        self.assertEqual(m["wire_bytes_per_prompt_token"], 380.0)
        self.assertEqual(m["peak_rss_mib"], 80.0)
        self.assertEqual(m["completed_frac"], 1.0)

    def test_open_loop_throughput_is_not_scaled(self):
        m, _, _, scale = run.end_to_end(self.raw([0.06, 0.05, 0.07], 0.5))
        self.assertAlmostEqual(m["ttft_p50_s"], 0.6 * scale)
        self.assertAlmostEqual(m["tokens_per_s"], 30.0)


class WorkloadSeedTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        if not run.build():
            raise unittest.SkipTest("perfbench_serving did not build")

    def digest(self, workload, seed):
        out = subprocess.run(
            [run.BINARY, "--workload", workload, "--seed", str(seed),
             "--seconds", "30", "--dump-workload"],
            capture_output=True, text=True, check=True).stdout
        return out.strip()

    def test_same_seed_same_workload(self):
        for w in ("chat", "longdoc", "pressure"):
            self.assertEqual(self.digest(w, 11), self.digest(w, 11))

    def test_other_seed_other_workload(self):
        for w in ("chat", "longdoc", "pressure"):
            self.assertNotEqual(self.digest(w, 11), self.digest(w, 12))


if __name__ == "__main__":
    unittest.main()
