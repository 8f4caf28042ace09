#!/usr/bin/env python3
"""Self-tests of run.py's statistics and metric bases.

    python3 servebench/test_run.py
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402


def snapshot(counters=None, histograms=None):
    return {"counters": dict(counters or {}),
            "histograms": dict(histograms or {})}


def fake_pass(ticks=4, traced=False, **overrides):
    p = {
        "traced": traced,
        "ticks": ticks,
        "pool_threads": 2,
        "compiler": "test",
        "setup_instance_s": [0.001, 0.002, 0.003],
        "setup_daemon_s": [0.0001, 0.0002, 0.0003],
        "stream_s": 2.0,
        "cpu_s": 3.0,
        "peak_rss_kb": 2048,
        "failed": 0,
        "parse_s": [1e-5] * ticks,
        "step_s": [0.01 * (t + 1) for t in range(ticks)],
        "latency_s": [0.01 * (t + 1) - 0.001 for t in range(ticks)],
        "violation": [0.0] * ticks,
        "deadline_miss": [0] * ticks,
        "degraded": [0] * ticks,
        "hold_repair": [0] * ticks,
        "ok": [1] * ticks,
        "ok_ticks": ticks,
        "cost_daemon": 10.0,
        "cost_recomputed": 10.0,
        "cost_match": True,
        "fingerprint": "00000000000000aa",
        "demand_seed": 42,
        "start_hour": 0,
    }
    if traced:
        p.update(registry_before=snapshot(),
                 registry_after=snapshot({"sora_serve_ticks_total": ticks}),
                 spans_dropped=0)
    p.update(overrides)
    return p


class PercentileRule(unittest.TestCase):
    def test_nearest_rank_and_samples_beyond(self):
        samples = list(range(1, 121))  # 120 ticks
        self.assertEqual(run.percentile(samples, 0.9), (108, 12))
        self.assertEqual(run.percentile(samples, 0.5), (60, 60))

    def test_order_does_not_matter(self):
        self.assertEqual(run.percentile([5, 1, 4, 2, 3], 0.5), (3, 2))

    def test_p90_needs_ten_samples_beyond(self):
        self.assertEqual(run.tail_percentile(list(range(100)), 0.9), 89)
        with self.assertRaises(ValueError):
            run.tail_percentile(list(range(99)), 0.9)

    def test_end_to_end_refuses_a_short_stream(self):
        with self.assertRaises(ValueError):
            run.end_to_end([fake_pass(ticks=50)])

    def test_end_to_end_pools_ticks_of_every_pass(self):
        metrics = run.end_to_end([fake_pass(ticks=50), fake_pass(ticks=50)])
        self.assertEqual(metrics["slot_p90_ms"][1], 100)
        self.assertAlmostEqual(metrics["slot_p90_ms"][0], 450.0)
        self.assertAlmostEqual(metrics["slot_p50_ms"][0], 255.0)


class SharesAndBases(unittest.TestCase):
    def test_share_of_an_empty_base_is_zero(self):
        self.assertEqual(run.share(0, 0), 0.0)
        self.assertEqual(run.share(3, 4), 0.75)

    def test_ok_share_is_over_ticks_sent(self):
        bad = fake_pass(ticks=100, ok=[1] * 80 + [0] * 20, ok_ticks=80)
        metrics = run.end_to_end([bad])
        self.assertEqual(metrics["ok_share"], (0.8, 100))

    def test_setup_is_the_median_of_every_repetition(self):
        metrics = run.end_to_end([fake_pass(ticks=100)])
        self.assertAlmostEqual(metrics["setup_s"][0], 0.0022)
        self.assertEqual(metrics["setup_s"][1], 3)

    def test_per_layer_bases(self):
        before = snapshot(
            {"sora_p2_warm_starts_total": 5, "sora_p2_cold_starts_total": 1},
            {"sora_ipm_newton_steps": (2, 20.0)})
        after = snapshot(
            {"sora_p2_warm_starts_total": 8, "sora_p2_cold_starts_total": 2,
             "sora_ipm_symbolic_builds": 1, "sora_ipm_symbolic_reuse": 3,
             "sora_threadpool_tasks_total": 40},
            {"sora_ipm_newton_steps": (6, 60.0),
             "sora_ipm_line_search_backtracks": (4, 10.0),
             "sora_p2_barrier_seconds": (4, 1.0),
             "sora_ipm_factor_seconds": (4, 0.25),
             "sora_ipm_solve_seconds": (4, 0.25)})
        untraced = fake_pass(ticks=4, deadline_miss=[1, 1, 1, 1],
                             degraded=[1, 1, 0, 0], hold_repair=[1, 1, 1, 0],
                             stream_s=2.0, cpu_s=3.0)
        traced = fake_pass(ticks=4, traced=True, stream_s=2.5,
                           registry_before=before, registry_after=after)
        layers = run.per_layer([untraced], [traced])
        self.assertEqual(set(layers), set(run.PER_LAYER_UNITS))
        self.assertEqual(layers["core.warm_start_share"], (0.75, 4))
        self.assertEqual(layers["solver.ipm_solves"], (4, 1))
        self.assertEqual(layers["solver.newton_steps_per_solve"], (10.0, 4))
        self.assertEqual(layers["solver.backtracks_per_step"], (0.25, 40))
        self.assertAlmostEqual(layers["solver.ipm_other_s"][0], 0.5)
        self.assertEqual(layers["linalg.symbolic_reuse_share"], (0.75, 4))
        self.assertEqual(layers["linalg.batch_lockstep_share"], (0.0, 0))
        self.assertEqual(layers["util.pool_tasks_per_slot"], (10.0, 4))
        self.assertEqual(layers["serve.deadline_miss_share"], (1.0, 4))
        self.assertEqual(layers["serve.degraded_share"], (0.5, 4))
        # Held by hold-and-repair but not degraded: the repair failed.
        self.assertEqual(layers["serve.repair_failed_share"], (0.25, 4))
        self.assertAlmostEqual(layers["serve.overhead_ms"][0], 1.0)
        self.assertEqual(layers["proc.cpu_per_wall"], (1.5, 1))
        self.assertEqual(layers["obs.trace_overhead_share"], (0.25, 1))


class RegistryDeltas(unittest.TestCase):
    def test_snapshot_from_the_registry_export(self):
        export = {"metrics": [
            {"name": "c", "type": "counter", "value": 7},
            {"name": "g", "type": "gauge", "value": 1.5},
            {"name": "h", "type": "histogram", "unit": "steps",
             "buckets": [{"le": 1, "count": 2}, {"le": "+Inf", "count": 1}],
             "sum": 4.5, "count": 3}]}
        self.assertEqual(run.registry_snapshot(export),
                         snapshot({"c": 7}, {"h": (3, 4.5)}))

    def test_counter_and_histogram_deltas(self):
        before = snapshot({"a": 3}, {"h": (2, 1.5)})
        after = snapshot({"a": 10, "b": 4}, {"h": (5, 4.0), "g": (1, 0.5)})
        delta = run.registry_delta(before, after)
        self.assertEqual(delta["counters"], {"a": 7, "b": 4})
        self.assertEqual(delta["histograms"], {"h": (3, 2.5), "g": (1, 0.5)})
        self.assertEqual(run.counter(delta, "missing"), 0)
        self.assertEqual(run.hist_count(delta, "h"), 3)
        self.assertEqual(run.hist_sum(delta, "missing"), 0.0)

    def test_sum_of_deltas(self):
        one = {"counters": {"a": 1}, "histograms": {"h": (1, 2.0)}}
        two = {"counters": {"a": 2, "b": 1}, "histograms": {"h": (3, 1.0)}}
        total = run.sum_deltas([one, two])
        self.assertEqual(total["counters"], {"a": 3, "b": 1})
        self.assertEqual(total["histograms"], {"h": (4, 3.0)})

    def test_counts_must_repeat_between_traced_passes(self):
        def traced(steps):
            return fake_pass(ticks=4, traced=True, registry_after=snapshot(
                {"sora_serve_ticks_total": 4, "sora_x_total": steps}))
        untraced = [fake_pass(ticks=4), fake_pass(ticks=4)]
        self.assertEqual(
            run.check_passes("w", untraced, [traced(5), traced(5)]), [])
        problems = run.check_passes("w", untraced, [traced(5), traced(6)])
        self.assertEqual(len(problems), 1)
        self.assertIn("registry counts differ", problems[0])
        self.assertNotEqual(run.counts_digest(traced(5)),
                            run.counts_digest(traced(6)))

    def test_counts_leave_out_seconds_sums(self):
        delta = {"counters": {"c": 2},
                 "histograms": {"a_seconds": (3, 0.5), "steps": (3, 9.0)}}
        self.assertEqual(run.registry_counts(delta),
                         {"c": 2, "a_seconds.count": 3, "steps.count": 3,
                          "steps.sum": 9.0})


class RegistryAgainstSlotResults(unittest.TestCase):
    """A traced pass's registry against its untraced partner's flags."""

    def traced(self, ticks=4, degraded=0, reroutes=0):
        return fake_pass(ticks=ticks, traced=True, registry_after=snapshot({
            "sora_serve_ticks_total": ticks,
            "sora_resilience_degraded_slots_total": degraded,
            "sora_serve_deadline_reroutes_total": reroutes}))

    def test_agreeing_counts_pass(self):
        untraced = fake_pass(deadline_miss=[1, 1, 1, 1],
                             degraded=[1, 1, 1, 0])
        self.assertEqual(run.check_registry(
            "t", untraced, self.traced(degraded=3, reroutes=4)), [])

    def test_tick_count(self):
        problems = run.check_registry("t", fake_pass(ticks=4),
                                      self.traced(ticks=5))
        self.assertEqual(len(problems), 1)
        self.assertIn("sora_serve_ticks_total", problems[0])

    def test_degraded_slots(self):
        untraced = fake_pass(degraded=[1, 0, 0, 0])
        problems = run.check_registry("t", untraced, self.traced(degraded=2))
        self.assertEqual(len(problems), 1)
        self.assertIn("degraded_slots", problems[0])

    def test_reroutes_lie_between_undegraded_and_all_misses(self):
        # Two misses; the solve of one of them degraded on its own, so it
        # was published without a re-route.
        untraced = fake_pass(deadline_miss=[1, 1, 0, 0],
                             degraded=[1, 0, 0, 0])
        for reroutes, ok in ((0, False), (1, True), (2, True), (3, False)):
            problems = run.check_registry(
                "t", untraced, self.traced(degraded=1, reroutes=reroutes))
            self.assertEqual(problems == [], ok, (reroutes, problems))


class PassCollection(unittest.TestCase):
    """collect() with passes that take no time and a zero-second budget."""

    def setUp(self):
        self.calls = []
        self.real_run_pass = run.run_pass

        def fake_run_pass(binary, workload, seed, short=False, trace_out=None):
            self.calls.append((short, trace_out is not None))
            return fake_pass(ticks=25 if short else 100,
                             traced=trace_out is not None)
        run.run_pass = fake_run_pass

    def tearDown(self):
        run.run_pass = self.real_run_pass

    def test_untraced_run_serves_min_passes_and_ticks(self):
        # fake passes stream 100 ticks: MIN_PASSES sets the count
        untraced, traced = run.collect("bin", "dir", "w", 1, 0, trace=0)
        self.assertEqual(len(untraced), run.MIN_PASSES)
        self.assertGreaterEqual(sum(p["ticks"] for p in untraced),
                                run.MIN_TICKS)
        self.assertEqual(traced, [])
        self.assertEqual(set(self.calls), {(False, False)})

    def test_traced_run_pairs_short_passes(self):
        untraced, traced = run.collect("bin", "dir", "w", 1, 0, trace=1)
        self.assertEqual((len(untraced), len(traced)), (1, 1))
        self.assertEqual(self.calls, [(True, False), (True, True)])


class OutputChecks(unittest.TestCase):
    def test_fingerprints_must_match_across_passes(self):
        problems = run.check_passes(
            "paper-wikipedia",
            [fake_pass()], [fake_pass(traced=True, fingerprint="bb")])
        self.assertEqual(len(problems), 1)
        self.assertIn("fingerprint", problems[0])

    def test_deadline_stream_must_miss_every_tick(self):
        missed = fake_pass(deadline_miss=[1, 1, 1, 1])
        met = fake_pass(deadline_miss=[1, 0, 1, 1])
        workload = run.DEADLINE_WORKLOADS[0]
        self.assertEqual(run.check_passes(workload, [missed], []), [])
        self.assertTrue(run.check_passes(workload, [met], []))
        self.assertTrue(run.check_passes("paper-wikipedia", [missed], []))

    def test_cost_mismatch_is_reported(self):
        problems = run.check_passes(
            "paper-wikipedia", [fake_pass(cost_match=False)], [])
        self.assertEqual(len(problems), 1)
        self.assertIn("core::total_cost", problems[0])


if __name__ == "__main__":
    unittest.main()
