"""Self-tests for the benchmark's own arithmetic and inputs.

    python3 perfbench/selftest.py
"""

import itertools
import json
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(1, str(ROOT / "src"))

import numpy as np  # noqa: E402

import hostspeed  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def fake_clock(times):
    ticks = iter(times)
    return lambda: next(ticks)


class SelfTimeTest(unittest.TestCase):
    def test_nested_spans(self):
        # root [0, 10] > a [1, 4] > a1 [2, 3];  root > b [5, 6]
        rec = spans.Recorder(clock=fake_clock([0, 1, 2, 3, 4, 5, 6, 10]))
        with rec.span("root"):
            with rec.span("a"):
                with rec.span("a1"):
                    pass
            with rec.span("b"):
                pass
        names = [s.name for s in rec.spans]
        self_s = {name: rec.self_time(i) for i, name in enumerate(names)}
        self.assertEqual(self_s, {"root": 6, "a": 2, "a1": 1, "b": 1})
        self.assertEqual([rec.spans[s.parent].name if s.parent is not None else None
                          for s in rec.spans], [None, "root", "a", "root"])

    def test_children_overlapping_or_outside_are_counted_once(self):
        rec = spans.Recorder()
        rec.spans = [spans.Span("p", 0.0, 10.0),
                     spans.Span("c", 2.0, 6.0, parent=0),
                     spans.Span("c", 4.0, 8.0, parent=0),
                     spans.Span("c", 9.0, 12.0, parent=0)]
        self.assertEqual(rec.self_time(0), 10.0 - 6.0 - 1.0)

    def test_same_name_nesting_counts_outermost_only(self):
        rec = spans.Recorder(clock=fake_clock(range(8)))
        with rec.span("x"):
            with rec.span("y"):
                with rec.span("x"):
                    pass
        with rec.span("x"):
            pass
        self.assertEqual([(s.start, s.end) for s in rec.outermost("x")], [(0, 5), (6, 7)])

    def test_wrap_records_errors_and_info(self):
        rec = spans.Recorder()

        def fails():
            raise KeyError("boom")

        with self.assertRaises(KeyError):
            rec.wrap(fails, "f")()
        self.assertEqual(rec.spans[-1].error, "KeyError")
        self.assertEqual(rec.wrap(lambda v: v * 2, "g", lambda a, k, r: {"r": r})(3), 6)
        self.assertEqual(rec.spans[-1].info, {"r": 6})
        rec.wrap(lambda: None, "h", lambda a, k, r: r["missing"])()
        self.assertEqual(rec.spans[-1].info, {})


class PercentileRuleTest(unittest.TestCase):
    def test_level_follows_sample_count(self):
        for n, level in ((1, 50.0), (19, 50.0), (20, 50.0), (99, 50.0), (100, 90.0),
                         (999, 90.0), (1000, 99.0), (10_000, 99.9)):
            samples = np.arange(1, n + 1, dtype=float)
            got_level, value = spans.tail_percentile(samples)
            self.assertEqual(got_level, level, n)
            if n >= 2 * spans.MIN_BEYOND:
                self.assertGreaterEqual(int(np.sum(samples > value)), spans.MIN_BEYOND, n)
        self.assertEqual(spans.tail_percentile(np.arange(1.0, 101.0)),
                         (90.0, float(np.percentile(np.arange(1.0, 101.0), 90))))

    def test_per_call_metrics_carry_the_sample_count(self):
        rec = spans.Recorder(clock=fake_clock(itertools.count()))
        for _ in range(25):
            rec.wrap(lambda: None, "plant.simulate")()
        metrics = spans.layer_metrics(rec, passes=5)
        self.assertEqual(metrics["plant.simulate_call_samples"], (25, "count"))
        self.assertEqual(metrics["plant.simulate_calls"], (5.0, "count"))
        self.assertEqual(metrics["plant.simulate_call_tail_pct"], (50.0, "%"))


class InstrumentationTest(unittest.TestCase):
    def test_absent_names_are_reported_and_attributes_restored(self):
        from stealthreach import cli

        original = cli.simulate
        probes = (("cli", "simulate", "plant.simulate", None),
                  ("cli", "no_such_function", "x", None),
                  ("no_such_module", "f", "y", None))
        rec = spans.Recorder()
        with spans.instrumented(rec, probes=probes) as absent:
            self.assertIsNot(cli.simulate, original)
            self.assertEqual(absent, ["cli.no_such_function", "no_such_module.f"])
        self.assertIs(cli.simulate, original)


class GeneratorTest(unittest.TestCase):
    def test_same_seed_gives_identical_bytes(self):
        for seed in (0, 1, 7):
            a = workloads.scenario_json(workloads.scenario_4d(seed)[0])
            b = workloads.scenario_json(workloads.scenario_4d(seed)[0])
            self.assertEqual(a, b)
        self.assertNotEqual(workloads.scenario_json(workloads.scenario_4d(1)[0]),
                            workloads.scenario_json(workloads.scenario_4d(2)[0]))

    def test_margins_and_record(self):
        draws = []
        for plant_seed in range(6):
            raw, record = workloads.scenario_4d(3, plant_seed=plant_seed)
            draws.append(record["draws"])
            self.assertAlmostEqual(record["rho_F"], workloads.RHO_F, places=9)
            self.assertLessEqual(record["rho_closed_loop"], workloads.RHO_CLOSED_LOOP_MAX + 1e-9)
            self.assertLessEqual(record["rho_filter"], workloads.RHO_FILTER_MAX + 1e-9)
        self.assertGreater(max(draws), 1, "no draw was ever rejected")

    def test_seed_changes_basis_not_spectrum(self):
        rhos = [workloads.scenario_4d(seed)[1] for seed in range(4)]
        for key in ("rho_F", "rho_closed_loop", "rho_filter"):
            self.assertLess(np.ptp([r[key] for r in rhos]), 1e-9, key)

    def test_generated_scenarios_parse_unchanged(self):
        from stealthreach import parse_scenario

        raw, _ = workloads.scenario_4d(5)
        text = workloads.scenario_json(raw)
        scenario = parse_scenario(json.loads(text))
        self.assertEqual((scenario.model.n, scenario.model.m, scenario.model.p), (4, 2, 3))
        self.assertEqual(scenario.sim.master_seed, 5)
        raw2d = workloads.scenario_2d_geom(ROOT, 11)
        scenario = parse_scenario(json.loads(workloads.scenario_json(raw2d)))
        self.assertEqual((scenario.bounds_method, scenario.sim.master_seed), ("geom", 11))

    def test_closed_form_threshold(self):
        from stealthreach import chi2_quantile

        self.assertAlmostEqual(workloads.chi2_threshold_2dof(0.05), chi2_quantile(0.95, 2),
                               places=9)


class HostSpeedTest(unittest.TestCase):
    def test_normalised_drops_handler_time_and_rescales(self):
        nominal = hostspeed.REF_NOMINAL_S
        sampler = hostspeed.SpeedSampler()
        # two kernel runs inside [10, 20), at twice the nominal time; one outside
        sampler.samples = [(9.0, 5 * nominal), (11.0, 2 * nominal), (15.0, 2 * nominal)]
        self.assertAlmostEqual(sampler.normalised(10.0, 20.0), (10.0 - 4 * nominal) / 2)
        # no sample inside: the nearest one sets the speed
        self.assertAlmostEqual(sampler.normalised(8.9, 9.0), 0.1 / 5)

    def test_sampler_runs_the_kernel_and_restores_the_handler(self):
        import signal
        import time

        before = signal.getsignal(signal.SIGALRM)
        with hostspeed.SpeedSampler(interval=0.01) as sampler:
            end = time.perf_counter() + 0.2
            while time.perf_counter() < end:
                pass
        self.assertGreater(len(sampler.samples), 5)
        self.assertIs(signal.getsignal(signal.SIGALRM), before)
        self.assertEqual(signal.getitimer(signal.ITIMER_REAL), (0.0, 0.0))


class HeatmapCheckTest(unittest.TestCase):
    ALPHA = 6.0

    def check(self, volume):
        """check_heatmap on a 4 x 4 grid whose cell volumes come from volume(c1, w1)."""
        import tempfile
        from stealthreach.montecarlo import admissible_cells

        with tempfile.TemporaryDirectory() as tmp:
            lines = ["# alpha=6", "c1,w1,volume"]
            lines += [f"{c1!r},{w1!r},{volume(c1, w1)!r}"
                      for c1, w1 in admissible_cells(self.ALPHA, 4)]
            (Path(tmp) / "heatmap.csv").write_text("\n".join(lines) + "\n")
            return workloads.check_heatmap(Path(tmp), self.ALPHA)

    def test_corner_within_noise_of_the_argmax_passes(self):
        self.assertEqual(self.check(lambda c1, w1: c1 + 0.1 * w1), [])
        self.assertEqual(self.check(lambda c1, w1: 5.9 if (c1, w1) == (4.0, 0.0) else c1), [])

    def test_corner_beaten_beyond_noise_fails(self):
        self.assertEqual(len(self.check(lambda c1, w1: 8.0 if (c1, w1) == (4.0, 0.0) else c1)), 1)

    def test_flat_heatmap_fails_the_margin(self):
        failures = self.check(lambda c1, w1: 1.0)
        self.assertEqual(len(failures), 1)
        self.assertIn("above the interior cell", failures[0])


if __name__ == "__main__":
    unittest.main()
