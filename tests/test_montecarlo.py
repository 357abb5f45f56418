import math
import os
import tracemalloc

import numpy as np
import pytest

from stealthreach import (
    SimConfig,
    chi2_quantile,
    containment_report,
    empirical_cloud,
    fit_ellipsoid_moment,
    load_scenario,
    named_spec,
    distance,
    reach_bounds_geom,
    volume_heatmap,
)
from stealthreach.attacks import ZERO_ALARM, AttackSpec
from stealthreach import montecarlo, plant
from stealthreach.errors import DegenerateCloud, DimensionMismatch
from stealthreach.montecarlo import (
    BATCH_TRIALS,
    SOURCE_ATTACK,
    SOURCE_NOISE,
    SOURCE_TOTAL,
    admissible_cells,
    alarm_counts,
)
from stealthreach.seeding import stream

from conftest import batch_parts, cell_cloud_volume, cpu_cases, plant_4d


class TestMomentFit:
    def test_circle_boundary(self):
        theta = np.linspace(0.0, 2.0 * math.pi, 360, endpoint=False)
        pts = np.stack([np.cos(theta), np.sin(theta)], axis=1)
        E, vol = fit_ellipsoid_moment(pts)
        # circle second moment is I/2; max membership 2 rescales to the unit disk
        assert np.max(np.abs(E.Q - np.eye(2))) <= 0.02
        assert vol == pytest.approx(math.pi, rel=0.02)

    def test_repeated_point_degenerate(self):
        pts = np.tile([1.0, 2.0], (50, 1))
        with pytest.raises(DegenerateCloud):
            fit_ellipsoid_moment(pts)

    @pytest.mark.parametrize("n", [2, 4])
    def test_anisotropic_cloud_touches_the_fit(self, n):
        # axis scales 0.1 .. 10 in a random basis (cond(Q) about 1e4); the fit is
        # the second moment scaled by the largest membership, so every point is
        # inside and the farthest lies on the boundary
        rng = np.random.default_rng(n)
        basis = np.linalg.qr(rng.standard_normal((n, n)))[0]
        pts = rng.standard_normal((3000, n)) * np.logspace(-1, 1, n) @ basis.T
        E, vol = fit_ellipsoid_moment(pts)
        assert abs(np.max(E.membership(pts)) - 1.0) <= 1e-12
        assert vol == E.volume > 0.0


class TestEmpiricalCloud:
    def test_point_count_and_shapes(self, bench_model, alpha):
        spec = named_spec("ZA.C", alpha)
        cfg = SimConfig(horizon=150, attack_start=1, master_seed=20, trials=7)
        cloud = empirical_cloud(bench_model, cfg, spec, source=SOURCE_ATTACK, burn_in=50)
        assert len(cloud) == 7 * (150 - 50)
        assert cloud.dim == 2
        assert cloud.trial_alarm_free.shape == (7,)

    @pytest.mark.parametrize("burn_in", [-1, 150])
    def test_burn_in_out_of_range(self, bench_model, alpha, burn_in):
        # steps k >= k* + burn_in are kept, so burn_in runs 0..horizon - k*
        spec = named_spec("ZA.C", alpha)
        cfg = SimConfig(horizon=150, attack_start=1, master_seed=20, trials=2)
        assert len(empirical_cloud(bench_model, cfg, spec, burn_in=149)) == 2
        with pytest.raises(DimensionMismatch):
            empirical_cloud(bench_model, cfg, spec, burn_in=burn_in)

    def test_noise_cloud_matches_error_split(self, bench_model, alpha, vbar):
        spec = named_spec("ZA.C", alpha)
        cfg = SimConfig(horizon=120, attack_start=1, master_seed=21, trials=3, vbar=vbar)
        cloud = empirical_cloud(bench_model, cfg, spec, source=SOURCE_NOISE, burn_in=20)
        # x_v equals e_v pointwise; the noise stream is attack-independent
        noise = batch_parts(bench_model, cfg, spec)[0]
        assert np.max(np.abs(noise[..., :2] - noise[..., 2:])) <= 1e-12
        assert np.array_equal(cloud.points, noise[:, 20:, :2].reshape(-1, 2))

    def test_noise_cloud_without_attack_spec(self, bench_model, alpha, vbar):
        # no attack block: the noise split still means the eta-free recursion
        cfg = SimConfig(horizon=120, master_seed=26, trials=3, vbar=vbar)
        cloud = empirical_cloud(bench_model, cfg, None, source=SOURCE_NOISE, burn_in=20)
        spec = named_spec("ZA.C", alpha)
        cfg_att = SimConfig(horizon=120, attack_start=1, master_seed=26, trials=3, vbar=vbar)
        attacked = empirical_cloud(bench_model, cfg_att, spec, source=SOURCE_NOISE, burn_in=20)
        # the noise-driven component is attack-independent
        assert np.array_equal(cloud.points, attacked.points)
        # no bound targets an attack or total cloud of an attack-free run
        for source in (SOURCE_ATTACK, SOURCE_TOTAL):
            with pytest.raises(DimensionMismatch, match=f"'{source}' needs an attack spec"):
                empirical_cloud(bench_model, cfg, None, source=source, burn_in=20)

    @pytest.mark.parametrize("n", [2, 4])
    def test_clouds_equal_full_trace(self, bench_model, n):
        # each source propagates only the parts it reads in chunks; its points
        # and alarm flags are bitwise those of the parts run on the whole batch
        model = bench_model if n == 2 else plant_4d()
        a = chi2_quantile(0.95, model.p)
        spec = named_spec("H.B", a)
        cfg = SimConfig(horizon=46, attack_start=40, master_seed=28, trials=60)
        noise, attack, r = batch_parts(model, cfg, spec)
        alarm = distance(r, model.SigmaInv) > a
        alarm_free = ~alarm[:, 39:].any(axis=1)
        assert alarm_free.any() and not alarm_free.all()
        # some trials alarm only at k*, some only at the horizon
        assert (alarm[:, 39] & ~alarm[:, 40:].any(axis=1)).any()
        assert (alarm[:, -1] & ~alarm[:, 39:-1].any(axis=1)).any()
        x_v, x_delta = noise[..., :n], attack[..., :n]
        for source, column in ((SOURCE_ATTACK, x_delta), (SOURCE_NOISE, x_v),
                               (SOURCE_TOTAL, x_v + x_delta)):
            cloud = empirical_cloud(model, cfg, spec, source=source, burn_in=3)
            assert np.array_equal(cloud.points, column[:, 42:].reshape(-1, n)), source
            assert np.array_equal(cloud.trial_alarm_free, alarm_free), source

    def test_cloud_mean_near_origin(self, bench_model, alpha):
        spec = named_spec("ZA.C", alpha)
        cfg = SimConfig(horizon=600, attack_start=1, master_seed=22, trials=40)
        cloud = empirical_cloud(bench_model, cfg, spec, source=SOURCE_ATTACK, burn_in=100)
        sd = cloud.points.std(axis=0)
        tol = 4.0 * sd / math.sqrt(len(cloud))
        # serial correlation within trials inflates the effective variance
        assert np.all(np.abs(cloud.points.mean(axis=0)) <= 12.0 * tol)


# (plant, preset, truncated noise) of the cloud-split cases
SPLIT_CASES = {"ZA.B": (2, "ZA.B", False), "H.A-trunc": (2, "H.A", True),
               "ZA.C-n4": (4, "ZA.C", False), "H.B-trunc-n4": (4, "H.B", True)}


class TestCloudSplit:
    def cloud(self, bench_model, case, source, trials, horizon=40):
        n, preset, truncate = SPLIT_CASES[case]
        model = bench_model if n == 2 else plant_4d()
        a = chi2_quantile(0.95, model.p)
        cfg = SimConfig(horizon=horizon, attack_start=5, master_seed=31, trials=trials,
                        vbar=chi2_quantile(0.95, n) if truncate else None)
        return empirical_cloud(model, cfg, named_spec(preset, a), source=source, burn_in=4)

    def assert_same(self, got, want, case):
        assert got.trials == want.trials
        for name in ("points", "trial_alarm_free"):
            g, w = getattr(got, name), getattr(want, name)
            assert g.shape == w.shape and np.array_equal(g, w), name
        # zero-alarm (ZA.*) trials never alarm, and some hidden-attack trials do
        assert want.trial_alarm_free.all() == SPLIT_CASES[case][1].startswith("ZA.")

    @pytest.mark.parametrize("source", [SOURCE_NOISE, SOURCE_ATTACK, SOURCE_TOTAL])
    @pytest.mark.parametrize("case, cpus", cpu_cases(*SPLIT_CASES))
    def test_chunks_equal_one_batch(self, bench_model, monkeypatch, usable_cpus, case, cpus,
                                    source):
        # 27 trials in one chunk, then in chunks of 8, 8, 8 and a short 3
        usable_cpus(1)
        whole = self.cloud(bench_model, case, source, trials=27)
        monkeypatch.setattr(montecarlo, "BATCH_TRIALS", 8)
        usable_cpus(cpus)
        self.assert_same(self.cloud(bench_model, case, source, trials=27), whole, case)

    @pytest.mark.parametrize("case, cpus", cpu_cases("H.A-trunc"))
    def test_short_last_chunk_at_batch_size(self, bench_model, monkeypatch, usable_cpus, case,
                                            cpus):
        trials = BATCH_TRIALS + 3
        usable_cpus(cpus)
        split = self.cloud(bench_model, case, SOURCE_TOTAL, trials, horizon=12)
        monkeypatch.setattr(montecarlo, "BATCH_TRIALS", trials)
        usable_cpus(1)
        self.assert_same(split, self.cloud(bench_model, case, SOURCE_TOTAL, trials, horizon=12),
                         case)

    @pytest.mark.parametrize("trials", [100, BATCH_TRIALS])
    def test_one_chunk_forks_nothing(self, bench_model, monkeypatch, usable_cpus, trials):
        # a fork costs about 5 ms; verify's 100-trial cloud must not pay it
        usable_cpus(2)
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("a one-chunk cloud forked"))
        cloud = self.cloud(bench_model, "H.A-trunc", SOURCE_TOTAL, trials, horizon=12)
        assert cloud.trials == trials


# (plant dimension, preset, attack start) of the alarm-count cases; each run
# truncates the noise
ALARM_CASES = {"free": (2, None, 1), "free-n4": (4, None, 1),
               "ZA.C": (2, "ZA.C", 1), "ZA.C-n4": (4, "ZA.C", 1),
               "H.B-k9": (2, "H.B", 9), "H.B-k9-n4": (4, "H.B", 9)}


class TestAlarmCounts:
    def run(self, bench_model, case, seed=33):
        """(model, alpha, cfg, spec) of a case, in two chunks of trials."""
        n, preset, kstar = ALARM_CASES[case]
        model = bench_model if n == 2 else plant_4d()
        a = chi2_quantile(0.95, model.p)
        cfg = SimConfig(horizon=30, attack_start=kstar, master_seed=seed,
                        trials=BATCH_TRIALS + 3, vbar=chi2_quantile(0.95, n))
        return model, a, cfg, preset and named_spec(preset, a)

    def simulated(self, model, a, cfg, spec):
        """(alarms, steps) of the run simulated as one batch by its parts, over
        the steps it counts (k* .. horizon when attacked), and the alarm flags
        of every step."""
        alarm = distance(batch_parts(model, cfg, spec)[2], model.SigmaInv) > a
        counted = alarm[:, cfg.attack_start - 1:] if spec else alarm
        return (int(counted.sum()), counted.size), alarm

    @pytest.mark.parametrize("case, cpus", cpu_cases(*ALARM_CASES))
    def test_counts_equal_simulate(self, bench_model, usable_cpus, case, cpus):
        model, a, cfg, spec = self.run(bench_model, case)
        counts, alarm = self.simulated(model, a, cfg, spec)
        usable_cpus(cpus)
        [(alarms, steps)] = alarm_counts(model, [(cfg, spec)], a)
        assert (alarms, steps) == counts
        if spec is None:
            assert alarms > 0 and steps == cfg.trials * cfg.horizon
        elif spec.kind == ZERO_ALARM:
            assert alarms == 0 and steps == cfg.trials * cfg.horizon
        else:
            # steps before k* alarm too, and are not counted
            assert alarms > 0 and alarm[:, :cfg.attack_start - 1].any()
            assert steps == cfg.trials * (cfg.horizon - cfg.attack_start + 1)

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_two_runs_in_one_call(self, bench_model, usable_cpus, cpus):
        free, attacked = self.run(bench_model, "free-n4"), self.run(bench_model, "H.B-k9-n4", 34)
        model, a = free[:2]
        usable_cpus(cpus)
        got = alarm_counts(model, [free[2:], attacked[2:]], a)
        assert got == [self.simulated(*free)[0], self.simulated(*attacked)[0]]


class TestContainmentReport:
    def test_za_cloud_inside_geometric_bound(self, bench_model, alpha, vbar):
        spec = named_spec("ZA.C", alpha)
        cfg = SimConfig(horizon=250, attack_start=1, master_seed=23, trials=40)
        cloud = empirical_cloud(bench_model, cfg, spec, source=SOURCE_ATTACK, burn_in=50)
        bound = reach_bounds_geom(bench_model, alpha, vbar)[2]
        report = containment_report(cloud, [bound])
        entry = report["bounds"][0]
        assert entry["contained_fraction"]["0.0"] == 1.0
        assert entry["contained_fraction"]["1e-06"] == 1.0
        assert entry["max_membership"] <= 1.0
        assert entry["volume_ratio_vs_fit"] >= 1.0

    def test_caller_holds_only_the_cloud(self, tmp_path, usable_cpus):
        # 400 trials x 500 kept steps of the n = 4 plant: 200k points, 6.4 MB.  Scoring
        # four bounds and saving the cloud array in this process may add a cloud-length
        # membership column, and no full-size copy of the cloud.
        usable_cpus(1)
        model = plant_4d()
        a = chi2_quantile(0.95, model.p)
        cfg = SimConfig(horizon=550, attack_start=1, master_seed=5, trials=400)
        cloud = empirical_cloud(model, cfg, named_spec("ZA.C", a), burn_in=50)
        bounds = reach_bounds_geom(model, a, chi2_quantile(0.95, model.n))
        assert len(cloud) == 200_000 and len(bounds) == 4
        path = tmp_path / "cloud.npy"
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            report = containment_report(cloud, bounds)
            np.save(path, cloud.points.reshape(cloud.trials, -1, cloud.dim))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - entry < cloud.points.nbytes / 2
        assert len(report["bounds"]) == 4
        saved = np.load(path)
        assert saved.shape == (400, 500, 4)
        assert saved.tobytes() == cloud.points.tobytes()


class TestHeatmap:
    def test_admissible_triangle(self, alpha):
        cells = admissible_cells(alpha, 16)
        for c1, w1 in cells:
            assert c1 - w1 / 2 >= -1e-9
            assert c1 + w1 / 2 <= alpha + 1e-9
        # corner cell present, full-width w1 only possible at c1 = alpha/2
        assert (alpha, 0.0) in [(c, w) for c, w in cells]

    def test_heatmap_volumes_and_determinism(self, bench_model, alpha):
        res = volume_heatmap(bench_model, alpha, grid_res=6, trials=4,
                             horizon=160, burn_in=40, master_seed=24)
        assert len(res.grid) == len(admissible_cells(alpha, 6))
        vols = {(c, w): v for c, w, v in res.grid}
        assert vols[(0.0, 0.0)] == 0.0  # zero-magnitude mixture reaches nothing
        assert res.argmax_cell()[2] > 0.0
        res2 = volume_heatmap(bench_model, alpha, grid_res=6, trials=4,
                              horizon=160, burn_in=40, master_seed=24)
        assert res.grid == res2.grid

    def test_monotone_trend_along_zero_width_row(self, bench_model, alpha):
        res = volume_heatmap(bench_model, alpha, grid_res=8, trials=8,
                             horizon=260, burn_in=50, master_seed=25)
        row = sorted((c1, v) for c1, w1, v in res.grid if w1 == 0.0)
        vols = [v for _, v in row]
        smoothed = [np.mean(vols[max(0, i - 1): i + 2]) for i in range(len(vols))]
        # 3-cell moving average is non-decreasing in c1 up to sampling noise
        for a, b in zip(smoothed, smoothed[1:]):
            assert b >= a - 0.05 * max(smoothed)

    @pytest.mark.parametrize("n, cpus", cpu_cases(2, 4))
    def test_cell_volume_equals_fit_of_full_trace(self, bench_model, usable_cpus, n, cpus):
        usable_cpus(cpus)
        model = bench_model if n == 2 else plant_4d()
        a = chi2_quantile(0.95, model.p)
        # cell 2 is (a/3, a/3), one of the res-4 grid's 8 cells stacked in one batch
        seed, idx = 29, 2
        result = volume_heatmap(model, a, grid_res=4, trials=6, horizon=90, burn_in=20,
                                master_seed=seed)
        c1, w1, got = result.grid[idx]
        spec = AttackSpec(kind=ZERO_ALARM, alpha=a, c1=c1, w1=w1)
        cfg = SimConfig(horizon=90, attack_start=1, master_seed=seed, trials=6)
        x_delta = batch_parts(model, cfg, spec)[1][..., :n]
        expected = fit_ellipsoid_moment(x_delta[:, 20:].reshape(-1, n))[1]
        assert w1 > 0.0 and got == expected > 0.0
        assert got == cell_cloud_volume(model, a, c1, w1, seed, trials=6, horizon=90,
                                        burn_in=20)

    @pytest.mark.parametrize("n, cpus", cpu_cases(2, 4))
    def test_batched_cells_equal_cells_alone(self, bench_model, usable_cpus, n, cpus):
        usable_cpus(cpus)
        model = bench_model if n == 2 else plant_4d()
        a = chi2_quantile(0.95, model.p)
        trials, res, seed = 7, 13, 27
        cells = admissible_cells(a, res)
        # 7 trials do not divide the batch budget, and two batch boundaries
        # fall inside the grid
        assert BATCH_TRIALS % trials != 0
        assert len(cells) > 2 * (BATCH_TRIALS // trials)
        result = volume_heatmap(model, a, grid_res=res, trials=trials, horizon=70,
                                burn_in=15, master_seed=seed)
        alone = [
            (c1, w1, cell_cloud_volume(model, a, c1, w1, seed, trials=trials, horizon=70,
                                       burn_in=15))
            for c1, w1 in cells
        ]
        assert result.grid == alone
        assert result.grid[0][:3] == (0.0, 0.0, 0.0)
        assert all(vol > 0.0 for _, _, vol in result.grid[1:])

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_grid_pulls_each_trial_stream_once(self, monkeypatch, usable_cpus, cpus):
        usable_cpus(cpus)
        scn = load_scenario("benchmark2d")
        caller, opened = os.getpid(), []

        def counted(master_seed, *path):
            # a worker that opened a stream would raise here, and the map re-raises it
            assert os.getpid() == caller, "a worker opened a trial stream"
            opened.append((master_seed, *path))
            return stream(master_seed, *path)

        monkeypatch.setattr(plant, "stream", counted)
        result = volume_heatmap(scn.model, scn.alpha, grid_res=16, trials=20, master_seed=21)
        # 128 cells of 20 trials opened 2,560 streams when every cell drew its own
        assert len(result.grid) == 128
        assert opened == [(21, t) for t in range(20)]

    @pytest.mark.parametrize("seed", range(8))
    def test_corner_is_the_argmax_on_every_seed(self, seed):
        # criterion 8's assertions on the benchmark heatmap, seed by seed
        scn = load_scenario("benchmark2d")
        a = scn.alpha
        result = volume_heatmap(scn.model, a, grid_res=16, trials=20, master_seed=seed)
        c1_max, w1_max, vol_max = result.argmax_cell()
        assert c1_max == pytest.approx(a, rel=1e-12) and w1_max == 0.0
        ref = min(result.grid, key=lambda row: (row[0] - a / 8.0) ** 2 + (row[1] - a / 10.0) ** 2)
        assert vol_max / ref[2] - 1.0 >= 0.20
