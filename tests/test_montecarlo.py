import math

import numpy as np
import pytest

from stealthreach import (
    SimConfig,
    attack_state_reach_geom,
    containment_report,
    empirical_cloud,
    fit_ellipsoid_moment,
    named_spec,
    simulate,
    volume_heatmap,
)
from stealthreach.errors import DegenerateCloud, DimensionMismatch
from stealthreach.montecarlo import SOURCE_ATTACK, SOURCE_NOISE, admissible_cells


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

    def test_quantile_scaling(self):
        rng = np.random.default_rng(0)
        pts = rng.standard_normal((2000, 2))
        E_all, vol_all = fit_ellipsoid_moment(pts, quantile=1.0)
        E_q, vol_q = fit_ellipsoid_moment(pts, quantile=0.9)
        assert vol_q < vol_all
        memberships = np.atleast_1d(E_q.membership(pts))
        assert abs(np.mean(memberships <= 1.0 + 1e-12) - 0.9) <= 0.02


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
        cfg = SimConfig(horizon=120, attack_start=1, master_seed=21, trials=3,
                        truncate_noise=True, vbar=vbar)
        cloud = empirical_cloud(bench_model, cfg, spec, source=SOURCE_NOISE, burn_in=20)
        # x_v equals e_v pointwise; the noise stream is attack-independent
        trace = simulate(bench_model, cfg, attack=spec, alpha=alpha)
        assert np.max(np.abs(trace.x_v - trace.e_v)) <= 1e-12
        expected = trace.x_v[:, 20:, :].reshape(-1, 2)
        assert np.array_equal(cloud.points, expected)

    def test_noise_cloud_without_attack_spec(self, bench_model, alpha, vbar):
        # no attack block: the noise split still means the eta-free recursion
        cfg = SimConfig(horizon=120, master_seed=26, trials=3,
                        truncate_noise=True, vbar=vbar)
        cloud = empirical_cloud(bench_model, cfg, None, source=SOURCE_NOISE,
                                burn_in=20, alpha=alpha)
        spec = named_spec("ZA.C", alpha)
        cfg_att = SimConfig(horizon=120, attack_start=1, master_seed=26, trials=3,
                            truncate_noise=True, vbar=vbar)
        attacked = empirical_cloud(bench_model, cfg_att, spec, source=SOURCE_NOISE,
                                   burn_in=20, alpha=alpha)
        # the noise-driven component is attack-independent
        assert np.array_equal(cloud.points, attacked.points)

    def test_cloud_mean_near_origin(self, bench_model, alpha):
        spec = named_spec("ZA.C", alpha)
        cfg = SimConfig(horizon=600, attack_start=1, master_seed=22, trials=40)
        cloud = empirical_cloud(bench_model, cfg, spec, source=SOURCE_ATTACK, burn_in=100)
        sd = cloud.points.std(axis=0)
        tol = 4.0 * sd / math.sqrt(len(cloud))
        # serial correlation within trials inflates the effective variance
        assert np.all(np.abs(cloud.points.mean(axis=0)) <= 12.0 * tol)


class TestContainmentReport:
    def test_za_cloud_inside_geometric_bound(self, bench_model, alpha):
        spec = named_spec("ZA.C", alpha)
        cfg = SimConfig(horizon=250, attack_start=1, master_seed=23, trials=40)
        cloud = empirical_cloud(bench_model, cfg, spec, source=SOURCE_ATTACK, burn_in=50)
        bound = attack_state_reach_geom(bench_model, alpha)
        report = containment_report(cloud, [bound])
        entry = report["bounds"][0]
        assert entry["contained_fraction"]["0.0"] == 1.0
        assert entry["contained_fraction"]["1e-06"] == 1.0
        assert entry["max_membership"] <= 1.0
        assert entry["volume_ratio_vs_fit"] >= 1.0


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
