import json
import sys
from itertools import islice
from pathlib import Path

import numpy as np
import pytest

from stealthreach import (
    Ellipsoid,
    SimConfig,
    build_model,
    chi2_quantile,
    empirical_cloud,
    minkowski_sum_many,
    named_spec,
    reach_bounds_geom,
    reach_bounds_lmi,
    reach_targets,
    solve_steady_state_kalman,
)
from stealthreach.cli import main
from stealthreach.errors import MaxTermsExceeded
from stealthreach.montecarlo import SOURCE_ATTACK, SOURCE_TOTAL
from stealthreach import ellipsoids, reach_geom
from stealthreach.ellipsoids import stationarity_gap
from stealthreach.reach_geom import TAIL_TOL, fit_bound, series_terms, truncated_terms
from stealthreach.reach_lmi import LMI_CERT_TOL
from stealthreach.seeding import stream

from conftest import plant_4d

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402


def geom(model, target, scale):
    """The geometric bound of one reach target at input scale vbar (noise)
    or alpha (attack error and state)."""
    return fit_bound(truncated_terms(*reach_targets(model, scale, scale)[target]), target)


def noise_terms(model, vbar, count):
    return list(islice(series_terms(*reach_targets(model, vbar, vbar)["noise"]), count))


def attack_state_terms(model, alpha, count):
    """The first count attack-state terms, from k = 0."""
    return list(islice(series_terms(*reach_targets(model, alpha, alpha)["attack_state"]), count))


def diag_model(f_scale, r1=None, k=None, g=None):
    n = 2
    return build_model(
        f_scale * np.eye(n),
        np.eye(n) if g is None else g,
        np.eye(n),
        np.zeros((n, n)) if k is None else k,
        np.eye(n) if r1 is None else r1,
        np.eye(n),
    )


class TestNoiseReach:
    def test_nilpotent_single_term(self, vbar):
        model = diag_model(0.0)
        # the first dim(A) = 2 terms are read, and the second is already zero
        bound = geom(model, "noise", vbar)
        assert bound.terms_used == 2
        assert np.max(np.abs(bound.shape.Q - vbar * model.R1)) <= 1e-12

    def test_concentric_ball_series(self):
        # F = 0.5 I, R1 = I, vbar = 1: ball radii (0.5)^k, k < K, sum to
        # 2 (1 - 0.5^K), so the shape is that radius squared times I
        model = diag_model(0.5)
        bound = geom(model, "noise", 1.0)
        radius = 2.0 * (1.0 - 0.5**bound.terms_used)
        assert np.max(np.abs(bound.shape.Q - radius**2 * np.eye(2))) <= 1e-12

    def test_determinant_decay_law(self, bench_model, vbar):
        # det(Q_k) = vbar^n det(R1) det(F)^(2k)
        terms = noise_terms(bench_model, vbar, 12)
        det_f = np.linalg.det(bench_model.F)
        det_r1 = np.linalg.det(bench_model.R1)
        for k, Q in enumerate(terms):
            expected = vbar**2 * det_r1 * det_f ** (2 * k)
            assert np.linalg.det(Q) == pytest.approx(expected, rel=1e-9)

    def test_max_terms_exceeded(self, bench_model, vbar, monkeypatch):
        monkeypatch.setattr(reach_geom, "MAX_TERMS", 5)
        with pytest.raises(MaxTermsExceeded):
            geom(bench_model, "noise", vbar)


class TestAttackStateReach:
    def test_zero_feedback_degenerate(self, alpha):
        model = diag_model(0.5, k=np.zeros((2, 2)))
        bound = geom(model, "attack_state", alpha)
        assert bound.volume == 0.0
        assert bound.shape.is_degenerate()

    def test_zero_input_matrix_degenerate(self, alpha):
        model = build_model(0.5 * np.eye(2), np.zeros((2, 2)), np.eye(2),
                            np.zeros((2, 2)), np.eye(2), np.eye(2))
        bound = geom(model, "attack_state", alpha)
        assert bound.volume == 0.0

    def test_cascade_matches_power_difference(self, bench_model, alpha):
        # reference: H_k = (F + G K)^k - F^k formed from explicit powers;
        # [I 0] A^k [0; L] = -H_k L for the joint transition A
        core = bench_model.L @ bench_model.Sigma @ bench_model.L.T
        for k, T in enumerate(attack_state_terms(bench_model, alpha, 41)):
            H = (np.linalg.matrix_power(bench_model.F + bench_model.G @ bench_model.K, k)
                 - np.linalg.matrix_power(bench_model.F, k))
            ref = alpha * H @ core @ H.T
            assert np.max(np.abs(T - ref)) <= 1e-12 * np.max(np.abs(core))

    def test_first_term_is_gk_image(self, bench_model, alpha):
        # the attack reaches x one step late: the k = 0 term is exactly zero,
        # counted in terms_used, and k = 1 is the G K image
        terms = attack_state_terms(bench_model, alpha, 3)
        GK = bench_model.G @ bench_model.K
        core = bench_model.L @ bench_model.Sigma @ bench_model.L.T
        assert not terms[0].any()
        assert np.max(np.abs(terms[1] - alpha * GK @ core @ GK.T)) <= 1e-12
        bound = geom(bench_model, "attack_state", alpha)
        assert np.array_equal(minkowski_sum_many(
            attack_state_terms(bench_model, alpha, bound.terms_used)).Q, bound.shape.Q)

    def test_containment_of_simulated_error_and_state(self, bench_model, alpha):
        # simulation oracle: boundary-magnitude attack draws stay inside
        err_bound = geom(bench_model, "attack_error", alpha)
        state_bound = geom(bench_model, "attack_state", alpha)
        rng = stream(200)
        LS = bench_model.L @ bench_model.SigmaSqrt
        GK = bench_model.G @ bench_model.K
        ed = np.zeros((100, 2))
        xd = np.zeros((100, 2))
        worst_e, worst_x = 0.0, 0.0
        for _ in range(400):
            g = rng.standard_normal((100, 2))
            u = g / np.linalg.norm(g, axis=1, keepdims=True)
            db = np.sqrt(alpha) * u
            ed_next = ed @ bench_model.F.T - db @ LS.T
            xd_next = xd @ (bench_model.F + GK).T - ed @ GK.T
            ed, xd = ed_next, xd_next
            worst_e = max(worst_e, float(np.max(np.atleast_1d(err_bound.shape.membership(ed)))))
            worst_x = max(worst_x, float(np.max(np.atleast_1d(state_bound.shape.membership(xd)))))
        assert worst_e <= 1.0 + 1e-6
        assert worst_x <= 1.0 + 1e-6

    def test_two_leading_zero_terms(self):
        # K is orthogonal to the Riccati gain L, so C A B = -G K L = 0 as well
        # as C B: the series starts at k = 2, and the bound still contains the
        # attack and total clouds
        F2, G2, C2, R1_2, R2_2 = (np.array([[0.5, 0.0], [0.4, 0.3]]), np.array([[1.0], [0.0]]),
                                  np.array([[1.0, 0.0]]), 0.05 * np.eye(2), np.eye(1))
        L = solve_steady_state_kalman(F2, C2, R1_2, R2_2).L[:, 0]
        K2 = 0.5 * np.array([[-L[1], L[0]]]) / np.linalg.norm(L)
        model = build_model(F2, G2, C2, K2, R1_2, R2_2)
        alpha, vbar = chi2_quantile(0.95, 1), chi2_quantile(0.95, 2)
        terms = attack_state_terms(model, alpha, 3)
        assert not terms[0].any() and not terms[1].any() and terms[2].any()
        geo, lmi = reach_bounds_geom(model, alpha, vbar), reach_bounds_lmi(model, alpha, vbar)
        assert 0.0 < geo[2].volume <= lmi[2].volume and geo[3].volume <= lmi[3].volume
        cfg = SimConfig(horizon=300, attack_start=1, master_seed=3, trials=100, vbar=vbar)
        for source, bound in ((SOURCE_ATTACK, geo[2]), (SOURCE_TOTAL, geo[3])):
            cloud = empirical_cloud(model, cfg, named_spec("ZA.C", alpha), source=source)
            assert np.max(bound.membership(cloud.points)) <= 1.0 + 1e-6, source


class TestTruncationAndScaling:
    def test_truncation_soundness(self, bench_model, vbar):
        # the trace is quadratic in the semiaxes, so the tail mass discarded
        # by a trace-ratio rule at TAIL_TOL scales as sqrt(TAIL_TOL)
        bound = geom(bench_model, "noise", vbar)
        doubled = minkowski_sum_many(noise_terms(bench_model, vbar, 2 * bound.terms_used))
        import math

        assert abs(doubled.volume - bound.volume) <= 10.0 * math.sqrt(TAIL_TOL) * bound.volume

    def test_alpha_scaling_linearity(self, bench_model, alpha):
        b1 = geom(bench_model, "attack_state", alpha)
        b4 = geom(bench_model, "attack_state", 4.0 * alpha)
        scale = np.max(np.abs(b1.shape.Q))
        assert np.max(np.abs(b4.shape.Q - 4.0 * b1.shape.Q)) <= 1e-12 * max(scale, 1.0)
        assert b4.volume == pytest.approx(4.0 * b1.volume, rel=1e-10)

    def test_distinct_time_indices(self, bench_model, alpha):
        # each term is a distinct power image: strictly decreasing trace here
        terms = attack_state_terms(bench_model, alpha, 11)[1:]
        traces = [float(np.trace(Q)) for Q in terms]
        assert len(set(traces)) == len(traces)


class TestTotalBound:
    def test_degenerate_attack_returns_noise_bound(self, alpha, vbar):
        # K = 0 leaves x_delta undriven: the attack-state terms are all zero
        noise, _, att_state, total = reach_bounds_geom(diag_model(0.5, k=np.zeros((2, 2))),
                                                       alpha, vbar)
        assert att_state.volume == 0.0
        assert np.array_equal(total.shape.Q, noise.shape.Q)

    @pytest.mark.parametrize("n", [2, 4])
    def test_zero_attack_input_total_is_noise_bound(self, bench_model, vbar, n):
        # alpha = 0: the attack-state row's terms are zero, identities of the fit
        model, v = (bench_model, vbar) if n == 2 else (plant_4d(), chi2_quantile(0.95, 4))
        noise, _, att_state, total = reach_bounds_geom(model, 0.0, v)
        assert not att_state.shape.Q.any()
        assert np.array_equal(total.shape.Q, noise.shape.Q)
        assert total.volume == noise.volume
        assert total.diagnostics["stationarity_gap"] == noise.diagnostics["stationarity_gap"]

    def test_ball_radii_add(self):
        total = fit_bound([np.eye(2), 4.0 * np.eye(2)], "total_state")
        assert np.max(np.abs(total.shape.Q - 9.0 * np.eye(2))) <= 1e-8

    def test_total_fits_both_rows_terms(self, bench_model, alpha, vbar):
        # one fit over the noise row's and the attack-state row's truncated terms
        targets = reach_targets(bench_model, alpha, vbar)
        terms = truncated_terms(*targets["noise"]) + truncated_terms(*targets["attack_state"])
        noise, _, att_state, total = reach_bounds_geom(bench_model, alpha, vbar)
        assert np.array_equal(total.shape.Q, minkowski_sum_many(terms).Q)
        assert total.terms_used == noise.terms_used + att_state.terms_used == len(terms)
        assert total.diagnostics["from"] == ["noise", "attack_state"]
        assert total.volume == pytest.approx(8.650643870489, rel=1e-10)

    @pytest.mark.parametrize("plant", ["benchmark2d", 0, 1, 2])
    def test_total_at_most_pair_sum_and_lmi_total(self, bench_model, plant):
        # on benchmark2d and three n = 4 plants of the benchmark's generator:
        # the pair sum of the two fitted bounds and the LMI pair sum are both
        # members of the joint fit's weighted family
        model = bench_model if plant == "benchmark2d" else build_model(
            **workloads.draw_plant(np.random.default_rng(plant))[0])
        alpha, vbar = chi2_quantile(0.95, model.p), chi2_quantile(0.95, model.n)
        noise, _, att_state, total = reach_bounds_geom(model, alpha, vbar)
        pair = minkowski_sum_many([noise.shape.Q, att_state.shape.Q])
        assert total.volume <= pair.volume
        assert total.volume <= reach_bounds_lmi(model, alpha, vbar)[3].volume

    def test_bound_json_round_trip(self, bench_model, alpha):
        bound = geom(bench_model, "attack_state", alpha)
        d = bound.to_dict()
        assert d["method"] == "geometric"
        assert d["terms_used"] == bound.terms_used
        back = Ellipsoid(np.asarray(json.loads(json.dumps(d))["Q"]))
        assert np.array_equal(back.Q, bound.shape.Q)
        assert back.volume == bound.volume


def series_and_bounds(model, alpha, vbar):
    """(series from k = 0, geometric bound, LMI bound) for each reach target."""
    targets = reach_targets(model, alpha, vbar)
    return [(series_terms(*targets[g.target]), g, lmi) for g, lmi in
            zip(reach_bounds_geom(model, alpha, vbar)[:3], reach_bounds_lmi(model, alpha, vbar)[:3])]


def scaled_model(m, scale):
    """The loop in the state units x -> s x: G s, C / s, K / s, R1 s^2."""
    return build_model(m.F, scale * m.G, m.C / scale, m.K / scale, scale**2 * m.R1, m.R2)


def transformed_model(m, T):
    """The loop in the state units x -> T x: T F T^-1, T G, C T^-1, K T^-1, T R1 T^T."""
    T_inv = np.linalg.inv(T)
    return build_model(T @ m.F @ T_inv, T @ m.G, m.C @ T_inv, m.K @ T_inv, T @ m.R1 @ T.T, m.R2)


class TestUnitChange:
    @pytest.mark.parametrize("scale", [1e-5, 0.01, 100.0, 1000.0, 1e5])
    def test_volumes_follow_state_scaling(self, bench_model, alpha, vbar, scale):
        # x -> s x maps P to s^2 P and every reach set to its image, so the
        # Riccati stopping point, the decay scalars, the certificates and all
        # eight volumes / s^n must not move
        m = bench_model
        scaled = scaled_model(m, scale)
        assert scaled.diagnostics["riccati_iterations"] == m.diagnostics["riccati_iterations"]
        ref_lmi, got_lmi = reach_bounds_lmi(m, alpha, vbar), reach_bounds_lmi(scaled, alpha, vbar)
        pairs = zip(reach_bounds_geom(m, alpha, vbar) + ref_lmi,
                    reach_bounds_geom(scaled, alpha, vbar) + got_lmi)
        for ref, got in pairs:
            assert abs(got.volume / scale**m.n - ref.volume) <= 1e-12 * ref.volume, \
                (ref.method, ref.target)
        for ref, got in zip(ref_lmi[:3], got_lmi[:3]):
            assert abs(got.a_star - ref.a_star) <= 1e-12, ref.target
            assert got.diagnostics["lmi_min_eig"] >= -LMI_CERT_TOL, ref.target

    @pytest.mark.parametrize("factors", [(1e3, 1.0), (0.25, 4.0), (1e-3, 7.0)])
    def test_truncation_and_volumes_follow_diagonal_units(self, bench_model, alpha, vbar,
                                                            factors):
        # tr(R^+ T_k) does not change under x -> T x, so every row keeps its
        # number of terms, and each volume / |det T| stays the unscaled one
        T = np.diag(factors)
        ref = reach_bounds_geom(bench_model, alpha, vbar)
        got = reach_bounds_geom(transformed_model(bench_model, T), alpha, vbar)
        for r, g in zip(ref, got):
            assert g.terms_used == r.terms_used, r.target
            assert abs(g.volume / abs(np.linalg.det(T)) - r.volume) <= 1e-12 * r.volume, r.target

    def test_cli_lmi_bound_at_large_scale(self, bench_model, tmp_path, capsys):
        m = scaled_model(bench_model, 1e5)
        raw = {
            "model": {k: getattr(m, k).tolist() for k in ("F", "G", "C", "K", "R1", "R2")},
            "detector": {"A": 0.05},
            "sim": {"horizon": 80, "master_seed": 1, "trials": 3},
            "output": {"formats": ["json"]},
        }
        path = tmp_path / "scaled.json"
        path.write_text(json.dumps(raw))
        out = tmp_path / "out"
        assert main(["bound", "--scenario", str(path), "--out", str(out), "--method", "lmi"]) == 0
        assert len(list(out.glob("bound_lmi_*.json"))) == 4


class TestWeightedSeries:
    def test_lmi_shape_is_series_with_geometric_weights(self, bench_model, alpha, vbar):
        # the Lyapunov fixed point at a* is sum_k T_k / ((1 - a*) a*^k), and
        # the attack state's projection C Q C^T is sum_k C T_k C^T / ((1 - a*) a*^k)
        for series, _, lmi in series_and_bounds(bench_model, alpha, vbar):
            a = lmi.a_star
            terms = [next(series) for _ in range(400)]
            Q = sum(T / ((1.0 - a) * a**k) for k, T in enumerate(terms))
            assert np.max(np.abs(Q - lmi.shape.Q)) <= 1e-12 * np.max(np.abs(lmi.shape.Q))

    @pytest.mark.parametrize("n", [2, 4])
    def test_geometric_volume_at_most_lmi(self, bench_model, alpha, vbar, n):
        if n == 2:
            model, a, v = bench_model, alpha, vbar
        else:
            model = plant_4d()
            a, v = chi2_quantile(0.95, model.p), chi2_quantile(0.95, model.n)
        for _, g, lmi in series_and_bounds(model, a, v):
            assert g.volume <= lmi.volume, g.target

    def test_stationarity_gap_on_bundled_bounds(self, bench_model, alpha, vbar):
        for bound in reach_bounds_geom(bench_model, alpha, vbar):
            assert bound.diagnostics["stationarity_gap"] < 1e-10

    def test_stationarity_gap_none_when_degenerate(self, alpha):
        bound = geom(diag_model(0.5, k=np.zeros((2, 2))), "attack_state", alpha)
        assert bound.diagnostics["stationarity_gap"] is None


def test_weight_iteration_stops_when_weights_settle(monkeypatch):
    # on this n = 4 plant the weights settle near 1e-13 of the largest, so an
    # absolute step test never fires on the attack-error row; the relative
    # one stops the fixed-point map long before MAX_WEIGHT_ITERS on each row
    model = build_model(**workloads.draw_plant(np.random.default_rng(2))[0])
    alpha, vbar = chi2_quantile(0.95, model.p), chi2_quantile(0.95, model.n)
    real = ellipsoids.stationary_weights
    for target, inputs in reach_targets(model, alpha, vbar).items():
        terms = truncated_terms(*inputs)
        calls = []
        monkeypatch.setattr(ellipsoids, "stationary_weights",
                            lambda Q, Qs: calls.append(1) or real(Q, Qs))
        E = minkowski_sum_many(terms)
        monkeypatch.undo()
        assert len(calls) <= 50, target
        assert stationarity_gap(E, terms) < 1e-10, target
