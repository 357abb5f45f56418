import numpy as np
import pytest

from stealthreach import (
    GeomSumConfig,
    Ellipsoid,
    attack_error_reach_geom,
    attack_state_reach_geom,
    build_model,
    chi2_quantile,
    minkowski_sum_many,
    noise_reach_geom,
    reach_bounds_geom,
    reach_bounds_lmi,
    total_state_bound_geom,
)
from stealthreach.errors import MaxTermsExceeded
from stealthreach.reach_geom import attack_state_terms, noise_terms, series_terms
from stealthreach.seeding import stream

from conftest import plant_4d

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
        bound = noise_reach_geom(model, vbar)
        assert bound.terms_used == 1
        assert np.max(np.abs(bound.shape.Q - vbar * model.R1)) <= 1e-12

    def test_concentric_ball_series(self):
        # F = 0.5 I, R1 = I, vbar = 1: ball radii (0.5)^k sum to 2, shape 4 I
        model = diag_model(0.5)
        bound = noise_reach_geom(model, 1.0, GeomSumConfig(tail_tol=1e-14))
        assert np.max(np.abs(bound.shape.Q - 4.0 * np.eye(2))) <= 1e-6

    def test_determinant_decay_law(self, bench_model, vbar):
        # det(Q_k) = vbar^n det(R1) det(F)^(2k)
        terms = noise_terms(bench_model, vbar, 12)
        det_f = np.linalg.det(bench_model.F)
        det_r1 = np.linalg.det(bench_model.R1)
        for k, Q in enumerate(terms):
            expected = vbar**2 * det_r1 * det_f ** (2 * k)
            assert np.linalg.det(Q) == pytest.approx(expected, rel=1e-9)

    def test_max_terms_exceeded(self, bench_model, vbar):
        with pytest.raises(MaxTermsExceeded):
            noise_reach_geom(bench_model, vbar, GeomSumConfig(tail_tol=1e-12, max_terms=5))


class TestAttackStateReach:
    def test_zero_feedback_degenerate(self, alpha):
        model = diag_model(0.5, k=np.zeros((2, 2)))
        bound = attack_state_reach_geom(model, alpha)
        assert bound.volume == 0.0
        assert bound.shape.is_degenerate()

    def test_zero_input_matrix_degenerate(self, alpha):
        model = build_model(0.5 * np.eye(2), np.zeros((2, 2)), np.eye(2),
                            np.zeros((2, 2)), np.eye(2), np.eye(2))
        bound = attack_state_reach_geom(model, alpha)
        assert bound.volume == 0.0

    def test_cascade_matches_power_difference(self, bench_model, alpha):
        # reference: H_k = (F + G K)^k - F^k formed from explicit powers
        core = bench_model.L @ bench_model.Sigma @ bench_model.L.T
        for k, T in enumerate(attack_state_terms(bench_model, alpha, 40), start=1):
            H = (np.linalg.matrix_power(bench_model.closed_loop, k)
                 - np.linalg.matrix_power(bench_model.F, k))
            ref = alpha * H @ core @ H.T
            assert np.max(np.abs(T - ref)) <= 1e-12 * np.max(np.abs(core))

    def test_first_term_is_gk_image(self, bench_model, alpha):
        terms = attack_state_terms(bench_model, alpha, 3)
        GK = bench_model.G @ bench_model.K
        core = bench_model.L @ bench_model.Sigma @ bench_model.L.T
        assert np.max(np.abs(terms[0] - alpha * GK @ core @ GK.T)) <= 1e-12

    def test_containment_of_simulated_error_and_state(self, bench_model, alpha):
        # simulation oracle: boundary-magnitude attack draws stay inside
        err_bound = attack_error_reach_geom(bench_model, alpha)
        state_bound = attack_state_reach_geom(bench_model, alpha)
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
            xd_next = xd @ bench_model.closed_loop.T - ed @ GK.T
            ed, xd = ed_next, xd_next
            worst_e = max(worst_e, float(np.max(np.atleast_1d(err_bound.shape.membership(ed)))))
            worst_x = max(worst_x, float(np.max(np.atleast_1d(state_bound.shape.membership(xd)))))
        assert worst_e <= 1.0 + 1e-6
        assert worst_x <= 1.0 + 1e-6


class TestTruncationAndScaling:
    def test_truncation_soundness(self, bench_model, vbar):
        # trace is quadratic in the semiaxes, so the tail mass discarded by a
        # trace-ratio rule at tail_tol scales as sqrt(tail_tol)
        cfg = GeomSumConfig(tail_tol=1e-12)
        bound = noise_reach_geom(bench_model, vbar, cfg)
        doubled = minkowski_sum_many(
            [Ellipsoid((Q + Q.T) / 2) for Q in noise_terms(bench_model, vbar, 2 * bound.terms_used)]
        )
        import math

        assert abs(doubled.volume - bound.volume) <= 10.0 * math.sqrt(cfg.tail_tol) * bound.volume

    def test_alpha_scaling_linearity(self, bench_model, alpha):
        b1 = attack_state_reach_geom(bench_model, alpha)
        b4 = attack_state_reach_geom(bench_model, 4.0 * alpha)
        scale = np.max(np.abs(b1.shape.Q))
        assert np.max(np.abs(b4.shape.Q - 4.0 * b1.shape.Q)) <= 1e-12 * max(scale, 1.0)
        assert b4.volume == pytest.approx(4.0 * b1.volume, rel=1e-10)

    def test_distinct_time_indices(self, bench_model, alpha):
        # each term is a distinct power image: strictly decreasing trace here
        terms = attack_state_terms(bench_model, alpha, 10)
        traces = [float(np.trace(Q)) for Q in terms]
        assert len(set(traces)) == len(traces)


class TestTotalBound:
    def test_degenerate_attack_returns_noise_bound(self, bench_model, alpha, vbar):
        noise = noise_reach_geom(bench_model, vbar)
        degen = attack_state_reach_geom(diag_model(0.5, k=np.zeros((2, 2))), alpha)
        total = total_state_bound_geom(noise, degen)
        assert np.array_equal(total.shape.Q, noise.shape.Q)

    def test_ball_radii_add(self):
        from stealthreach.reach_common import ReachBound

        b1 = ReachBound(shape=Ellipsoid(np.eye(2)), method="geometric", target="noise", volume=0.0)
        b2 = ReachBound(shape=Ellipsoid(4.0 * np.eye(2)), method="geometric",
                        target="attack_state", volume=0.0)
        total = total_state_bound_geom(b1, b2)
        assert np.max(np.abs(total.shape.Q - 9.0 * np.eye(2))) <= 1e-8

    def test_bound_json_round_trip(self, bench_model, alpha):
        from stealthreach.reach_common import ReachBound

        bound = attack_state_reach_geom(bench_model, alpha)
        d = bound.to_dict()
        assert d["method"] == "geometric"
        assert d["terms_used"] == bound.terms_used
        back = ReachBound.from_dict(d)
        assert np.allclose(back.shape.Q, bound.shape.Q)
        assert back.volume == bound.volume


def noise_and_attack_error(model, alpha, vbar):
    """(series, geometric bound, LMI bound) for the noise and attack-error targets."""
    lmi_noise, lmi_err = reach_bounds_lmi(model, alpha, vbar)[:2]
    return [
        (series_terms(model.F, np.eye(model.n), vbar * model.R1),
         noise_reach_geom(model, vbar), lmi_noise),
        (series_terms(model.F, model.L, alpha * model.Sigma),
         attack_error_reach_geom(model, alpha), lmi_err),
    ]


class TestUnitChange:
    @pytest.mark.parametrize("scale", [0.01, 100.0, 1000.0])
    def test_volumes_follow_state_scaling(self, bench_model, alpha, vbar, scale):
        # x -> s x maps P to s^2 P and every reach set to its image, so the
        # Riccati stopping point and the volumes / s^n must not move
        m = bench_model
        scaled = build_model(m.F, scale * m.G, m.C / scale, m.K / scale, scale**2 * m.R1, m.R2)
        assert scaled.diagnostics["riccati_iterations"] == m.diagnostics["riccati_iterations"]
        pairs = zip(reach_bounds_geom(m, alpha, vbar), reach_bounds_geom(scaled, alpha, vbar))
        for ref, got in pairs:
            assert abs(got.volume / scale**m.n - ref.volume) <= 1e-12 * ref.volume, ref.target


class TestWeightedSeries:
    def test_lmi_shape_is_series_with_geometric_weights(self, bench_model, alpha, vbar):
        # the Lyapunov fixed point at a* is sum_k T_k / ((1 - a*) a*^k)
        for series, _, lmi in noise_and_attack_error(bench_model, alpha, vbar):
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
        for _, geom, lmi in noise_and_attack_error(model, a, v):
            assert geom.volume <= lmi.volume

    def test_stationarity_gap_on_bundled_bounds(self, bench_model, alpha, vbar):
        for bound in reach_bounds_geom(bench_model, alpha, vbar):
            assert bound.diagnostics["stationarity_gap"] < 1e-10

    def test_stationarity_gap_none_when_degenerate(self, alpha):
        bound = attack_state_reach_geom(diag_model(0.5, k=np.zeros((2, 2))), alpha)
        assert bound.diagnostics["stationarity_gap"] is None
