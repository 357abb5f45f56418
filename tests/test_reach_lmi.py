import math
import time

import numpy as np
import pytest

from stealthreach import (
    Ellipsoid,
    LmiProblem,
    ReachBound,
    min_volume_over_a,
    reach_bounds_lmi,
    solve_logdet_sdp,
    sym_sqrt,
    unit_ball_volume,
)
from stealthreach.errors import AllInfeasible, Infeasible
from stealthreach.plant import spectral_radius
from stealthreach.reach_common import METHOD_LMI, total_state_bound
from stealthreach.reach_lmi import block_matrix
from stealthreach.seeding import stream


def scalar_family_optimum(sigma, a):
    """Closed form for A = sigma*I, B = I, R = I: block PSD iff
    p <= (a - sigma^2)(1 - a)/a per coordinate, so the optimum is that value."""
    return (a - sigma * sigma) * (1.0 - a) / a


class TestSolveLogdetSdp:
    def test_static_system_closed_form(self):
        # A = 0 reduces the LMI to diag(a P, (1-a) I - P): optimum P = (1-a) I
        for a in (0.1, 0.3, 0.7):
            P, diag = solve_logdet_sdp(LmiProblem(np.zeros((2, 2)), np.eye(2), np.eye(2), a))
            assert np.max(np.abs(P - (1.0 - a) * np.eye(2))) <= 1e-6
            assert diag["lmi_min_eig"] >= -1e-7

    def test_scaled_identity_closed_form(self):
        P, _ = solve_logdet_sdp(LmiProblem(0.5 * np.eye(2), np.eye(2), np.eye(2), 0.5))
        assert np.max(np.abs(P - scalar_family_optimum(0.5, 0.5) * np.eye(2))) <= 1e-6

    def test_brute_force_diagonal_grid_oracle(self):
        # dense grid over diagonal P, feasibility via eigenvalue check
        A = 0.5 * np.eye(2)
        B = np.eye(2)
        R = np.eye(2)
        a = 0.5
        prob = LmiProblem(A, B, R, a)
        best = None
        for p1 in np.linspace(0.01, 1.0, 100):
            for p2 in np.linspace(0.01, 1.0, 100):
                P = np.diag([p1, p2])
                if np.linalg.eigvalsh(block_matrix(P, prob))[0] >= -1e-12:
                    d = p1 * p2
                    if best is None or d > best[0]:
                        best = (d, P)
        P_solver, _ = solve_logdet_sdp(prob)
        assert np.max(np.abs(P_solver - best[1])) <= 1e-2  # grid resolution limit
        assert np.linalg.det(P_solver) >= best[0] - 1e-3

    def test_infeasible_below_contraction_rate(self):
        with pytest.raises(Infeasible):
            solve_logdet_sdp(LmiProblem(0.5 * np.eye(2), np.eye(2), np.eye(2), 0.25))

    def test_feasible_just_above_contraction_rate(self, bench_model, alpha):
        rho2 = bench_model.diagnostics["rho_F"] ** 2
        prob = LmiProblem(bench_model.F, -bench_model.L @ bench_model.SigmaSqrt,
                          np.eye(2) / alpha, rho2 + 0.05)
        P, diag = solve_logdet_sdp(prob)
        assert diag["lmi_min_eig"] >= -1e-7 * (1.0 + np.linalg.norm(prob.R))
        assert np.linalg.eigvalsh(P)[0] >= 1e-12


class TestLyapunovOracle:
    @pytest.mark.parametrize("n", [3, 4, 6])
    def test_matches_scipy_discrete_lyapunov(self, n):
        # random stable A, B of rank n-1; the optimum is P = X^-1 for
        # X = (A/sqrt(a)) X (A/sqrt(a))^T + B R^-1 B^T / (1-a)
        scipy_linalg = pytest.importorskip("scipy.linalg")
        rng = stream(200, n)
        for _ in range(4):
            M = rng.standard_normal((n, n))
            A = rng.uniform(0.3, 0.95) * M / spectral_radius(M)
            B = rng.standard_normal((n, n - 1)) @ rng.standard_normal((n - 1, n))
            S = rng.standard_normal((n, n))
            R = S @ S.T + n * np.eye(n)
            rho2 = spectral_radius(A) ** 2
            for a in (rho2 + 0.2 * (1.0 - rho2), rho2 + 0.7 * (1.0 - rho2)):
                P, diag = solve_logdet_sdp(LmiProblem(A, B, R, a))
                W = B @ np.linalg.inv(R) @ B.T / (1.0 - a)
                P_ref = np.linalg.inv(scipy_linalg.solve_discrete_lyapunov(A / math.sqrt(a), W))
                assert np.linalg.norm(P - P_ref) <= 1e-8 * np.linalg.norm(P_ref)
                assert diag["lmi_min_eig"] >= -1e-7


class TestCertificate:
    def test_local_optimality_under_perturbation(self, bench_model, alpha):
        prob = LmiProblem(bench_model.F, -bench_model.L @ bench_model.SigmaSqrt,
                          np.eye(2) / alpha, 0.6)
        P, _ = solve_logdet_sdp(prob)
        base = np.linalg.slogdet(P)[1]
        rng = stream(100)
        improved = 0
        n = P.shape[0]
        for _ in range(2 * n * n):
            D = rng.standard_normal((n, n))
            D = (D + D.T) / 2.0
            D *= 0.01 * np.linalg.norm(P) / np.linalg.norm(D)
            for sign in (1.0, -1.0):
                Pp = P + sign * D
                if (np.linalg.eigvalsh(Pp)[0] > 0.0
                        and np.linalg.eigvalsh(block_matrix(Pp, prob))[0] >= 0.0):
                    if np.linalg.slogdet(Pp)[1] > base + 1e-6:
                        improved += 1
        assert improved == 0

    def test_invariance_under_boundary_inputs(self, bench_model, alpha, vbar):
        # drive each certified recursion with worst-case boundary inputs
        noise, att_err, att_state, _ = reach_bounds_lmi(bench_model, alpha, vbar)
        instances = [
            (bench_model.F, np.eye(2), np.linalg.inv(bench_model.R1) / vbar, noise),
            (bench_model.F, -bench_model.L @ bench_model.SigmaSqrt, np.eye(2) / alpha, att_err),
            (bench_model.closed_loop, -bench_model.G @ bench_model.K,
             att_err.quad_matrix, att_state),
        ]
        rng = stream(101)
        for A, B, R, bound in instances:
            P = bound.quad_matrix
            R_inv_sqrt = sym_sqrt(np.linalg.inv(R))
            xi = np.zeros((64, 2))
            worst = 0.0
            for _ in range(157):  # 157 * 64 > 10^4 driven steps
                g = rng.standard_normal((64, 2))
                u = g / np.linalg.norm(g, axis=1, keepdims=True)
                mu = u @ R_inv_sqrt.T  # boundary of mu^T R mu = 1
                xi = xi @ A.T + mu @ B.T
                worst = max(worst, float(np.max(np.einsum("ij,jk,ik->i", xi, P, xi))))
            assert worst <= 1.0 + 1e-6, f"{bound.target}: worst {worst}"


class TestMinVolumeOverA:
    def test_static_system_recovers_unit_ball(self):
        bound = min_volume_over_a(np.zeros((2, 2)), np.eye(2), np.eye(2))
        assert bound.volume <= unit_ball_volume(2) * 1.02
        assert bound.a_star < 0.05

    def test_scalar_family_optimum_location(self):
        # optimum of (a - s^2)(1 - a)/a over a sits at a = s
        bound = min_volume_over_a(0.5 * np.eye(2), np.eye(2), np.eye(2))
        assert bound.a_star == pytest.approx(0.5, abs=0.02)
        p_star = scalar_family_optimum(0.5, 0.5)
        assert bound.volume == pytest.approx(unit_ball_volume(2) / p_star, rel=1e-3)

    def test_all_infeasible(self):
        # rho(A)^2 = 0.998 exceeds every grid point
        with pytest.raises(AllInfeasible):
            min_volume_over_a(0.999 * np.eye(2), np.eye(2), np.eye(2))

    def test_uncontrollable_pair_all_infeasible_fast(self):
        # the second coordinate is never driven, so no bounded P exists
        start = time.perf_counter()
        with pytest.raises(AllInfeasible):
            min_volume_over_a(np.diag([0.5, 0.3]), np.array([[1.0], [0.0]]), np.array([[1.0]]))
        assert time.perf_counter() - start <= 1.0

    def test_monotone_not_worse_than_grid_points(self, bench_model, alpha):
        A = bench_model.F
        B = -bench_model.L @ bench_model.SigmaSqrt
        R = np.eye(2) / alpha
        bound = min_volume_over_a(A, B, R)
        for a in (0.5, 0.6, 0.7):
            P, _ = solve_logdet_sdp(LmiProblem(A, B, R, a))
            vol_a = unit_ball_volume(2) * math.exp(-0.5 * np.linalg.slogdet(P)[1])
            assert bound.volume <= vol_a + 1e-9


class TestTotalBound:
    def test_degenerate_attack_is_identity(self):
        noise = ReachBound(shape=Ellipsoid(np.diag([2.0, 3.0])), method="lmi",
                           target="noise", volume=0.0)
        degen = ReachBound(shape=Ellipsoid.zero(2), method="lmi",
                           target="attack_state", volume=0.0)
        total = total_state_bound(noise, degen, METHOD_LMI)
        assert np.array_equal(total.shape.Q, noise.shape.Q)

    def test_sphere_radii_add(self):
        # quad forms I and (1/4) I are balls of radius 1 and 2: total radius 3
        b1 = ReachBound(shape=Ellipsoid(np.eye(2)), method="lmi", target="noise", volume=0.0)
        b2 = ReachBound(shape=Ellipsoid(4.0 * np.eye(2)), method="lmi",
                        target="attack_state", volume=0.0)
        total = total_state_bound(b1, b2, METHOD_LMI)
        assert np.max(np.abs(total.shape.Q - 9.0 * np.eye(2))) <= 1e-8
        assert np.max(np.abs(total.quad_matrix - np.eye(2) / 9.0)) <= 1e-9


class TestBenchmarkBounds:
    def test_three_targets_and_certificates(self, bench_model, alpha, vbar):
        noise, att_err, att_state, total = reach_bounds_lmi(bench_model, alpha, vbar)
        for bound in (noise, att_err, att_state):
            P = bound.quad_matrix
            assert np.linalg.eigvalsh(P)[0] > 0.0
            assert bound.diagnostics["lmi_min_eig"] >= -1e-7
            assert 0.0 < bound.a_star < 1.0
        # noise bound is shared between state and estimation error by symmetry
        assert noise.target == "noise"
        assert total.volume >= max(noise.volume, att_state.volume)

    def test_solver_evidence(self, bench_model, alpha, vbar):
        for bound in reach_bounds_lmi(bench_model, alpha, vbar)[:3]:
            diag = bound.diagnostics
            assert diag["lyapunov_residual"] <= 1e-12
            assert diag["a_evaluations"] > len(np.arange(0.02, 1.0, 0.02))
            assert diag["a"] == bound.a_star
