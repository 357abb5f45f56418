import math
import time

import numpy as np
import pytest

from stealthreach import (
    SimConfig,
    chi2_quantile,
    empirical_cloud,
    min_volume_over_a,
    minkowski_sum_many,
    named_spec,
    reach_bounds_geom,
    reach_bounds_lmi,
    reach_lmi,
    reach_targets,
    solve_logdet_sdp,
    sym_sqrt,
    unit_ball_volume,
)
from stealthreach.errors import AllInfeasible, DimensionMismatch, Infeasible
from stealthreach.plant import build_model, spectral_radius
from stealthreach.reach_common import METHOD_LMI
from stealthreach.reach_geom import fit_bound
from stealthreach.reach_lmi import A_BRACKET_TOL, _checked, logdet_slope
from stealthreach.seeding import stream

from conftest import C, F, G, K, R1, R2, plant_4d

# bisection halvings of a bracket at most 1 wide, plus the solve at a*
BISECTION_SOLVES = math.ceil(math.log2(1.0 / A_BRACKET_TOL)) + 1


def block_matrix(P, A, B, R, a):
    """The invariant-ellipsoid block matrix at P for the input constraint
    mu^T R mu <= 1, i.e. the input shape S = R^-1, symmetrized."""
    top = a * P - A.T @ P @ A
    off = -A.T @ P @ B
    bot = (1.0 - a) * R - B.T @ P @ B
    M = np.block([[top, off], [off.T, bot]])
    return (M + M.T) / 2.0


def scalar_family_optimum(sigma, a):
    """Closed form for A = sigma*I, B = I, R = I: block PSD iff
    p <= (a - sigma^2)(1 - a)/a per coordinate, so the optimum is that value."""
    return (a - sigma * sigma) * (1.0 - a) / a


def solve_P(A, B, R, a):
    """solve_logdet_sdp for the input constraint matrix R (input shape
    S = R^-1), as (P = Q^-1, diagnostics)."""
    Q, diag = solve_logdet_sdp(A, B, np.linalg.inv(R), a)
    return np.linalg.inv(Q), diag


class TestSolveLogdetSdp:
    def test_static_system_closed_form(self):
        # A = 0 reduces the LMI to diag(a P, (1-a) I - P): optimum P = (1-a) I
        for a in (0.1, 0.3, 0.7):
            P, diag = solve_P(np.zeros((2, 2)), np.eye(2), np.eye(2), a)
            assert np.max(np.abs(P - (1.0 - a) * np.eye(2))) <= 1e-6
            assert diag["lmi_min_eig"] >= -1e-7

    def test_scaled_identity_closed_form(self):
        P, _ = solve_P(0.5 * np.eye(2), np.eye(2), np.eye(2), 0.5)
        assert np.max(np.abs(P - scalar_family_optimum(0.5, 0.5) * np.eye(2))) <= 1e-6

    def test_brute_force_diagonal_grid_oracle(self):
        # dense grid over diagonal P, feasibility via eigenvalue check
        A = 0.5 * np.eye(2)
        B = np.eye(2)
        R = np.eye(2)
        a = 0.5
        best = None
        for p1 in np.linspace(0.01, 1.0, 100):
            for p2 in np.linspace(0.01, 1.0, 100):
                P = np.diag([p1, p2])
                if np.linalg.eigvalsh(block_matrix(P, A, B, R, a))[0] >= -1e-12:
                    d = p1 * p2
                    if best is None or d > best[0]:
                        best = (d, P)
        P_solver, _ = solve_P(A, B, R, a)
        assert np.max(np.abs(P_solver - best[1])) <= 1e-2  # grid resolution limit
        assert np.linalg.det(P_solver) >= best[0] - 1e-3

    def test_infeasible_below_contraction_rate(self):
        with pytest.raises(Infeasible):
            solve_P(0.5 * np.eye(2), np.eye(2), np.eye(2), 0.25)

    def test_feasible_just_above_contraction_rate(self, bench_model, alpha):
        rho2 = bench_model.diagnostics["rho_F"] ** 2
        R = np.eye(2) / alpha
        P, diag = solve_P(bench_model.F, -bench_model.L @ bench_model.SigmaSqrt, R, rho2 + 0.05)
        assert diag["lmi_min_eig"] >= -1e-7 * (1.0 + np.linalg.norm(R))
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
                P, diag = solve_P(A, B, R, a)
                W = B @ np.linalg.inv(R) @ B.T / (1.0 - a)
                P_ref = np.linalg.inv(scipy_linalg.solve_discrete_lyapunov(A / math.sqrt(a), W))
                assert np.linalg.norm(P - P_ref) <= 1e-8 * np.linalg.norm(P_ref)
                assert diag["lmi_min_eig"] >= -1e-7


class TestCertificate:
    def test_local_optimality_under_perturbation(self, bench_model, alpha):
        A, B, R, a = bench_model.F, -bench_model.L @ bench_model.SigmaSqrt, np.eye(2) / alpha, 0.6
        P, _ = solve_P(A, B, R, a)
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
                        and np.linalg.eigvalsh(block_matrix(Pp, A, B, R, a))[0] >= 0.0):
                    if np.linalg.slogdet(Pp)[1] > base + 1e-6:
                        improved += 1
        assert improved == 0

    def test_invariance_under_boundary_inputs(self, bench_model, alpha, vbar):
        # drive each certified recursion with worst-case boundary inputs; the
        # attack state is the x block of the joint [x, e] recursion
        bounds = reach_bounds_lmi(bench_model, alpha, vbar)
        rng = stream(101)
        for (A, B, S, C_out), bound in zip(reach_targets(bench_model, alpha, vbar).values(), bounds):
            P = bound.quad_matrix
            S_sqrt = sym_sqrt(S)
            xi = np.zeros((64, len(A)))
            worst = 0.0
            for _ in range(157):  # 157 * 64 > 10^4 driven steps
                g = rng.standard_normal((64, 2))
                u = g / np.linalg.norm(g, axis=1, keepdims=True)
                mu = u @ S_sqrt.T  # boundary of the input ellipsoid of shape S
                xi = xi @ A.T + mu @ B.T
                y = xi if C_out is None else xi @ C_out.T
                worst = max(worst, float(np.max(np.einsum("ij,jk,ik->i", y, P, y))))
            assert worst <= 1.0 + 1e-6, f"{bound.target}: worst {worst}"

    def test_plant_4d_attack_cloud_inside_attack_state_bound(self):
        model = plant_4d()
        alpha = chi2_quantile(0.95, model.p)
        bound = reach_bounds_lmi(model, alpha, chi2_quantile(0.95, model.n))[2]
        cfg = SimConfig(horizon=550, attack_start=1, master_seed=25, trials=200)
        cloud = empirical_cloud(model, cfg, named_spec("ZA.C", alpha), source="attack",
                                burn_in=50)
        assert float(np.max(bound.membership(cloud.points))) <= 1.0 + 1e-6


class TestMinVolumeOverA:
    def test_static_system_recovers_unit_ball(self):
        bound = min_volume_over_a(np.zeros((2, 2)), np.eye(2), np.eye(2))
        assert bound.volume <= unit_ball_volume(2) * 1.02
        assert bound.a_star < 0.05
        # Q(a) = I / (1-a): the slope is positive on the whole bracket, so no
        # secant point exists and the search is bisection, step for step
        assert bound.a_star == bisection_a_star(np.zeros((2, 2)), np.eye(2), np.eye(2))
        assert bound.volume == pytest.approx(unit_ball_volume(2) / (1.0 - bound.a_star), rel=1e-12)
        assert bound.diagnostics["a_evaluations"] <= BISECTION_SOLVES

    def test_scalar_family_optimum_location(self):
        # optimum of (a - s^2)(1 - a)/a over a sits at a = s
        bound = min_volume_over_a(0.5 * np.eye(2), np.eye(2), np.eye(2))
        assert bound.a_star == pytest.approx(0.5, abs=0.02)
        p_star = scalar_family_optimum(0.5, 0.5)
        assert bound.volume == pytest.approx(unit_ball_volume(2) / p_star, rel=1e-3)

    def test_all_infeasible(self):
        # rho(A) >= 1 leaves no decay scalar in (rho(A)^2, 1)
        for sigma in (1.0, 1.2):
            with pytest.raises(AllInfeasible):
                min_volume_over_a(sigma * np.eye(2), np.eye(2), np.eye(2))

    def test_near_unit_scalar_family_closed_form(self):
        # sigma = 0.999 leaves only (0.998001, 1): the optimum is still a* = sigma
        sigma = 0.999
        bound = min_volume_over_a(sigma * np.eye(2), np.eye(2), np.eye(2))
        assert bound.a_star == pytest.approx(sigma, abs=1e-9)
        p_star = scalar_family_optimum(sigma, sigma)
        assert bound.volume == pytest.approx(unit_ball_volume(2) / p_star, rel=1e-9)
        assert bound.a_star == pytest.approx(
            bisection_a_star(sigma * np.eye(2), np.eye(2), np.eye(2)), abs=A_BRACKET_TOL)
        assert bound.diagnostics["a_evaluations"] <= BISECTION_SOLVES

    def test_uncontrollable_pair_all_infeasible_fast(self):
        # the second coordinate is never driven, so no bounded P exists
        start = time.perf_counter()
        with pytest.raises(AllInfeasible):
            min_volume_over_a(np.diag([0.5, 0.3]), np.array([[1.0], [0.0]]), np.array([[1.0]]))
        assert time.perf_counter() - start <= 1.0

    def test_one_lyapunov_pair_per_decay_scalar(self, bench_model, alpha, vbar, monkeypatch):
        # the solve at a* reuses its own fixed point: one logdet_slope call
        # per decay scalar, bisection midpoints and a* alike
        calls = []

        def counted(*args):
            calls.append(args[2])
            return logdet_slope(*args)

        monkeypatch.setattr(reach_lmi, "logdet_slope", counted)
        for A, B, S, C_out in (*reach_targets(bench_model, alpha, vbar).values(),
                               (0.5 * np.eye(2), np.eye(2), np.eye(2), None)):
            calls.clear()
            bound = min_volume_over_a(A, B, S, C_out)
            assert len(calls) == bound.diagnostics["a_evaluations"]
            assert calls[-1] == bound.a_star

    def test_shapes_must_chain(self):
        with pytest.raises(DimensionMismatch):
            min_volume_over_a(0.5 * np.eye(2), np.eye(2), np.eye(3))
        with pytest.raises(DimensionMismatch):
            solve_logdet_sdp(0.5 * np.eye(3), np.eye(2), np.eye(2), 0.5)
        with pytest.raises(DimensionMismatch):
            min_volume_over_a(0.5 * np.eye(2), np.eye(2), np.eye(2), np.eye(3))

    def test_monotone_not_worse_than_grid_points(self, bench_model, alpha):
        A = bench_model.F
        B = -bench_model.L @ bench_model.SigmaSqrt
        R = np.eye(2) / alpha
        bound = min_volume_over_a(A, B, np.linalg.inv(R))
        for a in (0.5, 0.6, 0.7):
            P, _ = solve_P(A, B, R, a)
            vol_a = unit_ball_volume(2) * math.exp(-0.5 * np.linalg.slogdet(P)[1])
            assert bound.volume <= vol_a + 1e-9


class TestTotalBound:
    def test_degenerate_attack_is_identity(self):
        total = fit_bound([np.diag([2.0, 3.0]), np.zeros((2, 2))], "total_state", METHOD_LMI)
        assert np.array_equal(total.shape.Q, np.diag([2.0, 3.0]))

    def test_sphere_radii_add(self):
        # quad forms I and (1/4) I are balls of radius 1 and 2: total radius 3
        total = fit_bound([np.eye(2), 4.0 * np.eye(2)], "total_state", METHOD_LMI)
        assert np.max(np.abs(total.shape.Q - 9.0 * np.eye(2))) <= 1e-8
        assert np.max(np.abs(total.quad_matrix - np.eye(2) / 9.0)) <= 1e-9

    def test_total_is_pair_sum_of_lmi_shapes(self, bench_model, alpha, vbar):
        noise, _, att_state, total = reach_bounds_lmi(bench_model, alpha, vbar)
        pair = minkowski_sum_many([noise.shape.Q, att_state.shape.Q])
        assert np.array_equal(total.shape.Q, pair.Q)
        assert total.method == METHOD_LMI and total.a_star is None and total.terms_used is None
        assert total.diagnostics["from"] == ["noise", "attack_state"]


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
        # one combiner for both methods: the pair weights are stationary
        assert total.diagnostics["stationarity_gap"] < 1e-10

    def test_rank_deficient_noise_covariance(self, alpha, vbar):
        # R1 = diag(0.045, 0) drives one state only; F couples it into the
        # other, so the noise bound is bounded and certified, and the
        # geometric bound, a member of the same weighted family, is smaller
        model = build_model(F, G, C, K, np.diag([0.045, 0.0]), R2)
        noise, att_err, att_state, total = reach_bounds_lmi(model, alpha, vbar)
        for bound in (noise, att_err, att_state):
            assert bound.diagnostics["lmi_min_eig"] >= -1e-7
            assert np.linalg.eigvalsh(bound.shape.Q)[0] > 0.0
        geom_noise = reach_bounds_geom(model, alpha, vbar)[0]
        assert 0.0 < geom_noise.volume <= noise.volume
        assert total.volume >= noise.volume

    def test_solver_evidence(self, bench_model, alpha, vbar):
        for bound in reach_bounds_lmi(bench_model, alpha, vbar)[:3]:
            diag = bound.diagnostics
            assert diag["lyapunov_residual"] <= 1e-12
            assert diag["a_evaluations"] <= BISECTION_SOLVES
            # the slope at a* is zero to the bracket width times the curvature
            assert abs(diag["logdet_slope"]) <= 1e-9


def bisection_a_star(A, B, S, C_out=None):
    """The decay scalar of plain bisection on the sign of the slope, the
    search that the secant replaced: 40 halvings of (rho(A)^2, 1) to
    A_BRACKET_TOL, a* at the bracket midpoint."""
    A, B, S, W0 = _checked(A, B, S, C_out)
    lo, hi = spectral_radius(A) ** 2 + 1e-12, 1.0
    while hi - lo > A_BRACKET_TOL:
        mid = (lo + hi) / 2.0
        try:
            rising = logdet_slope(A, W0, mid, C_out)[1] > 0.0
        except Infeasible:
            rising = False
        lo, hi = (lo, mid) if rising else (mid, hi)
    return (lo + hi) / 2.0


def oracle_instances(count=50):
    """Seeded (A, B, R, C): n = 2-5, B of rank below n in 40% of them, input
    scales 1e-3 to 1e3; then a rank-1 input that reaches two of three
    states only through 1e-3 couplings, where cond(Q) is about 2e11; then
    the projected attack-state recursions of the n = 2 and n = 4 plants."""
    rng = stream(300)
    for _ in range(count):
        n = int(rng.integers(2, 6))
        M = rng.standard_normal((n, n))
        A = rng.uniform(0.2, 0.95) * M / spectral_radius(M)
        q = int(rng.integers(1, n)) if rng.random() < 0.4 else n
        B = 10.0 ** rng.uniform(-3.0, 3.0) * rng.standard_normal((n, q))
        S = rng.standard_normal((q, q))
        yield A, B, S @ S.T + q * np.eye(q), None
    A = np.array([[0.5, 0.0, 0.0], [1e-3, 0.9, 0.0], [0.0, 1e-3, 0.3]])
    yield A, np.array([[1.0], [0.0], [0.0]]), np.eye(1), None
    for model in (build_model(F, G, C, K, R1, R2), plant_4d()):
        A, B, S, C_out = reach_targets(model, chi2_quantile(0.95, model.p), 1.0)["attack_state"]
        yield A, B, np.linalg.inv(S), C_out


class TestBisectionOracle:
    def test_bisection_beats_dense_grid_and_slope_is_monotone(self):
        # log det Q(a) is convex on (rho(A)^2, 1), so the searched optimum is
        # at or below the fixed point at every point of a 400-point grid, and
        # the slope changes sign at most once along it.  log det Q carries
        # round-off of about eps * cond(Q) per dimension, so the margin scales
        # with cond(Q).  With an output map C the same holds for C Q C^T.
        eps = np.finfo(float).eps
        for A, B, R, C_out in oracle_instances():
            S = np.linalg.inv(R)
            W0 = B @ S @ B.T
            bound = min_volume_over_a(A, B, S, C_out)
            rho2 = spectral_radius(A) ** 2
            grid = rho2 + (1.0 - rho2) * np.arange(1, 401) / 401
            # logdet_slope returns the fixed point that solve_logdet_sdp returns
            on_grid = [logdet_slope(A, W0, a, C_out) for a in grid]
            project = (lambda Q: Q) if C_out is None else (lambda Q: C_out @ Q @ C_out.T)
            grid_logdet = min(np.linalg.slogdet(project(Q))[1] for Q, _ in on_grid)
            margin = 1e-12 + 10.0 * len(A) * eps * np.linalg.cond(bound.shape.Q)
            assert np.linalg.slogdet(bound.shape.Q)[1] <= grid_logdet + margin
            signs = np.sign([slope for _, slope in on_grid])
            assert np.count_nonzero(np.diff(signs)) <= 1
            # the secant search reaches bisection's optimum to the same
            # margin, and never solves more decay scalars than it
            Q_ref, _ = solve_logdet_sdp(A, B, S, bisection_a_star(A, B, S, C_out), C_out)
            assert abs(np.linalg.slogdet(bound.shape.Q)[1]
                       - np.linalg.slogdet(Q_ref)[1]) <= margin
            assert bound.diagnostics["a_evaluations"] <= BISECTION_SOLVES


class TestSecantAgainstBisection:
    def test_certified_targets_in_few_solves(self, bench_model, alpha, vbar):
        # bisection needs 40 or 41 decay scalars on these targets
        model = plant_4d()
        for targets in (reach_targets(bench_model, alpha, vbar),
                        reach_targets(model, chi2_quantile(0.95, model.p),
                                      chi2_quantile(0.95, model.n))):
            for A, B, S, C_out in targets.values():
                bound = min_volume_over_a(A, B, S, C_out)
                assert bound.diagnostics["lmi_min_eig"] >= -reach_lmi.LMI_CERT_TOL
                assert bound.diagnostics["a_evaluations"] <= 16
                # both a* lie within half a bracket width of the slope's zero
                assert abs(bound.a_star - bisection_a_star(A, B, S, C_out)) <= A_BRACKET_TOL

    @pytest.mark.parametrize("root", [0.3, 0.9])
    def test_budget_holds_for_any_rising_slope(self, monkeypatch, root):
        # slopes on which a secant crawls: without the bisection bound on
        # each step, the kinked ones take over 100 decay scalars
        shapes = (lambda a: (a - root) * (1e6 if a > root else 1.0),
                  lambda a: (a - root) * (1e-6 if a > root else 1.0),
                  lambda a: (a - root) ** 3,
                  lambda a: 1.0 if a > root else -1.0)
        real = logdet_slope
        for shape in shapes:
            monkeypatch.setattr(reach_lmi, "logdet_slope",
                                lambda *args: (real(*args)[0], shape(args[2])))
            bound = min_volume_over_a(0.5 * np.eye(2), np.eye(2), np.eye(2))
            assert bound.diagnostics["a_evaluations"] <= BISECTION_SOLVES
            assert abs(bound.a_star - root) <= A_BRACKET_TOL
