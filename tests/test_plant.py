import numpy as np
import pytest
from scipy import linalg as sla

from stealthreach import (
    SimConfig,
    build_model,
    chi2_quantile,
    distance,
    named_spec,
    solve_steady_state_kalman,
)
from stealthreach.attacks import ZERO_ALARM, AttackDraws, AttackSpec
from stealthreach.errors import (
    DimensionMismatch,
    NotDetectable,
    UnstableClosedLoop,
    UnstableF,
    UnstableFilter,
)
from stealthreach.montecarlo import alarm_counts
from stealthreach.plant import (_draw_system_noise, attack_part, draw_inputs, noise_error,
                                noise_part, noise_residual)
from stealthreach.seeding import stream

from conftest import C, F, G, K, L_EXPECTED, R1, R2, SIGMA_EXPECTED, batch_parts, plant_4d


class TestKalman:
    def test_noiseless_fixed_point(self):
        sol = solve_steady_state_kalman(F, C, np.zeros((2, 2)), R2)
        assert np.max(np.abs(sol.P)) == 0.0
        assert np.max(np.abs(sol.L)) == 0.0

    def test_benchmark_sigma_and_gain(self):
        sol = solve_steady_state_kalman(F, C, R1, R2)
        sigma = C @ sol.P @ C.T + R2
        assert np.max(np.abs(sigma - SIGMA_EXPECTED)) <= 2e-3
        assert np.max(np.abs(sol.L - L_EXPECTED)) <= 2e-3
        assert sol.residual <= 1e-12

    def test_against_scipy_dare(self):
        sol = solve_steady_state_kalman(F, C, R1, R2)
        P_ref = sla.solve_discrete_are(F.T, C.T, R1, R2)
        assert np.max(np.abs(sol.P - P_ref)) <= 1e-9

    def test_undetectable_rejected(self):
        F_bad = np.diag([1.2, 0.5])
        C_bad = np.array([[0.0, 1.0]])
        with pytest.raises(NotDetectable):
            solve_steady_state_kalman(F_bad, C_bad, np.eye(2), np.eye(1))


class TestBuildModel:
    def test_benchmark_accepted(self, bench_model):
        assert bench_model.diagnostics["rho_F"] < 1.0
        assert bench_model.diagnostics["rho_closed_loop"] < 1.0
        assert bench_model.diagnostics["rho_filter"] < 1.0
        assert np.linalg.eigvalsh(bench_model.Sigma)[0] > 0.0

    def test_unstable_f(self):
        with pytest.raises(UnstableF):
            build_model(2.0 * np.eye(2), G, C, K, R1, R2)

    def test_unstable_closed_loop(self):
        K_big = 100.0 * K
        assert max(abs(np.linalg.eigvals(F + G @ K_big))) > 1.0  # oracle
        with pytest.raises(UnstableClosedLoop):
            build_model(F, G, C, K_big, R1, R2)

    def test_unstable_filter(self, monkeypatch):
        # the Riccati gain stabilises F - L C whenever (F, C) is detectable, so
        # the guard is reached through a solver that returns a destabilising gain
        L_bad = 10.0 * np.ones((2, 2))
        assert max(abs(np.linalg.eigvals(F - L_bad @ C))) > 1.0  # oracle
        monkeypatch.setattr("stealthreach.plant.solve_steady_state_kalman",
                            lambda *args: solve_steady_state_kalman(*args)._replace(L=L_bad))
        with pytest.raises(UnstableFilter):
            build_model(F, G, C, K, R1, R2)

    def test_dimension_check(self):
        with pytest.raises(DimensionMismatch):
            build_model(F, G, C, K, R1, np.eye(3))


def zero_noise_model():
    return build_model(F, G, C, K, np.zeros((2, 2)), np.zeros((2, 2)))


class TestSimulate:
    def test_equilibrium_without_noise(self):
        model = zero_noise_model()
        cfg = SimConfig(horizon=100, master_seed=0, trials=2)
        for arr in batch_parts(model, cfg):
            assert np.max(np.abs(arr)) == 0.0
        assert alarm_counts(model, [(cfg, None)], 1.0) == [(0, 200)]

    def test_zero_noise_attack_distance(self, bench_model, alpha):
        # noise draws forced to zero, nominal Sigma kept: the boundary attack
        # pins the distance measure to the threshold at every attacked step
        import dataclasses

        model = dataclasses.replace(bench_model, R1=np.zeros((2, 2)), R2=np.zeros((2, 2)))
        spec = AttackSpec(kind=ZERO_ALARM, alpha=alpha, c1=alpha, w1=0.0)
        cfg = SimConfig(horizon=200, attack_start=5, master_seed=1, trials=1)
        z = distance(batch_parts(model, cfg, spec)[2], model.SigmaInv)
        assert np.max(np.abs(z[:, 4:] - alpha)) <= 1e-9 * alpha
        assert not (z > alpha).any()
        assert np.max(np.abs(z[:, :4])) == 0.0

    def test_superposition_mid_trajectory(self, bench_model, alpha):
        # the attack part is exactly zero before k*, and the noise part does
        # not depend on the attack
        cfg = SimConfig(horizon=400, attack_start=120, master_seed=2, trials=4)
        noise, attack, _ = batch_parts(bench_model, cfg, named_spec("ZA.B", alpha))
        assert np.max(np.abs(attack[:, :119])) == 0.0 and attack[:, 120:].any(axis=-1).all()
        assert np.array_equal(noise, batch_parts(bench_model, cfg, named_spec("H.D", alpha))[0])

    def test_noise_state_equals_noise_error(self, bench_model, alpha):
        spec = named_spec("ZA.C", alpha)
        cfg = SimConfig(horizon=500, attack_start=1, master_seed=3, trials=3)
        noise = batch_parts(bench_model, cfg, spec)[0]
        assert np.max(np.abs(noise[..., :2] - noise[..., 2:])) <= 1e-12

    def test_residual_whiteness(self, bench_model):
        cfg = SimConfig(horizon=1000, master_seed=4, trials=100)
        r = batch_parts(bench_model, cfg)[2][:, 200:].reshape(-1, 2)  # drop the filter transient
        count = r.shape[0]
        sigma = bench_model.Sigma
        mean_tol = 4.0 * np.sqrt(np.diag(sigma) / count)
        assert np.all(np.abs(r.mean(axis=0)) <= mean_tol)
        cov = r.T @ r / count
        assert np.linalg.norm(cov - sigma) <= 0.05 * np.linalg.norm(sigma)

    def test_determinism_and_trial_streams(self, bench_model, alpha):
        spec = named_spec("H.B", alpha)
        cfg = SimConfig(horizon=200, attack_start=50, master_seed=5, trials=4)
        p1, p2 = batch_parts(bench_model, cfg, spec), batch_parts(bench_model, cfg, spec)
        # per-trial streams: a smaller batch reproduces the leading trials
        cfg_small = SimConfig(horizon=200, attack_start=50, master_seed=5, trials=2)
        p3 = batch_parts(bench_model, cfg_small, spec)
        for a, b, c in zip(p1, p2, p3):
            assert np.array_equal(a, b) and np.array_equal(a[:2], c)

    def test_truncated_noise_respects_level(self, bench_model, vbar):
        cfg = SimConfig(horizon=400, master_seed=6, trials=5, vbar=vbar)
        noise = batch_parts(bench_model, cfg)[0]
        x, xhat = noise[..., :2], noise[..., :2] - noise[..., 2:]
        # recover v_k = x_{k+1} - F x_k - G K xhat_k and test the quadratic form
        u = xhat @ bench_model.K.T
        v = x[:, 1:] - x[:, :-1] @ bench_model.F.T - u[:, :-1] @ bench_model.G.T
        R1_inv = np.linalg.inv(bench_model.R1)
        quad = np.einsum("tki,ij,tkj->tk", v, R1_inv, v)
        assert np.max(quad) <= vbar * (1.0 + 1e-9)

    def test_config_validation(self):
        with pytest.raises(DimensionMismatch):
            SimConfig(horizon=10, attack_start=11, master_seed=0, trials=1)
        # attack_start is always a step: only a missing attack spec makes a run attack-free
        assert SimConfig(horizon=10).attack_start == 1
        with pytest.raises(DimensionMismatch, match="without an attack spec is attack-free"):
            SimConfig(horizon=10, attack_start=None)
        with pytest.raises(DimensionMismatch):
            SimConfig(horizon=10, master_seed=0, trials=0)
        with pytest.raises(DimensionMismatch):
            SimConfig(horizon=10, master_seed=0, trials=1, vbar=0.0)


COLUMNS = ("x_v", "e_v", "x_delta", "e_delta", "r", "z", "alarm")


def reference_trace(model, cfg, spec, alpha):
    """Plain per-trial loop over the model equations.

    Each trial redraws its inputs from its own stream (v block with
    rejection rounds, eta block, dbar block) and runs x' = F x + G u + v,
    y = C x + eta + delta, xhat' = F xhat + G u + L (y - C xhat), u = K xhat
    from x = xhat = 0, with delta = -C e - eta + SigmaSqrt dbar from k*.
    The noise part is the same loop with dbar = 0 (the attacker still
    cancels C e + eta); the attack part is the difference.
    """
    n, p, N = model.n, model.p, cfg.horizon
    kstar = cfg.attack_start if spec is not None else None
    chol_r1, chol_r2 = np.linalg.cholesky(model.R1), np.linalg.cholesky(model.R2)
    cols = {name: [] for name in COLUMNS}
    for t in range(cfg.trials):
        rng = stream(cfg.master_seed, t)
        w = rng.standard_normal((N, n))
        while cfg.vbar is not None and (np.sum(w * w, axis=1) > cfg.vbar).any():
            bad = np.sum(w * w, axis=1) > cfg.vbar
            w[bad] = rng.standard_normal((int(bad.sum()), n))
        v = w @ chol_r1.T
        eta = rng.standard_normal((N, p)) @ chol_r2.T
        dbar = np.zeros((N, p))
        if kstar is not None:
            draws = AttackDraws(spec, dbar[None, kstar - 1:])
            draws.pull(0, rng)
            draws.transform()

        def run(dbar):
            x, xhat = np.zeros(n), np.zeros(n)
            rows = {name: [] for name in ("x", "xhat", "r")}
            for i in range(N):
                e = x - xhat
                attacked = kstar is not None and i + 1 >= kstar
                delta = -model.C @ e - eta[i] + model.SigmaSqrt @ dbar[i] if attacked else np.zeros(p)
                r = model.C @ x + eta[i] + delta - model.C @ xhat
                for name, value in (("x", x), ("xhat", xhat), ("r", r)):
                    rows[name].append(value)
                u = model.K @ xhat
                x, xhat = model.F @ x + model.G @ u + v[i], model.F @ xhat + model.G @ u + model.L @ r
            return {name: np.array(rows[name]) for name in rows}

        full, noise = run(dbar), run(np.zeros((N, p)))
        e, e_v = full["x"] - full["xhat"], noise["x"] - noise["xhat"]
        z = np.einsum("ki,ij,kj->k", full["r"], model.SigmaInv, full["r"])
        for name, value in (("x_v", noise["x"]), ("e_v", e_v), ("x_delta", full["x"] - noise["x"]),
                            ("e_delta", e - e_v), ("r", full["r"]), ("z", z), ("alarm", z > alpha)):
            cols[name].append(value)
    return {name: np.array(cols[name]) for name in COLUMNS}


def part_columns(model, cfg, spec, alpha):
    """The COLUMNS of batch_parts' arrays: z = distance(r), alarms z > alpha."""
    noise, attack, r = batch_parts(model, cfg, spec)
    z, n = distance(r, model.SigmaInv), model.n
    return {"x_v": noise[..., :n], "e_v": noise[..., n:], "x_delta": attack[..., :n],
            "e_delta": attack[..., n:], "r": r, "z": z, "alarm": z > alpha}


REFERENCE_CASES = ((None, None, False), ("ZA.B", 120, False), ("H.B", 1, True))


class TestReferenceDynamics:
    @pytest.mark.parametrize("n,preset,attack_start,truncate", [
        pytest.param(n, *case, id="-".join(map(str, case)) + ("" if n == 2 else f"-n{n}"))
        for n in (2, 4) for case in REFERENCE_CASES
    ])
    def test_every_column_matches_plain_recursion(self, bench_model, n, preset, attack_start,
                                                  truncate):
        model = bench_model if n == 2 else plant_4d()
        alpha, vbar = chi2_quantile(0.95, model.p), chi2_quantile(0.95, model.n)
        spec = named_spec(preset, alpha) if preset else None
        # the attack-free case (no preset) runs at the default attack_start
        cfg = SimConfig(horizon=200 if attack_start != 120 else 300,
                        attack_start=attack_start or 1, master_seed=11, trials=3,
                        vbar=vbar if truncate else None)
        got, ref = part_columns(model, cfg, spec, alpha), reference_trace(model, cfg, spec, alpha)
        for name in COLUMNS:
            assert got[name].shape == ref[name].shape, name
            if name == "alarm":
                assert np.array_equal(got[name], ref[name])
            else:
                assert np.max(np.abs(got[name] - ref[name])) <= 1e-12, name


class TestBatchInvariance:
    @pytest.mark.parametrize("n", [2, 4])
    def test_single_trial_equals_trial_zero_of_batch(self, bench_model, n):
        model = bench_model if n == 2 else plant_4d()
        a = chi2_quantile(0.95, model.p)
        spec = named_spec("H.B", a)
        single, batch = (
            part_columns(model, SimConfig(horizon=80, attack_start=20, master_seed=8,
                                          trials=trials), spec, a)
            for trials in (1, 5)
        )
        for name in COLUMNS:
            assert np.array_equal(single[name][0], batch[name][0]), name

    @pytest.mark.parametrize("n", [2, 4])
    def test_every_lane_count_and_offset_equals_rows_of_one_batch(self, bench_model, n):
        # the recursion runs along the trial axis, so the lane count is the
        # batch width: one lane (padded to two), small widths, and widths
        # around 64 and BATCH_TRIALS, at the start, inside and at the end
        model = bench_model if n == 2 else plant_4d()
        a = chi2_quantile(0.95, model.p)
        trials, kstar = 300, 15
        cfg = SimConfig(horizon=40, attack_start=kstar, master_seed=9, trials=trials)
        vs, etas, dbar = draw_inputs(model, cfg, named_spec("H.B", a))

        def parts(rows):
            free = noise_part(model, vs[rows], etas[rows])
            e_v = noise_error(model, vs[rows], etas[rows])
            return {"noise": free, "noise-kstar": noise_part(model, vs[rows], etas[rows], kstar),
                    "attack": attack_part(model, dbar[rows], kstar), "noise_error": e_v,
                    "residual": noise_residual(model, free[..., n:], etas[rows]),
                    "residual-e": noise_residual(model, e_v, etas[rows])}

        whole = parts(slice(None))
        for width in [*range(1, 21), 63, 64, 65, 127, 128, 129]:
            for lo in (0, 3, trials - width):
                for name, got in parts(slice(lo, lo + width)).items():
                    assert np.array_equal(got, whole[name][lo:lo + width]), (name, width, lo)


class TestNoiseError:
    @pytest.mark.parametrize("n", [2, 4])
    def test_equals_e_block_of_noise_part(self, bench_model, n):
        # attack-free alarm counts propagate e alone; the x-block does not reach it
        model = bench_model if n == 2 else plant_4d()
        cfg = SimConfig(horizon=300, master_seed=12, trials=70, vbar=chi2_quantile(0.95, n))
        vs, etas, _ = draw_inputs(model, cfg)
        e_v = noise_error(model, vs, etas)
        assert e_v.shape == vs.shape
        assert np.array_equal(e_v, noise_part(model, vs, etas)[..., n:])


class TestZeroStart:
    @pytest.mark.parametrize("n", [2, 4])
    def test_x_block_equals_e_block_from_zero_at_kstar_1(self, bench_model, n):
        # with e' = F e + v from step 1, x' = (F + G K) x - G K e + v keeps x = e
        # from the zero start, so the noise row's e-recursion (F, I, vbar R1)
        # bounds x_v; before a later k* the filter feedback -L C e sets them apart
        model = bench_model if n == 2 else plant_4d()
        for kstar, apart in ((1, False), (120, True)):
            cfg = SimConfig(horizon=300, attack_start=kstar, master_seed=12, trials=70)
            vs, etas, _ = draw_inputs(model, cfg)
            noise = noise_part(model, vs, etas, kstar)
            gap, scale = np.max(np.abs(noise[..., :n] - noise[..., n:])), np.max(np.abs(noise))
            assert (gap >= 0.1 * scale) if apart else (gap <= 1e-12 * scale), kstar


def full_recheck_draw(rng, count, chol, vbar):
    """Rejection sampling that re-tests every row after each redraw round."""
    zed = rng.standard_normal((count, chol.shape[0]))
    rounds = 0
    bad = np.einsum("ij,ij->i", zed, zed) > vbar
    while bad.any():
        zed[bad] = rng.standard_normal((int(bad.sum()), chol.shape[0]))
        bad = np.einsum("ij,ij->i", zed, zed) > vbar
        rounds += 1
    return zed @ chol.T, rounds


class TestTruncatedDraw:
    @pytest.mark.parametrize("n", [2, 4])
    @pytest.mark.parametrize("vbar", [5.99, 1.0, 0.3])
    def test_matches_full_recheck_oracle(self, bench_model, n, vbar):
        model = bench_model if n == 2 else plant_4d()
        chol = np.linalg.cholesky(model.R1)
        for seed in range(3):
            got_rng, want_rng = stream(seed, 9), stream(seed, 9)
            got = _draw_system_noise(got_rng, 550, chol, vbar)
            want, rounds = full_recheck_draw(want_rng, 550, chol, vbar)
            assert np.array_equal(got, want)
            # both consumed the stream to the same point
            assert got_rng.standard_normal() == want_rng.standard_normal()
            if vbar == 0.3:
                assert rounds >= 5


def reference_draws(model, cfg, spec):
    """Plain per-trial loop over the public draws: the v block from the
    full-recheck truncation oracle, the eta block, then a one-trial
    AttackDraws."""
    n, p, N = model.n, model.p, cfg.horizon
    kstar = cfg.attack_start if spec is not None else None
    vbar = np.inf if cfg.vbar is None else cfg.vbar
    vs, etas, dbar = np.zeros((cfg.trials, N, n)), np.zeros((cfg.trials, N, p)), np.zeros((cfg.trials, N, p))
    for t in range(cfg.trials):
        rng = stream(cfg.master_seed, t)
        if np.any(model.R1):
            vs[t] = full_recheck_draw(rng, N, np.linalg.cholesky(model.R1), vbar)[0]
        if np.any(model.R2):
            etas[t] = rng.standard_normal((N, p)) @ np.linalg.cholesky(model.R2).T
        if kstar is not None:
            draws = AttackDraws(spec, dbar[t:t + 1, kstar - 1:])
            draws.pull(0, rng)
            draws.transform()
    return vs, etas, dbar


def draw_case(bench_model, plant, preset, truncate):
    """(model, cfg, spec) of one draw_inputs case."""
    model = {"n2": lambda: bench_model, "n4": plant_4d,
             "zero-R1": lambda: build_model(F, G, C, K, np.zeros((2, 2)), R2),
             "zero-R2": lambda: build_model(F, G, C, K, R1, np.zeros((2, 2)))}[plant]()
    alpha, vbar = chi2_quantile(0.95, model.p), chi2_quantile(0.95, model.n)
    spec = named_spec(preset, alpha) if preset else None
    cfg = SimConfig(horizon=90, attack_start=17, master_seed=13, trials=9,
                    vbar=vbar if truncate else None)
    return model, cfg, spec


DRAW_CASES = [
    pytest.param("n2", "ZA.B", False, id="ZA.B"),
    pytest.param("n2", "H.A", True, id="H.A-trunc"),
    pytest.param("n2", None, True, id="attack-free-trunc"),
    pytest.param("n4", "ZA.A", False, id="ZA.A-n4"),
    pytest.param("n4", "H.B", True, id="H.B-trunc-n4"),
    pytest.param("zero-R1", "H.C", False, id="H.C-zero-R1"),
    pytest.param("zero-R2", "ZA.C", True, id="ZA.C-trunc-zero-R2"),
]


class TestDrawInputs:
    @pytest.mark.parametrize("plant,preset,truncate", DRAW_CASES)
    def test_equals_per_trial_public_draws(self, bench_model, plant, preset, truncate):
        model, cfg, spec = draw_case(bench_model, plant, preset, truncate)
        got, want = draw_inputs(model, cfg, spec), reference_draws(model, cfg, spec)
        for name, g, w in zip(("vs", "etas", "dbar"), got, want):
            assert g.shape == w.shape and np.array_equal(g, w), name
        if plant.startswith("zero"):  # no Cholesky factor, no draws
            assert not np.any(got[0] if plant == "zero-R1" else got[1])

    @pytest.mark.parametrize("plant,preset", [("n2", "H.A"), ("n4", "H.B")])
    def test_trial_range_equals_rows_of_full_draw(self, bench_model, plant, preset):
        model, cfg, spec = draw_case(bench_model, plant, preset, True)
        full = draw_inputs(model, cfg, spec)
        for lo, hi in ((0, 1), (2, 7), (8, 9)):
            part = draw_inputs(model, cfg, spec, trials=range(lo, hi))
            for name, g, w in zip(("vs", "etas", "dbar"), part, full):
                assert np.array_equal(g, w[lo:hi]), (name, lo, hi)
