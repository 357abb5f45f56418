import numpy as np
import pytest
from scipy import linalg as sla

from stealthreach import (
    SimConfig,
    build_model,
    chi2_quantile,
    named_spec,
    sample_delta_bar,
    simulate,
    solve_steady_state_kalman,
)
from stealthreach.attacks import AttackSpec, ZERO_ALARM
from stealthreach.errors import (
    DimensionMismatch,
    NotDetectable,
    UnstableClosedLoop,
    UnstableF,
    UnstableFilter,
)
from stealthreach.seeding import stream

from conftest import C, F, G, K, L_EXPECTED, R1, R2, SIGMA_EXPECTED, plant_4d


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

    def test_unstable_filter(self):
        L_bad = 10.0 * np.ones((2, 2))
        assert max(abs(np.linalg.eigvals(F - L_bad @ C))) > 1.0  # oracle
        with pytest.raises(UnstableFilter):
            build_model(F, G, C, K, R1, R2, L=L_bad)

    def test_supplied_gain_reports_gap(self):
        model = build_model(F, G, C, K, R1, R2, L=L_EXPECTED)
        assert np.array_equal(model.L, L_EXPECTED)
        assert 0.0 < model.diagnostics["gain_gap"] <= 2e-3
        # P still comes from the Riccati fixed point
        P_ref = sla.solve_discrete_are(F.T, C.T, R1, R2)
        assert np.max(np.abs(model.P - P_ref)) <= 1e-9

    def test_dimension_check(self):
        with pytest.raises(DimensionMismatch):
            build_model(F, G, C, K, R1, np.eye(3))


def zero_noise_model():
    return build_model(F, G, C, K, np.zeros((2, 2)), np.zeros((2, 2)))


class TestSimulate:
    def test_equilibrium_without_noise(self):
        model = zero_noise_model()
        cfg = SimConfig(horizon=100, master_seed=0, trials=2)
        trace = simulate(model, cfg, alpha=1.0)
        for arr in (trace.x, trace.r, trace.z):
            assert np.max(np.abs(arr)) == 0.0
        assert not trace.alarm.any()

    def test_zero_noise_attack_distance(self, bench_model, alpha):
        # noise draws forced to zero, nominal Sigma kept: the boundary attack
        # pins the distance measure to the threshold at every attacked step
        import dataclasses

        model = dataclasses.replace(bench_model, R1=np.zeros((2, 2)), R2=np.zeros((2, 2)))
        spec = AttackSpec(kind=ZERO_ALARM, alpha=alpha, c1=alpha, w1=0.0,
                          direction_mode=(1.0, 0.0))
        cfg = SimConfig(horizon=200, attack_start=5, master_seed=1, trials=1)
        trace = simulate(model, cfg, attack=spec, alpha=alpha)
        attacked = trace.z[:, 4:]
        assert np.max(np.abs(attacked - alpha)) <= 1e-9 * alpha
        assert not trace.alarm.any()
        assert np.max(np.abs(trace.z[:, :4])) == 0.0

    def test_superposition_mid_trajectory(self, bench_model, alpha):
        spec = named_spec("ZA.B", alpha)
        cfg = SimConfig(horizon=400, attack_start=120, master_seed=2, trials=4)
        trace = simulate(bench_model, cfg, attack=spec, alpha=alpha)
        assert np.max(np.abs(trace.x - (trace.x_v + trace.x_delta))) <= 1e-9
        assert np.max(np.abs(trace.e - (trace.e_v + trace.e_delta))) <= 1e-9
        pre = slice(0, 119)
        assert np.max(np.abs(trace.delta[:, pre])) == 0.0
        assert np.max(np.abs(trace.x_delta[:, pre])) == 0.0
        assert np.max(np.abs(trace.e_delta[:, pre])) == 0.0

    def test_noise_state_equals_noise_error(self, bench_model, alpha):
        spec = named_spec("ZA.C", alpha)
        cfg = SimConfig(horizon=500, attack_start=1, master_seed=3, trials=3)
        trace = simulate(bench_model, cfg, attack=spec, alpha=alpha)
        assert np.max(np.abs(trace.x_v - trace.e_v)) <= 1e-12

    def test_residual_whiteness(self, bench_model):
        cfg = SimConfig(horizon=1000, master_seed=4, trials=100)
        trace = simulate(bench_model, cfg)
        r = trace.r[:, 200:].reshape(-1, 2)  # drop the filter transient
        count = r.shape[0]
        sigma = bench_model.Sigma
        mean_tol = 4.0 * np.sqrt(np.diag(sigma) / count)
        assert np.all(np.abs(r.mean(axis=0)) <= mean_tol)
        cov = r.T @ r / count
        assert np.linalg.norm(cov - sigma) <= 0.05 * np.linalg.norm(sigma)

    def test_determinism_and_trial_streams(self, bench_model, alpha):
        spec = named_spec("H.B", alpha)
        cfg = SimConfig(horizon=200, attack_start=50, master_seed=5, trials=4)
        t1 = simulate(bench_model, cfg, attack=spec, alpha=alpha)
        t2 = simulate(bench_model, cfg, attack=spec, alpha=alpha)
        assert np.array_equal(t1.x, t2.x)
        assert np.array_equal(t1.z, t2.z)
        # per-trial streams: a smaller batch reproduces the leading trials
        cfg_small = SimConfig(horizon=200, attack_start=50, master_seed=5, trials=2)
        t3 = simulate(bench_model, cfg_small, attack=spec, alpha=alpha)
        assert np.array_equal(t1.x[:2], t3.x)

    def test_truncated_noise_respects_level(self, bench_model, vbar):
        cfg = SimConfig(horizon=400, master_seed=6, trials=5, truncate_noise=True, vbar=vbar)
        trace = simulate(bench_model, cfg)
        # recover v_k = x_{k+1} - F x_k - G K xhat_k and test the quadratic form
        u = trace.xhat @ bench_model.K.T
        v = trace.x[:, 1:] - trace.x[:, :-1] @ bench_model.F.T - u[:, :-1] @ bench_model.G.T
        R1_inv = np.linalg.inv(bench_model.R1)
        quad = np.einsum("tki,ij,tkj->tk", v, R1_inv, v)
        assert np.max(quad) <= vbar * (1.0 + 1e-9)

    def test_config_validation(self):
        with pytest.raises(DimensionMismatch):
            SimConfig(horizon=10, attack_start=11, master_seed=0, trials=1)
        with pytest.raises(DimensionMismatch):
            SimConfig(horizon=10, master_seed=0, trials=0)
        with pytest.raises(DimensionMismatch):
            SimConfig(horizon=10, master_seed=0, trials=1, truncate_noise=True)


COLUMNS = ("x", "xhat", "e", "r", "z", "alarm", "delta", "delta_bar",
           "x_v", "x_delta", "e_v", "e_delta")


def reference_trace(model, cfg, spec, alpha):
    """Plain per-trial loop over the model equations.

    Each trial redraws its inputs from its own stream (v block with
    rejection rounds, eta block, dbar block) and runs x' = F x + G u + v,
    y = C x + eta + delta, xhat' = F xhat + G u + L (y - C xhat), u = K xhat.
    The noise part is the same loop with dbar = 0 (the attacker still
    cancels C e + eta); the attack part is the difference.
    """
    n, p, N = model.n, model.p, cfg.horizon
    kstar = cfg.attack_start if spec is not None else None
    x0 = np.zeros(n) if cfg.initial_state is None else np.asarray(cfg.initial_state, dtype=float)
    chol_r1, chol_r2 = np.linalg.cholesky(model.R1), np.linalg.cholesky(model.R2)
    cols = {name: [] for name in COLUMNS}
    for t in range(cfg.trials):
        rng = stream(cfg.master_seed, t)
        w = rng.standard_normal((N, n))
        while cfg.truncate_noise and (np.sum(w * w, axis=1) > cfg.vbar).any():
            bad = np.sum(w * w, axis=1) > cfg.vbar
            w[bad] = rng.standard_normal((int(bad.sum()), n))
        v = w @ chol_r1.T
        eta = rng.standard_normal((N, p)) @ chol_r2.T
        dbar = np.zeros((N, p))
        if kstar is not None:
            dbar[kstar - 1:] = sample_delta_bar(spec, p, rng, size=N - kstar + 1)

        def run(dbar):
            x, xhat = x0.copy(), x0.copy()
            rows = {name: [] for name in ("x", "xhat", "r", "delta")}
            for i in range(N):
                e = x - xhat
                attacked = kstar is not None and i + 1 >= kstar
                delta = -model.C @ e - eta[i] + model.SigmaSqrt @ dbar[i] if attacked else np.zeros(p)
                r = model.C @ x + eta[i] + delta - model.C @ xhat
                for name, value in (("x", x), ("xhat", xhat), ("r", r), ("delta", delta)):
                    rows[name].append(value)
                u = model.K @ xhat
                x, xhat = model.F @ x + model.G @ u + v[i], model.F @ xhat + model.G @ u + model.L @ r
            return {name: np.array(rows[name]) for name in rows}

        full, noise = run(dbar), run(np.zeros((N, p)))
        e, e_v = full["x"] - full["xhat"], noise["x"] - noise["xhat"]
        z = np.einsum("ki,ij,kj->k", full["r"], model.SigmaInv, full["r"])
        for name, value in (("x", full["x"]), ("xhat", full["xhat"]), ("e", e),
                            ("r", full["r"]), ("z", z), ("alarm", z > alpha),
                            ("delta", full["delta"]), ("delta_bar", dbar),
                            ("x_v", noise["x"]), ("x_delta", full["x"] - noise["x"]),
                            ("e_v", e_v), ("e_delta", e - e_v)):
            cols[name].append(value)
    return {name: np.array(cols[name]) for name in COLUMNS}


class TestReferenceDynamics:
    @pytest.mark.parametrize("preset,attack_start,truncate", [
        (None, None, False), ("ZA.B", 120, False), ("H.B", 1, True),
    ])
    def test_every_column_matches_plain_recursion(self, bench_model, alpha, vbar,
                                                  preset, attack_start, truncate):
        spec = named_spec(preset, alpha) if preset else None
        cfg = SimConfig(horizon=200 if attack_start != 120 else 300, attack_start=attack_start,
                        master_seed=11, trials=3, initial_state=np.array([0.5, -1.0]),
                        truncate_noise=truncate, vbar=vbar if truncate else None)
        trace = simulate(bench_model, cfg, attack=spec, alpha=alpha)
        ref = reference_trace(bench_model, cfg, spec, alpha)
        for name in COLUMNS:
            got = getattr(trace, name)
            if got is None:
                assert spec is None and name == "delta_bar"
                continue
            assert got.shape == ref[name].shape, name
            if name == "alarm":
                assert np.array_equal(got, ref[name])
            else:
                assert np.max(np.abs(got - ref[name])) <= 1e-12, name


class TestBatchInvariance:
    @pytest.mark.parametrize("n", [2, 4])
    def test_single_trial_equals_trial_zero_of_batch(self, bench_model, n):
        model = bench_model if n == 2 else plant_4d()
        a = chi2_quantile(0.95, model.p)
        spec = named_spec("H.B", a)
        traces = [
            simulate(model, SimConfig(horizon=80, attack_start=20, master_seed=8, trials=trials),
                     attack=spec, alpha=a)
            for trials in (1, 5)
        ]
        for name in COLUMNS:
            single, batch = (getattr(tr, name) for tr in traces)
            assert np.array_equal(single[0], batch[0]), name


class TestTraceCsv:
    def test_schema_and_metadata(self, bench_model, alpha, tmp_path):
        cfg = SimConfig(horizon=5, master_seed=7, trials=2)
        trace = simulate(bench_model, cfg, alpha=alpha)
        path = tmp_path / "trace.csv"
        trace.to_csv(path, metadata={"seed": 7})
        lines = path.read_text().splitlines()
        assert lines[0] == "# seed=7"
        assert lines[1] == "trial,k,x1,x2,e1,e2,xv1,xv2,xd1,xd2,z,alarm,d1,d2"
        assert len(lines) == 2 + 2 * 5
        first = lines[2].split(",")
        assert first[0] == "0" and first[1] == "1"
        assert float(first[10]) == trace.z[0, 0]

    def test_bytes_match_per_row_oracle(self, bench_model, alpha, tmp_path):
        spec = named_spec("H.B", alpha)
        cfg = SimConfig(horizon=6, attack_start=3, master_seed=9, trials=2)
        trace = simulate(bench_model, cfg, attack=spec, alpha=alpha)
        path = tmp_path / "trace.csv"
        trace.to_csv(path, metadata={"seed": 9, "note": "x"})
        lines = ["# seed=9", "# note=x", "trial,k,x1,x2,e1,e2,xv1,xv2,xd1,xd2,z,alarm,d1,d2"]
        for t in range(trace.trials):
            for k in range(trace.horizon):
                row = (
                    [str(t), str(k + 1)]
                    + [f"{v:.17g}" for v in trace.x[t, k]]
                    + [f"{v:.17g}" for v in trace.e[t, k]]
                    + [f"{v:.17g}" for v in trace.x_v[t, k]]
                    + [f"{v:.17g}" for v in trace.x_delta[t, k]]
                    + [f"{trace.z[t, k]:.17g}", str(int(trace.alarm[t, k]))]
                    + [f"{v:.17g}" for v in trace.delta[t, k]]
                )
                lines.append(",".join(row))
        assert path.read_bytes() == ("\n".join(lines) + "\n").encode()
