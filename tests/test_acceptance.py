"""Acceptance suite: one test per criterion, full scale, stated tolerances.

Run with `pytest tests/test_acceptance.py -s` to see one line per criterion.
"""

import math
import time

import numpy as np
import pytest

from stealthreach import (
    Ellipsoid,
    SimConfig,
    build_model,
    chi2_cdf,
    chi2_quantile,
    empirical_cloud,
    minkowski_sum_many,
    named_spec,
    reach_bounds_geom,
    reach_bounds_lmi,
    sym_sqrt,
)
from stealthreach.montecarlo import (
    SOURCE_ATTACK,
    SOURCE_NOISE,
    SOURCE_TOTAL,
    alarm_counts,
    volume_heatmap,
)
from stealthreach.seeding import stream

from conftest import (C, F, G, K, L_EXPECTED, R1, R2, SIGMA_EXPECTED, cell_cloud_volume,
                      substream_seed)

SEED = 20260808


def report(num: int, name: str, ok: bool, detail: str, elapsed: float) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {name} ({detail}) [{elapsed:.1f}s]")
    assert ok, f"criterion {num} failed: {detail}"


@pytest.fixture(scope="module")
def model():
    return build_model(F, G, C, K, R1, R2)


@pytest.fixture(scope="module")
def tuned(model):
    alpha = chi2_quantile(0.95, model.p)
    vbar = chi2_quantile(0.95, model.n)
    return alpha, vbar


@pytest.fixture(scope="module")
def geom_bounds(model, tuned):
    alpha, vbar = tuned
    return reach_bounds_geom(model, alpha, vbar)


@pytest.fixture(scope="module")
def lmi_bounds(model, tuned):
    alpha, vbar = tuned
    return reach_bounds_lmi(model, alpha, vbar)


@pytest.fixture(scope="module")
def clouds(model, tuned):
    """10^5-point clouds reused by the containment criteria."""
    alpha, vbar = tuned
    out = {}
    for i, name in enumerate(("ZA.A", "ZA.B", "ZA.C")):
        spec = named_spec(name, alpha)
        cfg = SimConfig(horizon=550, attack_start=1, master_seed=substream_seed(SEED, 60 + i),
                        trials=200, vbar=vbar)
        out[name] = empirical_cloud(model, cfg, spec, source=SOURCE_ATTACK, burn_in=50)
    cfg = SimConfig(horizon=550, attack_start=1, master_seed=substream_seed(SEED, 63),
                    trials=200, vbar=vbar)
    spec = named_spec("ZA.C", alpha)
    out["noise"] = empirical_cloud(model, cfg, spec, source=SOURCE_NOISE, burn_in=50)
    out["total"] = empirical_cloud(model, cfg, spec, source=SOURCE_TOTAL, burn_in=50)
    return out


def worst_membership(bound, points):
    return float(np.max(np.atleast_1d(bound.shape.membership(points))))


def test_criterion_01_riccati_regression():
    t0 = time.time()
    model = build_model(F, G, C, K, R1, R2)
    sigma = C @ model.P @ C.T + R2
    sigma_err = float(np.max(np.abs(sigma - SIGMA_EXPECTED)))
    gain_err = float(np.max(np.abs(model.L - L_EXPECTED)))
    elapsed = time.time() - t0
    ok = sigma_err <= 2e-3 and gain_err <= 2e-3 and elapsed < 1.0
    report(1, "Riccati regression",
           ok, f"Sigma err {sigma_err:.2e}, L err {gain_err:.2e}", elapsed)


def test_criterion_02_threshold_tuning():
    t0 = time.time()
    closed_form = -2.0 * math.log(0.05)
    q95 = chi2_quantile(0.95, 2)
    worst = 0.0
    for p in range(1, 11):
        for q in np.arange(0.01, 0.995, 0.01):
            x = chi2_quantile(float(q), p)
            worst = max(worst, abs(chi2_cdf(x, p) - float(q)))
    elapsed = time.time() - t0
    ok = abs(q95 - closed_form) <= 1e-4 and worst <= 1e-9 and elapsed < 1.0
    report(2, "threshold tuning",
           ok, f"quantile err {abs(q95 - closed_form):.2e}, round-trip {worst:.2e}", elapsed)


def test_criterion_03_false_alarm_calibration(model, tuned):
    t0 = time.time()
    alpha, _ = tuned
    cfg = SimConfig(horizon=10_000, master_seed=substream_seed(SEED, 3), trials=100)
    [(alarms, steps)] = alarm_counts(model, [(cfg, None)], alpha)
    rate = alarms / steps
    elapsed = time.time() - t0
    ok = abs(rate - 0.05) <= 0.005 and elapsed < 30.0
    report(3, "false-alarm calibration (10^6 attack-free steps)",
           ok, f"rate {rate:.4f}", elapsed)


def test_criterion_04_zero_alarm_stealth(model, tuned):
    t0 = time.time()
    alpha, _ = tuned
    runs = [(SimConfig(horizon=10_000, attack_start=1, master_seed=substream_seed(SEED, 40 + i),
                       trials=100), named_spec(name, alpha))
            for i, name in enumerate(("ZA.A", "ZA.B", "ZA.C"))]
    total_alarms = sum(alarms for alarms, _ in alarm_counts(model, runs, alpha))
    elapsed = time.time() - t0
    ok = total_alarms == 0 and elapsed < 60.0
    report(4, "zero-alarm stealth (3 x 10^6 attacked steps)",
           ok, f"alarms {total_alarms}", elapsed)


def test_criterion_05_hidden_rate_matching(model, tuned):
    t0 = time.time()
    alpha, _ = tuned
    names = ("H.A", "H.B", "H.C", "H.D")
    runs = [(SimConfig(horizon=10_000, attack_start=1, master_seed=substream_seed(SEED, 50 + i),
                       trials=100), named_spec(name, alpha))
            for i, name in enumerate(names)]
    rates = {name: alarms / steps
             for name, (alarms, steps) in zip(names, alarm_counts(model, runs, alpha))}
    elapsed = time.time() - t0
    ok = all(abs(r - 0.05) <= 0.005 for r in rates.values()) and elapsed < 60.0
    detail = ", ".join(f"{k} {v:.4f}" for k, v in rates.items())
    report(5, "hidden-attack rate matching (4 x 10^6 attacked steps)", ok, detail, elapsed)


def test_criterion_06_bound_soundness_geometric(model, tuned, geom_bounds, clouds):
    t0 = time.time()
    _, _, att_state, total = geom_bounds
    noise = geom_bounds[0]
    worst = {}
    for name in ("ZA.A", "ZA.B", "ZA.C"):
        worst[name] = worst_membership(att_state, clouds[name].points)
    worst["noise"] = worst_membership(noise, clouds["noise"].points)
    worst["total"] = worst_membership(total, clouds["total"].points)
    elapsed = time.time() - t0
    ok = all(v <= 1.0 + 1e-6 for v in worst.values()) and elapsed < 300.0
    detail = ", ".join(f"{k} {v:.3f}" for k, v in worst.items())
    report(6, "geometric bound soundness (10^5-point clouds)", ok, detail, elapsed)


def test_criterion_07_bound_soundness_lmi(model, tuned, geom_bounds, lmi_bounds, clouds):
    t0 = time.time()
    g_noise, g_err, g_state, g_total = geom_bounds
    l_noise, l_err, l_state, l_total = lmi_bounds
    worst = {}
    for name in ("ZA.A", "ZA.B", "ZA.C"):
        worst[name] = worst_membership(l_state, clouds[name].points)
    worst["noise"] = worst_membership(l_noise, clouds["noise"].points)
    worst["total"] = worst_membership(l_total, clouds["total"].points)
    contained = all(v <= 1.0 + 1e-6 for v in worst.values())
    certs = [b.diagnostics["lmi_min_eig"] for b in (l_noise, l_err, l_state)]
    certified = all(c >= -1e-7 for c in certs)
    ordering = (l_noise.volume >= g_noise.volume
                and l_err.volume >= g_err.volume
                and l_state.volume >= g_state.volume
                and l_total.volume >= g_total.volume)
    elapsed = time.time() - t0
    ok = contained and certified and ordering and elapsed < 300.0
    detail = (f"worst memb {max(worst.values()):.3f}, min cert {min(certs):.1e}, "
              f"vol lmi/geom: noise {l_noise.volume / g_noise.volume:.3f}, "
              f"err {l_err.volume / g_err.volume:.3f}, state {l_state.volume / g_state.volume:.3f}"
              f", total {l_total.volume / g_total.volume:.3f}")
    report(7, "LMI bound soundness and conservatism ordering", ok, detail, elapsed)


def test_criterion_08_heatmap_property(model, tuned):
    t0 = time.time()
    alpha, _ = tuned
    result = volume_heatmap(model, alpha, grid_res=16, trials=20, horizon=550,
                            burn_in=50, master_seed=substream_seed(SEED, 8))
    c1_max, w1_max, vol_max = result.argmax_cell()
    reference = cell_cloud_volume(model, alpha, alpha / 8.0, alpha / 10.0, SEED, 9,
                                  trials=20, horizon=550, burn_in=50)
    elapsed = time.time() - t0
    at_corner = c1_max == pytest.approx(alpha, rel=1e-12) and w1_max == 0.0
    margin = vol_max / reference - 1.0
    ok = at_corner and margin >= 0.20 and elapsed < 600.0
    report(8, "heatmap property (16x16 grid, 10^4 points/cell)",
           ok, f"argmax ({c1_max:.3f}, {w1_max:.3f}), margin {100 * margin:.0f}%", elapsed)


def test_criterion_09_hidden_unboundedness(model, tuned, geom_bounds):
    t0 = time.time()
    alpha, vbar = tuned
    total = geom_bounds[3]
    spec = named_spec("H.D", alpha)
    cfg = SimConfig(horizon=60, attack_start=1, master_seed=substream_seed(SEED, 10),
                    trials=3000, vbar=vbar)
    cloud = empirical_cloud(model, cfg, spec, source=SOURCE_TOTAL, burn_in=0)
    memberships = np.atleast_1d(total.shape.membership(cloud.points))
    escapes = int(np.sum(memberships > 1.0 + 1e-6))
    clean_mask = np.repeat(cloud.trial_alarm_free, len(cloud) // cloud.trials)
    clean_points = int(clean_mask.sum())
    worst_clean = float(np.max(memberships[clean_mask])) if clean_points else math.inf
    elapsed = time.time() - t0
    ok = (escapes > 0 and clean_points > 0 and worst_clean <= 1.0 + 1e-6
          and elapsed < 120.0)
    report(9, "hidden-attack unboundedness vs truncated sub-cloud",
           ok, f"escapes {escapes}, clean pts {clean_points}, worst clean {worst_clean:.3f}",
           elapsed)


def test_criterion_10_ellipsoid_property_suite():
    t0 = time.time()
    rng = stream(SEED, 100)
    failures = []

    # Minkowski containment on 10^3 random pairs
    worst_pair = 0.0
    for _ in range(1000):
        A1 = rng.standard_normal((2, 2))
        A2 = rng.standard_normal((2, 2))
        E1 = Ellipsoid(A1 @ A1.T + 0.05 * np.eye(2))
        E2 = Ellipsoid(A2 @ A2.T + 0.05 * np.eye(2))
        S = minkowski_sum_many([E1.Q, E2.Q])
        g = rng.standard_normal((16, 2))
        u = g / np.linalg.norm(g, axis=1, keepdims=True)
        pts = u @ sym_sqrt(E1.Q).T
        g = rng.standard_normal((16, 2))
        u = g / np.linalg.norm(g, axis=1, keepdims=True)
        pts = pts + u @ sym_sqrt(E2.Q).T
        worst_pair = max(worst_pair, float(np.max(np.atleast_1d(S.membership(pts)))))
    if worst_pair > 1.0 + 1e-9:
        failures.append(f"pair containment {worst_pair}")

    # linear-image soundness
    worst_img = 0.0
    for _ in range(200):
        A1 = rng.standard_normal((2, 2))
        E = Ellipsoid(A1 @ A1.T + 0.05 * np.eye(2))
        M = rng.standard_normal((2, 2))
        MQM = M @ E.Q @ M.T
        img = Ellipsoid((MQM + MQM.T) / 2.0)
        g = rng.standard_normal((32, 2))
        u = g / np.linalg.norm(g, axis=1, keepdims=True)
        inside = (u * np.sqrt(rng.random((32, 1)))) @ sym_sqrt(E.Q).T
        worst_img = max(worst_img, float(np.max(np.atleast_1d(img.membership(inside @ M.T)))))
    if worst_img > 1.0 + 1e-9:
        failures.append(f"linear image {worst_img}")

    # ball-sum exactness: radii add
    pair = minkowski_sum_many([np.eye(2), 4.0 * np.eye(2)])
    if np.max(np.abs(pair.Q - 9.0 * np.eye(2))) > 1e-8:
        failures.append("pair ball sum not 9I")
    many = minkowski_sum_many([np.eye(2)] * 3)
    if np.max(np.abs(many.Q - 9.0 * np.eye(2))) > 1e-8:
        failures.append("3-ball sum not 9I")

    # symmetric square root re-multiplication
    worst_sqrt = 0.0
    for _ in range(100):
        A1 = rng.standard_normal((3, 3))
        M = A1 @ A1.T
        S = sym_sqrt(M)
        worst_sqrt = max(
            worst_sqrt,
            float(np.max(np.abs(S @ S - M)) / (1.0 + np.max(np.abs(M)))),
        )
    if worst_sqrt > 1e-9:
        failures.append(f"sym_sqrt {worst_sqrt}")

    elapsed = time.time() - t0
    ok = not failures and elapsed < 30.0
    report(10, "ellipsoid-calculus property suite",
           ok, "; ".join(failures) if failures else
           f"pair worst {worst_pair:.6f}, image worst {worst_img:.6f}, sqrt worst {worst_sqrt:.1e}",
           elapsed)
