import math

import numpy as np
import pytest

from stealthreach import SimConfig, distance, named_spec
from stealthreach.attacks import (
    BOUNDARY_BACKOFF,
    HIDDEN,
    TABLE_PRESETS,
    ZERO_ALARM,
    AttackDraws,
    AttackSpec,
    _mixture_z,
    _uniform_rows,
)
from stealthreach.errors import InvalidSpec
from stealthreach.montecarlo import alarm_counts
from stealthreach.plant import attack_residual, draw_inputs
from stealthreach.seeding import stream


def mixture_cdf(spec: AttackSpec, z) -> np.ndarray:
    """Analytic CDF of the two-segment mixture as actually sampled,
    i.e. with the below-threshold segment capped at alpha*(1 - 1e-12)."""
    z = np.asarray(z, dtype=float)
    cap = spec.alpha * (1.0 - BOUNDARY_BACKOFF)
    lo1 = min(spec.c1 - spec.w1 / 2.0, cap)
    hi1 = min(spec.c1 + spec.w1 / 2.0, cap)
    mass1 = 1.0 if spec.kind == ZERO_ALARM else 1.0 - spec.rate_above

    def seg_cdf(lo, hi, v):
        if hi <= lo:  # point mass
            return (v >= lo).astype(float)
        return np.clip((v - lo) / (hi - lo), 0.0, 1.0)

    total = mass1 * seg_cdf(lo1, hi1, z)
    if spec.kind == HIDDEN:
        lo2, hi2 = spec.c2 - spec.w2 / 2.0, spec.c2 + spec.w2 / 2.0
        total = total + spec.rate_above * seg_cdf(lo2, hi2, z)
    return total


class TestSpecValidation:
    def test_table_presets_all_construct(self, alpha):
        for name in TABLE_PRESETS:
            spec = named_spec(name, alpha)
            assert spec.alpha == alpha

    def test_table_values(self, alpha):
        za_a = named_spec("ZA.A", alpha)
        assert za_a.c1 == pytest.approx(alpha / 8) and za_a.w1 == pytest.approx(alpha / 10)
        h_a = named_spec("H.A", alpha)
        assert h_a.c2 == pytest.approx(1.5 * alpha) and h_a.w2 == pytest.approx(alpha)
        h_d = named_spec("H.D", alpha)
        assert h_d.c2 == pytest.approx(100 * alpha) and h_d.w2 == 0.0

    def test_support_violations(self, alpha):
        with pytest.raises(InvalidSpec):
            AttackSpec(kind=ZERO_ALARM, alpha=alpha, c1=alpha, w1=alpha)  # crosses alpha
        with pytest.raises(InvalidSpec):
            AttackSpec(kind=ZERO_ALARM, alpha=alpha, c1=0.0, w1=alpha)  # extends under 0
        with pytest.raises(InvalidSpec):
            AttackSpec(kind=HIDDEN, alpha=alpha, c1=alpha, w1=0.0, rate_above=0.05)  # no c2
        with pytest.raises(InvalidSpec):
            AttackSpec(kind=HIDDEN, alpha=alpha, c1=alpha, w1=0.0,
                       c2=alpha, w2=0.0, rate_above=0.05)  # point mass at threshold
        with pytest.raises(InvalidSpec):
            AttackSpec(kind=HIDDEN, alpha=alpha, c1=alpha, w1=0.0,
                       c2=2 * alpha, w2=3 * alpha, rate_above=0.05)  # dips under threshold


class TestSampleZ:
    def test_point_mass_at_threshold(self, alpha):
        spec = named_spec("ZA.C", alpha)
        z = _mixture_z(spec, stream(0, 0).random((_uniform_rows(spec), 1000)))
        assert np.all(z == alpha * (1.0 - BOUNDARY_BACKOFF))
        assert np.max(np.abs(z - alpha)) <= 1e-9 * alpha

    def test_za_a_support(self, alpha):
        spec = named_spec("ZA.A", alpha)
        z = _mixture_z(spec, stream(1, 0).random((_uniform_rows(spec), 100_000)))
        assert np.all(z >= alpha / 8 - alpha / 20 - 1e-12)
        assert np.all(z <= alpha / 8 + alpha / 20 + 1e-12)

    def test_hidden_mixture_mean(self, alpha):
        # H.B: mass 0.95 at alpha, mass 0.05 at 2 alpha, mean 1.05 alpha
        spec = named_spec("H.B", alpha)
        z = _mixture_z(spec, stream(2, 0).random((_uniform_rows(spec), 1_000_000)))
        assert abs(z.mean() - 1.05 * alpha) <= 0.005 * 1.05 * alpha

    def test_mass_above_threshold(self, alpha):
        spec = named_spec("H.C", alpha)
        z = _mixture_z(spec, stream(3, 0).random((_uniform_rows(spec), 1_000_000)))
        frac = np.mean(z > alpha)
        assert abs(frac - 0.05) <= 0.001

    def test_ks_against_analytic_cdf(self, alpha):
        # sup |ECDF - CDF| with jump-aware left limits (mixtures have atoms)
        for index, name in enumerate(("ZA.A", "ZA.B", "ZA.C", "H.A", "H.B")):
            spec = named_spec(name, alpha)
            u = stream(4, index).random((_uniform_rows(spec), 1_000_000))
            z = _mixture_z(spec, u)
            count = len(z)
            values, counts = np.unique(z, return_counts=True)
            ecdf_hi = np.cumsum(counts) / count
            ecdf_lo = ecdf_hi - counts / count
            cdf = mixture_cdf(spec, values)
            cdf_left = mixture_cdf(spec, np.nextafter(values, -np.inf))
            ks = max(np.max(np.abs(ecdf_hi - cdf)), np.max(np.abs(cdf_left - ecdf_lo)))
            assert ks < 0.005, f"{name}: KS {ks:.4f}"


class TestSampleDeltaBar:
    """One trial's attack vectors dbar = sqrt(z) * u, drawn by AttackDraws."""

    def test_pairing_identity(self, alpha):
        # same stream: the dbar block consumes the same z draws
        spec = named_spec("H.A", alpha)
        draws = AttackDraws(spec, np.empty((1, 5000, 2)))
        draws.pull(0, stream(5, 0))
        dbar = draws.transform()[0]
        z = _mixture_z(spec, stream(5, 0).random((_uniform_rows(spec), 5000)))
        assert np.max(np.abs(np.sum(dbar**2, axis=1) - z)) <= 1e-12 * max(alpha, 1.0)

    @pytest.mark.parametrize("name,p", [("ZA.B", 2), ("H.A", 2), ("H.B", 3)])
    def test_equals_draws_written_out(self, alpha, name, p):
        # stream order: segment-1 uniforms, for a hidden attack the segment
        # picks and the segment-2 uniforms, then the direction normals
        spec = named_spec(name, alpha)
        rng = stream(10, p)
        z = (spec.c1 - spec.w1 / 2.0) + spec.w1 * rng.random(700)
        z = np.minimum(np.maximum(z, 0.0), spec.alpha * (1.0 - BOUNDARY_BACKOFF))
        if spec.kind == HIDDEN:
            above = rng.random(700) < spec.rate_above
            z = np.where(above, (spec.c2 - spec.w2 / 2.0) + spec.w2 * (1.0 - rng.random(700)), z)
        g = rng.standard_normal((700, p))
        u = g / np.linalg.norm(g, axis=1, keepdims=True)
        want = np.sqrt(z)[:, None] * u
        got_rng, draws = stream(10, p), AttackDraws(spec, np.empty((1, 700, p)))
        draws.pull(0, got_rng)
        assert np.array_equal(draws.transform()[0], want)
        assert got_rng.random() == rng.random()  # both consumed the stream to the same point
        assert np.array_equal(_mixture_z(spec, stream(10, p).random((_uniform_rows(spec), 700))), z)

    def test_zero_alarm_draws_never_exceed_threshold(self, alpha):
        for index, name in enumerate(("ZA.A", "ZA.B", "ZA.C")):
            spec = named_spec(name, alpha)
            draws = AttackDraws(spec, np.empty((1, 100_000, 2)))
            draws.pull(0, stream(6, index))
            dbar = draws.transform()[0]
            assert np.sum(np.sum(dbar**2, axis=1) > alpha) == 0

    def test_direction_isotropy(self, alpha):
        # chi-square goodness of fit over 36 angle bins at the 0.001 level
        spec = named_spec("ZA.C", alpha)
        draws = AttackDraws(spec, np.empty((1, 1_000_000, 2)))
        draws.pull(0, stream(8, 0))
        dbar = draws.transform()[0]
        angles = np.arctan2(dbar[:, 1], dbar[:, 0]) + math.pi
        counts, _ = np.histogram(angles, bins=36, range=(0.0, 2.0 * math.pi))
        expected = len(dbar) / 36
        chi2_stat = np.sum((counts - expected) ** 2 / expected)
        assert chi2_stat < 66.62  # chi2(35) quantile at 0.999


class TestPolicy:
    def test_residual_is_shaped_attack(self, bench_model, alpha):
        # the detector reads the attacked residual SigmaSqrt dbar at the
        # distance the attacker drew, dbar^T dbar
        spec = named_spec("ZA.B", alpha)
        cfg = SimConfig(horizon=300, attack_start=1, master_seed=10, trials=4)
        dbar = draw_inputs(bench_model, cfg, spec)[2]
        z = distance(attack_residual(bench_model, dbar, 1), bench_model.SigmaInv)
        assert np.max(np.abs(z - np.sum(dbar**2, axis=-1))) <= 1e-9 * alpha

    def test_zero_alarm_simulation_is_silent(self, bench_model, alpha):
        spec = named_spec("ZA.C", alpha)
        cfg = SimConfig(horizon=2000, attack_start=1, master_seed=11, trials=10)
        assert alarm_counts(bench_model, [(cfg, spec)], alpha)[0][0] == 0

    def test_hidden_simulation_matches_rate(self, bench_model, alpha):
        spec = named_spec("H.C", alpha)
        cfg = SimConfig(horizon=2000, attack_start=1, master_seed=12, trials=50)
        [(alarms, steps)] = alarm_counts(bench_model, [(cfg, spec)], alpha)
        assert abs(alarms / steps - 0.05) <= 0.005
