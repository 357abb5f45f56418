import math

import numpy as np
import pytest

from stealthreach import SimConfig, named_spec, sample_delta_bar, sample_z, simulate
from stealthreach.attacks import (
    BOUNDARY_BACKOFF,
    HIDDEN,
    TABLE_PRESETS,
    ZERO_ALARM,
    AttackSpec,
    mixture_cdf,
)
from stealthreach.errors import InvalidSpec
from stealthreach.seeding import stream


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
        with pytest.raises(InvalidSpec):
            AttackSpec(kind=ZERO_ALARM, alpha=alpha, c1=alpha / 2, w1=0.0,
                       direction_mode=(1.0, 1.0))  # not a unit vector


class TestSampleZ:
    def test_point_mass_at_threshold(self, alpha):
        spec = named_spec("ZA.C", alpha)
        z = sample_z(spec, stream(0, 0), size=1000)
        assert np.all(z == alpha * (1.0 - BOUNDARY_BACKOFF))
        assert np.max(np.abs(z - alpha)) <= 1e-9 * alpha

    def test_za_a_support(self, alpha):
        spec = named_spec("ZA.A", alpha)
        z = sample_z(spec, stream(1, 0), size=100_000)
        assert np.all(z >= alpha / 8 - alpha / 20 - 1e-12)
        assert np.all(z <= alpha / 8 + alpha / 20 + 1e-12)

    def test_hidden_mixture_mean(self, alpha):
        # H.B: mass 0.95 at alpha, mass 0.05 at 2 alpha, mean 1.05 alpha
        spec = named_spec("H.B", alpha)
        z = sample_z(spec, stream(2, 0), size=1_000_000)
        assert abs(z.mean() - 1.05 * alpha) <= 0.005 * 1.05 * alpha

    def test_mass_above_threshold(self, alpha):
        spec = named_spec("H.C", alpha)
        z = sample_z(spec, stream(3, 0), size=1_000_000)
        frac = np.mean(z > alpha)
        assert abs(frac - 0.05) <= 0.001

    def test_ks_against_analytic_cdf(self, alpha):
        # sup |ECDF - CDF| with jump-aware left limits (mixtures have atoms)
        for name in ("ZA.A", "ZA.B", "ZA.C", "H.A", "H.B"):
            spec = named_spec(name, alpha)
            z = sample_z(spec, stream(4, hash(name) % 2**32), size=1_000_000)
            count = len(z)
            values, counts = np.unique(z, return_counts=True)
            ecdf_hi = np.cumsum(counts) / count
            ecdf_lo = ecdf_hi - counts / count
            cdf = mixture_cdf(spec, values)
            cdf_left = mixture_cdf(spec, np.nextafter(values, -np.inf))
            ks = max(np.max(np.abs(ecdf_hi - cdf)), np.max(np.abs(cdf_left - ecdf_lo)))
            assert ks < 0.005, f"{name}: KS {ks:.4f}"


class TestSampleDeltaBar:
    def test_pairing_identity(self, alpha):
        # same stream: the dbar block consumes the same z draws
        spec = named_spec("H.A", alpha)
        dbar = sample_delta_bar(spec, 2, stream(5, 0), size=5000)
        z = sample_z(spec, stream(5, 0), size=5000)
        assert np.max(np.abs(np.sum(dbar**2, axis=1) - z)) <= 1e-12 * max(alpha, 1.0)

    def test_zero_alarm_draws_never_exceed_threshold(self, alpha):
        for name in ("ZA.A", "ZA.B", "ZA.C"):
            spec = named_spec(name, alpha)
            dbar = sample_delta_bar(spec, 2, stream(6, hash(name) % 2**32), size=100_000)
            assert np.sum(np.sum(dbar**2, axis=1) > alpha) == 0

    def test_fixed_direction(self, alpha):
        spec = named_spec("ZA.C", alpha, direction_mode=(1.0, 0.0))
        dbar = sample_delta_bar(spec, 2, stream(7, 0), size=100)
        assert np.allclose(dbar[:, 1], 0.0)
        assert np.allclose(dbar[:, 0], math.sqrt(alpha * (1.0 - BOUNDARY_BACKOFF)))

    def test_direction_isotropy(self, alpha):
        # chi-square goodness of fit over 36 angle bins at the 0.001 level
        spec = named_spec("ZA.C", alpha)
        dbar = sample_delta_bar(spec, 2, stream(8, 0), size=1_000_000)
        angles = np.arctan2(dbar[:, 1], dbar[:, 0]) + math.pi
        counts, _ = np.histogram(angles, bins=36, range=(0.0, 2.0 * math.pi))
        expected = len(dbar) / 36
        chi2_stat = np.sum((counts - expected) ** 2 / expected)
        assert chi2_stat < 66.62  # chi2(35) quantile at 0.999

    def test_haar_alias(self, alpha):
        spec = named_spec("ZA.C", alpha, direction_mode="haar")
        dbar = sample_delta_bar(spec, 2, stream(9, 0), size=1000)
        assert np.allclose(np.sum(dbar**2, axis=1), alpha * (1.0 - BOUNDARY_BACKOFF))


class TestPolicy:
    def test_residual_is_shaped_attack(self, bench_model, alpha):
        spec = named_spec("ZA.B", alpha)
        cfg = SimConfig(horizon=300, attack_start=1, master_seed=10, trials=4)
        trace = simulate(bench_model, cfg, attack=spec, alpha=alpha)
        shaped = trace.delta_bar @ bench_model.SigmaSqrt.T
        assert np.max(np.abs(trace.r - shaped)) <= 1e-9

    def test_zero_alarm_simulation_is_silent(self, bench_model, alpha):
        spec = named_spec("ZA.C", alpha)
        cfg = SimConfig(horizon=2000, attack_start=1, master_seed=11, trials=10)
        trace = simulate(bench_model, cfg, attack=spec, alpha=alpha)
        assert trace.alarm_rate(attacked_only=True) == 0.0

    def test_hidden_simulation_matches_rate(self, bench_model, alpha):
        spec = named_spec("H.C", alpha)
        cfg = SimConfig(horizon=2000, attack_start=1, master_seed=12, trials=50)
        trace = simulate(bench_model, cfg, attack=spec, alpha=alpha)
        assert abs(trace.alarm_rate(attacked_only=True) - 0.05) <= 0.005
