import math

import numpy as np
import pytest
from scipy import integrate, special

from stealthreach import alarm_stream, chi2_quantile, distance, reg_lower_gamma, sym_sqrt
from stealthreach.errors import DimensionMismatch, DomainError

SIGMA = np.array([[2.086, 0.134], [0.134, 2.230]])


def quad_oracle(s, x):
    """Adaptive quadrature of the incomplete-gamma integrand."""
    val, _ = integrate.quad(lambda t: t ** (s - 1.0) * math.exp(-t), 0.0, x, limit=200)
    return val / math.gamma(s)


class TestRegLowerGamma:
    def test_exponential_case(self):
        # P(1, x) = 1 - exp(-x)
        assert reg_lower_gamma(1.0, math.log(2.0)) == pytest.approx(0.5, abs=1e-12)
        assert reg_lower_gamma(1.0, 0.0) == 0.0

    def test_half_dof_value(self):
        # quadrature oracle for s = 1/2 near the 95% point
        assert reg_lower_gamma(0.5, 1.92073) == pytest.approx(0.95, abs=1e-5)
        assert reg_lower_gamma(0.5, 1.92073) == pytest.approx(quad_oracle(0.5, 1.92073), abs=1e-10)

    def test_against_quadrature_grid(self):
        for s in (0.5, 1.0, 2.5, 7.0):
            for x in (0.1, 1.0, 3.0, 10.0, 40.0):
                assert reg_lower_gamma(s, x) == pytest.approx(quad_oracle(s, x), abs=1e-10)

    def test_against_scipy_grid(self):
        for s in np.linspace(0.25, 12.0, 30):
            for x in np.linspace(0.0, 30.0, 40):
                assert reg_lower_gamma(float(s), float(x)) == pytest.approx(
                    float(special.gammainc(s, x)), abs=1e-12
                )

    def test_domain(self):
        with pytest.raises(DomainError):
            reg_lower_gamma(0.0, 1.0)
        with pytest.raises(DomainError):
            reg_lower_gamma(1.0, -0.5)


class TestChi2Quantile:
    def test_two_dof_closed_form(self):
        # 2-dof chi-square CDF is 1 - exp(-x/2)
        assert chi2_quantile(0.95, 2) == pytest.approx(-2.0 * math.log(0.05), abs=1e-4)
        assert chi2_quantile(0.5, 2) == pytest.approx(-2.0 * math.log(0.5), abs=1e-4)

    def test_one_dof_normal_oracle(self):
        # square of the 0.975 standard-normal quantile
        z = math.sqrt(2.0) * special.erfinv(0.95)
        assert chi2_quantile(0.95, 1) == pytest.approx(z * z, abs=1e-4)
        assert chi2_quantile(0.95, 1) == pytest.approx(3.84146, abs=1e-4)

    def test_round_trip(self):
        for p in range(1, 11):
            for q in np.linspace(0.05, 0.95, 19):
                x = chi2_quantile(float(q), p)
                assert reg_lower_gamma(p / 2.0, x / 2.0) == pytest.approx(float(q), abs=1e-9)

    def test_monotone(self):
        qs = np.linspace(0.05, 0.95, 10)
        for p in (1, 2, 5, 10):
            xs = [chi2_quantile(float(q), p) for q in qs]
            assert all(a < b for a, b in zip(xs, xs[1:]))
        for q in (0.1, 0.5, 0.9):
            xs = [chi2_quantile(q, p) for p in range(1, 11)]
            assert all(a < b for a, b in zip(xs, xs[1:]))

    def test_domain(self):
        with pytest.raises(DomainError):
            chi2_quantile(0.0, 2)
        with pytest.raises(DomainError):
            chi2_quantile(1.0, 2)


class TestDistance:
    def test_zero_residual(self):
        assert distance(np.zeros(2), np.eye(2)) == 0.0

    def test_identity_sigma(self):
        assert distance(np.array([1.0, 1.0]), np.eye(2)) == pytest.approx(2.0)

    def test_attack_algebra(self, alpha):
        # r = SigmaSqrt dbar with |dbar|^2 = alpha gives z = alpha
        S = sym_sqrt(SIGMA)
        dbar = math.sqrt(alpha) * np.array([math.cos(0.7), math.sin(0.7)])
        z = distance(S @ dbar, np.linalg.inv(SIGMA))
        assert z == pytest.approx(alpha, abs=1e-9)

    def test_batched(self):
        r = np.array([[1.0, 0.0], [0.0, 2.0]])
        z = distance(r, np.eye(2))
        assert np.allclose(z, [1.0, 4.0])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            distance(np.ones(3), np.eye(2))


class TestAlarmStream:
    def test_boundary_is_silent(self, alpha):
        alarms, rate, times = alarm_stream([alpha, alpha, alpha], alpha)
        assert not alarms.any() and rate == 0.0 and times == []

    def test_above_threshold(self, alpha):
        eps = 1e-9
        alarms, rate, times = alarm_stream([alpha + eps] * 4, alpha)
        assert alarms.all() and rate == 1.0 and times == [0, 1, 2, 3]

    def test_monte_carlo_rate(self, alpha):
        # tuning-rule oracle: raw chi-square(2) draws against the tuned threshold
        rng = np.random.default_rng(10)
        z = rng.chisquare(2, size=1_000_000)
        _, rate, _ = alarm_stream(z, alpha)
        assert abs(rate - 0.05) <= 0.005

    def test_domain(self):
        with pytest.raises(DomainError):
            alarm_stream([1.0], 0.0)
