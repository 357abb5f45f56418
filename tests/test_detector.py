import math

import numpy as np
import pytest
from scipy import integrate, special, stats

from stealthreach import SimConfig, chi2_cdf, chi2_quantile, distance, sym_sqrt
from stealthreach.errors import DimensionMismatch, DomainError
from stealthreach.montecarlo import alarm_counts

from conftest import batch_parts

SIGMA = np.array([[2.086, 0.134], [0.134, 2.230]])


def quad_oracle(s, x):
    """Adaptive quadrature of the incomplete-gamma integrand."""
    val, _ = integrate.quad(lambda t: t ** (s - 1.0) * math.exp(-t), 0.0, x, limit=200)
    return val / math.gamma(s)


class TestRegLowerGamma:
    # chi2_cdf(x, dof) is the regularized lower incomplete gamma P(dof/2, x/2)
    def test_exponential_case(self):
        # P(1, x) = 1 - exp(-x)
        assert chi2_cdf(2.0 * math.log(2.0), 2) == pytest.approx(0.5, abs=1e-12)
        assert chi2_cdf(0.0, 2) == 0.0

    def test_half_dof_value(self):
        # quadrature oracle for s = 1/2 near the 95% point
        assert chi2_cdf(2.0 * 1.92073, 1) == pytest.approx(0.95, abs=1e-5)
        assert chi2_cdf(2.0 * 1.92073, 1) == pytest.approx(quad_oracle(0.5, 1.92073), abs=1e-10)

    def test_against_quadrature_grid(self):
        for dof in (1, 2, 5, 14):
            for x in (0.1, 1.0, 3.0, 10.0, 40.0):
                assert chi2_cdf(2.0 * x, dof) == pytest.approx(quad_oracle(dof / 2.0, x), abs=1e-10)

    def test_against_scipy_grid(self):
        for dof in range(1, 41):
            for x in np.linspace(0.0, 200.0, 401):
                assert chi2_cdf(float(x), dof) == pytest.approx(
                    float(special.gammainc(dof / 2.0, x / 2.0)), abs=1e-14
                )

    def test_domain(self):
        with pytest.raises(DomainError):
            chi2_cdf(1.0, 0)
        with pytest.raises(DomainError):
            chi2_cdf(-0.5, 2)

    @pytest.mark.parametrize("dof", [0.5, 2.5])
    def test_non_integer_dof(self, dof):
        with pytest.raises(DomainError):
            chi2_cdf(1.0, dof)
        with pytest.raises(DomainError):
            chi2_quantile(0.5, dof)


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
                assert chi2_cdf(x, p) == pytest.approx(float(q), abs=1e-9)

    def test_monotone(self):
        qs = np.linspace(0.05, 0.95, 10)
        for p in (1, 2, 5, 10):
            xs = [chi2_quantile(float(q), p) for q in qs]
            assert all(a < b for a, b in zip(xs, xs[1:]))
        for q in (0.1, 0.5, 0.9):
            xs = [chi2_quantile(q, p) for p in range(1, 11)]
            assert all(a < b for a, b in zip(xs, xs[1:]))

    def test_against_scipy_ppf(self):
        for dof in range(1, 41):
            for q in np.arange(1, 100) / 100.0:
                assert chi2_quantile(float(q), dof) == pytest.approx(
                    float(stats.chi2.ppf(q, dof)), rel=5e-14
                )
            assert chi2_quantile(0.95, dof) == pytest.approx(
                float(stats.chi2.ppf(0.95, dof)), rel=4e-15
            )

    def test_monte_carlo_rate(self, alpha):
        # tuning-rule oracle: raw chi-square(2) draws against the tuned threshold
        rng = np.random.default_rng(10)
        z = rng.chisquare(2, size=1_000_000)
        assert abs(float(np.mean(z > alpha)) - 0.05) <= 0.005

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

    @pytest.mark.parametrize("p", range(1, 13))
    def test_lone_rows_get_their_batch_bits(self, p):
        # at p = 2 einsum sums one or two rows in another order than a batch
        rng = np.random.default_rng(700 + p)
        M = rng.standard_normal((p, p))
        S = M @ M.T + p * np.eye(p)
        r = rng.standard_normal((128, 40, p)) * 10.0 ** rng.uniform(-3, 3, (128, 40, 1))
        z = distance(r, S)
        for t, k in zip(rng.integers(0, 128, 40), rng.integers(0, 39, 40)):
            lone = distance(r[t, k], S)
            assert isinstance(lone, float) and lone == z[t, k]
            assert np.array_equal(distance(r[t, k:k + 1], S), z[t, k:k + 1])
            assert np.array_equal(distance(r[t, k:k + 2], S), z[t, k:k + 2])
            assert np.array_equal(distance(r[t:t + 1, k:k + 2], S), z[t:t + 1, k:k + 2])


class TestAlarmStream:
    # the threshold rule of alarm_counts: z == alpha raises no alarm, any z
    # above it does, with z from the parts run on the whole batch
    CFG = SimConfig(horizon=50, master_seed=5, trials=2)

    @pytest.fixture(scope="class")
    def z(self, bench_model):
        return distance(batch_parts(bench_model, self.CFG)[2], bench_model.SigmaInv)

    def test_boundary_is_silent(self, bench_model, z):
        assert alarm_counts(bench_model, [(self.CFG, None)], float(z.max())) == [(0, 100)]

    def test_above_threshold(self, bench_model, z):
        alpha = float(np.nextafter(z.min(), 0.0))
        assert alarm_counts(bench_model, [(self.CFG, None)], alpha) == [(100, 100)]
