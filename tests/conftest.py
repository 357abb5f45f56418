import numpy as np
import pytest

from stealthreach import build_model, chi2_quantile
from stealthreach.plant import spectral_radius

# 2-D benchmark loop used throughout: open-loop stable plant, two sensors,
# static estimate feedback, detector tuned to a 5% false-alarm rate.
F = np.array([[0.84, 0.23], [-0.47, 0.12]])
G = np.array([[0.07, -0.32], [0.23, 0.58]])
C = np.array([[1.0, 0.0], [2.0, 1.0]])
K = np.array([[1.404, -1.042], [1.842, 1.008]])
R1 = np.array([[0.045, -0.011], [-0.011, 0.02]])
R2 = np.array([[2.0, 0.0], [0.0, 2.0]])

SIGMA_EXPECTED = np.array([[2.086, 0.134], [0.134, 2.230]])
L_EXPECTED = np.array([[0.0276, 0.0448], [-0.01998, -0.0290]])

RATE = 0.05


def plant_4d(seed=4):
    """Seeded n = 4, m = 2, p = 3 plant with rho(F) = 0.85 and a stable loop."""
    rng = np.random.default_rng(seed)
    F4 = rng.standard_normal((4, 4))
    F4 *= 0.85 / spectral_radius(F4)
    G4 = rng.standard_normal((4, 2))
    M = rng.standard_normal((4, 4))
    N = rng.standard_normal((3, 3))
    return build_model(F4, G4, rng.standard_normal((3, 4)), -0.1 * np.linalg.pinv(G4) @ F4,
                       0.05 * (M @ M.T + np.eye(4)), N @ N.T + np.eye(3))


@pytest.fixture(scope="session")
def bench_model():
    return build_model(F, G, C, K, R1, R2)


@pytest.fixture(scope="session")
def alpha():
    return chi2_quantile(1.0 - RATE, 2)


@pytest.fixture(scope="session")
def vbar(alpha):
    return alpha  # n == p == 2 for the benchmark loop
