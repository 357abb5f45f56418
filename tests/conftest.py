import os

import numpy as np
import pytest

from stealthreach import (SimConfig, build_model, chi2_quantile, empirical_cloud,
                          fit_ellipsoid_moment)
from stealthreach.attacks import ZERO_ALARM, AttackSpec
from stealthreach.errors import DegenerateCloud
from stealthreach.montecarlo import SOURCE_ATTACK
from stealthreach.plant import (attack_part, attack_residual, draw_inputs, noise_part,
                                noise_residual, spectral_radius)

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


def batch_parts(model, cfg, spec=None):
    """(noise, attack, r) of a run, its parts on the whole batch in one call:
    [x_v, e_v] from noise_part, [x_delta, e_delta] from attack_part, each
    (trials, horizon, 2n), and the residual r, noise_residual before k* and
    attack_residual from k*.  Without a spec the run is attack-free: the
    noise part keeps the filter on throughout, and the attack part is zero."""
    vs, etas, dbar = draw_inputs(model, cfg, spec)
    kstar = cfg.attack_start if spec is not None else None
    noise = noise_part(model, vs, etas, kstar)
    r = noise_residual(model, noise[..., model.n:], etas)
    if spec is None:
        return noise, np.zeros_like(noise), r
    r[:, kstar - 1:] = attack_residual(model, dbar, kstar)
    return noise, attack_part(model, dbar, kstar), r


def substream_seed(master_seed, *path):
    """A 64-bit master seed derived from (master_seed, path), for a run that
    needs trials of its own."""
    ss = np.random.SeedSequence([int(master_seed) & 0xFFFFFFFFFFFFFFFF, *[int(p) for p in path]])
    return int(ss.generate_state(1, np.uint64)[0])


def cell_cloud_volume(model, alpha, c1, w1, seed, idx=None, *, trials, horizon, burn_in):
    """Volume of heatmap cell (c1, w1) through the cloud path: the moment fit of
    the cell's own attack cloud at the heatmap's master seed, 0.0 when the fit
    is degenerate.  A reference cloud on a seed of its own passes idx: its
    trials come from substream_seed(seed, idx)."""
    master_seed = seed if idx is None else substream_seed(seed, idx)
    cfg = SimConfig(horizon, attack_start=1, master_seed=master_seed, trials=trials)
    cloud = empirical_cloud(model, cfg, AttackSpec(ZERO_ALARM, alpha, c1, w1), SOURCE_ATTACK,
                            burn_in)
    try:
        return fit_ellipsoid_moment(cloud)[1]
    except DegenerateCloud:
        return 0.0


@pytest.fixture(scope="session")
def bench_model():
    return build_model(F, G, C, K, R1, R2)


@pytest.fixture(scope="session")
def alpha():
    return chi2_quantile(1.0 - RATE, 2)


@pytest.fixture(scope="session")
def vbar(alpha):
    return alpha  # n == p == 2 for the benchmark loop


def cpu_cases(*values):
    """Each value with one and with two usable CPUs, for parametrize.

    The one-CPU case keeps the value's own id, the two-CPU case adds
    "-2cpus"; the test pins the count with the usable_cpus fixture.
    """
    return ([pytest.param(v, 1, id=str(v)) for v in values]
            + [pytest.param(v, 2, id=f"{v}-2cpus") for v in values])


@pytest.fixture
def usable_cpus(monkeypatch):
    """Call with a count to make os.sched_getaffinity report that many CPUs."""
    def pin(count):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))
    return pin


@pytest.fixture(autouse=True)
def no_child_left():
    """Fail a test that leaves a child process behind, running or unreaped."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"test left a child process behind ({'running' if pid == 0 else f'pid {pid}'})")
