"""A seeded corpus of random plant scenarios, drawn with numpy alone.

Plant i comes from its own stream default_rng([CORPUS_SEED, i]), so adding a
plant leaves every other one as it was.  Each plant has n in 1..4 states and
m, p in 1..3 inputs and outputs, an F scaled to a spectral radius drawn from
(0.1, 1.1), a random gain K, and these independent options:
- with probability 0.3, a diagonal change of state and output units, each
  factor 10^u with u uniform in (-6, 6);
- with probability 0.1, G = 0 (the actuator does nothing);
- with probability 0.2, one zero column of C (a state no sensor reads);
- with probability 0.3, an R1 of rank one.
The detector rate A is log-uniform in [1e-6, 0.3], the attack a random
preset, and the run 5 trials of 60 steps with only JSON and array outputs.
"""

import numpy as np

CORPUS_SEED = 6
CORPUS_SIZE = 48
PRESETS = ("ZA.A", "ZA.B", "ZA.C", "H.A", "H.B", "H.C", "H.D")


def _psd(rng, dim, rank):
    M = rng.standard_normal((dim, rank))
    return M @ M.T


def corpus_plant(i: int) -> dict:
    """The raw scenario of plant i."""
    rng = np.random.default_rng([CORPUS_SEED, i])
    n, m, p = int(rng.integers(1, 5)), int(rng.integers(1, 4)), int(rng.integers(1, 4))
    F = rng.standard_normal((n, n))
    F *= rng.uniform(0.1, 1.1) / np.max(np.abs(np.linalg.eigvals(F)))
    G = rng.standard_normal((n, m))
    C = rng.standard_normal((p, n))
    K = 0.3 * rng.standard_normal((m, n))
    options = {name: bool(rng.random() < prob) for name, prob in
               (("units", 0.3), ("G0", 0.1), ("C_zero_column", 0.2), ("R1_rank_one", 0.3))}
    if options["G0"]:
        G[:] = 0.0
    if options["C_zero_column"]:
        C[:, rng.integers(n)] = 0.0
    R1 = 0.05 * _psd(rng, n, 1 if options["R1_rank_one"] else n)
    R2 = _psd(rng, p, p) + np.eye(p)
    if options["units"]:  # x -> T x and y -> S y
        t, s = 10.0 ** rng.uniform(-6, 6, n), 10.0 ** rng.uniform(-6, 6, p)
        F, G, K = t[:, None] * F / t, t[:, None] * G, K / t
        C, R1, R2 = s[:, None] * C / t, np.outer(t, t) * R1, np.outer(s, s) * R2
    model = {"F": F, "G": G, "C": C, "K": K, "R1": R1, "R2": R2}
    return {
        "model": {key: value.tolist() for key, value in model.items()},
        "detector": {"A": float(10.0 ** rng.uniform(-6, np.log10(0.3)))},
        "attack": {"preset": PRESETS[rng.integers(len(PRESETS))]},
        "sim": {"horizon": 60, "attack_start": int(rng.integers(1, 11)), "master_seed": i,
                "trials": 5, "truncate_noise": bool(rng.random() < 0.5)},
        "bounds": {"method": "geom"},
        "output": {"formats": ["json"]},
    }
