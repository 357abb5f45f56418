"""Stochastic LTI plant, steady-state Kalman filter, and closed-loop simulation.

The model is x' = F x + G u + v, y = C x + eta, with static estimate
feedback u = K xhat and a steady-state filter xhat' = F xhat + G u + L r.
A sensor attack adds delta = -C e - eta + SigmaSqrt dbar to the
measurement from step k* on, so the residual there is r = SigmaSqrt dbar.
A run is simulated in parts: draw_inputs draws each trial's inputs, and
noise_part and attack_part propagate the superposition split [x_v, e_v] +
[x_delta, e_delta] of the state and the estimation error as two linear
recursions; noise_residual and attack_residual give r.
"""

from dataclasses import dataclass, field

import numpy as np

from .attacks import AttackDraws, AttackSpec
from .ellipsoids import checked_shape, sym_sqrt
from .errors import (
    DimensionMismatch,
    NoConvergence,
    UnstableClosedLoop,
    UnstableF,
    UnstableFilter,
)
from .seeding import stream


def spectral_radius(M: np.ndarray) -> float:
    return float(np.max(np.abs(np.linalg.eigvals(M))))


def _as_matrix(M, rows, cols, name):
    M = np.asarray(M, dtype=float)
    if M.shape != (rows, cols):
        raise DimensionMismatch(f"{name} has shape {M.shape}, expected ({rows}, {cols})")
    return M


RICCATI_TOL = 1e-12
RICCATI_MAX_ITER = 100_000


def _steady_state_kalman(F, C, R1, R2):
    """(P, L, residual, iterations) of the steady-state predictor-form filter.

    Iterates P <- F P F^T + R1 - F P C^T (C P C^T + R2)^+ C P F^T from
    P0 = R1 until the largest entry of the update is at most RICCATI_TOL
    times the largest entry of P, so scaling the state by a constant does not
    move the stopping point; then L = F P C^T (C P C^T + R2)^+.  The residual is
    the final update size (absolute); RICCATI_MAX_ITER updates without meeting
    the test raise NoConvergence.  build_model has checked the inputs and that
    rho(F) < 1, so (F, C) is detectable and P tends to the stabilising solution
    (Anderson and Moore, Optimal Filtering, 1979).
    """
    P = (R1 + R1.T) / 2.0
    residual = np.inf
    for it in range(1, RICCATI_MAX_ITER + 1):
        S = C @ P @ C.T + R2
        gain_term = F @ P @ C.T @ np.linalg.pinv(S, hermitian=True)
        P_next = F @ P @ F.T + R1 - gain_term @ C @ P @ F.T
        P_next = (P_next + P_next.T) / 2.0
        residual = float(np.max(np.abs(P_next - P)))
        P = P_next
        if residual <= RICCATI_TOL * np.max(np.abs(P)):
            break
    else:
        raise NoConvergence(f"Riccati iteration residual {residual:.3e} "
                            f"after {RICCATI_MAX_ITER} iterations")
    S = C @ P @ C.T + R2
    L = F @ P @ C.T @ np.linalg.pinv(S, hermitian=True)
    return P, L, residual, it


@dataclass(frozen=True)
class PlantModel:
    """Validated plant + filter + controller with derived covariances.

    Stability requirements: rho(F) < 1, rho(F + G K) < 1, rho(F - L C) < 1.
    L is the steady-state Kalman gain and Sigma the residual covariance
    C P C^T + R2 at the Riccati fixed point, the covariance the detector
    and the reach bounds are tuned to.
    """

    F: np.ndarray
    G: np.ndarray
    C: np.ndarray
    K: np.ndarray
    R1: np.ndarray
    R2: np.ndarray
    L: np.ndarray
    P: np.ndarray
    Sigma: np.ndarray
    SigmaSqrt: np.ndarray
    SigmaInv: np.ndarray
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        for name in ("F", "G", "C", "K", "R1", "R2", "L", "P", "Sigma", "SigmaSqrt", "SigmaInv"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n(self) -> int:
        return self.F.shape[0]

    @property
    def m(self) -> int:
        return self.G.shape[1]

    @property
    def p(self) -> int:
        return self.C.shape[0]

    @property
    def joint_transition(self) -> np.ndarray:
        """The [x, e] transition [[F + G K, -G K], [0, F]] of the attacked steps."""
        GK = self.G @ self.K
        return np.block([[self.F + GK, -GK], [np.zeros((self.n, self.n)), self.F]])


def build_model(F, G, C, K, R1, R2) -> PlantModel:
    """Validate matrices, solve the filter Riccati equation, derive L and Sigma.

    R1 and R2 must pass the ellipsoid checks (NonSymmetric, NotPSD); a
    rank-deficient covariance is accepted.
    """
    F = np.asarray(F, dtype=float)
    if F.ndim != 2 or F.shape[0] != F.shape[1]:
        raise DimensionMismatch(f"F must be square, got {F.shape}")
    n = F.shape[0]
    G = np.asarray(G, dtype=float)
    if G.ndim != 2 or G.shape[0] != n:
        raise DimensionMismatch(f"G has shape {G.shape}, expected ({n}, m)")
    m = G.shape[1]
    C = np.asarray(C, dtype=float)
    if C.ndim != 2 or C.shape[1] != n:
        raise DimensionMismatch(f"C has shape {C.shape}, expected (p, {n})")
    p = C.shape[0]
    K = _as_matrix(K, m, n, "K")
    R1 = _as_matrix(R1, n, n, "R1")
    R2 = _as_matrix(R2, p, p, "R2")
    for name, R in (("R1", R1), ("R2", R2)):
        checked_shape(R, name=name)

    rho_f = spectral_radius(F)
    if rho_f >= 1.0:
        raise UnstableF(f"spectral radius of F is {rho_f:.4f} >= 1")
    rho_cl = spectral_radius(F + G @ K)
    if rho_cl >= 1.0:
        raise UnstableClosedLoop(f"spectral radius of F + G K is {rho_cl:.4f} >= 1")

    P, L, riccati_residual, riccati_iterations = _steady_state_kalman(F, C, R1, R2)
    rho_filt = spectral_radius(F - L @ C)
    if rho_filt >= 1.0:
        raise UnstableFilter(f"spectral radius of F - L C is {rho_filt:.4f} >= 1")

    Sigma = C @ P @ C.T + R2
    Sigma = (Sigma + Sigma.T) / 2.0
    eigmin = float(np.linalg.eigvalsh(Sigma)[0])
    if eigmin > 0.0:
        SigmaInv = np.linalg.inv(Sigma)
    else:
        SigmaInv = np.linalg.pinv(Sigma, hermitian=True)
    return PlantModel(
        F=F, G=G, C=C, K=K, R1=R1, R2=R2, L=L, P=P,
        Sigma=Sigma, SigmaSqrt=sym_sqrt(Sigma), SigmaInv=SigmaInv,
        diagnostics={
            "riccati_residual": riccati_residual,
            "riccati_iterations": riccati_iterations,
            "rho_F": rho_f,
            "rho_closed_loop": rho_cl,
            "rho_filter": rho_filt,
        },
    )


@dataclass(frozen=True)
class SimConfig:
    """Simulation run shape: horizon steps 1..N, an attack (when given) from step k*.

    A run is attack-free exactly when no attack spec is passed.  With a vbar
    the system-noise draws are rejection-sampled to v^T R1^-1 v <= vbar;
    vbar=None leaves them untruncated.
    """

    horizon: int
    attack_start: int = 1
    master_seed: int = 0
    trials: int = 1
    vbar: float | None = None

    def __post_init__(self):
        if self.horizon < 1:
            raise DimensionMismatch(f"horizon must be >= 1, got {self.horizon}")
        if self.trials < 1:
            raise DimensionMismatch(f"trials must be >= 1, got {self.trials}")
        if self.attack_start not in range(1, self.horizon + 1):
            raise DimensionMismatch(
                f"attack_start must be a step in [1, {self.horizon}], got {self.attack_start} "
                "(a run without an attack spec is attack-free)"
            )
        if self.vbar is not None and not self.vbar > 0.0:
            raise DimensionMismatch(f"vbar must be positive or None, got {self.vbar}")


def _draw_system_noise(rng, count, chol, vbar):
    """Standard-normal block mapped through a factor of R1, rejection-truncated in
    whitened coordinates, where the quadratic form v^T R1^+ v is the squared
    norm (at most it, when R1 is singular).  Each round redraws the rejected
    rows in ascending order and re-tests only those rows."""
    n = chol.shape[0]
    zed = rng.standard_normal((count, n))
    if vbar is not None:
        bad = np.flatnonzero(np.einsum("ij,ij->i", zed, zed) > vbar)
        while bad.size:
            redrawn = zed[bad] = rng.standard_normal((bad.size, n))
            bad = bad[np.einsum("ij,ij->i", redrawn, redrawn) > vbar]
    return zed @ chol.T


def _chol_or_zero(M):
    """A factor of the covariance M: Cholesky's if M is positive definite, else
    the symmetric square root (NotPSD if M is indefinite); None if M is zero."""
    if np.max(np.abs(M)) == 0.0:
        return None
    try:
        return np.linalg.cholesky(M)
    except np.linalg.LinAlgError:
        return sym_sqrt(M)


def _dot(a, M):
    """a @ M over the last axis of a whole array, the same arithmetic in every
    row whatever the row count (matmul picks its BLAS kernel by row count)."""
    return np.einsum("...i,ij->...j", a, M)


def draw_inputs(model: PlantModel, cfg: SimConfig, attack: AttackSpec | None = None,
                trials=None):
    """(vs, etas, dbar), each (len(trials), horizon, dim): system noise,
    measurement noise and attack draw (zero before k* and when attack-free)
    of the trial indices trials, by default range(cfg.trials): pull_inputs,
    then the attack transform once over the batch, in place.  Each trial's
    rows are the same in any batch."""
    vs, etas, dbar, raw_attack = pull_inputs(model, cfg, attack, trials)
    if raw_attack is not None:
        raw_attack.transform()
    return vs, etas, dbar


def pull_inputs(model: PlantModel, cfg: SimConfig, attack: AttackSpec | None = None,
                trials=None):
    """(vs, etas, dbar, raw_attack) of draw_inputs before the attack transform:
    dbar is zero, and raw_attack (None when attack-free) holds the attack
    uniforms and direction normals from k* on, its out a view of dbar.

    Trial t consumes the counter-based stream keyed by (master_seed, t):
    first the system-noise block (with rejection redraw rounds when
    truncated), then the measurement-noise block, then AttackDraws.pull."""
    n, p = model.n, model.p
    trials = range(cfg.trials) if trials is None else trials
    T, N = len(trials), cfg.horizon
    chol_r1 = _chol_or_zero(model.R1)
    chol_r2 = _chol_or_zero(model.R2)

    vs = np.zeros((T, N, n))
    etas = np.zeros((T, N, p))
    dbar = np.zeros((T, N, p))
    raw_attack = AttackDraws(attack, dbar[:, cfg.attack_start - 1:]) if attack is not None else None
    for i, t in enumerate(trials):
        rng = stream(cfg.master_seed, t)
        if chol_r1 is not None:
            vs[i] = _draw_system_noise(rng, N, chol_r1, cfg.vbar)
        if chol_r2 is not None:
            etas[i] = rng.standard_normal((N, p)) @ chol_r2.T
        if raw_attack is not None:
            raw_attack.pull(i, rng)
    return vs, etas, dbar, raw_attack


def _step_major(trials: int, horizon: int, dim: int):
    """Zeroed W (horizon, dim, lanes) for _advance and its (trials, horizon, dim) view."""
    W = np.zeros((horizon, dim, max(trials, 2)))
    return W, W[:, :, :trials].transpose(2, 0, 1)


def _advance(model: PlantModel, W, pre: int, start: int = 0):
    """Run one part's recursion in place on W from _step_major: for i = start ..
    horizon - 2, add A_i W[i] into W[i + 1], which held the input of step i + 1.
    A_i is the trailing dim x dim block ([x, e], or e alone) of x' = (F + G K) x - G K e
    with e' = (F - L C) e for i < pre (before k* the noise residual feeds back through -L)
    and e' = F e after (the attacker cancels it).  einsum loops along the contiguous lanes,
    so each lane sums in order over j; a lone lane would not, so _step_major pads it."""
    n, lo, post = model.n, 2 * model.n - W.shape[1], model.joint_transition
    pre_A = post.copy()
    pre_A[n:, n:] -= model.L @ model.C
    for i in range(start, W.shape[0] - 1):
        W[i + 1] += np.einsum("ij,jt->it", (pre_A if i < pre else post)[lo:, lo:], W[i])


def noise_part(model: PlantModel, vs, etas, kstar: int) -> np.ndarray:
    """[x_v, e_v] per step, (trials, horizon, 2n), from zero at step 1, driven by the
    noise: v enters both blocks, and -L eta the e-block before k* (horizon if attack-free)."""
    n, (T, N) = model.n, vs.shape[:2]
    pre = kstar - 1  # steps before k*
    W, S = _step_major(T, N, 2 * n)
    S[:, 1:, :n] = S[:, 1:, n:] = vs[:, :-1]
    S[:, 1:pre + 1, n:] = vs[:, :pre] - _dot(etas, model.L.T)[:, :pre]
    _advance(model, W, pre)
    return S


def noise_error(model: PlantModel, vs, etas) -> np.ndarray:
    """e_v of an attack-free run by the e-recursion alone: noise_part's e-block bit for bit.

    It stays for memory, as it propagates half of noise_part's state: on an
    n = 4 plant, a fresh verify reading noise_part instead peaked at 55.9 MB, not 49.0.
    """
    W, e_v = _step_major(*vs.shape)
    e_v[:, 1:] = vs[:, :-1] - _dot(etas, model.L.T)[:, :-1]
    _advance(model, W, vs.shape[1] - 1)
    return e_v


def attack_part(model: PlantModel, dbar, kstar: int) -> np.ndarray:
    """[x_delta, e_delta] per step, (trials, horizon, 2n), driven by
    -L SigmaSqrt dbar in the e-block; zero up to step k*, so its recursion
    starts after it."""
    W, S = _step_major(*dbar.shape[:2], 2 * model.n)
    S[:, kstar:, model.n:] = _dot(dbar, -(model.L @ model.SigmaSqrt).T)[:, kstar - 1:-1]
    _advance(model, W, 0, start=kstar)
    return S


def noise_residual(model: PlantModel, e_v, etas) -> np.ndarray:
    """Residual r = C e_v + eta of the steps before k* (every step when attack-free)."""
    return _dot(e_v, model.C.T) + etas


def attack_residual(model: PlantModel, dbar, kstar: int) -> np.ndarray:
    """Residual r = SigmaSqrt dbar of the attacked steps k* .. horizon."""
    return _dot(dbar, model.SigmaSqrt.T)[:, kstar - 1:]
