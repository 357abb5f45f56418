"""Stochastic LTI plant, steady-state Kalman filter, and closed-loop simulation.

The model is x' = F x + G u + v, y = C x + eta, with static estimate
feedback u = K xhat and a steady-state filter xhat' = F xhat + G u + L r.
Sensor attacks enter additively on the measurement; the simulator
propagates the noise/attack superposition split of the state and the
estimation error and derives the totals from it.
"""

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .attacks import AttackSpec, sample_delta_bar
from .csvout import write_csv
from .detector import distance
from .ellipsoids import sym_sqrt
from .errors import (
    DimensionMismatch,
    NoConvergence,
    NotDetectable,
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


def _pbh_detectable(F: np.ndarray, C: np.ndarray) -> bool:
    """PBH rank test on eigenvalues with modulus >= 1."""
    n = F.shape[0]
    for lam in np.linalg.eigvals(F):
        if abs(lam) >= 1.0 - 1e-10:
            test = np.vstack([lam * np.eye(n) - F, C.astype(complex)])
            if np.linalg.matrix_rank(test, tol=1e-10) < n:
                return False
    return True


class KalmanSolution(NamedTuple):
    P: np.ndarray
    L: np.ndarray
    residual: float
    iterations: int


def solve_steady_state_kalman(F, C, R1, R2, tol: float = 1e-12, max_iter: int = 100_000) -> KalmanSolution:
    """Steady-state predictor-form filter gain and error covariance.

    Iterates P <- F P F^T + R1 - F P C^T (C P C^T + R2)^+ C P F^T from
    P0 = R1 until the largest entry of the update is at most tol times the
    largest entry of P, so scaling the state by a constant does not move the
    stopping point; then L = F P C^T (C P C^T + R2)^+.  The final update size
    (absolute) is returned as a diagnostic residual.
    """
    F = np.asarray(F, dtype=float)
    n = F.shape[0]
    p = np.asarray(C).shape[0]
    C = _as_matrix(C, p, n, "C")
    R1 = _as_matrix(R1, n, n, "R1")
    R2 = _as_matrix(R2, p, p, "R2")
    if not _pbh_detectable(F, C):
        raise NotDetectable("(F, C) fails the PBH detectability test")

    P = (R1 + R1.T) / 2.0
    residual = np.inf
    for it in range(1, max_iter + 1):
        S = C @ P @ C.T + R2
        gain_term = F @ P @ C.T @ np.linalg.pinv(S, hermitian=True)
        P_next = F @ P @ F.T + R1 - gain_term @ C @ P @ F.T
        P_next = (P_next + P_next.T) / 2.0
        residual = float(np.max(np.abs(P_next - P)))
        P = P_next
        if residual <= tol * np.max(np.abs(P)):
            break
    else:
        raise NoConvergence(f"Riccati iteration residual {residual:.3e} after {max_iter} iterations")
    S = C @ P @ C.T + R2
    L = F @ P @ C.T @ np.linalg.pinv(S, hermitian=True)
    return KalmanSolution(P=P, L=L, residual=residual, iterations=it)


@dataclass(frozen=True)
class PlantModel:
    """Validated plant + filter + controller with derived covariances.

    Stability requirements: rho(F) < 1, rho(F + G K) < 1, rho(F - L C) < 1.
    Sigma is the steady-state residual covariance C P C^T + R2 from the
    Riccati fixed point (even when the observer gain is user-supplied;
    the gap to the optimal gain is reported in diagnostics, not an error).
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
    def closed_loop(self) -> np.ndarray:
        return self.F + self.G @ self.K


def build_model(F, G, C, K, R1, R2, L=None) -> PlantModel:
    """Validate matrices, solve the filter Riccati equation, derive Sigma.

    When L is omitted it is the optimal steady-state gain; a supplied L is
    used in the dynamics while P and Sigma still come from the Riccati
    fixed point (discrepancy reported as diagnostics['gain_gap']).
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

    rho_f = spectral_radius(F)
    if rho_f >= 1.0:
        raise UnstableF(f"spectral radius of F is {rho_f:.4f} >= 1")
    rho_cl = spectral_radius(F + G @ K)
    if rho_cl >= 1.0:
        raise UnstableClosedLoop(f"spectral radius of F + G K is {rho_cl:.4f} >= 1")

    sol = solve_steady_state_kalman(F, C, R1, R2)
    gain_gap = 0.0
    if L is None:
        L_used = sol.L
    else:
        L_used = _as_matrix(L, n, p, "L")
        gain_gap = float(np.max(np.abs(L_used - sol.L)))
    rho_filt = spectral_radius(F - L_used @ C)
    if rho_filt >= 1.0:
        raise UnstableFilter(f"spectral radius of F - L C is {rho_filt:.4f} >= 1")

    Sigma = C @ sol.P @ C.T + R2
    Sigma = (Sigma + Sigma.T) / 2.0
    eigmin = float(np.linalg.eigvalsh(Sigma)[0])
    if eigmin > 0.0:
        SigmaInv = np.linalg.inv(Sigma)
    else:
        SigmaInv = np.linalg.pinv(Sigma, hermitian=True)
    return PlantModel(
        F=F, G=G, C=C, K=K, R1=R1, R2=R2, L=L_used, P=sol.P,
        Sigma=Sigma, SigmaSqrt=sym_sqrt(Sigma), SigmaInv=SigmaInv,
        diagnostics={
            "riccati_residual": sol.residual,
            "riccati_iterations": sol.iterations,
            "gain_gap": gain_gap,
            "rho_F": rho_f,
            "rho_closed_loop": rho_cl,
            "rho_filter": rho_filt,
        },
    )


@dataclass(frozen=True)
class SimConfig:
    """Simulation run shape: horizon steps 1..N, attack from step k*.

    attack_start=None means attack-free.  With truncate_noise=True the
    system-noise draws are rejection-sampled to v^T R1^-1 v <= vbar.
    """

    horizon: int
    attack_start: int | None = None
    master_seed: int = 0
    trials: int = 1
    initial_state: np.ndarray | None = None
    truncate_noise: bool = False
    vbar: float | None = None

    def __post_init__(self):
        if self.horizon < 1:
            raise DimensionMismatch(f"horizon must be >= 1, got {self.horizon}")
        if self.trials < 1:
            raise DimensionMismatch(f"trials must be >= 1, got {self.trials}")
        if self.attack_start is not None and not 1 <= self.attack_start <= self.horizon:
            raise DimensionMismatch(
                f"attack_start must be in [1, {self.horizon}] or None, got {self.attack_start}"
            )
        if self.truncate_noise and (self.vbar is None or self.vbar <= 0.0):
            raise DimensionMismatch("truncate_noise=True requires a positive vbar")


@dataclass(frozen=True)
class SimTrace:
    """Per-step record of one batch of simulated trials.

    Arrays are (trials, horizon, dim) for vectors and (trials, horizon) for
    scalars; step index k runs 1..horizon.  The state and the estimation
    error are stored as their superposition split: x_v, e_v are driven by
    the initial state and the noise, x_delta, e_delta by the attack alone
    (exactly zero before k* and in attack-free runs).  The totals x = x_v +
    x_delta, e = e_v + e_delta and the estimate xhat = x - e are derived on
    access.  delta is zero before k*; delta_bar is the attack draw, zero
    before k*, or None when attack-free.
    """

    x_v: np.ndarray
    e_v: np.ndarray
    x_delta: np.ndarray
    e_delta: np.ndarray
    r: np.ndarray
    z: np.ndarray
    alarm: np.ndarray
    delta: np.ndarray
    delta_bar: np.ndarray | None
    attack_start: int | None
    alpha: float | None

    @property
    def x(self) -> np.ndarray:
        return self.x_v + self.x_delta

    @property
    def e(self) -> np.ndarray:
        return self.e_v + self.e_delta

    @property
    def xhat(self) -> np.ndarray:
        return self.x - self.e

    @property
    def trials(self) -> int:
        return self.x_v.shape[0]

    @property
    def horizon(self) -> int:
        return self.x_v.shape[1]

    def attacked_slice(self) -> slice:
        """Column slice of the attacked steps (empty when attack-free)."""
        if self.attack_start is None:
            return slice(self.horizon, self.horizon)
        return slice(self.attack_start - 1, self.horizon)

    def alarm_rate(self, attacked_only: bool = False) -> float:
        cols = self.attacked_slice() if attacked_only else slice(None)
        block = self.alarm[:, cols]
        return float(block.mean()) if block.size else 0.0

    def to_csv(self, path, metadata: dict | None = None) -> None:
        """Write rows trial,k,x*,e*,xv*,xd*,z,alarm,d* (metadata as # comments)."""
        T, N, n = self.x_v.shape
        p = self.r.shape[2]
        header = (["trial", "k"] + [f"{c}{i+1}" for c in ("x", "e", "xv", "xd") for i in range(n)]
                  + ["z", "alarm"] + [f"d{i+1}" for i in range(p)])
        trial, k = np.meshgrid(np.arange(T), np.arange(1, N + 1), indexing="ij")
        columns = (trial[..., None], k[..., None], self.x, self.e, self.x_v, self.x_delta,
                   self.z[..., None], self.alarm[..., None], self.delta)
        rows = np.concatenate(columns, axis=2).reshape(T * N, -1)
        fmt = ["%d", "%d"] + ["%.17g"] * (4 * n + 1) + ["%d"] + ["%.17g"] * p
        write_csv(path, metadata, header, rows, fmt)


def _draw_system_noise(rng, count, chol, vbar):
    """Standard-normal block mapped through chol(R1), rejection-truncated in
    whitened coordinates where the quadratic form is exactly the squared norm."""
    n = chol.shape[0]
    zed = rng.standard_normal((count, n))
    if vbar is not None:
        bad = np.einsum("ij,ij->i", zed, zed) > vbar
        while bad.any():
            zed[bad] = rng.standard_normal((int(bad.sum()), n))
            bad = np.einsum("ij,ij->i", zed, zed) > vbar
    return zed @ chol.T


def _chol_or_zero(M):
    if np.max(np.abs(M)) == 0.0:
        return None
    return np.linalg.cholesky(M)


def _dot(a, M):
    """a @ M over the last axis with the same arithmetic in every row,
    whatever the row count (matmul picks its BLAS kernel by row count)."""
    return np.einsum("...i,ij->...j", a, M)


def simulate(model: PlantModel, cfg: SimConfig, attack: AttackSpec | None = None,
             alpha: float | None = None) -> SimTrace:
    """Run cfg.trials closed-loop trajectories, attack injected from k*.

    Each trial consumes its own counter-based stream keyed by
    (master_seed, trial): first the system-noise block (with rejection
    redraw rounds when truncated), then the measurement-noise block, then
    the attack magnitude/direction block.  Every product is a per-row
    contraction, so output is bit-identical for a given (model, cfg, attack)
    regardless of how many trials share a batch.

    When an attack spec is given, the injected sensor attack is
    delta = -C e - eta + SigmaSqrt @ dbar with dbar drawn by
    sample_delta_bar, so from k* on the residual is r = SigmaSqrt @ dbar.
    The state is propagated as its noise part [x_v, e_v] and attack part
    [x_delta, e_delta], both through the cascade x' = (F + G K) x - G K e + v,
    e' = F e + v - L r.  The noise part takes v, and r = C e_v + eta
    before k* (r = 0 after); the attack part takes r = SigmaSqrt @ dbar.
    """
    n, p = model.n, model.p
    T, N = cfg.trials, cfg.horizon
    kstar = cfg.attack_start if attack is not None else None
    if attack is not None and cfg.attack_start is None:
        raise DimensionMismatch("attack spec given but cfg.attack_start is None")

    x0 = np.zeros(n) if cfg.initial_state is None else np.asarray(cfg.initial_state, dtype=float)
    if x0.shape != (n,):
        raise DimensionMismatch(f"initial_state has shape {x0.shape}, expected ({n},)")

    chol_r1 = _chol_or_zero(model.R1)
    chol_r2 = _chol_or_zero(model.R2)
    vbar = cfg.vbar if cfg.truncate_noise else None
    attacked = np.zeros(N, dtype=bool) if kstar is None else np.arange(1, N + 1) >= kstar

    vs = np.zeros((T, N, n))
    etas = np.zeros((T, N, p))
    dbar = np.zeros((T, N, p))
    for t in range(T):
        rng = stream(cfg.master_seed, t)
        if chol_r1 is not None:
            vs[t] = _draw_system_noise(rng, N, chol_r1, vbar)
        if chol_r2 is not None:
            etas[t] = rng.standard_normal((N, p)) @ chol_r2.T
        if kstar is not None:
            dbar[t, kstar - 1:] = sample_delta_bar(attack, p, rng, size=N - kstar + 1)

    # [x', e'] = [x, e, v, r] @ step_T for either part
    F, GK = model.F, model.G @ model.K
    step_T = np.block([
        [F + GK, -GK, np.eye(n), np.zeros((n, p))],
        [np.zeros((n, n)), F, np.eye(n), -model.L],
    ]).T
    C_T = model.C.T

    # per trial, row 0 is the noise part and row 1 the attack part (its v stays 0)
    buf = np.zeros((T, 2, 3 * n + p))
    buf[:, 0, :n] = x0
    state, v, res = buf[..., :2 * n], buf[:, 0, 2 * n:3 * n], buf[..., 3 * n:]
    split = np.empty((T, N, 2, 2 * n))
    r_attack = _dot(dbar, model.SigmaSqrt.T)
    r = np.empty((T, N, p))
    for i in range(N):
        split[:, i] = state
        v[...] = vs[:, i]
        res[:, 0] = 0.0 if attacked[i] else _dot(state[:, 0, n:], C_T) + etas[:, i]
        res[:, 1] = r_attack[:, i]
        r[:, i] = res[:, 0] + res[:, 1]
        state[...] = _dot(buf, step_T)

    e_v, e_delta = split[..., 0, n:], split[..., 1, n:]
    delta = np.where(attacked[:, None], r - _dot(e_v + e_delta, C_T) - etas, 0.0)
    z = distance(r, model.SigmaInv)
    return SimTrace(
        x_v=split[..., 0, :n], e_v=e_v, x_delta=split[..., 1, :n], e_delta=e_delta,
        r=r, z=z, alarm=z > alpha if alpha is not None else np.zeros((T, N), dtype=bool),
        delta=delta, delta_bar=dbar if kstar is not None else None,
        attack_start=kstar, alpha=alpha,
    )
