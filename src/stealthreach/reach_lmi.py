"""Convex-optimization outer bounds from the invariant-ellipsoid LMI.

For a stable recursion xi' = A xi + B mu with input constraint
mu^T R mu <= 1 and a decay scalar a in (0,1), any P > 0 satisfying the
block matrix inequality

    [[ a P - A^T P A ,  -A^T P B          ]
     [ -B^T P A      ,  (1-a) R - B^T P B ]]  >= 0

certifies the invariant ellipsoid { xi : xi^T P xi <= 1 }.  Minimizing
-log det P over that cone gives the minimum-volume certificate for the
given a; a one-dimensional outer search picks a.

At fixed a the minimization has a closed form.  The block inequality reads
diag(a P, (1-a) R) - [A B]^T P [A B] >= 0, and a Schur complement turns it
into Q >= A Q A^T / a + W with Q = P^-1 and W = B R^-1 B^T / (1-a).  For
a > rho(A)^2 the discrete Lyapunov equation Q = A Q A^T / a + W has a
unique solution, sum_k A^k W (A^T)^k / a^k, and every feasible
Q dominates it in the Loewner order, so it has the smallest log det Q and
P = Q^-1 the largest log det P (Boyd, El Ghaoui, Feron and Balakrishnan,
LMIs in System and Control Theory, SIAM 1994).  The equation is solved as
one linear system in vec Q.  Every solution is returned with its
block-matrix minimum eigenvalue, re-verified against LMI_CERT_TOL, so
callers can check feasibility independently.
"""

import math
from dataclasses import dataclass

import numpy as np

from .ellipsoids import Ellipsoid
from .errors import AllInfeasible, DimensionMismatch, Infeasible
from .plant import PlantModel, spectral_radius
from .reach_common import (
    METHOD_LMI,
    TARGET_ATTACK_ERROR,
    TARGET_ATTACK_STATE,
    TARGET_NOISE,
    ReachBound,
    total_state_bound,
)

# A certificate whose block matrix has a smaller minimum eigenvalue than
# -LMI_CERT_TOL is rejected.
LMI_CERT_TOL = 1e-7
# Eigenvalues of Q below _Q_PD_RTOL * ||Q|| are round-off, not reach.
_Q_PD_RTOL = 1e-12


@dataclass(frozen=True)
class LmiProblem:
    """One instance of the block-LMI volume minimization."""

    A: np.ndarray
    B: np.ndarray
    R: np.ndarray
    a: float

    def __post_init__(self):
        A = np.asarray(self.A, dtype=float)
        B = np.asarray(self.B, dtype=float)
        R = np.asarray(self.R, dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise DimensionMismatch(f"A must be square, got {A.shape}")
        if B.ndim != 2 or B.shape[0] != A.shape[0]:
            raise DimensionMismatch(f"B has shape {B.shape}, expected ({A.shape[0]}, q)")
        if R.shape != (B.shape[1], B.shape[1]):
            raise DimensionMismatch(f"R has shape {R.shape}, expected ({B.shape[1]}, {B.shape[1]})")
        if not 0.0 < self.a < 1.0:
            raise DimensionMismatch(f"decay scalar a must be in (0,1), got {self.a}")
        for name, arr in (("A", A), ("B", B), ("R", R)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def block_matrix(P: np.ndarray, prob: LmiProblem) -> np.ndarray:
    A, B, R, a = prob.A, prob.B, prob.R, prob.a
    top = a * P - A.T @ P @ A
    off = -A.T @ P @ B
    bot = (1.0 - a) * R - B.T @ P @ B
    M = np.block([[top, off], [off.T, bot]])
    return (M + M.T) / 2.0


def solve_logdet_sdp(prob: LmiProblem) -> tuple[np.ndarray, dict]:
    """Minimize -log det P over the block-LMI cone at fixed a.

    Returns (P, diagnostics) with P the inverse of the Lyapunov fixed point
    Q; diagnostics carry the re-verified block minimum eigenvalue, the
    relative Lyapunov residual ||Q - A Q A^T/a - W|| / ||Q|| and a.  Raises
    Infeasible when a <= rho(A)^2 (no P > 0 can satisfy the top-left block),
    when Q is not positive definite (the input cannot reach every direction,
    so no bounded P exists) or when the certificate misses LMI_CERT_TOL.
    """
    A, B, a = prob.A, prob.B, prob.a
    rho2 = spectral_radius(A) ** 2
    if a <= rho2 + 1e-12:
        raise Infeasible(f"a={a:.4f} <= rho(A)^2={rho2:.4f}")
    n = A.shape[0]
    W = B @ np.linalg.solve(prob.R, B.T) / (1.0 - a)
    lhs = np.eye(n * n) - np.kron(A, A) / a
    Q = np.linalg.solve(lhs, W.reshape(-1)).reshape(n, n)
    Q = (Q + Q.T) / 2.0
    q_norm = float(np.linalg.norm(Q))
    if np.linalg.eigvalsh(Q)[0] <= _Q_PD_RTOL * q_norm:
        raise Infeasible(f"Lyapunov solution is not positive definite at a={a:.4f}")
    P = np.linalg.inv(Q)
    P = (P + P.T) / 2.0
    min_eig = float(np.linalg.eigvalsh(block_matrix(P, prob))[0])
    if min_eig < -LMI_CERT_TOL:
        raise Infeasible(f"certificate min eig {min_eig:.2e} < -{LMI_CERT_TOL:g} at a={a:.4f}")
    residual = float(np.linalg.norm(Q - A @ Q @ A.T / a - W)) / q_norm
    return P, {"lmi_min_eig": min_eig, "lyapunov_residual": residual, "a": a}


def _neg_logdet(P: np.ndarray) -> float:
    sign, ld = np.linalg.slogdet(P)
    return -ld if sign > 0 else math.inf


def min_volume_over_a(A, B, R, target: str = "bound",
                      grid_step: float = 0.02, refine_reltol: float = 1e-8) -> ReachBound:
    """Outer search over the decay scalar: coarse grid then golden refinement.

    Grid points below rho(A)^2 are infeasible by construction and skipped
    silently; AllInfeasible is raised when nothing on the grid works.  The
    bound's diagnostics add a_evaluations, the number of decay scalars
    solved (feasible or not), to those of the solve at a*.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    R = np.asarray(R, dtype=float)

    cache: dict[float, tuple[np.ndarray, dict] | None] = {}

    def solve_at(a: float):
        key = round(a, 12)
        if key not in cache:
            try:
                cache[key] = solve_logdet_sdp(LmiProblem(A, B, R, a))
            except Infeasible:
                cache[key] = None
        return cache[key]

    best_a, best_obj = None, math.inf
    grid = np.arange(grid_step, 1.0, grid_step)
    for a in grid:
        out = solve_at(float(a))
        if out is None:
            continue
        obj = _neg_logdet(out[0])
        if obj < best_obj:
            best_a, best_obj = float(a), obj
    if best_a is None:
        raise AllInfeasible("no feasible decay scalar on the grid")

    lo = max(best_a - grid_step, 1e-6)
    hi = min(best_a + grid_step, 1.0 - 1e-9)

    def objective(a: float) -> float:
        out = solve_at(a)
        return math.inf if out is None else _neg_logdet(out[0])

    gr = (math.sqrt(5.0) - 1.0) / 2.0
    c = hi - gr * (hi - lo)
    d = lo + gr * (hi - lo)
    fc, fd = objective(c), objective(d)
    while (hi - lo) > refine_reltol * max(best_a, 1e-6):
        if fc < fd:
            hi, d, fd = d, c, fc
            c = hi - gr * (hi - lo)
            fc = objective(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + gr * (hi - lo)
            fd = objective(d)
    candidates = [(objective(a), a) for a in (best_a, c, d) if math.isfinite(objective(a))]
    _, a_star = min(candidates)
    P, diag = solve_at(a_star)
    E = Ellipsoid(np.linalg.inv(P))
    return ReachBound(
        shape=E, method=METHOD_LMI, target=target, volume=E.volume,
        a_star=a_star, diagnostics={**diag, "a_evaluations": len(cache)},
    )


def reach_bounds_lmi(model: PlantModel, alpha: float, vbar: float,
                     grid_step: float = 0.02):
    """The three invariant-ellipsoid bounds plus the total-state combination.

    Instances: (noise) A=F, B=I, R=R1^-1/vbar; (attack error) A=F,
    B=-L SigmaSqrt, R=I/alpha; (attack state) A=F+GK, B=-GK, with the
    attack-error solution as the input-constraint matrix.

    The noise and attack-error shapes are the geometric series
    sum_k T_k / ((1-a*) a*^k), one member of the weighted Minkowski family
    the geometric method minimizes over, so the geometric volume is at most
    the LMI volume by construction.  The attack-state LMI is a cascade
    through the attack-error ellipsoid rather than a weighting of the
    attack-state terms, so its ordering against the geometric bound is not
    structural.
    """
    n, p = model.n, model.p
    noise = min_volume_over_a(
        model.F, np.eye(n), np.linalg.inv(model.R1) / vbar,
        target=TARGET_NOISE, grid_step=grid_step,
    )
    att_err = min_volume_over_a(
        model.F, -model.L @ model.SigmaSqrt, np.eye(p) / alpha,
        target=TARGET_ATTACK_ERROR, grid_step=grid_step,
    )
    att_state = min_volume_over_a(
        model.closed_loop, -model.G @ model.K, att_err.quad_matrix,
        target=TARGET_ATTACK_STATE, grid_step=grid_step,
    )
    total = total_state_bound_lmi(noise, att_state)
    return noise, att_err, att_state, total


def total_state_bound_lmi(noise_bound: ReachBound, attack_bound: ReachBound) -> ReachBound:
    return total_state_bound(noise_bound, attack_bound, METHOD_LMI)
