"""Convex-optimization outer bounds from the invariant-ellipsoid LMI.

For a stable recursion xi' = A xi + B mu with input constraint
mu^T R mu <= 1 and a decay scalar a in (0,1), any P > 0 satisfying the
block matrix inequality

    [[ a P - A^T P A ,  -A^T P B          ]
     [ -B^T P A      ,  (1-a) R - B^T P B ]]  >= 0

certifies the invariant ellipsoid { xi : xi^T P xi <= 1 }.  Minimizing
-log det P over that cone gives the minimum-volume certificate for the
given a; a one-dimensional search picks a.

At fixed a a Schur complement turns the inequality into
Q >= A Q A^T / a + W0 / (1-a) with Q = P^-1 and W0 = B R^-1 B^T.  For
a > rho(A)^2 the discrete Lyapunov equation with equality has a unique
solution, and every feasible Q dominates it in the Loewner order, so it
has the smallest log det Q (Boyd, El Ghaoui, Feron and Balakrishnan, LMIs
in System and Control Theory, SIAM 1994).  It is one linear solve in vec Q.

The search needs no grid.  The solution is sum_k c_k(a) T_k with
T_k = A^k W0 (A^T)^k and log-convex weights c_k = a^-k / (1-a), and
det(sum_k x_k T_k) is a polynomial in x with nonnegative coefficients
(mixed discriminants), so log det Q(a) is convex on (rho(A)^2, 1) and its
minimum is found by bisecting the sign of the slope tr(Q^-1 Q').  The sign
places a* to the bisection width; comparing values of log det Q would
resolve it only to the square root of machine epsilon.

Every solution carries its certificate: the minimum eigenvalue of the
block matrix after the congruence diag(Q^1/2, R^-1/2), which does not
change with the units of the state or the input.
"""

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

# A certificate whose unit-free block matrix has a smaller minimum
# eigenvalue than -LMI_CERT_TOL is rejected.
LMI_CERT_TOL = 1e-7
# Eigenvalues of Q below _Q_PD_RTOL * ||Q|| are round-off, not reach.
_Q_PD_RTOL = 1e-12
# The decay-scalar bisection stops at this bracket width; the bracket
# (rho(A)^2, 1) is at most 1 wide, so it takes at most 40 halvings.
A_BRACKET_TOL = 1e-12


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


def _solve_sym(lhs: np.ndarray, W: np.ndarray) -> np.ndarray:
    X = np.linalg.solve(lhs, W.reshape(-1)).reshape(W.shape)
    return (X + X.T) / 2.0


def logdet_slope(A: np.ndarray, W0: np.ndarray, a: float) -> tuple[np.ndarray, float]:
    """The Lyapunov fixed point Q(a) and d log det Q / da = tr(Q^-1 Q').

    Q' solves Q' = A Q' A^T / a + W0 / (1-a)^2 - A Q A^T / a^2, with the
    same matrix I - A (x) A / a acting on vec Q'.  Raises Infeasible unless
    Q is positive definite.
    """
    n = A.shape[0]
    lhs = np.eye(n * n) - np.kron(A, A) / a
    Q = _solve_sym(lhs, W0 / (1.0 - a))
    if np.linalg.eigvalsh(Q)[0] <= _Q_PD_RTOL * np.linalg.norm(Q):
        raise Infeasible(f"Lyapunov solution is not positive definite at a={a:.4f}")
    dQ = _solve_sym(lhs, W0 / (1.0 - a) ** 2 - A @ Q @ A.T / (a * a))
    return Q, float(np.trace(np.linalg.solve(Q, dQ)))


def _certificate_min_eig(Q: np.ndarray, prob: LmiProblem) -> float:
    """Minimum eigenvalue of the block matrix at P = Q^-1 after the
    congruence diag(Q^1/2, R^-1/2).

    The congruent block is diag(a I, (1-a) I) - M^T M with
    M = [Q^-1/2 A Q^1/2, Q^-1/2 B R^-1/2].  It does not change when the
    state or the input changes units, so LMI_CERT_TOL is a tolerance
    relative to the block's natural scale, whatever the units.
    """
    A, B, a = prob.A, prob.B, prob.a
    w, V = np.linalg.eigh(Q)
    wr, U = np.linalg.eigh(prob.R)
    Q_inv_half = (V / np.sqrt(w)) @ V.T
    M = np.hstack([Q_inv_half @ A @ (V * np.sqrt(w)) @ V.T,
                   Q_inv_half @ B @ (U / np.sqrt(wr)) @ U.T])
    n, q = B.shape
    block = np.diag(np.r_[np.full(n, a), np.full(q, 1.0 - a)]) - M.T @ M
    return float(np.linalg.eigvalsh((block + block.T) / 2.0)[0])


def solve_logdet_sdp(prob: LmiProblem) -> tuple[np.ndarray, dict]:
    """Minimize -log det P over the block-LMI cone at fixed a.

    Returns (P, diagnostics) with P the inverse of the Lyapunov fixed point
    Q; diagnostics carry the unit-free certificate lmi_min_eig, the
    relative Lyapunov residual ||Q - A Q A^T/a - W|| / ||Q||, the slope
    d log det Q / da and a.  Raises Infeasible when a <= rho(A)^2 (no P > 0
    can satisfy the top-left block), when Q is not positive definite (the
    input cannot reach every direction, so no bounded P exists) or when the
    certificate misses LMI_CERT_TOL.
    """
    A, B, a = prob.A, prob.B, prob.a
    rho2 = spectral_radius(A) ** 2
    if a <= rho2 + 1e-12:
        raise Infeasible(f"a={a:.4f} <= rho(A)^2={rho2:.4f}")
    W0 = B @ np.linalg.solve(prob.R, B.T)
    Q, slope = logdet_slope(A, W0, a)
    P = np.linalg.inv(Q)
    P = (P + P.T) / 2.0
    min_eig = _certificate_min_eig(Q, prob)
    if min_eig < -LMI_CERT_TOL:
        raise Infeasible(f"certificate min eig {min_eig:.2e} < -{LMI_CERT_TOL:g} at a={a:.4f}")
    residual = float(np.linalg.norm(Q - A @ Q @ A.T / a - W0 / (1.0 - a)) / np.linalg.norm(Q))
    return P, {"lmi_min_eig": min_eig, "lyapunov_residual": residual,
               "logdet_slope": slope, "a": a}


def min_volume_over_a(A, B, R, target: str = "bound") -> ReachBound:
    """The minimum-volume certificate over the decay scalar a.

    Bisects the sign of d log det Q / da on (rho(A)^2, 1) down to
    A_BRACKET_TOL, then solves once at the bracket midpoint a*.  Raises
    AllInfeasible when rho(A) >= 1 or when the input does not reach every
    direction.  The bound's diagnostics are those of the solve at a* plus
    a_evaluations, the number of decay scalars solved.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    R = np.asarray(R, dtype=float)
    W0 = B @ np.linalg.solve(R, B.T)
    lo, hi = spectral_radius(A) ** 2 + 1e-12, 1.0
    if lo >= hi:
        raise AllInfeasible(f"rho(A)^2={lo:.6f} leaves no decay scalar in (0,1)")
    evaluations = 1
    while hi - lo > A_BRACKET_TOL:
        mid = (lo + hi) / 2.0
        evaluations += 1
        try:
            rising = logdet_slope(A, W0, mid)[1] > 0.0
        except Infeasible:  # round-off near rho(A)^2, where Q(a) blows up
            rising = False
        lo, hi = (lo, mid) if rising else (mid, hi)
    a_star = (lo + hi) / 2.0
    try:
        Q, _ = logdet_slope(A, W0, a_star)  # the fixed point the solve inverts
        _, diag = solve_logdet_sdp(LmiProblem(A, B, R, a_star))
    except Infeasible as exc:
        raise AllInfeasible(f"no feasible decay scalar: {exc}") from None
    E = Ellipsoid(Q)
    return ReachBound(shape=E, method=METHOD_LMI, target=target, volume=E.volume,
                      a_star=a_star, diagnostics={**diag, "a_evaluations": evaluations})


def reach_bounds_lmi(model: PlantModel, alpha: float, vbar: float):
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
    noise = min_volume_over_a(model.F, np.eye(n), np.linalg.inv(model.R1) / vbar,
                              target=TARGET_NOISE)
    att_err = min_volume_over_a(model.F, -model.L @ model.SigmaSqrt, np.eye(p) / alpha,
                                target=TARGET_ATTACK_ERROR)
    att_state = min_volume_over_a(model.closed_loop, -model.G @ model.K, att_err.quad_matrix,
                                  target=TARGET_ATTACK_STATE)
    return noise, att_err, att_state, total_state_bound(noise, att_state, METHOD_LMI)
