"""Convex-optimization outer bounds from the invariant-ellipsoid LMI.

Each reach target is a stable recursion xi' = A xi + B mu, observed as
y = C xi, whose input lies in an ellipsoid of shape S, mu = S^1/2 nu with
|nu| <= 1: the (A, B, S, C) of reach_geom.reach_targets, whose per-step
terms C A^k B S B^T A^k^T C^T the geometric method sums.  For a decay
scalar a in (0,1), any P > 0 with

    [[ a P - A^T P A          ,  -A^T P B S^1/2                 ]
     [ -S^1/2 B^T P A         ,  (1-a) I - S^1/2 B^T P B S^1/2 ]]  >= 0

certifies the invariant ellipsoid { xi : xi^T P xi <= 1 }, and its image
under C, of shape C P^-1 C^T, holds every reachable y.  S may be
singular, as long as the input reaches every state direction through A.

At fixed a a Schur complement turns the inequality into
Q >= A Q A^T / a + W0 / (1-a) with Q = P^-1 and W0 = B S B^T.  For
a > rho(A)^2 the discrete Lyapunov equation with equality has a unique
solution, which every feasible Q dominates in the Loewner order, so it
has the smallest log det C Q C^T (Boyd, El Ghaoui, Feron and Balakrishnan,
LMIs in System and Control Theory, SIAM 1994): one linear solve in vec Q.

The projection is C Q(a) C^T = sum_k C T_k C^T a^-k / (1-a) with
T_k = A^k W0 A^k^T, the member of the geometric method's weighted
Minkowski family with weights (1-a) a^k.  Its log-convex weights and
det(sum_k x_k C T_k C^T), a polynomial with nonnegative coefficients
(mixed discriminants), make log det C Q(a) C^T convex on (rho(A)^2, 1),
so its slope tr(Q_y^-1 Q_y') with Q_y = C Q C^T rises through zero once,
at a*.  A bracketed secant on the slope finds that zero to the bracket
width; comparing values of log det would resolve it only to the square
root of machine epsilon.

Every solution carries its certificate: the minimum eigenvalue of the
block matrix at the full P = Q^-1 after the congruence diag(Q^1/2, I),
which does not change with the units of the state or the input.
"""

import math

import numpy as np

from .ellipsoids import Ellipsoid, sym_sqrt
from .errors import AllInfeasible, DimensionMismatch, Infeasible
from .plant import PlantModel, spectral_radius
from .reach_common import METHOD_LMI, TARGET_TOTAL_STATE, ReachBound
from .reach_geom import fit_bound, reach_targets

# A certificate whose unit-free block matrix has a smaller minimum
# eigenvalue than -LMI_CERT_TOL is rejected.
LMI_CERT_TOL = 1e-7
# Eigenvalues of Q below _Q_PD_RTOL * ||Q|| are round-off, not reach.
_Q_PD_RTOL = 1e-12
# The decay-scalar search stops at this bracket width; the bracket
# (rho(A)^2, 1) is at most 1 wide, and the search takes at most as many
# steps as bisection would, 40.
A_BRACKET_TOL = 1e-12


def _checked(A, B, S, C=None) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(A, B, S, W0 = B S B^T) as float arrays, with their shapes and C's checked."""
    A, B, S = (np.asarray(M, dtype=float) for M in (A, B, S))
    if (B.ndim != 2 or A.shape != (B.shape[0],) * 2 or S.shape != (B.shape[1],) * 2
            or (C is not None and (np.ndim(C) != 2 or np.shape(C)[1] != A.shape[0]))):
        raise DimensionMismatch(f"A {A.shape}, B {B.shape}, S {S.shape} and C "
                                f"{None if C is None else np.shape(C)} do not chain")
    W0 = B @ S @ B.T
    return A, B, S, (W0 + W0.T) / 2.0


def _solve_sym(lhs: np.ndarray, W: np.ndarray) -> np.ndarray:
    X = np.linalg.solve(lhs, W.reshape(-1)).reshape(W.shape)
    return (X + X.T) / 2.0


def _project(C, Q: np.ndarray) -> np.ndarray:
    return Q if C is None else C @ Q @ C.T


def logdet_slope(A: np.ndarray, W0: np.ndarray, a: float, C=None) -> tuple[np.ndarray, float]:
    """The Lyapunov fixed point Q(a) and d log det C Q C^T / da.

    Q' solves Q' = A Q' A^T / a + W0 / (1-a)^2 - A Q A^T / a^2, with the
    same matrix I - A (x) A / a acting on vec Q', and the slope is
    tr((C Q C^T)^-1 C Q' C^T) (C = I if None).  Raises Infeasible unless
    Q is positive definite.
    """
    n = A.shape[0]
    # A (x) A by one broadcast: entry (i n + j, k n + l) is A[i, k] A[j, l], as np.kron gives
    lhs = np.eye(n * n) - (A[:, None, :, None] * A[None, :, None, :]).reshape(n * n, n * n) / a
    Q = _solve_sym(lhs, W0 / (1.0 - a))
    if np.linalg.eigvalsh(Q)[0] <= _Q_PD_RTOL * np.linalg.norm(Q):
        raise Infeasible(f"Lyapunov solution is not positive definite at a={a:.4f}")
    dQ = _solve_sym(lhs, W0 / (1.0 - a) ** 2 - A @ Q @ A.T / (a * a))
    return Q, float(np.trace(np.linalg.solve(_project(C, Q), _project(C, dQ))))


def _certificate_min_eig(Q: np.ndarray, A: np.ndarray, BS_half: np.ndarray, a: float) -> float:
    """Minimum eigenvalue of the block matrix at P = Q^-1 after the
    congruence diag(Q^1/2, I).

    The congruent block is diag(a I, (1-a) I) - M^T M with
    M = [Q^-1/2 A Q^1/2, Q^-1/2 B S^1/2].  It does not change when the
    state or the input changes units, so LMI_CERT_TOL is a tolerance
    relative to the block's natural scale, whatever the units.
    """
    w, V = np.linalg.eigh(Q)
    Q_inv_half = (V / np.sqrt(w)) @ V.T
    M = np.hstack([Q_inv_half @ A @ (V * np.sqrt(w)) @ V.T, Q_inv_half @ BS_half])
    n, q = BS_half.shape
    block = np.diag(np.r_[np.full(n, a), np.full(q, 1.0 - a)]) - M.T @ M
    return float(np.linalg.eigvalsh((block + block.T) / 2.0)[0])


def solve_logdet_sdp(A, B, S, a: float, C=None) -> tuple[np.ndarray, dict]:
    """Minimize -log det P over the block-LMI cone at fixed a.

    Returns (C Q C^T, diagnostics) with Q = P^-1 the Lyapunov fixed point
    (C = I if None); diagnostics carry the unit-free certificate
    lmi_min_eig of P, the relative Lyapunov residual
    ||Q - A Q A^T/a - W0/(1-a)|| / ||Q|| and the slope d log det C Q C^T / da.
    Raises Infeasible when a is not in
    (rho(A)^2, 1) (no P > 0 can satisfy the top-left block, and the vec Q
    system is singular at a = rho(A)^2), when Q is not positive definite
    (the input cannot reach every direction, so no bounded P exists) or
    when the certificate misses LMI_CERT_TOL.
    """
    A, B, S, W0 = _checked(A, B, S, C)
    rho2 = spectral_radius(A) ** 2
    if not rho2 + 1e-12 < a < 1.0:
        raise Infeasible(f"a={a:.4f} outside (rho(A)^2, 1) = ({rho2:.4f}, 1)")
    Q, slope = logdet_slope(A, W0, a, C)
    min_eig = _certificate_min_eig(Q, A, B @ sym_sqrt(S), a)
    if min_eig < -LMI_CERT_TOL:
        raise Infeasible(f"certificate min eig {min_eig:.2e} < -{LMI_CERT_TOL:g} at a={a:.4f}")
    residual = float(np.linalg.norm(Q - A @ Q @ A.T / a - W0 / (1.0 - a)) / np.linalg.norm(Q))
    return _project(C, Q), {"lmi_min_eig": min_eig, "lyapunov_residual": residual,
                            "logdet_slope": slope}


def min_volume_over_a(A, B, S, C=None, target: str = "bound") -> ReachBound:
    """The minimum-volume certificate of C xi over the decay scalar a.

    Narrows a bracket on (rho(A)^2, 1) around the zero of the slope
    d log det C Q C^T / da down to A_BRACKET_TOL, then solves once at the
    bracket midpoint a*, so each decay scalar costs one Lyapunov pair.
    Each step is the secant point of the slopes at the two ends, with the
    Illinois rule (Dowell and Jarratt, BIT 1971: halve the stored slope of
    an end kept twice), moved toward the midpoint by (hi - lo)^2 so that
    both ends close in, and kept within the bracket that bisection would
    leave, as in the ITP method (Oliveira and Takahashi, ACM TOMS 2020);
    so the search never takes more steps than bisection.  An end whose slope is unknown (not
    evaluated, or Infeasible, which means below a*) gives the midpoint.
    Raises AllInfeasible when rho(A) >= 1 or when the input does not reach
    every direction.  The bound's diagnostics are those of the solve at a*
    plus a_evaluations, the number of decay scalars solved.
    """
    A, B, S, W0 = _checked(A, B, S, C)
    lo, hi = spectral_radius(A) ** 2 + 1e-12, 1.0
    if lo >= hi:
        raise AllInfeasible(f"rho(A)^2={lo:.6f} leaves no decay scalar in (0,1)")
    slope_lo = slope_hi = None  # None: not evaluated, or Infeasible
    moved = 0  # the end the last step moved: -1 lo, +1 hi
    evaluations = 1
    while hi - lo > A_BRACKET_TOL:
        a = (lo + hi) / 2.0
        if slope_lo is not None and slope_hi is not None:
            secant = lo + (hi - lo) * slope_lo / (slope_lo - slope_hi)
            if lo < secant < hi:
                # nudged toward the midpoint, then kept within reach of it:
                # bisection of a 1-wide bracket leaves 0.5**evaluations
                step = secant + math.copysign(min((hi - lo) ** 2, abs(a - secant)), a - secant)
                reach = 0.5 ** evaluations - (hi - lo) / 2.0
                a = min(max(step, a - reach), a + reach)
        evaluations += 1
        try:
            slope = logdet_slope(A, W0, a, C)[1]
        except Infeasible:  # round-off near rho(A)^2, where Q(a) blows up
            slope = None
        if slope is not None and slope > 0.0:
            hi, slope_hi = a, slope
            if moved == 1 and slope_lo is not None:  # Illinois: lo kept twice
                slope_lo /= 2.0
            moved = 1
        else:
            lo, slope_lo = a, slope
            if moved == -1 and slope_hi is not None:  # Illinois: hi kept twice
                slope_hi /= 2.0
            moved = -1
    a_star = (lo + hi) / 2.0
    try:
        Q, diag = solve_logdet_sdp(A, B, S, a_star, C)
    except Infeasible as exc:
        raise AllInfeasible(f"no feasible decay scalar: {exc}") from None
    return ReachBound(shape=Ellipsoid(Q), method=METHOD_LMI, target=target,
                      a_star=a_star, diagnostics={**diag, "a_evaluations": evaluations})


def reach_bounds_lmi(model: PlantModel, alpha: float, vbar: float):
    """The three invariant-ellipsoid bounds plus the total-state bound, the
    fit_bound pair sum of the noise and attack-state shapes.

    Each target reads the geometric method's (A, B, S, C), so each LMI
    shape weights the terms C T_k C^T that the geometric method truncates
    and fits with minimum-volume weights, and the geometric volume is at
    most the LMI volume by construction.  The pair sum's weights theta and
    1 - theta scale the two rows' weights (1 - a) a^k, so the LMI total is
    a member of the geometric total's family as well.
    """
    noise, att_err, att_state = (
        min_volume_over_a(*inputs, target=target)
        for target, inputs in reach_targets(model, alpha, vbar).items())
    total = fit_bound([noise.shape.Q, att_state.shape.Q], TARGET_TOTAL_STATE, METHOD_LMI,
                      {"from": [noise.target, att_state.target]})
    return noise, att_err, att_state, total
