"""Geometric (Minkowski-sum) outer bounds on the attack/noise reachable sets.

Every reach target is a driven recursion xi' = A xi + B mu, observed as
y = C xi (C = None observes all of xi), whose input lies in the ellipsoid
of shape S.  reach_targets is the one table of (A, B, S, C) that both bound
methods read:

    noise         (F, I, vbar R1, None)
    attack error  (F, L, alpha Sigma, None)
    attack state  ([[F + G K, -G K], [0, F]], [0; L], alpha Sigma, [I 0])

The attack state is the x block of the joint [x, e] recursion.  From zero
the recursion unrolls into a sum of independent per-step ellipsoids
E(C A^k B S B^T A^k^T C^T), which series_terms yields.  truncated_terms
stops the series at the first term, after the first dim(A), whose size
tr(R^+ T_k) against the sum R of those first terms is below TAIL_TOL, a
test that no change of units moves, and fit_bound fits one ellipsoid
around the finite Minkowski sum with minkowski_sum_many and reports the
stationarity gap of the fitted weights.

The total state x = x_v + x_delta sums the noise and attack-state rows, so
its bound is one fit over both rows' terms.  A pair sum of two fitted
bounds, the LMI total included, is a member of its weighted family.
"""

from collections.abc import Iterator
from itertools import islice

import numpy as np

from .ellipsoids import minkowski_sum_many, stationarity_gap
from .errors import MaxTermsExceeded, UnstableF
from .plant import PlantModel, spectral_radius
from .reach_common import (
    METHOD_GEOMETRIC,
    TARGET_ATTACK_ERROR,
    TARGET_ATTACK_STATE,
    TARGET_NOISE,
    TARGET_TOTAL_STATE,
    ReachBound,
)


# truncated_terms' tail test and its cap on the number of terms
TAIL_TOL = 1e-13
MAX_TERMS = 500


def reach_targets(model: PlantModel, alpha: float, vbar: float) -> dict[str, tuple]:
    """{target: (A, B, S, C)} of the three reach targets."""
    n = model.n
    return {
        TARGET_NOISE: (model.F, np.eye(n), vbar * model.R1, None),
        TARGET_ATTACK_ERROR: (model.F, model.L, alpha * model.Sigma, None),
        TARGET_ATTACK_STATE: (model.joint_transition, np.vstack([np.zeros_like(model.L), model.L]),
                              alpha * model.Sigma, np.hstack([np.eye(n), np.zeros((n, n))])),
    }


def series_terms(A: np.ndarray, B: np.ndarray, S: np.ndarray,
                 C: np.ndarray | None = None) -> Iterator[np.ndarray]:
    """Yield C A^k B S B^T A^k^T C^T for k = 0, 1, ... (C = I if None)."""
    X = B
    while True:
        Y = X if C is None else C @ X
        T = Y @ S @ Y.T
        yield (T + T.T) / 2.0
        X = A @ X


def truncated_terms(A, B, S, C=None) -> list[np.ndarray]:
    """The series C A^k B S B^T A^k^T C^T for k = 0 ... K-1, zero terms included.

    K is the first index from dim(A) on with tr(R^+ T_K) < TAIL_TOL, where
    R is the sum of the first dim(A) terms.  Every term lies in range(R)
    (Cayley-Hamilton), so the ratio sees every direction the series
    reaches, and it does not change under y -> M y for invertible M.
    Raises MaxTermsExceeded when no K <= MAX_TERMS qualifies.
    """
    rho = spectral_radius(A)
    if rho >= 1.0:
        raise UnstableF(f"reach series needs rho(A) < 1, got {rho:.4f}")
    series = series_terms(A, B, S, C)
    terms = list(islice(series, len(A)))
    R_pinv = np.linalg.pinv(sum(terms), hermitian=True)
    for T in islice(series, MAX_TERMS - len(terms)):
        if np.vdot(R_pinv, T) < TAIL_TOL:
            return terms
        terms.append(T)
    raise MaxTermsExceeded(f"term decay rule not met within {MAX_TERMS} terms "
                           f"(TAIL_TOL={TAIL_TOL:g})")


def fit_bound(terms, target: str, method: str = METHOD_GEOMETRIC,
              diagnostics: dict | None = None) -> ReachBound:
    """The minkowski_sum_many outer bound of the terms' Minkowski sum, with
    the stationarity gap of its weights added to diagnostics; a geometric
    bound counts its terms."""
    E = minkowski_sum_many(terms)
    return ReachBound(shape=E, method=method, target=target,
                      terms_used=len(terms) if method == METHOD_GEOMETRIC else None,
                      diagnostics={**(diagnostics or {}),
                                   "stationarity_gap": stationarity_gap(E, terms)})


def reach_bounds_geom(model: PlantModel, alpha: float, vbar: float):
    """The three geometric bounds and the total-state bound, one fit over the
    noise and attack-state terms.  Each of the three carries its input
    scale, vbar or alpha, in its diagnostics."""
    terms = {target: truncated_terms(*inputs)
             for target, inputs in reach_targets(model, alpha, vbar).items()}
    noise, att_err, att_state = (fit_bound(t, target) for target, t in terms.items())
    noise.diagnostics["vbar"] = vbar
    att_err.diagnostics["alpha"] = att_state.diagnostics["alpha"] = alpha
    total = fit_bound(terms[TARGET_NOISE] + terms[TARGET_ATTACK_STATE], TARGET_TOTAL_STATE,
                      diagnostics={"from": [noise.target, att_state.target]})
    return noise, att_err, att_state, total
