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
stops the series once the terms' determinant and trace mass have both
decayed below a relative tolerance, and fit_bound fits one ellipsoid
around the finite Minkowski sum with minkowski_sum_many and reports the
stationarity gap of the fitted weights.

The total state x = x_v + x_delta sums the noise and attack-state rows, so
its bound is one fit over both rows' terms.  A pair sum of two fitted
bounds, the LMI total included, is a member of its weighted family.
"""

import math
from collections.abc import Iterator
from dataclasses import dataclass
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


@dataclass(frozen=True)
class GeomSumConfig:
    """Truncation rule for the limiting sums.

    Terms stop at the first index where both sqrt(det Q_k / det Q_first)
    and trace(Q_k)/trace(Q_first) fall below tail_tol; the trace guard
    matters because rank-deficient terms have zero determinant while still
    carrying mass.
    """

    tail_tol: float = 1e-12
    max_terms: int = 500

    def __post_init__(self):
        if not 0.0 < self.tail_tol < 1.0:
            raise ValueError(f"tail_tol must be in (0,1), got {self.tail_tol}")
        if self.max_terms < 1:
            raise ValueError(f"max_terms must be >= 1, got {self.max_terms}")


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


def truncated_terms(A, B, S, C=None, cfg: GeomSumConfig | None = None) -> list[np.ndarray]:
    """The series C A^k B S B^T A^k^T C^T until the decay rule of cfg fires.

    Exactly zero leading terms (C A^k B = 0, as for the attack state, whose
    input reaches x one step late or later) are dropped, up to dim(A) of
    them, and the decay is measured against the first nonzero term.  A
    series whose first dim(A) terms are zero is zero throughout
    (Cayley-Hamilton), and the zero term is returned.
    """
    rho = spectral_radius(A)
    if rho >= 1.0:
        raise UnstableF(f"reach series needs rho(A) < 1, got {rho:.4f}")
    cfg = cfg or GeomSumConfig()
    series = series_terms(A, B, S, C)
    for _ in range(len(A)):
        first = next(series)
        if first.any():
            break
    d_ref = float(np.linalg.det(first))
    t_ref = float(np.trace(first))
    if t_ref <= 0.0:
        return [first]
    terms = [first]
    for Qk in islice(series, cfg.max_terms - 1):
        det_ratio = math.sqrt(max(float(np.linalg.det(Qk)), 0.0) / d_ref) if d_ref > 0.0 else 0.0
        trace_ratio = float(np.trace(Qk)) / t_ref
        if det_ratio < cfg.tail_tol and trace_ratio < cfg.tail_tol:
            return terms
        terms.append(Qk)
    raise MaxTermsExceeded(
        f"term decay rule not met within {cfg.max_terms} terms (tail_tol={cfg.tail_tol:g})"
    )


def fit_bound(terms, target: str, method: str = METHOD_GEOMETRIC,
              diagnostics: dict | None = None) -> ReachBound:
    """The minkowski_sum_many outer bound of the terms' Minkowski sum, with
    the stationarity gap of its weights added to diagnostics; a geometric
    bound counts its terms."""
    E = minkowski_sum_many(terms)
    return ReachBound(shape=E, method=method, target=target, volume=E.volume,
                      terms_used=len(terms) if method == METHOD_GEOMETRIC else None,
                      diagnostics={**(diagnostics or {}),
                                   "stationarity_gap": stationarity_gap(E, terms)})


def geom_bound(A, B, S, C=None, target: str = "bound",
               cfg: GeomSumConfig | None = None) -> ReachBound:
    """Outer bound of the truncated Minkowski sum of the series C A^k B S B^T A^k^T C^T."""
    return fit_bound(truncated_terms(A, B, S, C, cfg), target)


def reach_bounds_geom(model: PlantModel, alpha: float, vbar: float,
                      cfg: GeomSumConfig | None = None):
    """The three geometric bounds and the total-state bound, one fit over the
    noise and attack-state terms.  Each of the three carries its input
    scale, vbar or alpha, in its diagnostics."""
    terms = {target: truncated_terms(*inputs, cfg=cfg)
             for target, inputs in reach_targets(model, alpha, vbar).items()}
    noise, att_err, att_state = (fit_bound(t, target) for target, t in terms.items())
    noise.diagnostics["vbar"] = vbar
    att_err.diagnostics["alpha"] = att_state.diagnostics["alpha"] = alpha
    total = fit_bound(terms[TARGET_NOISE] + terms[TARGET_ATTACK_STATE], TARGET_TOTAL_STATE,
                      diagnostics={"from": [noise.target, att_state.target]})
    return noise, att_err, att_state, total
