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
E(C A^k B S B^T A^k^T C^T), which series_terms yields.  geom_bound
truncates the series once the terms' determinant and trace mass have both
decayed below a relative tolerance, fits one ellipsoid around the finite
Minkowski sum with minkowski_sum_many and reports the stationarity gap of
the fitted weights.
"""

import math
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .ellipsoids import Ellipsoid, minkowski_sum_many, stationarity_gap
from .errors import MaxTermsExceeded, UnstableF
from .plant import PlantModel, spectral_radius
from .reach_common import (
    METHOD_GEOMETRIC,
    TARGET_ATTACK_ERROR,
    TARGET_ATTACK_STATE,
    TARGET_NOISE,
    ReachBound,
    total_state_bound,
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


def _truncated(series: Iterator[np.ndarray], cfg: GeomSumConfig, lead: int) -> list[np.ndarray]:
    """Take terms from the series until the decay rule fires.

    Exactly zero leading terms (C A^k B = 0, as for the attack state, whose
    input reaches x one step late or later) are dropped, up to lead of
    them, and the decay is measured against the first nonzero term.  With
    lead = dim(A), a series whose first lead terms are zero is zero
    throughout (Cayley-Hamilton), and the zero term is returned.
    """
    for _ in range(lead):
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


def geom_bound(A, B, S, C=None, target: str = "bound",
               cfg: GeomSumConfig | None = None) -> ReachBound:
    """Outer bound of the truncated Minkowski sum of the series C A^k B S B^T A^k^T C^T."""
    rho = spectral_radius(A)
    if rho >= 1.0:
        raise UnstableF(f"reach series needs rho(A) < 1, got {rho:.4f}")
    terms = _truncated(series_terms(A, B, S, C), cfg or GeomSumConfig(), len(A))
    E = minkowski_sum_many([Ellipsoid(Q) for Q in terms])
    return ReachBound(shape=E, method=METHOD_GEOMETRIC, target=target, volume=E.volume,
                      terms_used=len(terms),
                      diagnostics={"stationarity_gap": stationarity_gap(E, terms)})


def reach_bounds_geom(model: PlantModel, alpha: float, vbar: float,
                      cfg: GeomSumConfig | None = None):
    """All three geometric bounds plus the total-state combination.  Each
    bound's diagnostics carry the input scale, vbar or alpha."""
    noise, att_err, att_state = (
        geom_bound(*inputs, target=target, cfg=cfg)
        for target, inputs in reach_targets(model, alpha, vbar).items())
    noise.diagnostics["vbar"] = vbar
    att_err.diagnostics["alpha"] = att_state.diagnostics["alpha"] = alpha
    return noise, att_err, att_state, total_state_bound(noise, att_state, METHOD_GEOMETRIC)
