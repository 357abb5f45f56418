"""Geometric (Minkowski-sum) outer bounds on the attack/noise reachable sets.

Each driven recursion xi' = A xi + B mu, observed as C xi, with an
ellipsoidally bounded input unrolls into a sum of independent per-step
ellipsoids E(C A^k B S B^T A^k^T C^T).  One generator, series_terms, yields
these terms for all three targets: noise (F, I, vbar R1), attack error
(F, L, alpha Sigma) and attack state (the cascade of state and estimation
error, from k = 1).  The limit set is outer-approximated by truncating the
series once the terms' determinant and trace mass have both decayed below a
relative tolerance and fitting one ellipsoid around the finite Minkowski
sum with minkowski_sum_many.  Each bound reports the stationarity gap of
the fitted weights.
"""

import math
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .ellipsoids import Ellipsoid, minkowski_sum_many, stationarity_gap
from .errors import MaxTermsExceeded, UnstableClosedLoop, UnstableF
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


def series_terms(A: np.ndarray, B: np.ndarray, S: np.ndarray,
                 C: np.ndarray | None = None) -> Iterator[np.ndarray]:
    """Yield C A^k B S B^T A^k^T C^T for k = 0, 1, ... (C = I if None)."""
    X = B
    while True:
        Y = X if C is None else C @ X
        T = Y @ S @ Y.T
        yield (T + T.T) / 2.0
        X = A @ X


def noise_inputs(model: PlantModel, vbar: float) -> tuple[np.ndarray, ...]:
    """(A, B, S) of the noise recursion, which the LMI method reads too."""
    return model.F, np.eye(model.n), vbar * model.R1


def attack_error_inputs(model: PlantModel, alpha: float) -> tuple[np.ndarray, ...]:
    """(A, B, S) of the attack-error recursion, which the LMI method reads too."""
    return model.F, model.L, alpha * model.Sigma


def _attack_state_series(model: PlantModel, alpha: float) -> Iterator[np.ndarray]:
    """The attack-state terms as the output of the cascade (x, e).

    With A = model.joint_transition = [[F + G K, -G K], [0, F]], input
    [0; L] and output [I 0], the output map is
    [I 0] A^k [0; L] = (F^k - (F + G K)^k) L by telescoping
    (-G K = F - (F + G K)), so the terms are H_k L Sigma L^T H_k^T with
    H_k = (F + G K)^k - F^k.  H_0 = 0, so the series starts at k = 1: its
    input is A [0; L].
    """
    n = model.n
    A = model.joint_transition
    B = A @ np.vstack([np.zeros_like(model.L), model.L])
    C = np.hstack([np.eye(n), np.zeros((n, n))])
    return series_terms(A, B, alpha * model.Sigma, C)


def _truncated(series: Iterator[np.ndarray], cfg: GeomSumConfig) -> list[np.ndarray]:
    """Take terms from the series until the decay rule fires."""
    first = next(series)
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


def _bound(terms: list[np.ndarray], target: str, diag: dict) -> ReachBound:
    E = minkowski_sum_many([Ellipsoid(Q) for Q in terms])
    return ReachBound(
        shape=E,
        method=METHOD_GEOMETRIC,
        target=target,
        volume=E.volume,
        terms_used=len(terms),
        diagnostics={**diag, "stationarity_gap": stationarity_gap(E, terms)},
    )


def noise_reach_geom(model: PlantModel, vbar: float, cfg: GeomSumConfig | None = None) -> ReachBound:
    """Outer bound of the truncated-noise reachable set (shared by state and
    estimation error, which follow the same recursion from zero)."""
    if spectral_radius(model.F) >= 1.0:
        raise UnstableF("noise reach sum needs rho(F) < 1")
    terms = _truncated(series_terms(*noise_inputs(model, vbar)), cfg or GeomSumConfig())
    return _bound(terms, TARGET_NOISE, {"vbar": vbar})


def attack_error_reach_geom(model: PlantModel, alpha: float, cfg: GeomSumConfig | None = None) -> ReachBound:
    """Outer bound of the attack-driven estimation error: terms
    alpha F^k (L Sigma L^T) F^k^T."""
    if spectral_radius(model.F) >= 1.0:
        raise UnstableF("attack error reach sum needs rho(F) < 1")
    terms = _truncated(series_terms(*attack_error_inputs(model, alpha)), cfg or GeomSumConfig())
    return _bound(terms, TARGET_ATTACK_ERROR, {"alpha": alpha})


def attack_state_reach_geom(model: PlantModel, alpha: float, cfg: GeomSumConfig | None = None) -> ReachBound:
    """Outer bound of the attack-driven state: terms alpha H_k L Sigma L^T H_k^T
    with H_k = (F + G K)^k - F^k, starting at k = 1 where H_1 = G K."""
    if spectral_radius(model.F) >= 1.0:
        raise UnstableF("attack state reach sum needs rho(F) < 1")
    if spectral_radius(model.closed_loop) >= 1.0:
        raise UnstableClosedLoop("attack state reach sum needs rho(F + G K) < 1")
    terms = _truncated(_attack_state_series(model, alpha), cfg or GeomSumConfig())
    return _bound(terms, TARGET_ATTACK_STATE, {"alpha": alpha})


def reach_bounds_geom(model: PlantModel, alpha: float, vbar: float,
                      cfg: GeomSumConfig | None = None):
    """All three geometric bounds plus the total-state combination."""
    noise = noise_reach_geom(model, vbar, cfg)
    att_err = attack_error_reach_geom(model, alpha, cfg)
    att_state = attack_state_reach_geom(model, alpha, cfg)
    return noise, att_err, att_state, total_state_bound(noise, att_state, METHOD_GEOMETRIC)
