"""Chi-squared residual detector: distance measure and threshold tuning.

The attack-free distance measure is chi-square with one degree of freedom
per sensor; the threshold for a target false-alarm rate is its quantile.
"""

import math
from numbers import Integral

import numpy as np

from .errors import DimensionMismatch, DomainError


def chi2_cdf(x: float, dof: int) -> float:
    """P(chi2_dof <= x) = P(dof/2, x/2), in closed form (Abramowitz and Stegun 26.4):
    with h = x/2, 1 - sum_{j = 0, 1, ... < dof/2} e^-h h^j / Gamma(j+1) for even
    dof, erf(sqrt h) minus that sum over j = 1/2, 3/2, ... for odd dof.
    """
    if not isinstance(dof, Integral) or dof < 1:
        raise DomainError(f"degrees of freedom must be a positive integer, got {dof}")
    if x < 0.0:
        raise DomainError(f"x must be nonnegative, got {x}")
    if x == 0.0:
        return 0.0
    h = x / 2.0
    log_h = math.log(h)
    head = math.erf(math.sqrt(h)) if dof % 2 else 1.0
    orders = (k + dof % 2 / 2.0 for k in range(dof // 2))
    return head - sum(math.exp(j * log_h - h - math.lgamma(j + 1.0)) for j in orders)


def chi2_quantile(q: float, dof: int) -> float:
    """Inverse chi-square CDF: bisection on chi2_cdf until the bracket, with
    chi2_cdf(lo) < q <= chi2_cdf(hi), holds two adjacent doubles; returns hi.
    """
    if not 0.0 < q < 1.0:
        raise DomainError(f"quantile level must be in (0,1), got {q}")
    lo, hi = 0.0, float(dof)
    while chi2_cdf(hi, dof) < q:  # the CDF reaches 1.0 at a finite x
        lo, hi = hi, 2.0 * hi
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return hi
        lo, hi = (mid, hi) if chi2_cdf(mid, dof) < q else (lo, mid)


def distance(r: np.ndarray, sigma_inv: np.ndarray) -> float:
    """Quadratic distance measure r^T Sigma^-1 r.

    Accepts a single residual (p,) or a batch (..., p); returns matching shape.
    Fewer than three rows are padded with zero rows, so each row gets its bits in a batch.
    """
    r = np.asarray(r, dtype=float)
    sigma_inv = np.asarray(sigma_inv, dtype=float)
    if r.shape[-1] != sigma_inv.shape[0] or sigma_inv.shape[0] != sigma_inv.shape[1]:
        raise DimensionMismatch(f"residual dim {r.shape[-1]} vs Sigma dim {sigma_inv.shape}")
    lone = r.size < 3 * r.shape[-1]  # einsum sums one or two rows in another order (p = 2)
    x = np.concatenate([r.reshape(-1, r.shape[-1]), np.zeros((2, r.shape[-1]))]) if lone else r
    z = np.einsum("...i,ij,...j->...", x, sigma_inv, x)
    z = z[:r.size // r.shape[-1]].reshape(r.shape[:-1]) if lone else z
    return float(z) if z.ndim == 0 else z
