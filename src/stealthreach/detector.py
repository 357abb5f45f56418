"""Chi-squared residual detector: distance measure and threshold tuning.

The threshold for a target false-alarm rate comes from inverting the
regularized lower incomplete gamma function, since the attack-free
distance measure is chi-square with one degree of freedom per sensor.
"""

import math

import numpy as np

from .errors import DimensionMismatch, DomainError, NoConvergence

_MAX_SERIES_TERMS = 500


def reg_lower_gamma(s: float, x: float) -> float:
    """Regularized lower incomplete gamma P(s, x) = gamma(s, x) / Gamma(s).

    Series expansion for x < s + 1, continued fraction (modified Lentz)
    otherwise; absolute accuracy about 1e-14.
    """
    if s <= 0.0:
        raise DomainError(f"s must be positive, got {s}")
    if x < 0.0:
        raise DomainError(f"x must be nonnegative, got {x}")
    if x == 0.0:
        return 0.0
    log_prefactor = -x + s * math.log(x) - math.lgamma(s)
    if x < s + 1.0:
        ap = s
        term = 1.0 / s
        total = term
        for _ in range(_MAX_SERIES_TERMS):
            ap += 1.0
            term *= x / ap
            total += term
            if abs(term) < abs(total) * 1e-17:
                return min(total * math.exp(log_prefactor), 1.0)
        raise NoConvergence("incomplete gamma series did not converge")
    # upper-tail continued fraction, P = 1 - Q
    tiny = 1e-300
    b = x + 1.0 - s
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, _MAX_SERIES_TERMS + 1):
        an = -i * (i - s)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-17:
            return max(1.0 - math.exp(log_prefactor) * h, 0.0)
    raise NoConvergence("incomplete gamma continued fraction did not converge")


def _chi2_pdf(x: float, dof: int) -> float:
    s = dof / 2.0
    if x <= 0.0:
        return 0.0
    return math.exp((s - 1.0) * math.log(x) - x / 2.0 - s * math.log(2.0) - math.lgamma(s))


def chi2_quantile(q: float, dof: int) -> float:
    """Inverse chi-square CDF: the x with P(dof/2, x/2) = q.

    Bracketed Newton iteration with bisection fallback; residual in q
    below 1e-12.
    """
    if not 0.0 < q < 1.0:
        raise DomainError(f"quantile level must be in (0,1), got {q}")
    if dof < 1:
        raise DomainError(f"degrees of freedom must be >= 1, got {dof}")
    lo, hi = 0.0, float(max(dof, 1))
    while reg_lower_gamma(dof / 2.0, hi / 2.0) < q:
        hi *= 2.0
        if hi > 1e12:
            raise NoConvergence("quantile bracket expansion failed")
    x = 0.5 * (lo + hi)
    for _ in range(200):
        f = reg_lower_gamma(dof / 2.0, x / 2.0) - q
        if abs(f) <= 1e-12:
            return x
        if f > 0.0:
            hi = x
        else:
            lo = x
        dfdx = _chi2_pdf(x, dof)
        step_ok = dfdx > 0.0
        if step_ok:
            x_new = x - f / dfdx
            step_ok = lo < x_new < hi
        x = x_new if step_ok else 0.5 * (lo + hi)
    raise NoConvergence("chi2 quantile iteration did not converge")


def distance(r: np.ndarray, sigma_inv: np.ndarray) -> float:
    """Quadratic distance measure r^T Sigma^-1 r.

    Accepts a single residual (p,) or a batch (..., p); returns matching shape.
    """
    r = np.asarray(r, dtype=float)
    sigma_inv = np.asarray(sigma_inv, dtype=float)
    if r.shape[-1] != sigma_inv.shape[0] or sigma_inv.shape[0] != sigma_inv.shape[1]:
        raise DimensionMismatch(f"residual dim {r.shape[-1]} vs Sigma dim {sigma_inv.shape}")
    z = np.einsum("...i,ij,...j->...", r, sigma_inv, r)
    return float(z) if z.ndim == 0 else z

