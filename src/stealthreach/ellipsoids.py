"""Origin-centered ellipsoid algebra.

An ellipsoid is represented by its shape matrix Q (symmetric PSD):
the set { x : x^T Q^-1 x <= 1 }, with degenerate directions collapsing
when Q is singular.  All operations are pure functions; Ellipsoid values
are immutable and safe to share between threads.

Minkowski sums have one engine: minkowski_sum_many fits the outer shape
sum_i Q_i / w_i with fixed-point weights to a stack of shape matrices.
"""

import math
from dataclasses import dataclass
import numpy as np

from .errors import (
    DimensionMismatch,
    EmptyTermList,
    NonSymmetric,
    NotPSD,
)

# Relative to max|M| and max|eig|, so a change of units cannot flip a check.
SYM_TOL = 1e-10
PSD_TOL = 1e-10
RANGE_TOL = 1e-9
DEGENERATE_RTOL = 1e-12  # a direction whose eigenvalue is at most this times the largest is flat
BLOCK_ROWS = 4096  # rows per block of Ellipsoid.membership
# Cap on fixed-point weight steps in minkowski_sum_many.  On 300 seeded
# random instances (n = 2-5, 2-24 terms) and the bundled series the map
# converged within 44 steps.
MAX_WEIGHT_ITERS = 500


def checked_shape(M: np.ndarray, ndim: int = 2, name: str = "shape") -> np.ndarray:
    """M symmetrized, for a square matrix (ndim = 2) or a stack of them
    (ndim = 3).  Raises NonSymmetric when a matrix's asymmetry exceeds
    SYM_TOL of its max|M|, and NotPSD when its smallest eigenvalue is below
    -PSD_TOL of its max|eig|; the messages start with name."""
    M = np.asarray(M, dtype=float)
    if M.ndim != ndim or M.shape[-2] != M.shape[-1]:
        raise DimensionMismatch(f"expected {'a stack of ' * (ndim - 2)}square matrices, "
                                f"got shape {M.shape}")
    Mt = np.swapaxes(M, -1, -2)
    asym = np.max(np.abs(M - Mt), axis=(-2, -1))
    bad = asym > SYM_TOL * np.max(np.abs(M), axis=(-2, -1))
    if np.any(bad):
        raise NonSymmetric(f"{name}: asymmetry {np.max(asym[bad]):.3e} exceeds "
                           f"{SYM_TOL:.1e} of max|M|")
    M = (M + Mt) / 2.0
    w = np.linalg.eigvalsh(M)
    low = w[..., 0] < -PSD_TOL * np.max(np.abs(w), axis=-1)
    if np.any(low):
        raise NotPSD(f"{name}: eigenvalue {np.min(w[..., 0][low]):.3e} below "
                     f"-{PSD_TOL:.1e} of max|eig|")
    return M


def sym_sqrt(M: np.ndarray) -> np.ndarray:
    """Symmetric PSD square root via spectral decomposition.

    Eigenvalues in [-PSD_TOL * max|eig|, 0) are treated as round-off and
    clamped to 0; anything more negative raises NotPSD.
    """
    w, V = np.linalg.eigh(checked_shape(M))
    w = np.clip(w, 0.0, None)
    S = (V * np.sqrt(w)) @ V.T
    return (S + S.T) / 2.0


def unit_ball_volume(n: int) -> float:
    """Volume of the unit ball in R^n: pi^(n/2) / Gamma(n/2 + 1)."""
    return math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)


@dataclass(frozen=True)
class Ellipsoid:
    """Origin-centered ellipsoid { x : x^T Q^-1 x <= 1 } with shape matrix Q."""

    Q: np.ndarray

    def __post_init__(self):
        Q = checked_shape(self.Q)
        Q.setflags(write=False)
        object.__setattr__(self, "Q", Q)

    @property
    def dim(self) -> int:
        return self.Q.shape[0]

    @property
    def volume(self) -> float:
        return volume(self)

    def is_degenerate(self) -> bool:
        w = np.linalg.eigvalsh(self.Q)
        return w[0] <= DEGENERATE_RTOL * max(w[-1], 0.0)

    def membership(self, x: np.ndarray) -> float:
        """Quadratic membership value x^T Q^+ x; inf when x leaves range(Q),
        that is when its part off the range exceeds RANGE_TOL * ||x||.

        Rows go BLOCK_ROWS at a time through one buffer: the temporaries stay
        O(block), and as numpy and BLAS pick kernels (and rounding) by shape,
        one shape for every block makes each row's value bitwise the same
        alone or in any batch.  The sums over directions run one call per
        direction along the block's rows, in direction order.
        """
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if x.shape[-1] != self.dim:
            raise DimensionMismatch(f"point dim {x.shape[-1]} vs ellipsoid dim {self.dim}")
        w, V = np.linalg.eigh(self.Q)
        live = w > DEGENERATE_RTOL * max(w[-1], 0.0)
        live_at, flat_at = np.flatnonzero(live), np.flatnonzero(~live)
        m = np.empty(x.shape[0])
        block = np.empty((BLOCK_ROWS, self.dim))
        for lo in range(0, x.shape[0], BLOCK_ROWS):
            rows = min(BLOCK_ROWS, x.shape[0] - lo)
            block[:rows], block[rows:] = x[lo:lo + rows], 0.0
            sq = (block @ V) ** 2
            mb = np.zeros(BLOCK_ROWS)
            for i in live_at:
                mb += sq[:, i] / w[i]
            if not live.all():
                resid = np.sqrt(sum(sq[:, i] for i in flat_at))
                mb[resid > RANGE_TOL * np.sqrt(sum((block ** 2).T))] = np.inf
            m[lo:lo + rows] = mb[:rows]
        return m if m.shape[0] > 1 else float(m[0])

    def boundary_points(self, num: int = 200) -> np.ndarray:
        """Points on the boundary (2-D only), for plotting."""
        if self.dim != 2:
            raise DimensionMismatch("boundary_points is 2-D only")
        theta = np.linspace(0.0, 2.0 * math.pi, num)
        circle = np.stack([np.cos(theta), np.sin(theta)], axis=1)
        return circle @ sym_sqrt(self.Q).T

    def to_dict(self) -> dict:
        return {"dim": self.dim, "Q": self.Q.tolist()}


def volume(E: Ellipsoid) -> float:
    """unit-ball-volume(n) * sqrt(det Q); zero for singular Q."""
    sign, logdet = np.linalg.slogdet(E.Q)
    if sign <= 0:
        return 0.0
    return unit_ball_volume(E.dim) * math.exp(0.5 * logdet)


def weighted_shape(Qs: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Q(w) = sum_i Q_i / w_i for stacked terms Qs of shape (N, n, n)."""
    # the (1, N) x (N, n^2) product that np.tensordot makes, without its wrapper
    Q = np.dot((1.0 / w)[None], Qs.reshape(len(Qs), -1)).reshape(Qs.shape[1:])
    return (Q + Q.T) / 2.0


def stationary_weights(Q: np.ndarray, Qs: np.ndarray) -> np.ndarray:
    """Simplex weights w_i proportional to sqrt(tr(Q^-1 Q_i)).

    A shape Q = Q(w) whose weights reproduce themselves under this map is a
    stationary point of log det Q(w) on the simplex (Halder, CDC 2018).
    Traces that round to zero or below are floored at 1e-300.
    """
    traces = np.einsum("ij,kji->k", np.linalg.inv(Q), Qs)
    s = np.sqrt(np.maximum(traces, 1e-300))
    return s / s.sum()


def stationarity_gap(E: Ellipsoid, terms) -> float | None:
    """||Q - sum_i Q_i / w_i|| / ||Q|| with w = stationary_weights(Q, terms).

    Zero at the volume-minimizing weights; None when Q is degenerate.
    """
    if E.is_degenerate():
        return None
    Qs = np.asarray(terms, dtype=float)
    Qs = Qs[np.trace(Qs, axis1=1, axis2=2) > 0.0]  # minkowski_sum_many's filter
    resid = E.Q - weighted_shape(Qs, stationary_weights(E.Q, Qs))
    return float(np.linalg.norm(resid) / np.linalg.norm(E.Q))


def minkowski_sum_many(terms) -> Ellipsoid:
    """Outer ellipsoid of the Minkowski sum of the ellipsoids whose shape
    matrices are terms, a sequence of n x n matrices or an (N, n, n) stack.

    The terms are checked once, as one stack, by the Ellipsoid checks.
    Every shape Q(w) = sum_i Q_i / w_i with weights w on the simplex
    contains the sum (Kurzhanski and Valyi 1997).  Starting from uniform
    weights, the fixed-point map w <- stationary_weights(Q(w)) descends to
    the minimum of log det Q(w); it stops when no weight moves by more than
    1e-12 of the largest weight or after MAX_WEIGHT_ITERS steps, and every
    iterate is a valid outer bound.
    Zero terms are identities.  A degenerate uniform-weight shape (the
    terms do not span R^n) is returned as it is, since the map needs
    Q(w)^-1.
    """
    if len(terms) == 0:
        raise EmptyTermList("minkowski_sum_many needs at least one term")
    if len({np.shape(Q) for Q in terms}) > 1:
        raise DimensionMismatch(f"mixed term shapes {sorted({np.shape(Q) for Q in terms})}")
    Qs = checked_shape(terms, ndim=3, name="term")
    Qs = Qs[np.trace(Qs, axis1=1, axis2=2) > 0.0]
    if len(Qs) <= 1:  # no nonzero term gives the zero ellipsoid, one gives itself
        return Ellipsoid(Qs.sum(axis=0))
    w = np.full(len(Qs), 1.0 / len(Qs))
    uniform = Ellipsoid(weighted_shape(Qs, w))
    if uniform.is_degenerate():
        return uniform
    Q = uniform.Q
    for _ in range(MAX_WEIGHT_ITERS):
        w_new = stationary_weights(Q, Qs)
        Q = weighted_shape(Qs, w_new)
        if np.max(np.abs(w_new - w)) <= 1e-12 * np.max(w):
            break
        w = w_new
    return Ellipsoid(Q)
