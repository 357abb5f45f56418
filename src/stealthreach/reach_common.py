"""Shared reachable-set bound record used by the LMI and geometric methods."""

from dataclasses import dataclass, field

import numpy as np

from .ellipsoids import Ellipsoid

METHOD_LMI = "lmi"
METHOD_GEOMETRIC = "geometric"

TARGET_NOISE = "noise"
TARGET_ATTACK_ERROR = "attack_error"
TARGET_ATTACK_STATE = "attack_state"
TARGET_TOTAL_STATE = "total_state"


@dataclass(frozen=True)
class ReachBound:
    """Labeled outer ellipsoid bound on a reachable set.

    shape is the ellipsoid's shape matrix Q; quad_matrix is its inverse P
    (the x^T P x <= 1 form), None when the bound is degenerate.
    """

    shape: Ellipsoid
    method: str
    target: str
    a_star: float | None = None
    terms_used: int | None = None
    diagnostics: dict = field(default_factory=dict)

    @property
    def volume(self) -> float:
        return self.shape.volume

    @property
    def quad_matrix(self) -> np.ndarray | None:
        if self.shape.is_degenerate():
            return None
        P = np.linalg.inv(self.shape.Q)
        return (P + P.T) / 2.0

    def membership(self, x: np.ndarray):
        return self.shape.membership(x)

    def to_dict(self) -> dict:
        P = self.quad_matrix
        return {
            "method": self.method,
            "target": self.target,
            "volume": self.volume,
            "a_star": self.a_star,
            "terms_used": self.terms_used,
            "P": None if P is None else P.tolist(),
            "Q": self.shape.Q.tolist(),
            "dim": self.shape.dim,
            "diagnostics": self.diagnostics,
        }

