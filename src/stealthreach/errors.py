"""Exception hierarchy shared by all stealthreach modules."""


class StealthreachError(Exception):
    """Base class for all library errors."""


class DimensionMismatch(StealthreachError):
    """Operands have incompatible shapes."""


class NonSymmetric(StealthreachError):
    """Matrix expected to be symmetric is not (beyond tolerance)."""


class NotPSD(StealthreachError):
    """Matrix expected to be positive semidefinite has a negative eigenvalue."""


class EmptyTermList(StealthreachError):
    """A Minkowski sum was requested over an empty list of ellipsoids."""


class BothDegenerate(StealthreachError):
    """Both summands of a strict pair sum are zero ellipsoids."""


class DegenerateCloud(StealthreachError):
    """Point cloud has no full-dimensional spread to fit an ellipsoid to."""


class NotDetectable(StealthreachError):
    """(F, C) fails the PBH detectability test."""


class NoConvergence(StealthreachError):
    """An iterative routine hit its iteration cap before reaching tolerance."""


class UnstableF(StealthreachError):
    """Open-loop state matrix has spectral radius >= 1."""


class UnstableClosedLoop(StealthreachError):
    """F + G@K has spectral radius >= 1."""


class UnstableFilter(StealthreachError):
    """F - L@C has spectral radius >= 1."""


class DomainError(StealthreachError):
    """Scalar argument outside the mathematical domain of the function."""


class InvalidSpec(StealthreachError):
    """Attack specification violates its support/mass constraints."""


class Infeasible(StealthreachError):
    """The semidefinite program admits no strictly feasible point."""


class AllInfeasible(StealthreachError):
    """No point of the decay-rate grid was feasible."""


class MaxTermsExceeded(StealthreachError):
    """Geometric series truncation rule not met within the term cap."""


class UsageError(StealthreachError):
    """A command-line argument is out of range; the message names the flag."""


class SchemaError(StealthreachError):
    """Scenario file violates the strict schema; carries the offending path."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")
