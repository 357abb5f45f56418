"""Exception hierarchy shared by all stealthreach modules.

Each class carries its command-line exit code: 2 bad scenario or argument,
3 numeric failure, 4 model or invariant violation (the base class's)."""


class StealthreachError(Exception):
    """Base class for all library errors."""
    exit_code = 4


class DimensionMismatch(StealthreachError):
    """Operands have incompatible shapes."""


class NonSymmetric(StealthreachError):
    """Matrix expected to be symmetric is not (beyond tolerance)."""


class NotPSD(StealthreachError):
    """Matrix expected to be positive semidefinite has a negative eigenvalue."""


class EmptyTermList(StealthreachError):
    """A Minkowski sum was requested over an empty list of ellipsoids."""


class DegenerateCloud(StealthreachError):
    """Point cloud has no full-dimensional spread to fit an ellipsoid to."""


class NotDetectable(StealthreachError):
    """(F, C) fails the PBH detectability test."""


class NoConvergence(StealthreachError):
    """An iterative routine hit its iteration cap before reaching tolerance."""
    exit_code = 3


class UnstableF(StealthreachError):
    """Open-loop state matrix has spectral radius >= 1."""


class UnstableClosedLoop(StealthreachError):
    """F + G@K has spectral radius >= 1."""


class UnstableFilter(StealthreachError):
    """F - L@C has spectral radius >= 1."""


class DomainError(StealthreachError):
    """Scalar argument outside the mathematical domain of the function."""
    exit_code = 3


class InvalidSpec(StealthreachError):
    """Attack specification violates its support/mass constraints."""


class Infeasible(StealthreachError):
    """No positive definite Lyapunov solution certifies the bound at this decay scalar."""
    exit_code = 3


class AllInfeasible(StealthreachError):
    """No decay scalar in (rho(A)^2, 1) gives a certified bound."""
    exit_code = 3


class MaxTermsExceeded(StealthreachError):
    """Geometric series truncation rule not met within the term cap."""
    exit_code = 3


class UsageError(StealthreachError):
    """A command-line argument is out of range, or the output directory cannot
    be created; the message names the flag or the directory."""
    exit_code = 2


class SchemaError(StealthreachError):
    """Scenario file cannot be read or violates the strict schema; carries the
    file or the offending path in it."""
    exit_code = 2

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")
