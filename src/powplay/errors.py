"""Exception types shared across the package, and the finite-number and integer checks.

The CLI maps these onto exit codes (validation 1, convergence 2, I/O 3), so
library code should raise one of them rather than bare ValueError/RuntimeError
whenever the failure belongs to one of those classes.
"""

import numbers


class ValidationError(ValueError):
    """Raised when inputs violate a documented precondition."""


class CapacityError(ValidationError):
    """Raised when a construction would exceed its configured size ceiling."""


class InfeasibleError(ValidationError):
    """Raised when no parameter value can satisfy a requested dominance condition."""


class ConvergenceError(RuntimeError):
    """Raised when an iterative solve fails to reach its tolerance."""

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


def require_positive_finite(name: str, value) -> None:
    """Raise ValidationError unless value is a positive finite number (NaN is not)."""
    if not 0.0 < value < float("inf"):
        raise ValidationError(f"{name} must be a positive finite number, got {value!r}")


def require_nonnegative_finite(name: str, value) -> None:
    """Raise ValidationError unless value is a finite number >= 0 (NaN is not)."""
    if not 0.0 <= value < float("inf"):
        raise ValidationError(f"{name} must be a finite number >= 0, got {value!r}")


def require_integer(name: str, value) -> None:
    """Raise ValidationError unless value is an integer (a bool is not)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
