"""Exception types shared across the package."""

__all__ = [
    "ZmlError",
    "ProfileError",
    "GridError",
    "PaddingError",
    "QuadratureError",
    "EigenSolveError",
    "ClusterResolutionError",
]


class ZmlError(Exception):
    """Base class for all package-specific errors."""


class ProfileError(ZmlError, ValueError):
    """Invalid field-profile specification (bad kind, width, breakpoints, NaN)."""


class GridError(ZmlError, ValueError):
    """Invalid sampling grid (too few points, reversed bounds, mismatch)."""


class PaddingError(ZmlError, ValueError):
    """Grid does not extend far enough past the field support.

    Carries the padding the caller must provide on each side.
    """

    def __init__(self, message, required=None, available=None):
        super().__init__(message)
        self.required = required
        self.available = available


class QuadratureError(ZmlError, ArithmeticError):
    """Adaptive quadrature failed to reach the requested tolerance.

    ``achieved`` is the accumulated error estimate of the returned value,
    ``requested`` the absolute tolerance that was asked for.
    """

    def __init__(self, message, requested=None, achieved=None):
        super().__init__(message)
        self.requested = requested
        self.achieved = achieved


class EigenSolveError(ZmlError, ArithmeticError):
    """Symmetric eigendecomposition did not converge."""


class ClusterResolutionError(ZmlError, ArithmeticError):
    """Spectral clusters of an excited level cannot be separated at this grid."""
