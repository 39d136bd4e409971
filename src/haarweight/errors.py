"""Exception types shared across the package.

Every validation failure raises a subclass of HaarweightError so callers can
distinguish library rejections from genuine bugs. Domain violations are
errors, never silent repairs.
"""


class HaarweightError(Exception):
    """Base class for all errors raised by this package."""


class ParameterError(HaarweightError, ValueError):
    """A scalar or structural parameter is out of contract."""


class ShapeError(HaarweightError, ValueError):
    """An array argument has the wrong shape or dtype."""


class MatrixDomainError(HaarweightError, ValueError):
    """A matrix is not symmetric positive definite within tolerance."""


class EllipsoidFitError(HaarweightError, RuntimeError):
    """The ellipsoid fit did not converge; carries the final residual."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class EigenConvergenceError(HaarweightError, RuntimeError):
    """The p=2 probe's Lanczos iteration reached its matvec cap unconverged."""


class CoverageError(HaarweightError, LookupError):
    """A requested cube or coefficient is not covered by the structure."""


class SerializationError(HaarweightError, ValueError):
    """A file being read does not match the declared format."""


class ConfigError(HaarweightError, ValueError):
    """An experiment configuration is malformed or out of schema."""
