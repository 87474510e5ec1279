"""Exception types shared across the package.

Exit-code mapping used by the CLI: configuration / parameter problems are
``ParameterError`` (exit 2), everything numeric is a ``NumericError``
subclass (exit 3).
"""


class QrhdError(Exception):
    """Base class for all package errors."""


class ParameterError(QrhdError):
    """Invalid configuration or argument values."""


class NumericError(QrhdError):
    """Base class for runtime numerical failures."""


class DomainError(NumericError):
    """A point lies outside the chart domain."""


class SingularMetricError(NumericError):
    """The metric failed a positive-definiteness / invertibility check."""


class PoleSingularityError(NumericError):
    """Stereographic projection evaluated at (or too close to) its pole."""


class ScheduleError(NumericError):
    """Schedule coefficients violate their constraints (e.g. a(t) <= 0)."""


class SolverError(NumericError):
    """Linear solve failed to reach the requested residual."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class BlowUpError(NumericError):
    """Trajectory became non-finite."""
