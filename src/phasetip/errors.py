"""Exception hierarchy shared across the package.

CLI exit-code mapping: DataError -> 2, EstimationError (and subclasses) -> 3.
"""


class PhasetipError(Exception):
    """Base class for all package errors."""


class DataError(PhasetipError):
    """Invalid input data (bad records, malformed files, bad settings)."""


class EstimationError(PhasetipError):
    """A numerical estimation procedure could not produce a valid result."""


class ConvergenceError(EstimationError):
    """Newton-Raphson hit the iteration cap.

    Carries the last iterate so callers can inspect how far the fit got.
    """

    def __init__(self, message, last_beta=None, iterations=0):
        super().__init__(message)
        self.last_beta = last_beta
        self.iterations = iterations


class SeparationError(EstimationError):
    """Monotone partial likelihood: it has no maximum, so no fit is made."""
