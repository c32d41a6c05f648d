"""Exception hierarchy shared across the package, and the one seed rule.

CLI exit-code mapping: DataError -> 2, EstimationError (and subclasses) -> 3.
"""

import numbers


class PhasetipError(Exception):
    """Base class for all package errors."""


class DataError(PhasetipError):
    """Invalid input data (bad records, malformed files, bad settings).

    A `Trial` that refuses its columns names the ``column`` at fault and,
    for one subject's value, the subject's ``position``.
    """

    def __init__(self, message, column=None, position=None):
        super().__init__(message)
        self.column, self.position = column, position


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


def check_seed(value, name: str) -> None:
    """Refuse a seed or replicate id that is not a non-negative integer; a
    bool is not one."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 0:
        raise DataError(f"{name} must be a non-negative integer, got {value!r}")
