"""Exception types shared across the toolkit."""


class ToolkitError(Exception):
    """Base class for all toolkit errors."""


class DomainError(ToolkitError, ValueError):
    """Input outside the mathematical domain of an operation (e.g. r <= 0)."""


class RangeError(ToolkitError, ValueError):
    """Requested value outside the representable/invertible range."""


class ArgumentError(ToolkitError, ValueError):
    """Arguments violate an operation's preconditions."""


class NumericError(ToolkitError, ArithmeticError):
    """A non-finite or unstable intermediate was produced."""


class EstimationError(ToolkitError):
    """An estimator could not produce a usable result (e.g. zero measure at all scales)."""


class CoverageShortfall(ToolkitError):
    """A covering selection did not reach its measure target.

    Carries the fraction actually achieved so callers can diagnose whether the
    stage sequence was truncated too early.
    """

    def __init__(self, message, achieved_fraction):
        super().__init__(message)
        self.achieved_fraction = achieved_fraction


class ConstructionError(ToolkitError):
    """The nested-ball construction failed, at a named sublevel when one applies."""

    def __init__(self, message, sublevel=None):
        super().__init__(message)
        self.sublevel = sublevel


class TruncationError(ConstructionError):
    """An index search exhausted the configured truncation bound."""


class UnsupportedCombination(ToolkitError):
    """A parameter combination the toolkit deliberately does not support."""
