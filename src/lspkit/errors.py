"""Exception types shared across the toolkit.

The CLI maps them to exit codes by class: an ``ArgumentError`` exits 2
("validation error"), any other ``ToolkitError`` exits 3 ("numerical
failure").
"""


class ToolkitError(Exception):
    """Base class for all toolkit errors: a numerical failure (a non-finite
    intermediate, an estimator with no usable scale)."""


class ArgumentError(ToolkitError, ValueError):
    """Arguments violate an operation's preconditions, lie outside its domain
    or range, or form a combination the toolkit does not support."""


class CoverageShortfall(ToolkitError):
    """A covering selection did not reach its measure target.

    Carries the fraction actually achieved so callers can diagnose whether the
    stage sequence was truncated too early.
    """

    def __init__(self, message, achieved_fraction):
        super().__init__(message)
        self.achieved_fraction = achieved_fraction


class ConstructionError(ToolkitError):
    """The nested-ball construction failed (a budget, a floor, or a stage
    search that exhausted its truncation bound), at a named sublevel when one
    applies."""

    def __init__(self, message, sublevel=None):
        super().__init__(message)
        self.sublevel = sublevel
