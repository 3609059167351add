"""Exception types shared across the package."""


class ValidationError(ValueError):
    """An input, configuration, or domain invariant was violated."""


class TraceParseError(ValueError):
    """A trace file could not be parsed; the message names the offending row."""


class InstanceTooLargeError(ValidationError):
    """The instance exceeds a work guard of the grid DP or exhaustive oracle."""


class BudgetExceededError(RuntimeError):
    """An enumeration would exceed the configured instance budget."""
