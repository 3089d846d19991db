"""Exception types shared across the package.

The CLI maps these onto process exit codes: validation problems exit 2,
violated theorem assertions and failed numeric checks exit 3, resource
ceilings exit 4.
"""


class OverflowLabError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(OverflowLabError):
    """A precondition on user-supplied input failed."""


class TheoremViolation(OverflowLabError):
    """A mathematically guaranteed inequality failed at evaluation time (a bug)."""


class CeilingExceeded(OverflowLabError):
    """A configured resource ceiling (e.g. type-class count) would be exceeded."""


class NumericError(OverflowLabError):
    """An internal numeric consistency check failed (overflow, mass imbalance)."""
