"""Exception types shared across the package."""


class VpAdvisorError(Exception):
    """Base class for all package-specific errors."""


class _ViolationsError(VpAdvisorError):
    """An error that carries the full list of violation messages, so
    callers can report every problem at once instead of the first one
    found."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class ValidationError(_ViolationsError):
    """Raised when an instance fails structural validation."""


class InfeasibleLayoutError(_ViolationsError):
    """Raised when a layout violates assignment, coverage, or co-location rules."""


class BudgetExceededError(VpAdvisorError):
    """Raised when exhaustive enumeration would exceed the configured budget."""


class FormatError(VpAdvisorError):
    """Raised when an instance or layout document cannot be parsed."""
