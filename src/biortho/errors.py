"""Exception types shared across the package; the CLI maps each to an exit code.

A plain ValueError that is none of these means a computation failed on valid
input (a pole hit, a vanished denominator) and counts as a numerical failure.
"""


class InputError(ValueError):
    """Raised when an argument, option or config value is outside its domain."""


class ScopeError(Exception):
    """Raised when an input lies outside a method's range: an asymptotic formula
    outside its proven range, or exact coefficients or a contour value beyond
    the double range."""


class ConvergenceError(RuntimeError):
    """Raised when a quadrature refinement stalls above the requested tolerance
    or exceeds its evaluation budget."""
