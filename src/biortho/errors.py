"""The three exception types of the package, one per failure class; the CLI
maps each to an exit code.  The library raises no other on purpose."""


class InputError(ValueError):
    """Raised when an argument, option or config value is outside its domain."""


class ScopeError(Exception):
    """Raised when an input lies outside a method's range: an asymptotic formula
    outside its proven range, saddle data, exact coefficients or a contour
    value beyond the double range."""


class ConvergenceError(RuntimeError):
    """Raised when a computation fails on input in range: a quadrature stalls
    or exceeds its evaluation budget, a node hits the integrand's pole, the
    phase derivative's denominator vanishes, or a convergence table keeps too
    few rows for a slope fit."""
