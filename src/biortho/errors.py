"""The three exception types of the package, one per failure class (the CLI
maps each to an exit code), and the one home of each shared argument rule."""

import math

import numpy as np


class InputError(ValueError):
    """Raised when an argument, option or config value is outside its domain."""


class ScopeError(Exception):
    """Raised when an input lies outside a method's range: an asymptotic formula
    outside its proven range, saddle data, exact coefficients, a contour
    point or a contour value beyond the double range."""


class ConvergenceError(RuntimeError):
    """Raised when a computation fails on input in range: a quadrature stalls
    or exceeds its evaluation budget, a node hits the integrand's pole, the
    phase derivative's denominator vanishes, or a convergence table keeps too
    few rows for a slope fit."""


def check_degree(n, low: int = 0) -> int:
    """n as an int: a finite integer value >= low (ScopeError past 2^1024)."""
    try:
        if math.isfinite(n) and n == int(n) and n >= low:
            return int(n)
    except OverflowError:
        raise ScopeError(f"a degree of {int(n).bit_length()} bits exceeds "
                         "the double range") from None
    except TypeError:  # not a real number
        pass
    raise InputError(f"degree must be an integer >= {low}, got {n!r}")


def check_angle(t, name: str = "angle"):
    """t in (0, pi): a scalar as a float, with no numpy round trip for a
    float, else a float array of at least one dimension."""
    scalar = isinstance(t, float) or np.ndim(t) == 0
    t = float(t) if scalar else np.atleast_1d(np.asarray(t, dtype=float))
    inside = (t > 0.0) & (t < math.pi)
    if inside if scalar else inside.all():
        return t
    bad = t if scalar else float(t[~inside][0])
    raise InputError(f"{name} must lie in (0, pi), got {bad!r}")


def check_tol(tol):
    """tol, a finite tolerance > 0."""
    if not 0.0 < tol < math.inf:
        raise InputError(f"tol must be finite and > 0, got {tol!r}")
    return tol
