"""Jacobi biorthogonal polynomials: exact evaluation, a Rodrigues-type
contour-integral oracle, Darboux-type asymptotics, and a certification suite.
"""

__version__ = "0.1.0"

from .polys import EvalResult, Params  # noqa: F401
from .errors import ConvergenceError, InputError, ScopeError  # noqa: F401
