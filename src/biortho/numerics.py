"""Scalar and double-width numeric kernels shared by all modules.

Provides a range-checked value * e^x, bracketed bisection,
Richardson-extrapolated central finite differences, least-squares slope
fitting, and a small set of vectorized double-double primitives used by the
polynomial evaluators.

Everything here is a pure function of its inputs and safe to call from any
number of threads.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence, Tuple

import numpy as np

from .errors import InputError, ScopeError

# exp() underflows to zero below this exponent; nodes beyond it are dead
DEAD_LOG = -745.0

__all__ = [
    "fd_derivative",
    "find_root_bisect",
    "fit_loglog_slope",
    "times_exp",
]


def times_exp(value: float, exponent: float, what: str,
              hint: str = "") -> float:
    """value * e^exponent, where e^exponent is the factor rho^n taken out of a
    scaled value.  Raises ScopeError, naming `what` and appending `hint`, when
    the factor or the product exceeds the double range; underflow to 0 is
    returned as is."""
    try:
        product = value * math.exp(exponent)
    except OverflowError:
        product = math.inf
    if math.isinf(product):
        raise ScopeError(f"{what}: rho^n = exp({exponent:.4g}) takes the "
                         f"value beyond the double range{hint}")
    return product


def find_root_bisect(f: Callable[[float], float], lo: float, hi: float,
                     tol: float) -> float:
    """Bisection root of a continuous f with f(lo), f(hi) of opposite sign.

    Returns the bracket midpoint once the bracket width is <= tol.  Fully
    deterministic; no derivative estimates.
    """
    if not (lo < hi):
        raise InputError("find_root_bisect: need lo < hi")
    flo = f(lo)
    if flo == 0.0:
        return lo
    fhi = f(hi)
    if fhi == 0.0:
        return hi
    if (flo > 0.0) == (fhi > 0.0):
        raise InputError("find_root_bisect: f(lo) and f(hi) have the same sign")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not (lo < mid < hi):
            break  # bracket exhausted at float resolution
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (fm > 0.0) == (flo > 0.0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


_FD_BASE_STEP = {1: 1e-3, 2: 3e-3, 3: 8e-3}


def fd_derivative(f: Callable[[float], complex], x: float, order: int) -> complex:
    """Central finite difference of order 1, 2 or 3 with one Richardson step.

    The stencil spans x +- 2h with h scaled to max(1, |x|); evaluation points
    must lie inside f's domain (f itself raises otherwise).  x may be an
    array when f takes arrays elementwise.
    """
    if order not in (1, 2, 3):
        raise InputError(f"fd_derivative: order must be 1, 2 or 3, got {order}")
    h = _FD_BASE_STEP[order] * np.maximum(1.0, np.abs(x))
    d1 = _central_difference(f, x, h, order)
    d2 = _central_difference(f, x, 0.5 * h, order)
    # (4 D(h/2) - D(h)) / 3 removes the leading h^2 error term
    return d2 + (d2 - d1) / 3.0


def _central_difference(f, x, h, order):
    if order == 1:
        return (f(x + h) - f(x - h)) / (2.0 * h)
    if order == 2:
        return (f(x + h) - 2.0 * f(x) + f(x - h)) / (h * h)
    return (f(x + 2.0 * h) - 2.0 * f(x + h) + 2.0 * f(x - h) - f(x - 2.0 * h)) / (2.0 * h ** 3)


def fit_loglog_slope(rows: Sequence[Tuple[int, float]]) -> float:
    """Least-squares slope of ln(err) against ln(n).

    Rows are (n, err) with n strictly increasing and err > 0; at least three
    rows are required.
    """
    rows = list(rows)
    if len(rows) < 3:
        raise InputError("fit_loglog_slope: need at least 3 rows")
    ns = np.array([float(n) for n, _ in rows])
    errs = np.array([float(e) for _, e in rows])
    if np.any(np.diff(ns) <= 0.0):
        raise InputError("fit_loglog_slope: n must be strictly increasing")
    if np.any(errs <= 0.0):
        raise InputError("fit_loglog_slope: errors must be positive")
    slope, _ = np.polyfit(np.log(ns), np.log(errs), 1)
    return float(slope)


# ---------------------------------------------------------------------------
# vectorized double-double kernels (numpy arrays of hi/lo pairs)
# ---------------------------------------------------------------------------
# Used by the polynomial evaluators, where alternating sums lose far more
# digits than a double carries.  All operations are branch-free and work on
# scalars and arrays alike.

_SPLIT = 134217729.0  # 2**27 + 1, Dekker splitting constant


def dd_two_sum(a, b):
    s = a + b
    bv = s - a
    return s, (a - (s - bv)) + (b - bv)


def _dd_two_prod(a, b):
    p = a * b
    ah_t = _SPLIT * a
    ah = ah_t - (ah_t - a)
    al = a - ah
    bh_t = _SPLIT * b
    bh = bh_t - (bh_t - b)
    bl = b - bh
    err = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    return p, err


def dd_add(xh, xl, yh, yl):
    sh, se = dd_two_sum(xh, yh)
    te = xl + yl + se
    rh = sh + te
    return rh, te - (rh - sh)


def dd_mul(xh, xl, yh, yl):
    ph, pe = _dd_two_prod(xh, yh)
    pe = pe + (xh * yl + xl * yh)
    rh = ph + pe
    return rh, pe - (rh - ph)


def dd_div(xh, xl, yh, yl):
    """x / y from the double quotient and one remainder step.  To first
    order in u = 2^-53 its relative error is at most 9u^2 = 2.25 * 2^-104
    (the remainder's roundings, dividing it by yh alone, and rounding the
    correction); on the ratios (1-|x|)/(1+|x|) the polynomial evaluators
    form, the largest seen is about 2^-104."""
    q1 = xh / yh
    th, te = _dd_two_prod(q1, yh)
    # remainder x - q1*y evaluated in double-double
    rh, rl = dd_add(xh, xl, -th, -(te + q1 * yl))
    q2 = (rh + rl) / yh
    s = q1 + q2
    return s, q2 - (s - q1)


def dd_pow(h, l, n: int):
    """(h + l)^n by repeated squaring: n - 1 products' worth of error."""
    ph, pl = np.ones_like(h), np.zeros_like(h)
    while n:
        if n & 1:
            ph, pl = dd_mul(ph, pl, h, l)
        n >>= 1
        if n:
            h, l = dd_mul(h, l, h, l)
    return ph, pl


def dd_sum(hs: np.ndarray, ls: np.ndarray):
    """Double-double sum over axis 0 by pairwise folding: row i is added to
    row i + ceil(m/2), and an odd middle row carries to the next level."""
    hs = np.array(hs, dtype=float)
    ls = np.array(ls, dtype=float)
    m = hs.shape[0]
    while m > 1:
        half, keep = m // 2, (m + 1) // 2
        hs[:half], ls[:half] = dd_add(hs[:half], ls[:half], hs[keep:m], ls[keep:m])
        m = keep
    return hs[0], ls[0]
