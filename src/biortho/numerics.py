"""Scalar and double-width numeric kernels shared by all modules.

Provides log-Gamma, principal-branch complex powers, bracketed bisection,
Richardson-extrapolated central finite differences, least-squares slope
fitting, and a small set of vectorized double-double primitives used by the
polynomial evaluators.

Everything here is a pure function of its inputs and safe to call from any
number of threads.
"""

from __future__ import annotations

import cmath
import math
from typing import Callable, Sequence, Tuple

import numpy as np

__all__ = [
    "complex_pow_principal",
    "fd_derivative",
    "find_root_bisect",
    "fit_loglog_slope",
    "log_gamma",
]

# Lanczos approximation with g = 7 and 9 coefficients.  After reflection for
# x < 0.5 the relative error stays near 1e-15 on [1e-3, 1e6], well inside the
# 1e-13 contract (relative to max(1, |ln Gamma|); ln Gamma vanishes at 1, 2).
_LANCZOS_G = 7.0
_LANCZOS_COEF = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)
_LN_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


def log_gamma(x: float) -> float:
    """Natural logarithm of Gamma(x) for x > 0."""
    if not x > 0.0:
        raise ValueError(f"log_gamma requires x > 0, got {x!r}")
    if x < 0.5:
        # reflection keeps the Lanczos series in its accurate range
        return math.log(math.pi / math.sin(math.pi * x)) - log_gamma(1.0 - x)
    z = x - 1.0
    series = _LANCZOS_COEF[0]
    for i in range(1, len(_LANCZOS_COEF)):
        series += _LANCZOS_COEF[i] / (z + i)
    base = z + _LANCZOS_G + 0.5
    return _LN_SQRT_2PI + (z + 0.5) * math.log(base) - base + math.log(series)


def complex_pow_principal(z: complex, p: float) -> complex:
    """z**p as exp(p * Log z) with the principal logarithm.

    The argument of Log lies in (-pi, pi].  z = 0 is allowed only for p > 0.
    """
    z = complex(z)
    if z == 0:
        if p > 0:
            return 0.0 + 0.0j
        raise ValueError("complex_pow_principal: zero base with p <= 0")
    return cmath.exp(p * cmath.log(z))


def find_root_bisect(f: Callable[[float], float], lo: float, hi: float,
                     tol: float) -> float:
    """Bisection root of a continuous f with f(lo), f(hi) of opposite sign.

    Returns the bracket midpoint once the bracket width is <= tol.  Fully
    deterministic; no derivative estimates.
    """
    if not (lo < hi):
        raise ValueError("find_root_bisect: need lo < hi")
    flo = f(lo)
    if flo == 0.0:
        return lo
    fhi = f(hi)
    if fhi == 0.0:
        return hi
    if (flo > 0.0) == (fhi > 0.0):
        raise ValueError("find_root_bisect: f(lo) and f(hi) have the same sign")
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
    must lie inside f's domain (f itself raises otherwise).
    """
    if order not in (1, 2, 3):
        raise ValueError(f"fd_derivative: order must be 1, 2 or 3, got {order}")
    h = _FD_BASE_STEP[order] * max(1.0, abs(x))
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
        raise ValueError("fit_loglog_slope: need at least 3 rows")
    ns = np.array([float(n) for n, _ in rows])
    errs = np.array([float(e) for _, e in rows])
    if np.any(np.diff(ns) <= 0.0):
        raise ValueError("fit_loglog_slope: n must be strictly increasing")
    if np.any(errs <= 0.0):
        raise ValueError("fit_loglog_slope: errors must be positive")
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
    q1 = xh / yh
    th, te = _dd_two_prod(q1, yh)
    # remainder x - q1*y evaluated in double-double
    rh, rl = dd_add(xh, xl, -th, -(te + q1 * yl))
    q2 = (rh + rl) / yh
    s = q1 + q2
    return s, q2 - (s - q1)


def dd_sum(hs: np.ndarray, ls: np.ndarray, axis: int = 0):
    """Double-double reduction along an axis via pairwise folding."""
    hs = np.asarray(hs, dtype=float)
    ls = np.asarray(ls, dtype=float)
    while hs.shape[axis] > 1:
        m = hs.shape[axis]
        half = (m + 1) // 2
        first = np.take(hs, range(0, half), axis=axis)
        firstl = np.take(ls, range(0, half), axis=axis)
        rest = np.take(hs, range(half, m), axis=axis)
        restl = np.take(ls, range(half, m), axis=axis)
        pad = first.shape[axis] - rest.shape[axis]
        if pad:
            shape = list(rest.shape)
            shape[axis] = pad
            rest = np.concatenate([rest, np.zeros(shape)], axis=axis)
            restl = np.concatenate([restl, np.zeros(shape)], axis=axis)
        hs, ls = dd_add(first, firstl, rest, restl)
    return np.take(hs, 0, axis=axis), np.take(ls, 0, axis=axis)
