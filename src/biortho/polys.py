"""Exact evaluation of classical Jacobi and Jacobi biorthogonal polynomials.

The biorthogonal family is evaluated from its explicit double-sum
representation; the classical family from its single-sum representation and,
as an independent oracle, from the standard three-term recurrence.  The
normalization is fixed by the value at x = 1.

The alternating sums cancel violently (the condition number grows roughly
like the inverse n-th power of the sine ratio at interior points, and much
faster for large exponents near x = -1), so each term's Gamma-ratio
coefficient is built once per (alpha, a, b, n) as a double-double product of
rational factors and the whole sum is accumulated in double-double as well.
A condition estimate (largest |term| over |value|) is always reported and
values with condition_estimate > 1e12 must be treated as unreliable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Tuple

import numpy as np

from .errors import InputError
from .numerics import dd_div, dd_mul, dd_sum, dd_two_sum, log_gamma

__all__ = [
    "Params",
    "EvalResult",
    "RELIABLE_CONDITION",
    "eval_biortho",
    "eval_biortho_grid",
    "eval_jacobi_rep",
    "jacobi_rep_grid",
    "eval_jacobi_recurrence",
    "jacobi_recurrence_grid",
    "normalization_at_one",
    "chu_vandermonde_sides",
]

RELIABLE_CONDITION = 1e12


@dataclass(frozen=True)
class Params:
    """Weight/family parameters: alpha > 0, a > -1, b > -1."""

    alpha: float
    a: float
    b: float

    def __post_init__(self):
        if not (self.alpha > 0.0):
            raise InputError(f"alpha must be > 0, got {self.alpha!r}")
        if not (self.a > -1.0):
            raise InputError(f"a must be > -1, got {self.a!r}")
        if not (self.b > -1.0):
            raise InputError(f"b must be > -1, got {self.b!r}")


@dataclass(frozen=True)
class EvalResult:
    """Value of a polynomial sum plus cancellation diagnostics."""

    value: float
    condition_estimate: float
    terms_used: int

    @property
    def reliable(self) -> bool:
        return self.condition_estimate <= RELIABLE_CONDITION


def _validate_degree(n: int) -> int:
    if n != int(n) or n < 0:
        raise InputError(f"degree must be a non-negative integer, got {n!r}")
    return int(n)


# ---------------------------------------------------------------------------
# double-double coefficient tables
# ---------------------------------------------------------------------------

def _dd_from_fraction(fr: Fraction):
    hi = float(fr)
    lo = float(fr - Fraction(hi))
    return hi, lo


@lru_cache(maxsize=512)
def _biortho_table(alpha: float, a: float, b: float, n: int):
    """Per-degree coefficient data for the biorthogonal double sum.

    With A[s] = Poch((s+a+1)/alpha, n)/n!, B[r] = Gamma(n+b+1)/(Gamma(n-r+b+1) r!)
    and C(r, s) binomial, the double sum collapses to

        P_n(x) = sum_r coef(r) * ((1-x)/2)^r * ((1+x)/2)^(n-r),
        coef(r) = B[r] * sum_{s<=r} (-1)^s C(r, s) A[s].

    For float inputs every quantity above is an exact rational, and the inner
    alternating s-sums (which cancel to ~17 digits and beyond) are computed
    exactly before rounding to double-double.  The raw per-(r, s) term
    magnitudes are kept so the reported condition estimate still reflects the
    cancellation of the full double sum.
    """
    fa = Fraction(float(a))
    fb = Fraction(float(b))
    falpha = Fraction(float(alpha))
    n_fact = math.factorial(n)

    a_exact = []
    for s in range(n + 1):
        c = (fa + (s + 1)) / falpha
        poch = Fraction(1)
        for j in range(n):
            poch *= c + j
        a_exact.append(poch / n_fact)

    coef_h = np.empty(n + 1)
    coef_l = np.empty(n + 1)
    absmax = np.empty(n + 1)  # max_s |term(r, s)| without the x-power factors
    b_run = Fraction(1)
    a_abs = [abs(float(v)) for v in a_exact]
    # sum_{s<=r} (-1)^s C(r,s) A[s] = (-1)^r * (r-th forward difference of A at 0)
    diff = list(a_exact)
    for r in range(n + 1):
        if r > 0:
            b_run *= (fb + (n - r + 1)) / r
            diff = [diff[s + 1] - diff[s] for s in range(len(diff) - 1)]
        inner = -diff[0] if r & 1 else diff[0]
        coef_h[r], coef_l[r] = _dd_from_fraction(inner * b_run)
        b_abs = abs(float(b_run))
        absmax[r] = b_abs * max(math.comb(r, s) * a_abs[s] for s in range(r + 1))
    return coef_h, coef_l, absmax


@lru_cache(maxsize=512)
def _jacobi_table(a: float, b: float, n: int):
    """Coefficient table for the classical single-sum representation.

    term(r) = (-1)^r * [Gamma(n+a+1)/(Gamma(r+a+1) (n-r)!)]
                     * [Gamma(n+b+1)/(Gamma(n-r+b+1) r!)]
    """
    t_h = np.empty(n + 1)
    t_l = np.empty(n + 1)
    # A'[r] = Gamma(n+a+1)/(Gamma(r+a+1)(n-r)!), built downward from A'[n] = 1
    ap_h = np.ones(n + 1)
    ap_l = np.zeros(n + 1)
    run_h, run_l = 1.0, 0.0
    for r in range(n - 1, -1, -1):
        f_h, f_l = dd_two_sum(a, float(r + 1))
        f_h, f_l = dd_div(f_h, f_l, float(n - r), 0.0)
        run_h, run_l = dd_mul(run_h, run_l, f_h, f_l)
        ap_h[r], ap_l[r] = run_h, run_l
    # B'[r] as in the biorthogonal table
    run_h, run_l = 1.0, 0.0
    t_h[0], t_l[0] = ap_h[0], ap_l[0]
    for r in range(1, n + 1):
        f_h, f_l = dd_two_sum(b, float(n - r + 1))
        f_h, f_l = dd_div(f_h, f_l, float(r), 0.0)
        run_h, run_l = dd_mul(run_h, run_l, f_h, f_l)
        h, l = dd_mul(ap_h[r], ap_l[r], run_h, run_l)
        if r & 1:
            h, l = -h, -l
        t_h[r], t_l[r] = h, l
    return t_h, t_l


def _dd_halves(xs: np.ndarray):
    """(1-x)/2 and (1+x)/2 as exact double-double pairs."""
    p1_h, p1_l = dd_two_sum(1.0, -xs)
    p2_h, p2_l = dd_two_sum(1.0, xs)
    return 0.5 * p1_h, 0.5 * p1_l, 0.5 * p2_h, 0.5 * p2_l


def _dd_power_ladder(h, l, n: int, m: int):
    """Powers 0..n of a double-double array of length m, shape (n+1, m)."""
    ph = np.empty((n + 1, m))
    pl = np.empty((n + 1, m))
    ph[0] = 1.0
    pl[0] = 0.0
    for k in range(1, n + 1):
        ph[k], pl[k] = dd_mul(ph[k - 1], pl[k - 1], h, l)
    return ph, pl


def eval_biortho_grid(p: Params, n: int, xs) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorized biorthogonal evaluation; returns (values, condition_estimates)."""
    n = _validate_degree(n)
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    if not np.all(np.abs(xs) <= 1.0):  # also rejects NaN
        raise InputError("eval_biortho requires |x| <= 1")
    coef_h, coef_l, absmax = _biortho_table(p.alpha, p.a, p.b, n)
    m = xs.size
    p1h, p1l, p2h, p2l = _dd_halves(xs)
    pow1h, pow1l = _dd_power_ladder(p1h, p1l, n, m)
    pow2h, pow2l = _dd_power_ladder(p2h, p2l, n, m)
    th, tl = dd_mul(coef_h[:, None], coef_l[:, None], pow1h, pow1l)
    th, tl = dd_mul(th, tl, pow2h[::-1], pow2l[::-1])
    sum_h, sum_l = dd_sum(th, tl, axis=0)
    values = sum_h + sum_l
    peak = np.max(absmax[:, None] * np.abs(pow1h) * np.abs(pow2h[::-1]), axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        cond = np.where(values != 0.0, peak / np.abs(values), np.inf)
    return values, np.maximum(cond, 1.0)


def eval_biortho(p: Params, n: int, x: float) -> EvalResult:
    """Biorthogonal polynomial value from the explicit double sum.

    x = +-1 short-circuits to the boundary closed forms (only the r = 0 or
    r = n chains survive); the generic path is used elsewhere.
    """
    n = _validate_degree(n)
    x = float(x)
    if not abs(x) <= 1.0:  # also rejects NaN
        raise InputError(f"eval_biortho requires |x| <= 1, got {x!r}")
    count = (n + 1) * (n + 2) // 2
    if x == 1.0:
        return EvalResult(normalization_at_one(p, n), 1.0, count)
    if x == -1.0:
        coef_h, coef_l, absmax = _biortho_table(p.alpha, p.a, p.b, n)
        value = coef_h[n] + coef_l[n]
        cond = absmax[n] / abs(value) if value != 0.0 else math.inf
        return EvalResult(float(value), max(float(cond), 1.0), count)
    values, cond = eval_biortho_grid(p, n, np.array([x]))
    return EvalResult(float(values[0]), float(cond[0]), count)


def jacobi_rep_grid(a: float, b: float, n: int, xs) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorized classical-representation evaluation with condition estimates."""
    n = _validate_degree(n)
    if not (a > -1.0 and b > -1.0):
        raise InputError("jacobi parameters require a, b > -1")
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    t_h, t_l = _jacobi_table(a, b, n)
    m = xs.size
    p1h, p1l, p2h, p2l = _dd_halves(xs)
    pow1h, pow1l = _dd_power_ladder(p1h, p1l, n, m)
    pow2h, pow2l = _dd_power_ladder(p2h, p2l, n, m)
    r_idx = np.arange(n + 1)
    th, tl = dd_mul(t_h[:, None], t_l[:, None], pow1h[r_idx], pow1l[r_idx])
    th, tl = dd_mul(th, tl, pow2h[n - r_idx], pow2l[n - r_idx])
    sum_h, sum_l = dd_sum(th, tl, axis=0)
    values = sum_h + sum_l
    peak = np.max(np.abs(th), axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        cond = np.where(values != 0.0, peak / np.abs(values), np.inf)
    return values, np.maximum(cond, 1.0)


def eval_jacobi_rep(a: float, b: float, n: int, x: float) -> float:
    """Classical Jacobi polynomial from its explicit single-sum representation."""
    values, _ = jacobi_rep_grid(a, b, n, np.array([float(x)]))
    return float(values[0])


def jacobi_recurrence_grid(a: float, b: float, n: int, xs) -> np.ndarray:
    """Three-term recurrence oracle, vectorized over x."""
    n = _validate_degree(n)
    if not (a > -1.0 and b > -1.0):
        raise InputError("jacobi parameters require a, b > -1")
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    p_prev = np.ones_like(xs)
    if n == 0:
        return p_prev
    p_cur = (a + 1.0) + (a + b + 2.0) * (xs - 1.0) / 2.0
    for k in range(2, n + 1):
        c0 = 2.0 * k + a + b
        denom = 2.0 * k * (k + a + b) * (c0 - 2.0)
        p_next = ((c0 - 1.0) * ((c0 * (c0 - 2.0)) * xs + (a * a - b * b)) * p_cur
                  - 2.0 * (k + a - 1.0) * (k + b - 1.0) * c0 * p_prev) / denom
        p_prev, p_cur = p_cur, p_next
    return p_cur


def eval_jacobi_recurrence(a: float, b: float, n: int, x: float) -> float:
    """Scalar wrapper for the recurrence oracle."""
    return float(jacobi_recurrence_grid(a, b, n, np.array([float(x)]))[0])


def normalization_at_one(p: Params, n: int) -> float:
    """Value of the biorthogonal polynomial at x = 1."""
    n = _validate_degree(n)
    c = (p.a + 1.0) / p.alpha
    return math.exp(log_gamma(n + c) - log_gamma(n + 1.0) - log_gamma(c))


def chu_vandermonde_sides(n: int, r: int, a: float) -> Tuple[float, float]:
    """Both sides of the terminating hypergeometric summation at unit argument.

    lhs = sum over s <= r of (-1)^s Gamma(n+s+a+1) / (n! s! (r-s)! Gamma(s+a+1))
    rhs = (-1)^r Gamma(n+a+1) / ((n-r)! Gamma(r+a+1) r!)

    Gamma ratios reduce to finite Pochhammer products, so for a float ``a``
    both sides are exact rationals; they are evaluated exactly and rounded
    once at the end.  Double-precision log-Gamma summation would lose ~13
    digits to cancellation at n = r = 20 and could not certify anything.
    """
    n = _validate_degree(n)
    r = _validate_degree(r)
    if r > n:
        raise InputError(f"need r <= n, got r={r}, n={n}")
    fa = Fraction(float(a))
    n_fact = math.factorial(n)
    lhs = Fraction(0)
    for s in range(r + 1):
        poch = Fraction(1)
        base = fa + (s + 1)
        for j in range(n):
            poch *= base + j
        term = poch / (n_fact * math.factorial(s) * math.factorial(r - s))
        lhs += -term if s & 1 else term
    poch = Fraction(1)
    base = fa + (r + 1)
    for j in range(n - r):
        poch *= base + j
    rhs = poch / (math.factorial(n - r) * math.factorial(r))
    if r & 1:
        rhs = -rhs
    return float(lhs), float(rhs)
