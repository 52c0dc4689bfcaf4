"""Exact evaluation of classical Jacobi and Jacobi biorthogonal polynomials.

The biorthogonal family is evaluated from its explicit double-sum
representation; the classical family from its single-sum representation and,
as an independent oracle, from the standard three-term recurrence.  The
normalization is fixed by the value at x = 1.

The alternating sums cancel violently (the condition number grows roughly
like the inverse n-th power of the sine ratio at interior points, and much
faster for large exponents near x = -1), so each coefficient of either sum is
computed once per (alpha, a, b, n) as an exact integer ratio (floats are
dyadic), rounded once to double-double by _round_dd (ScopeError from 2^996 on),
and only the outer Bernstein sum in x, shared by both families, rounds: it runs
in double-double.  Only x = 1 short-circuits, to the correctly rounded
normalization.  The condition estimate is that of the outer sum (largest
|term| over |value|); its relative error is about 2n(n+1) 2^-104 times it, and
values with condition_estimate > 1e12 are reported as unreliable.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import Tuple

import numpy as np

from .errors import InputError, ScopeError
from .numerics import dd_mul, dd_sum, dd_two_sum

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
# C(n, n//2) exceeds the double range from n = 1030 on, so no table of a
# higher degree can be rounded
_MAX_DEGREE = 1029
_LOG_DOUBLE_MAX = math.log(sys.float_info.max)
# from 2^996 on, the Dekker split in the double-double products overflows
_DD_LIMIT = 2.0 ** 996


@dataclass(frozen=True)
class Params:
    """Weight/family parameters, all finite: alpha > 0, a > -1, b > -1."""

    alpha: float
    a: float
    b: float

    def __post_init__(self):
        for name, low in (("alpha", 0.0), ("a", -1.0), ("b", -1.0)):
            value = getattr(self, name)
            if not (low < value < math.inf):
                raise InputError(
                    f"{name} must be finite and > {low:g}, got {value!r}")


@dataclass(frozen=True)
class EvalResult:
    """Value of a polynomial sum plus cancellation diagnostics."""

    value: float
    condition_estimate: float

    @property
    def reliable(self) -> bool:
        return self.condition_estimate <= RELIABLE_CONDITION


def _validate_degree(n: int) -> int:
    if n != int(n) or n < 0:
        raise InputError(f"degree must be a non-negative integer, got {n!r}")
    return int(n)


# ---------------------------------------------------------------------------
# exact coefficient tables
# ---------------------------------------------------------------------------

def _poch_numerators(a: float, alpha: float, n: int):
    """Integers N(s) and D with Poch((s+a+1)/alpha, n) / n! = N(s) / D, s >= 0:
    with d the common power-of-two denominator of the floats a and alpha, each
    factor is (a0 + s*d + j*al)/al for the integers a0 = (a+1)*d, al = alpha*d."""
    a_num, a_den = float(a).as_integer_ratio()
    al_num, al_den = float(alpha).as_integer_ratio()
    d = max(a_den, al_den)
    a0 = (a_num + a_den) * (d // a_den)
    al = al_num * (d // al_den)

    def numerator(s: int) -> int:
        return math.prod(range(a0 + s * d, a0 + s * d + n * al, al))

    return numerator, al ** n * math.factorial(n)


def _round_dd(top: int, bot: int):
    """The integer ratio top/bot (bot > 0) as a double-double: int true
    division rounds hi correctly, then lo is the remainder, rounded.
    OverflowError when |hi| >= 2^996, beyond the double-double products."""
    hi = top / bot
    if abs(hi) >= _DD_LIMIT:
        raise OverflowError
    p, q = hi.as_integer_ratio()
    return hi, (top * q - p * bot) / (bot * q)


def _log_terms_beyond_range(alpha: float, a: float, b: float, n: int) -> bool:
    """Whether some term B[r] C(r, s) A[s] of the degree-n table certainly
    exceeds the double range: its log-Gamma form is over log(DBL_MAX) by
    more than 1e-6, far beyond the rounding of the logs (about 1e-12)."""
    lg = math.lgamma
    # first a bound on all terms: B[r] = C(n+b, r) <= 2^(n + ceil b),
    # C(r, s) <= C(n, n//2) and A[s] <= A[n]
    c_top = (n + a + 1.0) / alpha
    if ((n + max(0, math.ceil(b))) * math.log(2.0) - lg(n // 2 + 1.0)
            - lg(n - n // 2 + 1.0) + lg(n + c_top) - lg(c_top)) <= _LOG_DOUBLE_MAX:
        return False
    log_fact = np.array([lg(k + 1.0) for k in range(n + 1)])
    log_a = np.array([lg(n + c) - lg(c) for c in
                      ((s + a + 1.0) / alpha for s in range(n + 1))]) - log_fact[n]
    log_b = (lg(n + b + 1.0) - log_fact
             - np.array([lg(n - r + b + 1.0) for r in range(n + 1)]))
    r = np.arange(n + 1)
    # log(B[r] C(r, s) A[s]) = (log B[r] + log r!) + (log A[s] - log s!) - log (r-s)!
    terms = ((log_b + log_fact)[:, None] + (log_a - log_fact)
             - log_fact[np.abs(r[:, None] - r)])
    return bool(np.max(terms, where=r[None, :] <= r[:, None], initial=-np.inf)
                > _LOG_DOUBLE_MAX + 1e-6)


@lru_cache(maxsize=512)
def _biortho_table(alpha: float, a: float, b: float, n: int):
    """Coefficient table (coef_h, coef_l) for the biorthogonal double sum.

    With A[s] = Poch((s+a+1)/alpha, n)/n!, B[r] = Gamma(n+b+1)/(Gamma(n-r+b+1) r!)
    and C(r, s) binomial, the double sum collapses to

        P_n(x) = sum_r coef(r) * ((1-x)/2)^r * ((1+x)/2)^(n-r),
        coef(r) = B[r] * sum_{s<=r} (-1)^s C(r, s) A[s].

    For floats, A[s] = N[s] / (al^n n!) and B[r] = Bnum[r] / (db^r r!) with
    integers N, Bnum, al, db, so the inner s-sums (which cancel to ~17 digits
    and beyond) are exact forward differences of N, and each coef(r) is
    rounded once to double-double.  Only the outer Bernstein sum rounds.
    ScopeError when A[n] or some term B[r] C(r, s) A[s] exceeds the double
    range, or a coefficient reaches 2^996.
    """
    step_b, den_b = _poch_numerators(b, 1.0, 1)  # n-r+b+1 = step_b(n-r)/den_b
    try:
        # the degree limit and the largest A[s] go first, then a log bound on
        # every term, so overflows cost O(n) big-integer and O(n^2) float work
        if n > _MAX_DEGREE:
            raise OverflowError
        numerator, den_a = _poch_numerators(a, alpha, n)
        numerator(n) / den_a
        if _log_terms_beyond_range(alpha, a, b, n):
            raise OverflowError
        coef_h, coef_l = np.empty((2, n + 1))
        diff = [numerator(s) for s in range(n + 1)]
        bn, bd = 1, 1  # Bnum[r], db^r r!
        for r in range(n + 1):
            if r > 0:
                bn *= step_b(n - r)
                bd *= den_b * r
                # sum_{s<=r} (-1)^s C(r,s) N[s] = (-1)^r * (r-th forward difference at 0)
                diff = list(map(operator.sub, diff[1:], diff))
            top = -diff[0] * bn if r & 1 else diff[0] * bn
            coef_h[r], coef_l[r] = _round_dd(top, bd * den_a)
    except OverflowError:
        raise ScopeError(
            f"exact coefficients of degree {n} at alpha={alpha!r}, a={a!r}, "
            f"b={b!r} exceed the double range; use the contour method") from None
    return coef_h, coef_l


@lru_cache(maxsize=512)
def _jacobi_table(a: float, b: float, n: int):
    """Coefficient table for the classical single-sum representation.

    term(r) = (-1)^r * A'[r] * B[r] with A'[r] = Gamma(n+a+1)/(Gamma(r+a+1) (n-r)!)
    and B[r] as in the biorthogonal table.  A'[r] = Poch(r+a+1, n-r)/(n-r)!
    is numerator(r)/den of _poch_numerators(a, 1, n-r), reached from r = 0 by
    exact division, so each term is an integer ratio, rounded once.
    ScopeError beyond the double-double range.
    """
    try:
        if n > _MAX_DEGREE:  # term(r) > C(n-1, r-1) C(n-1, r) overflows there
            raise OverflowError
        numerator, bot_a = _poch_numerators(a, 1.0, n)
        step_a, den_a = _poch_numerators(a, 1.0, 1)  # r+a+1 = step_a(r)/den_a
        step_b, den_b = _poch_numerators(b, 1.0, 1)
        top_a, top_b, bot_b = numerator(0), 1, 1
        t_h, t_l = np.empty((2, n + 1))
        for r in range(n + 1):
            if r > 0:
                top_a //= step_a(r - 1)
                bot_a //= den_a * (n - r + 1)
                top_b *= step_b(n - r)
                bot_b *= den_b * r
            top = top_a * top_b
            t_h[r], t_l[r] = _round_dd(-top if r & 1 else top, bot_a * bot_b)
    except OverflowError:
        raise ScopeError(
            f"classical coefficients of degree {n} at a={a!r}, b={b!r} exceed "
            f"the double range; use the contour method") from None
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


def _bernstein_dd_sum(coef_h, coef_l, n: int, xs: np.ndarray):
    """Double-double sum_r coef[r] ((1-x)/2)^r ((1+x)/2)^(n-r), with its
    condition: the largest |term| over |value|, infinite at a zero value and
    never below 1.  The relative error is about 2n(n+1) 2^-104 times that."""
    m = xs.size
    p1h, p1l, p2h, p2l = _dd_halves(xs)
    pow1h, pow1l = _dd_power_ladder(p1h, p1l, n, m)
    pow2h, pow2l = _dd_power_ladder(p2h, p2l, n, m)
    th, tl = dd_mul(coef_h[:, None], coef_l[:, None], pow1h, pow1l)
    th, tl = dd_mul(th, tl, pow2h[::-1], pow2l[::-1])
    sum_h, sum_l = dd_sum(th, tl)
    values = sum_h + sum_l
    peak = np.max(np.abs(th), axis=0)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        cond = np.where(values != 0.0, peak / np.abs(values), np.inf)
    return values, np.maximum(cond, 1.0)


def eval_biortho_grid(p: Params, n: int, xs) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorized biorthogonal evaluation; returns (values, condition_estimates)."""
    n = _validate_degree(n)
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    if not np.all(np.abs(xs) <= 1.0):  # also rejects NaN
        raise InputError("eval_biortho requires |x| <= 1")
    return _bernstein_dd_sum(*_biortho_table(p.alpha, p.a, p.b, n), n, xs)


def eval_biortho(p: Params, n: int, x: float) -> EvalResult:
    """Biorthogonal polynomial value from the explicit double sum.

    x = 1 short-circuits to the correctly rounded normalization_at_one; every
    other x, -1 included, runs the generic double-double path.
    """
    n = _validate_degree(n)
    x = float(x)
    if not abs(x) <= 1.0:  # also rejects NaN
        raise InputError(f"eval_biortho requires |x| <= 1, got {x!r}")
    if x == 1.0:
        return EvalResult(normalization_at_one(p, n), 1.0)
    values, cond = eval_biortho_grid(p, n, np.array([x]))
    return EvalResult(float(values[0]), float(cond[0]))


def jacobi_rep_grid(a: float, b: float, n: int, xs) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorized classical-representation evaluation with condition estimates."""
    n = _validate_degree(n)
    if not (-1.0 < a < math.inf and -1.0 < b < math.inf):
        raise InputError("jacobi parameters require finite a, b > -1")
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    return _bernstein_dd_sum(*_jacobi_table(a, b, n), n, xs)


def eval_jacobi_rep(a: float, b: float, n: int, x: float) -> float:
    """Classical Jacobi polynomial from its explicit single-sum representation."""
    values, _ = jacobi_rep_grid(a, b, n, np.array([float(x)]))
    return float(values[0])


def jacobi_recurrence_grid(a: float, b: float, n: int, xs) -> np.ndarray:
    """Three-term recurrence oracle, vectorized over x."""
    n = _validate_degree(n)
    if not (-1.0 < a < math.inf and -1.0 < b < math.inf):
        raise InputError("jacobi parameters require finite a, b > -1")
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
    """Value of the biorthogonal polynomial at x = 1, correctly rounded.

    It is A[0] = Poch((a+1)/alpha, n)/n!, an integer ratio rounded once.
    ScopeError beyond the double range, and for n above the tables' degree
    limit 1029, where the integers would grow without bound.
    """
    n = _validate_degree(n)
    if n <= _MAX_DEGREE:
        numerator, den = _poch_numerators(p.a, p.alpha, n)
        try:
            return numerator(0) / den
        except OverflowError:
            pass
    raise ScopeError(f"the value at x = 1 of degree {n} at alpha={p.alpha!r}, "
                     f"a={p.a!r} exceeds the range of the exact method")


def chu_vandermonde_sides(n: int, r: int, a: float) -> Tuple[float, float]:
    """Both sides of the terminating hypergeometric summation at unit argument.

    lhs = sum over s <= r of (-1)^s Gamma(n+s+a+1) / (n! s! (r-s)! Gamma(s+a+1))
    rhs = (-1)^r Gamma(n+a+1) / ((n-r)! Gamma(r+a+1) r!)

    Gamma ratios reduce to finite Pochhammer products, so for a float ``a``
    both sides are integers over one denominator each (``_poch_numerators``
    at alpha = 1), rounded once at the end.  Double-precision log-Gamma
    summation would lose ~13 digits to cancellation at n = r = 20 and could
    not certify anything.
    """
    n = _validate_degree(n)
    r = _validate_degree(r)
    if r > n:
        raise InputError(f"need r <= n, got r={r}, n={n}")
    numerator, den = _poch_numerators(a, 1.0, n)
    lhs = sum((-1) ** s * math.comb(r, s) * numerator(s) for s in range(r + 1))
    lhs /= den * math.factorial(r)
    numerator, den = _poch_numerators(a, 1.0, n - r)
    rhs = numerator(r) / (den * math.factorial(r))
    return lhs, -rhs if r & 1 else rhs
