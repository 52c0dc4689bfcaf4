"""Exact evaluation of classical Jacobi and Jacobi biorthogonal polynomials.

The biorthogonal family is evaluated from its explicit double-sum
representation; the classical family from its single-sum representation and,
as an independent oracle, from the standard three-term recurrence.  The
normalization is fixed by the value at x = 1.

The alternating sums cancel violently (the condition number grows roughly
like the inverse n-th power of the sine ratio at interior points, and much
faster for large exponents near x = -1), so each coefficient of either sum is
an exact integer ratio (floats are dyadic), computed once per (alpha, a, b, n)
and rounded once to double-double by _round_dd (ScopeError from 2^996 on).
Only the outer sum in u = (1-x)/2, w = (1+x)/2 rounds: one double-double
Horner pass in t = min(u, w)/max(u, w) times max(u, w)^n (_horner_dd), whose
condition (largest |term| over |value|) times 3n(n+2) 2^-104 bounds its
relative error.  x = 1 short-circuits to the correctly rounded normalization.
eval_biortho_degrees runs several degrees on one grid as the rows of one
Horner pass, each row's table zero-padded to the top degree, and
eval_biortho_grid is its one-degree case.
"""

from __future__ import annotations

import itertools
import math
import operator
import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import Tuple

import numpy as np

from .errors import InputError, ScopeError, check_degree
from .numerics import _split, dd_div, dd_horner_step, dd_mul, dd_pow, dd_two_sum

__all__ = [
    "Params",
    "EvalResult",
    "eval_biortho",
    "eval_biortho_degrees",
    "eval_biortho_grid",
    "jacobi_rep_grid",
    "jacobi_recurrence_grid",
    "normalization_at_one",
    "chu_vandermonde_sides",
]

_RELIABLE_ERROR = 2.0 ** -50  # eight units of the final rounding 2^-53
# C(n, n//2) exceeds the double range from n = 1030 on, so no table of a
# higher degree can be rounded
_MAX_DEGREE = 1029
_LOG_DOUBLE_MAX = math.log(sys.float_info.max)
# from 2^996 on, the Dekker split in the double-double products overflows
_DD_LIMIT = 2.0 ** 996
# points per pass of the Horner kernel: a longer grid runs block by block
# through one work arena, which moves no bit, since every operation is
# elementwise, and bounds the kernel's memory
_HORNER_BLOCK = 8192


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
    """Value of a polynomial sum, the outer sum's condition estimate, and the
    relative error bound beyond rounding; reliable when that is <= 2^-50."""

    value: float
    condition_estimate: float
    error_bound: float

    @property
    def reliable(self) -> bool:
        return self.error_bound <= _RELIABLE_ERROR


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


def _unit_points(xs, what: str) -> np.ndarray:
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    if not np.all(np.abs(xs) <= 1.0):  # also rejects NaN
        raise InputError(f"{what} requires |x| <= 1")
    return xs


def _horner_dd(tables, xs: np.ndarray):
    """Double-double sum_r coef[r] u^r w^(n-r), u = (1-x)/2, w = (1+x)/2,
    and its condition: largest |term| over |value| (inf at a zero value,
    never below 1), for each table (coef_h, coef_l) of degree n: one row of
    values and one of conditions per table, each of xs's shape.  It is
    base^n sum_j c_j t^j with base = max(u, w) = (1+|x|)/2 and t =
    min(u, w)/base in [0, 1]: c_j = coef[j] for x >= 0, coef[n-j] for
    x < 0, one Horner pass for both orders.  The largest term is tracked in
    floats for its index only (float powers drift by j ulps at power j),
    then formed as |c_j| t_h^j (1 + j t_l/t_h).  First order in u = 2^-53,
    term j carries its coefficient's rounding (u^2) and j times t's error
    (9u^2), and passes j products (8u^2) and j + 1 sums (3u^2 of the
    operands): (10n^2 + 14n + 1) u^2 cond over all terms, plus 8n u^2 from
    base^n and the last product, below 3n(n+2) 2^-104 cond.

    The rows run as one pass of top-degree steps.  A lower degree's table
    is padded with zeros to the top degree, at its high end for x >= 0 and
    its low end for x < 0, so its accumulator stays exactly 0 until the
    step where its degree starts and takes its top coefficient there; its
    largest-term index is shifted back by that start.  The degree loop runs
    in place (numerics.dd_horner_step) in one work arena per call,
    _HORNER_BLOCK (row, point) pairs wide at most; a longer grid runs block
    by block through it.
    """
    ns = [coef_h.size - 1 for coef_h, _ in tables]
    pads = [max(ns) - n for n in ns]
    if len(tables) == 1:
        coef_h, coef_l = tables[0]
    else:
        coef_h, coef_l = (np.concatenate([
            piece for pad, table in zip(pads, tables)
            for piece in (np.zeros(pad), table[part], np.zeros(pad))])
            for part in (0, 1))
    # each row's padded table in the flat one: its first and last index
    lasts = [end - 1 for end in itertools.accumulate(
        n + 2 * pad + 1 for n, pad in zip(ns, pads))]
    firsts = [last - n - 2 * pad for last, n, pad in zip(lasts, ns, pads)]
    rows = ns, pads, firsts, lasts
    flat = xs.ravel()
    if flat.size * len(tables) == 1:
        # numpy takes a slow path (about 2.4x per call) for an operation that
        # writes over its own operand when the array has one element
        flat = np.repeat(flat, 2)
    width = max(1, _HORNER_BLOCK // len(tables))
    values, cond = np.empty((2, len(tables), flat.size))
    work = np.empty((4, len(tables) * min(flat.size, width)))
    mask = np.empty(work.shape[1], dtype=bool)
    for start in range(0, flat.size, width):
        block = slice(start, min(start + width, flat.size))
        size = len(tables) * (block.stop - start)
        values[:, block], cond[:, block] = _horner_block(
            coef_h, coef_l, rows, flat[block], work[:, :size], mask[:size])
    shape = (len(tables),) + xs.shape
    return (values[:, :xs.size].reshape(shape),
            cond[:, :xs.size].reshape(shape))


def _horner_block(coef_h, coef_l, rows, xs, work, mask):
    # _horner_dd on one block of points, every row, with its work arena; a
    # (row, point) pair is element row * xs.size + point
    ns, pads, firsts, lasts = rows
    width = xs.size

    def of_rows(a):  # a value per row, per pair (a scalar for one row)
        return a[0] if len(a) == 1 else np.repeat(a, width)

    def of_points(a):  # a value per point, per pair
        return a if len(ns) == 1 else np.tile(a, len(ns))
    base_h, base_l = dd_two_sum(1.0, np.abs(xs))  # 1 +- |x| are exact
    t_h, t_l = map(of_points, dd_div(*dd_two_sum(1.0, -np.abs(xs)),
                                     base_h, base_l))
    flip = of_points(xs < 0.0)
    # each pair's coefficient index: its row's last down to its first, or up
    # from its first for x < 0
    r, step = np.where(flip, of_rows(firsts), of_rows(lasts)), np.where(flip, 1, -1)
    acc_h, acc_l = coef_h[r], coef_l[r]
    peak, top = np.abs(acc_h), np.zeros(flip.shape, dtype=int)
    t_halves = _split(t_h)
    row_pairs = [slice(row * width, (row + 1) * width) for row in range(len(ns))]
    starts = {}  # step -> the pairs of the rows whose degree starts there
    for pairs, pad in zip(row_pairs, pads):
        if pad:
            starts.setdefault(pad, []).append(pairs)
    for k in range(1, max(ns) + 1):
        r += step
        c_h = coef_h[r]
        dd_horner_step(acc_h, acc_l, t_h, t_l, t_halves, c_h, coef_l[r], work)
        for pairs in starts.get(k, ()):
            # from acc = 0: c itself, where 0 t + c might round c_h + c_l
            acc_h[pairs], acc_l[pairs] = c_h[pairs], coef_l[r[pairs]]
        peak *= t_h
        mag = np.abs(c_h, out=c_h)
        np.greater(mag, peak, out=mask)
        np.putmask(top, mask, k)
        np.maximum(peak, mag, out=peak)
    if starts:
        # a row's top counts from its start, and stays there while its first
        # coefficients are 0
        top = np.maximum(top - of_rows(pads), 0)
    j, rel_l = of_rows(ns) - top, np.divide(t_l, t_h, out=np.zeros_like(t_h),
                                            where=t_h > 0.0)
    r = np.where(flip, top, j)
    if len(ns) > 1:
        r += of_rows([first + pad for first, pad in zip(firsts, pads)])
    peak = np.abs(coef_h[r]) * t_h ** j * (1.0 + j * rel_l)
    values = np.empty(flip.shape)
    for pairs, n in zip(row_pairs, ns):
        np.add(*dd_mul(acc_h[pairs], acc_l[pairs],
                       *dd_pow(0.5 * base_h, 0.5 * base_l, n)), out=values[pairs])
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        cond = np.where(values != 0.0, peak / np.abs(acc_h + acc_l), np.inf)
    return values.reshape(-1, width), np.maximum(cond, 1.0).reshape(-1, width)


def eval_biortho_degrees(p: Params, ns, xs) -> Tuple[np.ndarray, np.ndarray]:
    """eval_biortho_grid at each degree of ns, as the rows of one Horner
    pass: (values, condition_estimates), each of shape (len(ns),) + the
    shape of xs (at least one-dimensional), row k bit for bit that of
    eval_biortho_grid(p, ns[k], xs).  Raises what the first of those calls
    to fail would raise."""
    tables = []
    for n in ns:
        n = check_degree(n)
        if not tables:
            xs = _unit_points(xs, "eval_biortho")
        tables.append(_biortho_table(p.alpha, p.a, p.b, n))
    if not tables:
        return np.empty((2, 0) + _unit_points(xs, "eval_biortho").shape)
    return _horner_dd(tables, xs)


def eval_biortho_grid(p: Params, n: int, xs) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorized biorthogonal evaluation; returns (values, condition_estimates)."""
    values, cond = eval_biortho_degrees(p, [n], xs)
    return values[0], cond[0]


def eval_biortho(p: Params, n: int, x: float) -> EvalResult:
    """Biorthogonal polynomial value from the explicit double sum.

    x = 1 short-circuits to the correctly rounded normalization_at_one; every
    other x, -1 included, runs the generic double-double path.
    """
    n, x = check_degree(n), float(x)
    if x == 1.0:
        return EvalResult(normalization_at_one(p, n), 1.0, 0.0)
    values, cond = eval_biortho_grid(p, n, np.array([x]))
    cond = float(cond[0])
    bound = 3 * n * (n + 2) * 2.0 ** -104 * cond
    return EvalResult(float(values[0]), cond, bound if bound < 0.5 else math.inf)


def jacobi_rep_grid(a: float, b: float, n: int, xs) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorized classical-representation evaluation with condition estimates."""
    n, xs = check_degree(n), _unit_points(xs, "jacobi_rep_grid")
    Params(1.0, a, b)
    values, cond = _horner_dd([_jacobi_table(a, b, n)], xs)
    return values[0], cond[0]


def _recurrence_rows(a: float, b: float, n: int, xs: np.ndarray):
    """P_0 .. P_n at xs by the three-term recurrence, one degree at a time."""
    p_prev = np.ones_like(xs)
    yield p_prev
    if n == 0:
        return
    p_cur = (a + 1.0) + (a + b + 2.0) * (xs - 1.0) / 2.0
    yield p_cur
    for k in range(2, n + 1):
        c0 = 2.0 * k + a + b
        denom = 2.0 * k * (k + a + b) * (c0 - 2.0)
        p_next = ((c0 - 1.0) * ((c0 * (c0 - 2.0)) * xs + (a * a - b * b)) * p_cur
                  - 2.0 * (k + a - 1.0) * (k + b - 1.0) * c0 * p_prev) / denom
        p_prev, p_cur = p_cur, p_next
        yield p_cur


def jacobi_recurrence_grid(a: float, b: float, n: int, xs) -> np.ndarray:
    """Three-term recurrence oracle, vectorized over x."""
    n = check_degree(n)
    Params(1.0, a, b)
    for p_n in _recurrence_rows(a, b, n, np.atleast_1d(np.asarray(xs, dtype=float))):
        pass
    return p_n


def normalization_at_one(p: Params, n: int) -> float:
    """Value of the biorthogonal polynomial at x = 1, correctly rounded.

    It is A[0] = Poch((a+1)/alpha, n)/n!, an integer ratio rounded once.
    ScopeError beyond the double range, and for n above the tables' degree
    limit 1029, where the integers would grow without bound.
    """
    n = check_degree(n)
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
    n, r = check_degree(n), check_degree(r)
    if r > n:
        raise InputError(f"need r <= n, got r={r}, n={n}")
    if not math.isfinite(a):
        raise InputError(f"a must be finite, got {a!r}")
    factor, _ = _poch_numerators(a, 1.0, 1)
    ls = range(factor(0), factor(r + n), factor(1) - factor(0))  # N(s) = prod ls[s:s+n]
    lhs = num = math.prod(ls[:n])
    for s in range(1, r + 1):  # ls[s - 1] = 0 when a is a negative integer
        num = num * ls[s + n - 1] // ls[s - 1] if ls[s - 1] else math.prod(ls[s:s + n])
        lhs += (-1) ** s * math.comb(r, s) * num
    lhs /= ls.step ** n * math.factorial(n) * math.factorial(r)
    numerator, den = _poch_numerators(a, 1.0, n - r)
    rhs = numerator(r) / (den * math.factorial(r))
    return lhs, -rhs if r & 1 else rhs
