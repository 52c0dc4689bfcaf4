"""Two double-exponential (tanh-sinh) integration engines.

integrate_interval: the rule on [-1, 1] for integrands f(x) * (1-x)^a *
(1+x)^b with any a, b > -1.  The weight is applied internally in log space
from the substitution variable, so the endpoint powers never underflow or
lose digits even where x itself rounds to +-1.  integrate_moments runs the
same rule for many (a, b) pairs on shared nodes: each level's (a, b)-free
node parts are built once per process and f is evaluated once per abscissa,
while every pair keeps its own sums and convergence test, so its result
equals its own integrate_interval call.

rodrigues_contour_eval: the oscillatory contour integral representing the
biorthogonal polynomial, with the dominant exponential factored out at the
saddle so values like rho^n for n ~ 1000 never underflow intermediate
arithmetic.  The saddle splits the contour into two halves whose ends hold
the peak and the algebraic end behaviour, both of which the tanh-sinh map
absorbs.  The levels are nested, so levels 0-4 go to
phase.contour_integrand in one call and each later level in one call of its
own; the sums, the rounding floor and the stop test still run level by
level, so the batching does not move a result.  evaluations counts every
node that reached the integrand, used or not.  A non-finite value fails the
call only in a level the rule uses, while the integrand's pole check covers
every node of the call (an exact hit at an unused node has measure zero).
The error estimate has a rounding floor, so it does not fall below what the
integrand values themselves can resolve.

rodrigues_contour_degrees: the same rule for several degrees at one
(alpha, a, b, theta) in one pass.  The nodes do not depend on n, so each
integrand call builds the frame, f - f0 and g once and returns one row per
degree still running.  Each level takes two row sums, and each degree keeps
the sums, floor, stop test and evaluation cap of its own call in scalar
arithmetic: rodrigues_contour_eval is its one-row case.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from .config import DEFAULTS
from .errors import (ConvergenceError, InputError, ScopeError, check_angle,
                     check_degree, check_tol)
from .numerics import DEAD_LOG, times_exp
from .phase import contour_integrand, saddle_data
from .polys import Params

__all__ = ["QuadResult", "integrate_interval", "integrate_moments",
           "rodrigues_contour_degrees", "rodrigues_contour_eval"]

_PI = math.pi
_HALF_PI = 0.5 * math.pi
_LOG2 = math.log(2.0)

# tanh-sinh step halvings after level 0 before integrate_moments gives up
_MAX_LEVEL = 12


@dataclass(frozen=True)
class QuadResult:
    """Quadrature value with an error estimate and the evaluation count."""

    value: Union[float, complex]
    error_estimate: float
    evaluations: int


def _node_parts(t: float):
    """The (a, b)-free parts of the tanh-sinh node at parameter t.

    Returns (x, log(1-x), log(1+x), log(dx/dt)), all derived from t so the
    endpoint powers are exact even when x rounds to 1; the node's log-weight
    is a*log(1-x) + b*log(1+x) + log(dx/dt).
    """
    u = _HALF_PI * math.sinh(t)
    # log(1 -+ x) = log 2 - log(1 + e^{+-2u})
    tail = math.log1p(math.exp(-abs(2.0 * u)))
    log_1px = _LOG2 - (max(-2.0 * u, 0.0) + tail)
    log_1mx = _LOG2 - (max(2.0 * u, 0.0) + tail)
    # dx/dt = (pi/2) cosh t / cosh^2 u
    log_cosh_u = abs(u) + tail - _LOG2
    log_dxdt = math.log(_HALF_PI * math.cosh(t)) - 2.0 * log_cosh_u
    return math.tanh(u), log_1mx, log_1px, log_dxdt


@lru_cache(maxsize=32)
def _moment_level(level: int, k_max: int):
    """Read-only node parts of one integrate_moments level, h = 2^-level and
    |k| <= k_max (level 0 takes every k, later levels the odd k only): k and
    the four _node_parts arrays.  The default node range gives one entry per
    level; an exponent near -1 widens the range and adds entries."""
    ks = np.arange(-k_max, k_max + 1)
    if level:
        ks = ks[ks % 2 != 0]
    h = 2.0 ** -level
    parts = itertools.chain.from_iterable(_node_parts(k * h)
                                          for k in ks.tolist())
    x, log_1mx, log_1px, log_dxdt = np.fromiter(
        parts, dtype=float, count=4 * ks.size).reshape(-1, 4).T.copy()
    for part in (ks, x, log_1mx, log_1px, log_dxdt):
        part.setflags(write=False)
    return ks, x, log_1mx, log_1px, log_dxdt


def integrate_interval(f: Callable, endpoint_exponents: Tuple[float, float],
                       tol: float) -> QuadResult:
    """Integral of f(x) (1-x)^a (1+x)^b over (-1, 1) by tanh-sinh refinement.

    f must be continuous on [-1, 1]; endpoint singular behavior belongs in
    the exponents.  f receives numpy arrays of abscissae.
    Convergence is declared when consecutive refinement levels differ by at
    most tol relative to max(|integral|, sum of |contributions|); the latter
    keeps the criterion meaningful for integrals that cancel to zero.
    """
    return integrate_moments(f, [endpoint_exponents], tol)[0]


def integrate_moments(f: Callable, exponent_pairs: Sequence[Tuple[float, float]],
                      tol: float) -> List[QuadResult]:
    """integrate_interval for several exponent pairs (a, b) on shared nodes.

    Each pair keeps its own node range, live-node mask, sums and convergence
    test, so its QuadResult equals that of its own integrate_interval call
    bit for bit.  Each level's node parts are built once, and f is called
    once per level on the union of the abscissae that the unconverged pairs
    need, so f must act elementwise.  Raises ConvergenceError for the first
    pair still unconverged after _MAX_LEVEL step halvings.
    """
    pairs = [(float(a), float(b)) for a, b in exponent_pairs]
    for a, b in pairs:  # the exponents follow the Jacobi parameter rule
        Params(1.0, a, b)
    check_tol(tol)

    # level 0: h = 1, |t| <= t_max; weights die double-exponentially, but an
    # exponent near -1 delays that: the node log-weight is roughly
    # -2u(1+min(a,b)) + t with u ~ (pi/4)e^t, dead below -745.  Solve for the
    # cutoff and pad it; dead nodes inside the range are skipped anyway.
    t_max = [max(7.5, math.log(484.0 / min(1.0, 1.0 + a, 1.0 + b)) + 0.5)
             for a, b in pairs]
    totals = [0.0] * len(pairs)
    l1_totals = [0.0] * len(pairs)
    errors = [math.inf] * len(pairs)
    evaluations = [0] * len(pairs)
    results: List[Optional[QuadResult]] = [None] * len(pairs)
    h = 1.0
    for level in range(_MAX_LEVEL + 1):
        active = [i for i, r in enumerate(results) if r is None]
        if not active:
            break
        k_max = [int(t_max[i] / h) for i in active]
        ks, x, log_1mx, log_1px, log_dxdt = _moment_level(level, max(k_max))
        masks, logws = [], []
        for i, km in zip(active, k_max):
            a, b = pairs[i]
            logw = a * log_1mx + b * log_1px + log_dxdt
            masks.append((np.abs(ks) <= km) & (logw > DEAD_LOG))
            logws.append(logw)
        wanted = np.logical_or.reduce(masks)
        fv = np.zeros(ks.size)
        if wanted.any():
            fv[wanted] = np.broadcast_to(np.asarray(f(x[wanted]), dtype=float),
                                         (np.count_nonzero(wanted),))
        for i, mask, logw in zip(active, masks, logws):
            contrib = fv[mask] * np.exp(logw[mask])
            s_new, l1_new = float(np.sum(contrib)), float(np.sum(np.abs(contrib)))
            evaluations[i] += int(np.count_nonzero(mask))
            if level == 0:
                totals[i], l1_totals[i] = h * s_new, h * l1_new
                continue
            prev = totals[i]
            l1_totals[i] = 0.5 * l1_totals[i] + h * l1_new
            totals[i] = 0.5 * totals[i] + h * s_new
            errors[i] = abs(totals[i] - prev)
            scale = max(abs(totals[i]), l1_totals[i])
            if (errors[i] <= tol * scale and scale > 0.0) or scale == 0.0:
                results[i] = QuadResult(totals[i], errors[i], evaluations[i])
        h *= 0.5
    for i, r in enumerate(results):
        if r is None:
            raise ConvergenceError(
                f"integrate_moments: refinement stalled at error "
                f"{errors[i]:.3e} after {_MAX_LEVEL} levels (tol {tol:.1e})")
    return results


# ---------------------------------------------------------------------------
# contour integral
# ---------------------------------------------------------------------------

# tanh-sinh parameter range of the contour rule: a half is at most pi/2
# long, so beyond |t| = 3.404 (where r 2q/(1+q) = 1e-20 at r = pi/2; at
# t = 3.4 the node lies 1.2e-20 from its end) every node is closer than
# _MIN_DISTANCE to its end, and the range never limits the rule.
_T_MAX = 3.5
# Nodes closer than this to an end of their half are dropped: at phi ~ 1e-79
# g evaluates 0 * inf, and the dropped tail is below 1e-20 times the
# integrand's bound on the contour.
_MIN_DISTANCE = 1e-20
# Integrand evaluations allowed per call: checked before each integrand
# call, it turns a tolerance below the rounding floor into a typed error.
_MAX_EVALUATIONS = 64_000
_EPS = float(np.finfo(float).eps)
# Levels 0 to _FIRST_BATCH - 1 (h = 1 down to 1/16, 14 + 12 + 27 + 53..55 +
# 106 nodes) go to the integrand in one call; later levels take one call
# each.  A kernel call costs about the same up to ~200 nodes, so the batch
# costs less than the calls for levels 0 and 1 alone, which every contour
# call runs, and nearly every call at tol 1e-9 runs all five levels.
_FIRST_BATCH = 5


@lru_cache(maxsize=None)
def _unit_levels(levels: range):
    """Read-only theta-free parts of the tanh-sinh levels in levels (h =
    2^-level, odd multiples after level 0), level by level and each level
    twice, once per half of the contour: t, unit distance 2q/(1+q), unit
    weight and the half (0 for [0, theta], 1 for [theta, pi]), with
    u = (pi/2) sinh t and q = e^{-2|u|}; and the start of each level, with
    the total length last."""
    ts, edges = [], [0]
    for level in levels:
        h = 2.0 ** -level
        ks = np.arange(-int(_T_MAX / h), int(_T_MAX / h) + 1)
        t = h * (ks[ks % 2 != 0] if level else ks)
        ts += [t, t]
        edges.append(edges[-1] + 2 * t.size)
    t = np.concatenate(ts)
    half = np.concatenate([np.full(part.size, i % 2)
                           for i, part in enumerate(ts)])
    u = _HALF_PI * np.sinh(t)
    q = np.exp(-2.0 * np.abs(u))
    unit_dist = 2.0 * q / (1.0 + q)
    unit_weight = _HALF_PI * np.cosh(t) * 4.0 * q / ((1.0 + q) * (1.0 + q))
    for part in (t, unit_dist, unit_weight, half):
        part.setflags(write=False)
    return t, unit_dist, unit_weight, half, tuple(edges)


def _contour_nodes(theta: float, levels: range):
    """Nodes phi and weights of the tanh-sinh levels in levels, level by
    level and each on [0, theta] and then [theta, pi], with the nodes too
    close to an end dropped; and the bounds of each level's slice.

    Each node is placed from its distance to the nearer end of its half,
    r 2q/(1+q) with r the half-length, so no node lands on 0, theta or pi
    by rounding 1 - tanh u.
    """
    t, unit_dist, unit_weight, half, edges = _unit_levels(levels)
    r = np.array([0.5 * theta, 0.5 * (_PI - theta)])[half]
    lo = np.array([0.0, theta])[half]
    hi = np.array([theta, _PI])[half]
    dist = r * unit_dist
    phi = np.where(t <= 0.0, lo + dist, hi - dist)
    keep = (dist >= _MIN_DISTANCE) & (phi > 0.0) & (phi < _PI)
    bounds = np.concatenate(([0], np.cumsum(keep)))[list(edges)]
    return phi[keep], (r * unit_weight)[keep], bounds.tolist()


def _contour_result(n: int, total: complex, err_total: float,
                    l1_total: float, f0: complex, theta: float, scaled: bool,
                    evaluations: int) -> QuadResult:
    """The QuadResult of degree n from its scaled integral total."""
    if l1_total == 0.0:
        raise ScopeError(f"rodrigues_contour_eval: every integrand value "
                         f"underflows at n={n}, theta={theta!r}")
    # P_n = rho^n * Re{e^{i n theta} J / (pi i)} with J the scaled integral
    phase_factor = cmath.exp(1j * n * theta)
    scaled_value = (phase_factor * total / (1j * _PI)).real
    scaled_err = err_total / _PI
    if scaled:
        return QuadResult(scaled_value, scaled_err, evaluations)
    what, hint = "rodrigues_contour_eval", "; scaled=True gives P_n / rho^n"
    exponent = n * f0.real
    return QuadResult(times_exp(scaled_value, exponent, what, hint),
                      times_exp(scaled_err, exponent, what, hint), evaluations)


_FAILURES = (InputError, ScopeError, ConvergenceError)


def _contour_outcomes(p: Params, ns, theta: float, tol: float,
                      scaled: bool) -> list:
    """For each degree of ns, the QuadResult of its rodrigues_contour_eval
    call or the library error that the call raises, from one pass over the
    levels: each integrand call gives one row per degree still running, and
    each degree keeps its own sums, floor, stop test and evaluation cap."""
    outcomes: list = [None] * len(ns)
    index, degrees = [], []
    for i, n in enumerate(ns):
        try:
            degrees.append(check_degree(n, 1))
            index.append(i)
        except _FAILURES as exc:
            outcomes[i] = exc
    try:
        theta, tol = check_angle(theta, "theta"), check_tol(tol)
        sd = saddle_data(p, theta)
        # The rounding floor's conditioning weight: as phi -> pi, Re upper =
        # cos y - big and Re den = big^alpha cos z - s are differences of
        # numbers near 1, against |upper| >= sin y and |den| >= big^alpha
        # sin z, of order (pi-phi)/(1+alpha) and alpha (pi-phi)/(1+alpha).
        try:
            cond_scale = (1.0 + p.alpha) ** 2 / p.alpha
        except OverflowError:
            raise ScopeError("rodrigues_contour_eval: (1+alpha)^2 overflows "
                             f"at alpha={p.alpha!r}") from None
    except _FAILURES as exc:
        for i in index:
            outcomes[i] = exc
        return outcomes
    # Per degree: the stop limit, tol times a prior for the peak
    # contribution (|g(theta)| times the Gaussian width), and the rounding
    # floor's factor: each value has a relative error of about (n+1) eps
    # (n from the exponent) times 1 + cond_scale / (pi - phi).
    limits = [tol * (abs(sd.g_saddle) * min(math.sqrt(
        2.0 * _PI / (n * max(abs(sd.f_second), 1e-12))), _PI)) for n in degrees]
    floor_factors = [2.0 * (n + 1) * _EPS for n in degrees]
    totals, l1_totals = [0j] * len(degrees), [0.0] * len(degrees)
    running = list(range(len(degrees)))  # the degrees of the rows

    # The saddle splits the contour into [0, theta] and [theta, pi], which
    # puts the peak of e^{n(f-f0)} at an end of each half.  Level 0 has
    # h = 1; each later level halves h and adds the odd multiples.  Levels
    # 0 to _FIRST_BATCH - 1 share one integrand call and each later level
    # has one; h runs on across the calls.
    batches = itertools.chain(
        [range(_FIRST_BATCH)],
        (range(level, level + 1) for level in itertools.count(_FIRST_BATCH)))
    h, evaluations = 1.0, 0
    for levels in batches:
        if not running:
            break
        phi, weight, bounds = _contour_nodes(theta, levels)
        try:
            if evaluations + phi.size > _MAX_EVALUATIONS:
                raise ConvergenceError(
                    f"rodrigues_contour_eval: over {_MAX_EVALUATIONS} "
                    f"integrand evaluations at tol {tol:.1e}")
            values = contour_integrand(p, theta, phi,
                                       [degrees[j] for j in running],
                                       sd.f_saddle)
        except _FAILURES as exc:
            for j in running:
                outcomes[index[j]] = exc
            break
        evaluations += phi.size
        # a non-finite value fails its degree only in a level the rule uses:
        # note each row's first one, and zero them for the products
        finite = np.isfinite(values)
        first_bad = [phi.size] * len(running)
        if not finite.all():
            first_bad = np.where(finite.all(axis=1), phi.size,
                                 finite.argmin(axis=1)).tolist()
            values[~finite] = 0.0
        # a product that overflows is inf without a warning: it reaches the
        # sums only in a level the rule uses
        with np.errstate(over="ignore"):
            contrib = weight * values
            rounding = np.abs(contrib) * (1.0 + cond_scale / (_PI - phi))
        for lo, hi in itertools.pairwise(bounds):
            sums = np.add.reduce(contrib[:, lo:hi], axis=-1).tolist()
            l1_sums = np.add.reduce(rounding[:, lo:hi], axis=-1).tolist()
            keep = []
            for row, j in enumerate(running):
                try:
                    if first_bad[row] < hi:
                        raise ConvergenceError("rodrigues_contour_eval: "
                                               "non-finite integrand value")
                    prev, totals[j] = totals[j], 0.5 * totals[j] + h * sums[row]
                    l1_totals[j] = 0.5 * l1_totals[j] + h * l1_sums[row]
                    err_total = max(abs(totals[j] - prev),
                                    floor_factors[j] * l1_totals[j])
                    if not (h < 1.0 and err_total <= limits[j]):
                        keep.append(row)
                        continue
                    outcomes[index[j]] = _contour_result(
                        degrees[j], totals[j], err_total, l1_totals[j],
                        sd.f_saddle, theta, scaled, evaluations)
                except _FAILURES as exc:
                    outcomes[index[j]] = exc
            h *= 0.5
            if len(keep) < len(running):  # drop the finished rows
                running = [running[row] for row in keep]
                first_bad = [first_bad[row] for row in keep]
                contrib, rounding = contrib[keep], rounding[keep]
                if not running:
                    break
    return outcomes


def rodrigues_contour_degrees(p: Params, ns: Sequence[int], theta: float,
                              tol: float = DEFAULTS["contour_tol"], *,
                              scaled: bool = False) -> List[QuadResult]:
    """rodrigues_contour_eval at each degree of ns, in one pass.

    Each integrand call builds the frame, F = f - f0 and g once for every
    degree still running, and each degree keeps the sums, floor, stop test
    and evaluation cap of its own call, so each result equals its own
    rodrigues_contour_eval call bit for bit, evaluations included.  Raises
    what the first of those calls to fail would raise.
    """
    outcomes = _contour_outcomes(p, ns, theta, tol, scaled)
    for outcome in outcomes:
        if isinstance(outcome, Exception):
            raise outcome
    return outcomes


def rodrigues_contour_eval(p: Params, n: int, theta: float,
                           tol: float = DEFAULTS["contour_tol"], *,
                           scaled: bool = False) -> QuadResult:
    """Polynomial value from the half-contour integral representation.

    Evaluates Re{(1/(pi i)) \\int_0^pi e^{n f} g dphi} by factoring out the
    saddle value e^{n f(theta)} = rho^n e^{i n theta}.  With scaled=True the
    rho^n factor is left off (value = P_n / rho^n), which keeps convergence
    tables finite for n in the hundreds where rho^n underflows.

    Levels 0-4 are evaluated in one integrand call and every later level in
    one call each; evaluations counts every node evaluated, so a call that
    stops before level 4 reports all 212-214 nodes of the first batch.  It
    is the one-degree case of rodrigues_contour_degrees.

    Requires n >= 1.  Raises ConvergenceError when the next integrand call
    would take the call over _MAX_EVALUATIONS evaluations (a tol below the
    rounding floor ends there) or when an integrand value of a level the
    rule uses is not finite or a node of an integrand call, used or not,
    hits the integrand's pole, and ScopeError when every integrand value
    underflows or when the saddle data, (1+alpha)^2 or, with scaled=False,
    rho^n, the value or its error estimate leave the range.
    """
    return rodrigues_contour_degrees(p, [n], theta, tol, scaled=scaled)[0]
