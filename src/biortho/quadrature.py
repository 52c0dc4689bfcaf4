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
from .errors import ConvergenceError, InputError, ScopeError
from .numerics import DEAD_LOG, times_exp
from .phase import contour_integrand, f_at_saddle, g_at_saddle, f_second_at_saddle
from .polys import Params

__all__ = ["QuadResult", "integrate_interval", "integrate_moments",
           "rodrigues_contour_eval"]

_PI = math.pi
_HALF_PI = 0.5 * math.pi
_LOG2 = math.log(2.0)

# tanh-sinh step halvings after level 0 before integrate_interval gives up
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
    if not all(a > -1.0 and b > -1.0 for a, b in pairs):
        raise InputError("endpoint exponents must be > -1")
    if not tol > 0.0:
        raise InputError("tol must be positive")

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
                f"integrate_interval: refinement stalled at error "
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


def _contour_levels(p: Params, theta: float, n: int, f0: complex, tol: float):
    """The nodes, weights and integrand values of the contour rule, level by
    level, with the count of nodes evaluated so far: levels 0 to
    _FIRST_BATCH - 1 from one integrand call, then one call per level.
    Raises ConvergenceError before a call would take the count over
    _MAX_EVALUATIONS."""
    batches = itertools.chain(
        [range(_FIRST_BATCH)],
        (range(level, level + 1) for level in itertools.count(_FIRST_BATCH)))
    evaluations = 0
    for levels in batches:
        phi, weight, bounds = _contour_nodes(theta, levels)
        if evaluations + phi.size > _MAX_EVALUATIONS:
            raise ConvergenceError(
                f"rodrigues_contour_eval: over {_MAX_EVALUATIONS} integrand "
                f"evaluations at tol {tol:.1e}")
        values = contour_integrand(p, theta, phi, n, f0)
        evaluations += phi.size
        for lo, hi in itertools.pairwise(bounds):
            yield phi[lo:hi], weight[lo:hi], values[lo:hi], evaluations


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
    stops before level 4 reports all 212-214 nodes of the first batch.

    Requires n >= max(1 - (a+1)/alpha, -b) (integrand boundedness at the
    branch points) and n >= 1.  Raises ConvergenceError when the next
    integrand call would take the call over _MAX_EVALUATIONS evaluations (a
    tol below the rounding floor ends there) or when an integrand value of a
    level the rule uses is not finite or a node of an integrand call, used
    or not, hits the integrand's pole, and ScopeError when every integrand
    value underflows or when scaled=False and rho^n, the value or its error
    estimate leaves the double range.
    """
    if n != int(n) or n < 1:
        raise InputError(f"degree must be a positive integer, got {n!r}")
    n = int(n)
    threshold = max(1.0 - (p.a + 1.0) / p.alpha, -p.b)
    if n < threshold:
        raise InputError(
            f"n={n} is below the integrand-boundedness threshold "
            f"max(1-(a+1)/alpha, -b) = {threshold:.3f}")
    if not (0.0 < theta < _PI):
        raise InputError(f"theta must lie in (0, pi), got {theta!r}")
    if not tol > 0.0:
        raise InputError("tol must be positive")

    f0 = f_at_saddle(p, theta)
    f2 = f_second_at_saddle(p, theta)
    # prior for the peak contribution: |g(theta)| times the Gaussian width
    gauss_width = math.sqrt(2.0 * _PI / (n * max(abs(f2), 1e-12)))
    scale = abs(g_at_saddle(p, theta)) * min(gauss_width, _PI)
    # Rounding floor: each value has a relative error of about (n+1) eps (n
    # from the exponent) times 1 + cond_scale / (pi - phi).  As phi -> pi,
    # Re upper = cos y - big and Re den = big^alpha cos z - s are differences
    # of numbers near 1, against |upper| >= sin y and |den| >= big^alpha sin z,
    # of order (pi-phi)/(1+alpha) and alpha (pi-phi)/(1+alpha).
    floor_factor = 2.0 * (n + 1) * _EPS
    cond_scale = (1.0 + p.alpha) ** 2 / p.alpha

    # The saddle splits the contour into [0, theta] and [theta, pi], which
    # puts the peak of e^{n(f-f0)} at an end of each half.  Level 0 has
    # h = 1; each later level halves h and adds the odd multiples.
    total, l1_total, h = 0j, 0.0, 1.0
    levels = _contour_levels(p, theta, n, f0, tol)
    for level, (phi, weight, values, evaluations) in enumerate(levels):
        if not np.isfinite(values).all():
            raise ConvergenceError(
                "rodrigues_contour_eval: non-finite integrand value")
        contrib = weight * values
        rounding = np.abs(contrib) * (1.0 + cond_scale / (_PI - phi))
        prev, total = total, 0.5 * total + h * complex(np.sum(contrib))
        l1_total = 0.5 * l1_total + h * float(np.sum(rounding))
        err_total = max(abs(total - prev), floor_factor * l1_total)
        if level and err_total <= tol * scale:
            break
        h *= 0.5
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
    return QuadResult(times_exp(scaled_value, n * f0.real, what, hint),
                      times_exp(scaled_err, n * f0.real, what, hint),
                      evaluations)
