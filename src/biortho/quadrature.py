"""Two integration engines.

integrate_interval: double-exponential (tanh-sinh) rule on [-1, 1] for
integrands f(x) * (1-x)^a * (1+x)^b with any a, b > -1.  The weight is
applied internally in log space from the substitution variable, so the
endpoint powers never underflow or lose digits even where x itself rounds
to +-1.  integrate_moments runs the same rule for many (a, b) pairs on
shared nodes: each level's (a, b)-free node parts are built once and f is
evaluated once per abscissa, while every pair keeps its own sums and
convergence test, so its result equals its own integrate_interval call.

rodrigues_contour_eval: adaptive composite Gauss-Legendre rule for the
oscillatory contour integral representing the biorthogonal polynomial, with
the dominant exponential factored out at the saddle so values like rho^n for
n ~ 1000 never underflow intermediate arithmetic.  Panels split dyadically,
driven by a two-halves error estimate, with a width cap on the saddle panel
and geometric grading at the contour ends.  Refinement is level-wise: the
halves of every panel of one depth are evaluated as one numpy batch (one
phase.contour_integrand call per level, which builds the quantities that
f and g share once), and the accepted panels are summed in ascending phi,
so results are deterministic.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import ConvergenceError, InputError
from .numerics import DEAD_LOG
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
        # level 0 takes every k, later levels the odd k only
        ks = np.arange(-max(k_max), max(k_max) + 1)
        if level:
            ks = ks[ks % 2 != 0]
        parts = itertools.chain.from_iterable(_node_parts(k * h)
                                              for k in ks.tolist())
        x, log_1mx, log_1px, log_dxdt = np.fromiter(
            parts, dtype=float, count=4 * ks.size).reshape(-1, 4).T
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

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)

_MAX_DEPTH = 42
# Integrand evaluations allowed per call: over 10x the 6,112 that the
# criterion-3 grid needs up to n = 4096.  Near x = 1 (theta -> 0) the panel
# count grows without bound, e.g. at alpha = 2, n = 3, x = 0.9999999.
_MAX_EVALUATIONS = 64_000


def _panel_sums(p: Params, n: int, theta: float, f0: complex,
                lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """16-point Gauss-Legendre sums of exp(n (f - f0)) g over [lo, hi].

    All nodes go to contour_integrand in one call; nodes whose exponential
    underflows are zero there, and a non-finite value raises here.
    """
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    values = contour_integrand(p, theta, mid[:, None] + half[:, None] * _GL_NODES,
                               n, f0)
    if not np.isfinite(values).all():
        raise ConvergenceError(
            "rodrigues_contour_eval: non-finite integrand value")
    # summed node by node in order (cumsum), not pairwise
    return np.cumsum(values * _GL_WEIGHTS, axis=1)[:, -1] * half


def rodrigues_contour_eval(p: Params, n: int, theta: float,
                           tol: float = 1e-9, *, scaled: bool = False) -> QuadResult:
    """Polynomial value from the half-contour integral representation.

    Evaluates Re{(1/(pi i)) \\int_0^pi e^{n f} g dphi} by factoring out the
    saddle value e^{n f(theta)} = rho^n e^{i n theta}.  With scaled=True the
    rho^n factor is left off (value = P_n / rho^n), which keeps convergence
    tables finite for n in the hundreds where rho^n underflows.

    Requires n >= max(1 - (a+1)/alpha, -b) (integrand boundedness at the
    branch points) and n >= 1.  Raises ConvergenceError when the panel errors
    exceed their budget, when the next level would take the call over
    _MAX_EVALUATIONS evaluations, or when an integrand value is not finite.
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
    saddle_width = min(0.5, 0.75 / math.sqrt(n))
    # Panels touching the contour ends see only algebraic decay of the
    # integrand there ((pi-phi)^(n-1/2) is the worst case at b near -1), and
    # two-halves estimates are blind to such edge behavior.  Grade them
    # geometrically until the tail bound ~ width^(n+1/2) is below tolerance.
    eps_edge = 1e-12
    edge_width = min(0.05, max(tol ** (1.0 / (n + 0.5)), 32.0 * eps_edge))

    # Breadth-first refinement: the frontier holds the panels of one depth
    # with their whole-panel sums, and both halves of every frontier panel
    # are evaluated as one batch.
    lo = np.array([eps_edge, theta])
    hi = np.array([theta, _PI - eps_edge])
    parent = _panel_sums(p, n, theta, f0, lo, hi)
    evaluations = lo.size * _GL_NODES.size
    accepted = []  # (lo, left + right, err) of the panels kept, per level
    depth = 0
    while lo.size:
        batch = 2 * lo.size * _GL_NODES.size
        if evaluations + batch > _MAX_EVALUATIONS:
            raise ConvergenceError(
                f"rodrigues_contour_eval: over {_MAX_EVALUATIONS} integrand "
                f"evaluations at tol {tol:.1e}")
        mid = 0.5 * (lo + hi)
        halves = _panel_sums(p, n, theta, f0, np.concatenate([lo, mid]),
                             np.concatenate([mid, hi]))
        left, right = halves[:lo.size], halves[lo.size:]
        evaluations += batch
        err = np.abs(left + right - parent)
        width = hi - lo
        contains_saddle = (lo <= theta) & (theta <= hi)
        need_width = contains_saddle & (width > saddle_width)
        at_edge = (lo <= eps_edge * 2.0) | (hi >= _PI - 2.0 * eps_edge)
        need_edge = at_edge & (width > edge_width)
        need_error = err > tol * scale * (width / _PI)
        split = ((need_width | need_edge | need_error | (depth == 0))
                 & (depth < _MAX_DEPTH))
        keep = ~split
        accepted.append((lo[keep], (left + right)[keep], err[keep]))
        lo, hi, parent = (np.concatenate([lo[split], mid[split]]),
                          np.concatenate([mid[split], hi[split]]),
                          np.concatenate([left[split], right[split]]))
        depth += 1

    # sum the accepted panels in ascending phi, one after another
    panel_lo, values, errors = (np.concatenate(c) for c in zip(*accepted))
    order = np.argsort(panel_lo)
    total = complex(np.cumsum(values[order])[-1])
    err_total = float(np.cumsum(errors[order])[-1])
    if err_total > 100.0 * tol * scale:
        raise ConvergenceError(
            f"rodrigues_contour_eval: accumulated panel error {err_total:.3e} "
            f"exceeds budget at tol {tol:.1e}")

    # P_n = rho^n * Re{e^{i n theta} J / (pi i)} with J the scaled integral
    phase_factor = cmath.exp(1j * n * theta)
    scaled_value = (phase_factor * total / (1j * _PI)).real
    scaled_err = err_total / _PI
    if scaled:
        return QuadResult(scaled_value, scaled_err, evaluations)
    rho_n = math.exp(n * f0.real)
    return QuadResult(rho_n * scaled_value, rho_n * scaled_err, evaluations)
