"""Two integration engines.

integrate_interval: double-exponential (tanh-sinh) rule on [-1, 1] for
integrands f(x) * (1-x)^a * (1+x)^b with any a, b > -1.  The weight is
applied internally in log space from the substitution variable, so the
endpoint powers never underflow or lose digits even where x itself rounds
to +-1.

rodrigues_contour_eval: adaptive composite Gauss-Legendre rule for the
oscillatory contour integral representing the biorthogonal polynomial, with
the dominant exponential factored out at the saddle so values like rho^n for
n ~ 1000 never underflow intermediate arithmetic.  Panels split dyadically,
driven by a two-halves error estimate and a phase-advance cap near the
saddle.  The refinement order is fixed, so results are deterministic.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Tuple, Union

import numpy as np

from .errors import ConvergenceError, InputError
from .phase import f_at_saddle, f_phase, g_amplitude, g_at_saddle, f_second_at_saddle
from .polys import Params

__all__ = ["QuadResult", "integrate_interval", "rodrigues_contour_eval"]

_PI = math.pi
_HALF_PI = 0.5 * math.pi
_LOG2 = math.log(2.0)

# exp() underflows to zero below this exponent; used to skip dead nodes
_DEAD_LOG = -745.0


@dataclass(frozen=True)
class QuadResult:
    """Quadrature value with an error estimate and the evaluation count."""

    value: Union[float, complex]
    error_estimate: float
    evaluations: int


def _node(t: float, a: float, b: float):
    """Abscissa and log-weight of the tanh-sinh node at parameter t.

    Returns (x, logw) with logw = a*log(1-x) + b*log(1+x) + log(dx/dt), all
    derived from t so the endpoint powers are exact even when x rounds to 1.
    """
    u = _HALF_PI * math.sinh(t)
    x = math.tanh(u)
    au = abs(u)
    # log(1 -+ x) = log 2 - log(1 + e^{+-2u})
    log_1px = _LOG2 - (max(-2.0 * u, 0.0) + math.log1p(math.exp(-abs(2.0 * u))))
    log_1mx = _LOG2 - (max(2.0 * u, 0.0) + math.log1p(math.exp(-abs(2.0 * u))))
    # dx/dt = (pi/2) cosh t / cosh^2 u
    log_cosh_u = au + math.log1p(math.exp(-2.0 * au)) - _LOG2
    log_dxdt = math.log(_HALF_PI * math.cosh(t)) - 2.0 * log_cosh_u
    return x, a * log_1mx + b * log_1px + log_dxdt


def integrate_interval(f: Callable, endpoint_exponents: Tuple[float, float],
                       tol: float, *, vectorized: bool = False,
                       max_level: int = 12) -> QuadResult:
    """Integral of f(x) (1-x)^a (1+x)^b over (-1, 1) by tanh-sinh refinement.

    f must be continuous on [-1, 1]; endpoint singular behavior belongs in
    the exponents.  With vectorized=True, f receives numpy arrays.
    Convergence is declared when consecutive refinement levels differ by at
    most tol relative to max(|integral|, sum of |contributions|); the latter
    keeps the criterion meaningful for integrals that cancel to zero.
    """
    a, b = endpoint_exponents
    if not (a > -1.0 and b > -1.0):
        raise InputError("endpoint exponents must be > -1")
    if not tol > 0.0:
        raise InputError("tol must be positive")

    def batch(ts):
        xs = []
        logws = []
        for t in ts:
            x, logw = _node(t, a, b)
            if logw > _DEAD_LOG:
                xs.append(x)
                logws.append(logw)
        if not xs:
            return 0.0, 0.0, 0
        xa = np.array(xs)
        wa = np.exp(np.array(logws))
        fv = np.asarray(f(xa), dtype=float) if vectorized else \
            np.array([float(f(x)) for x in xa])
        contrib = fv * wa
        return float(np.sum(contrib)), float(np.sum(np.abs(contrib))), len(xs)

    # level 0: h = 1, |t| <= t_max; weights die double-exponentially, but an
    # exponent near -1 delays that: the node log-weight is roughly
    # -2u(1+min(a,b)) + t with u ~ (pi/4)e^t, dead below -745.  Solve for the
    # cutoff and pad it; dead nodes inside the range are skipped anyway.
    h0 = 1.0
    smallest = min(1.0, 1.0 + a, 1.0 + b)
    t_max = max(7.5, math.log(484.0 / smallest) + 0.5)
    evaluations = 0
    k_max = int(t_max / h0)
    s, l1, cnt = batch([k * h0 for k in range(-k_max, k_max + 1)])
    evaluations += cnt
    total = h0 * s
    l1_total = h0 * l1
    prev = math.inf
    err = math.inf
    h = h0
    for _ in range(1, max_level + 1):
        h *= 0.5
        k_max = int(t_max / h)
        new_ts = [k * h for k in range(-k_max, k_max + 1) if k % 2 != 0]
        s_new, l1_new, cnt = batch(new_ts)
        evaluations += cnt
        prev = total
        l1_total = 0.5 * l1_total + h * l1_new
        total = 0.5 * total + h * s_new
        err = abs(total - prev)
        scale = max(abs(total), l1_total)
        if err <= tol * scale and scale > 0.0:
            return QuadResult(total, err, evaluations)
        if scale == 0.0:
            return QuadResult(total, err, evaluations)
    raise ConvergenceError(
        f"integrate_interval: refinement stalled at error {err:.3e} "
        f"after {max_level} levels (tol {tol:.1e})")


# ---------------------------------------------------------------------------
# contour integral
# ---------------------------------------------------------------------------

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)
_GL_NODES = tuple(float(v) for v in _GL_NODES)
_GL_WEIGHTS = tuple(float(v) for v in _GL_WEIGHTS)

_MAX_DEPTH = 42
_PHASE_CAP = 0.25 * math.pi  # max advance of Im(n f) across a kept panel
# Integrand evaluations allowed per call: over 10x the 6,112 that the
# criterion-3 grid needs up to n = 4096.  Near x = 1 (theta -> 0) the panel
# count grows without bound, e.g. at alpha = 2, n = 3, x = 0.99999.
_MAX_EVALUATIONS = 64_000


class _ContourIntegrand:
    """exp(n (f - f_saddle)) * g with evaluation counting and underflow guard."""

    def __init__(self, p: Params, n: int, theta: float):
        self.p = p
        self.n = n
        self.theta = theta
        self.f0 = f_at_saddle(p, theta)
        self.evaluations = 0

    def __call__(self, phi: float) -> complex:
        self.evaluations += 1
        w = self.n * (f_phase(self.p, self.theta, phi) - self.f0)
        if w.real < _DEAD_LOG:
            return 0.0j
        return cmath.exp(w) * g_amplitude(self.p, self.theta, phi)

    def log_im_f(self, phi: float) -> float:
        return self.n * f_phase(self.p, self.theta, phi).imag


def _gl_panel(fn: _ContourIntegrand, lo: float, hi: float) -> complex:
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    acc = 0.0j
    for x, w in zip(_GL_NODES, _GL_WEIGHTS):
        acc += w * fn(mid + half * x)
    return acc * half


def rodrigues_contour_eval(p: Params, n: int, theta: float,
                           tol: float = 1e-9, *, scaled: bool = False) -> QuadResult:
    """Polynomial value from the half-contour integral representation.

    Evaluates Re{(1/(pi i)) \\int_0^pi e^{n f} g dphi} by factoring out the
    saddle value e^{n f(theta)} = rho^n e^{i n theta}.  With scaled=True the
    rho^n factor is left off (value = P_n / rho^n), which keeps convergence
    tables finite for n in the hundreds where rho^n underflows.

    Requires n >= max(1 - (a+1)/alpha, -b) (integrand boundedness at the
    branch points) and n >= 1.  Raises ConvergenceError when the panel errors
    exceed their budget or the call needs over _MAX_EVALUATIONS evaluations.
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

    fn = _ContourIntegrand(p, n, theta)
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

    total = 0.0j
    err_total = 0.0

    def process(lo: float, hi: float, parent: complex, depth: int):
        nonlocal total, err_total
        if fn.evaluations > _MAX_EVALUATIONS:
            raise ConvergenceError(
                f"rodrigues_contour_eval: over {_MAX_EVALUATIONS} integrand "
                f"evaluations at tol {tol:.1e}")
        mid = 0.5 * (lo + hi)
        left = _gl_panel(fn, lo, mid)
        right = _gl_panel(fn, mid, hi)
        err = abs(left + right - parent)
        width = hi - lo
        contains_saddle = lo <= theta <= hi
        need_width = contains_saddle and width > saddle_width
        at_edge = lo <= eps_edge * 2.0 or hi >= _PI - 2.0 * eps_edge
        need_edge = at_edge and width > edge_width
        # oscillation cap only matters where the panel actually contributes
        need_phase = False
        if not (need_width or need_edge) and err <= tol * scale * (width / _PI) \
                and depth > 0:
            mag = max(abs(left), abs(right))
            if mag > 0.1 * tol * scale:
                adv = abs(fn.log_im_f(hi - 1e-3 * width)
                          - fn.log_im_f(lo + 1e-3 * width))
                need_phase = adv > _PHASE_CAP
        if depth >= _MAX_DEPTH:
            total += left + right
            err_total += err
            return
        if (need_width or need_edge or need_phase
                or err > tol * scale * (width / _PI) or depth == 0):
            process(lo, mid, left, depth + 1)
            process(mid, hi, right, depth + 1)
        else:
            total += left + right
            err_total += err

    process(eps_edge, theta, _gl_panel(fn, eps_edge, theta), 0)
    process(theta, _PI - eps_edge, _gl_panel(fn, theta, _PI - eps_edge), 0)

    if err_total > 100.0 * tol * scale:
        raise ConvergenceError(
            f"rodrigues_contour_eval: accumulated panel error {err_total:.3e} "
            f"exceeds budget at tol {tol:.1e}")

    # P_n = rho^n * Re{e^{i n theta} J / (pi i)} with J the scaled integral
    phase_factor = cmath.exp(1j * n * theta)
    scaled_value = (phase_factor * total / (1j * _PI)).real
    scaled_err = err_total / _PI
    if scaled:
        return QuadResult(scaled_value, scaled_err, fn.evaluations)
    rho_n = math.exp(n * fn.f0.real)
    return QuadResult(rho_n * scaled_value, rho_n * scaled_err, fn.evaluations)
