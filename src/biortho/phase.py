"""Angle-parametrized functions of the steepest-descent analysis.

Covers the monotone angle maps and their derivatives, the point map x(theta)
and its inverse, the auxiliary map t(theta), the integration contour and its
derivative, the phase f and amplitude g of the contour integrand and the
integrand e^{n (f - f0)} g itself, the modulus-square T, all saddle-point
data (including the n-free amplitude factor M), plus the structure
functions k, l, r, s, u, v, w, d, h, Delta and lambda used by the
monotonicity and claim scans.

Each angle quantity has one implementation, on numpy arrays.  The public
functions of an angle take it as a float or an array: an array gives values
of its shape, and a float is the length-1 case, returned as a Python float
or complex (or a ContourPoint or StructureBundle of them).  The functions
of (alpha, angle) also take alpha as an array that broadcasts against the
angles.  The saddle data are taken at one theta.

All functions are pure; angles are radians in the open interval (0, pi),
with the proven limit values substituted at exact endpoints where a contract
asks for them.
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache, wraps
from typing import Optional

import numpy as np

from .config import DEFAULTS
from .errors import ConvergenceError, InputError, ScopeError
from .numerics import DEAD_LOG, find_root_bisect
from .polys import Params

__all__ = [
    "ContourPoint",
    "SaddleData",
    "StructureBundle",
    "contour_integrand",
    "contour_point",
    "d_of_phi",
    "f_at_saddle",
    "f_phase",
    "f_prime",
    "f_second_at_saddle",
    "g_amplitude",
    "g_at_saddle",
    "lambda_of_phi",
    "m_alpha",
    "phi_star",
    "sine_ratio",
    "saddle_data",
    "sqrt_f_second",
    "structure_functions",
    "t_modulus",
    "t_of_theta",
    "theta_major",
    "theta_major_prime",
    "theta_of_x",
    "x_of_theta",
]

_PI = math.pi


def _check_alpha(alpha):
    # finite alpha > 0 as a float, or as a float array that broadcasts against
    # the angles (the identity suite passes one alpha per sampled angle)
    checked = np.asarray(alpha, dtype=float)
    if not ((checked > 0.0) & (checked < np.inf)).all():
        raise InputError(f"alpha must be finite and > 0, got {alpha!r}")
    return checked if checked.ndim else float(checked)


def _check_angle_open(t: float, name: str = "angle") -> float:
    t = float(t)
    if not (0.0 < t < _PI):
        raise InputError(f"{name} must lie in (0, pi), got {t!r}")
    return t


def _check_angles_open(t, name: str = "angle") -> np.ndarray:
    # t as a float array of at least one dimension, every entry in (0, pi)
    t = np.atleast_1d(np.asarray(t, dtype=float))
    inside = (t > 0.0) & (t < _PI)
    if not inside.all():
        bad = float(t[~inside][0])
        raise InputError(f"{name} must lie in (0, pi), got {bad!r}")
    return t


def _like(values: np.ndarray, *inputs):
    # values as the caller gave its inputs: a Python scalar when every input
    # is a float, else the array
    return values if any(map(np.ndim, inputs)) else values.item(0)


def _with_limits(t, name: str, limits: dict, fn) -> np.ndarray:
    """fn at the angles t in (0, pi), and the proven limit value at each
    exact end of t that is a key of limits."""
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    inner = (ts > 0.0) & (ts < _PI)
    if inner.all():
        return fn(ts)
    _check_angles_open(ts[~np.isin(ts, list(limits))], name)
    values = fn(np.where(inner, ts, 0.5 * _PI))
    for end, limit in limits.items():
        values = np.where(ts == end, limit, values)
    return values


def _sine(t: np.ndarray, v: np.ndarray) -> np.ndarray:
    # sin(t) with v = pi - t; the complement form keeps full relative
    # accuracy when t is near pi (v is exact there by Sterbenz).
    return np.sin(np.where(t <= 0.5 * _PI, t, v))


def _cosine(t: np.ndarray, v: np.ndarray) -> np.ndarray:
    near = t <= 0.5 * _PI
    c = np.cos(np.where(near, t, v))
    return np.where(near, c, -c)


def _major(alpha, t: np.ndarray):
    """theta_major(alpha, t) at angles t in (0, pi), alpha checked, with the
    parts its derivative reuses: (value, v, sin t, w, sin w), v = pi - t and
    w = v / (1+alpha)."""
    v = _PI - t
    st = _sine(t, v)
    w = v / (1.0 + alpha)
    sw = np.sin(w)
    return st / ((1.0 + alpha) * sw), v, st, w, sw


def _major_prime(alpha, t, v, st, w, sw):
    # the derivative in t of st / ((1+alpha) sw), from the parts of _major
    u = (1.0 + alpha) * _cosine(t, v) * sw + st * np.cos(w)
    return u / ((1.0 + alpha) ** 2 * sw * sw)


def theta_major(alpha: float, t):
    """Monotone angle map sin(t) / ((1+alpha) sin((pi-t)/(1+alpha))).

    Strictly increasing from 0 to 1 on (0, pi); the exact endpoints return
    the limit values.  t is a float or an array of angles in [0, pi].  The
    reciprocal-parameter companion is obtained by passing 1/alpha.
    """
    alpha = _check_alpha(alpha)
    return _like(_with_limits(t, "angle", {0.0: 0.0, _PI: 1.0},
                              lambda ts: _theta_major(alpha, ts)), alpha, t)


def _theta_major(alpha: float, t: np.ndarray) -> np.ndarray:
    # theta_major for an already checked alpha > 0 and angles in (0, pi)
    return _major(alpha, t)[0]


def theta_major_prime(alpha: float, t):
    """Analytic derivative of theta_major in t, a float or an array of
    angles in (0, pi)."""
    alpha = _check_alpha(alpha)
    ts = _check_angles_open(t)
    return _like(_major_prime(alpha, ts, *_major(alpha, ts)[1:]), alpha, t)


def _saddle_scope(fn):
    """fn(alpha or p, theta), with OverflowError, ZeroDivisionError and a
    non-finite value raised as ScopeError (beyond the double range)."""
    @wraps(fn)
    def guarded(first, theta):
        try:
            value = fn(first, theta)
        except (OverflowError, ZeroDivisionError):
            value = math.nan
        if not cmath.isfinite(value):
            raise ScopeError(f"{fn.__name__} at theta={theta!r} lies beyond "
                             "the double range")
        return value
    return guarded


@_saddle_scope
def sine_ratio(alpha: float, theta: float) -> float:
    """Geometric decay factor sin((pi-t)/(1+alpha)) / sin((pi-t)/(1+1/alpha))."""
    alpha = _check_alpha(alpha)
    theta = _check_angle_open(theta, "theta")
    y = (_PI - theta) / (1.0 + alpha)
    return math.sin(y) / math.sin(alpha * y)


def x_of_theta(p: Params, theta):
    """Evaluation point x(theta), strictly decreasing from 1 to -1.

    theta is a float or an array of angles in [0, pi].
    """
    alpha = p.alpha

    def x(ts):
        return (1.0 - 2.0 * _theta_major(1.0 / alpha, ts)
                * _theta_major(alpha, ts) ** (1.0 / alpha))
    return _like(_with_limits(theta, "theta", {0.0: 1.0, _PI: -1.0}, x), theta)


def theta_of_x(p: Params, x: float,
               tol: float = DEFAULTS["bisect_tol"]) -> float:
    """Inverse of x_of_theta by bisection (licensed by strict monotonicity)."""
    x = float(x)
    if not (-1.0 < x < 1.0):
        raise InputError(f"theta_of_x requires x in (-1, 1), got {x!r}")
    return find_root_bisect(lambda t: x_of_theta(p, t) - x, 0.0, _PI, tol)


def t_of_theta(p: Params, theta):
    """Pole location t(theta) of the contour integrand denominator.

    theta is a float or an array of angles in [0, pi].
    """
    return _like(_with_limits(theta, "theta", {0.0: 1.0, _PI: -1.0},
                              lambda ts: 1.0 - 2.0 * _s_value(p.alpha, ts)),
                 theta)


def _s_value(alpha: float, t: np.ndarray) -> np.ndarray:
    # s(t) = theta_major(1/alpha, t)^alpha * theta_major(alpha, t), t checked
    return _theta_major(1.0 / alpha, t) ** alpha * _theta_major(alpha, t)


_AtTheta = namedtuple("_AtTheta", "big small s y z upper xi_prime")


@lru_cache(maxsize=256)
def _at_theta(alpha: float, theta: float) -> _AtTheta:
    """The frame, theta_major(alpha, .), s and xi' at phi = theta as Python
    scalars, for a checked alpha and theta: the theta-only factors of the
    contour integrand and the saddle data, built once since every
    refinement level of a contour call reads them.  s is the product of two
    floats in scalar arithmetic; f_prime instead forms s(theta) by the array
    operations of s(phi), so that its saddle residual cancels exactly."""
    th = np.array([theta])
    fr = _frame(alpha, th)
    xi_prime = _xi_prime(alpha, fr, np.exp(-1j * fr.z)).item()
    big, small = fr.big.item(), _theta_major(alpha, th).item()
    return _AtTheta(big, small, big ** alpha * small, fr.y.item(), fr.z.item(),
                    fr.upper.item(), xi_prime)


_Frame = namedtuple("_Frame", "phi v sine w sw big y z cy upper")


def _frame(alpha, phi: np.ndarray) -> _Frame:
    """Upper-branch quantities at phi that every contour function reads.

    big = theta_major(1/alpha, phi) comes with the parts of _major that its
    derivative reuses (v = pi - phi, sine = sin phi, w, sw); y = v/(1+alpha),
    z = alpha*y, cy = cos y and upper = e^{iy} - big, whose imaginary part is
    sin y (> 0 on (0, pi)).  phi must already be checked.
    """
    big, v, sine, w, sw = _major(1.0 / alpha, phi)
    y = v / (1.0 + alpha)
    cy = np.cos(y)
    return _Frame(phi, v, sine, w, sw, big, y, alpha * y, cy,
                  (cy - big) + 1j * np.sin(y))


def _big_prime(alpha, fr: _Frame) -> np.ndarray:
    # theta_major_prime(1/alpha, phi) from the frame's parts
    return _major_prime(1.0 / alpha, fr.phi, fr.v, fr.sine, fr.w, fr.sw)


def _l_value(upper: np.ndarray) -> np.ndarray:
    # l = |e^{iy} - big|^2 as (cos y - big)^2 + sin^2 y: expanded as
    # 1 + big^2 - 2 big cos y it cancels as phi -> pi, where big -> 1, y -> 0
    return upper.real * upper.real + upper.imag * upper.imag


def _xi_prime(alpha: float, fr: _Frame, e: np.ndarray) -> np.ndarray:
    # the contour derivative xi'(phi), with e = e^{-iz} at the same phi
    return (-2.0 * alpha / (1.0 + alpha) * fr.big ** (alpha - 1.0)
            * e * ((1.0 + alpha) * _big_prime(alpha, fr) + 1j * fr.big))


@dataclass(frozen=True)
class ContourPoint:
    """Samples of the integration contour: parameter, point, derivative.

    Floats for one phi; arrays shaped like phi for an array of them."""

    phi: float
    xi: complex
    xi_prime: Optional[complex]


def contour_point(p: Params, phi) -> ContourPoint:
    """Contour sample; the lower branch mirrors the upper by conjugation.

    phi is a float or an array of angles in [-pi, pi].  At phi in {0, -pi}
    the contour passes through +1 / -1 and the derivative is undefined:
    None for a float phi, NaN in an array.  For phi < 0 the reported
    xi_prime is the actual parameter derivative of the conjugate branch.
    """
    phis = np.atleast_1d(np.asarray(phi, dtype=float))
    inside = (phis >= -_PI) & (phis <= _PI)
    if not inside.all():
        bad = float(phis[~inside][0])
        raise InputError(f"phi must lie in [-pi, pi], got {bad!r}")
    alpha = p.alpha
    size = np.abs(phis)
    inner = (size > 0.0) & (size < _PI)  # +pi names the same point as -pi
    fr = _frame(alpha, np.where(inner, size, 0.5 * _PI))
    e = np.exp(-1j * fr.z)
    xi = np.where(inner, 1.0 - 2.0 * fr.big ** alpha * e,
                  np.where(size == 0.0, 1.0, -1.0))
    prime = np.where(inner, _xi_prime(alpha, fr, e), np.nan)
    lower = inner & (phis < 0.0)
    xi = np.where(lower, xi.conj(), xi)
    prime = np.where(lower, -prime.conj(), prime)
    if np.ndim(phi):
        return ContourPoint(phis, xi, prime)
    return ContourPoint(phis.item(0), xi.item(0),
                        prime.item(0) if inner[0] else None)


def _integrand_parts(p: Params, theta: float, phi):
    """What f and g both read at the angles phi, once checked: the theta
    data, the frame, e^{-iz} and den = big^alpha e^{-iz} - s(theta)
    (Im < 0), which must not vanish (a pole of the integrand)."""
    at = _at_theta(p.alpha, _check_angle_open(theta, "theta"))
    fr = _frame(p.alpha, _check_angles_open(phi, "phi"))
    e = np.exp(-1j * fr.z)
    den = fr.big ** p.alpha * e - at.s
    if (den == 0).any():
        raise ConvergenceError("integrand pole hit (xi(phi) == t(theta))")
    return at, fr, e, den


def _f_values(alpha: float, fr: _Frame, den: np.ndarray) -> np.ndarray:
    re = alpha * np.log(fr.big) + np.log(np.abs(fr.upper)) - np.log(np.abs(den))
    # (pi + phi) + args - 2 pi, with phi - pi = -(pi - phi) taken exactly
    im = -fr.v + np.angle(fr.upper) - np.angle(den)
    return re + 1j * im


def _g_values(p: Params, at: _AtTheta, fr: _Frame, e: np.ndarray,
              den: np.ndarray) -> np.ndarray:
    alpha, a, b = p.alpha, p.a, p.b
    ratio = (fr.big / at.big) ** (a + 1.0 - alpha)
    phase = np.exp(-1j * (_PI + fr.y * (a + b + 1.0 - alpha)))
    upper_b = np.exp(b * np.log(fr.upper))  # principal power; Im upper > 0
    base_b = (1.0 - at.big * at.small ** (1.0 / alpha)) ** b  # ((1+x)/2)^b
    return (ratio * phase * upper_b * _xi_prime(alpha, fr, e)
            / (2.0 * at.small ** ((a + 1.0) / alpha - 1.0) * base_b * den))


def f_phase(p: Params, theta: float, phi):
    """Phase function of the contour integrand, continuous in phi.

    phi is a float or an array of angles in (0, pi); the result is a complex
    or a complex array of the same shape, computed elementwise by the same
    operations either way.  contour_integrand computes the same values by
    the same operations.

    The real part is the log-magnitude; the argument is accumulated factor by
    factor (each factor stays inside an open half-plane, so no branch cut is
    crossed) and shifted by -2*pi so that Im f(theta) = theta at the saddle.
    A single principal Log of the assembled product would jump by 2*pi for
    some parameters and break e^{n f} quadrature.
    """
    _, fr, _, den = _integrand_parts(p, theta, phi)
    return _like(_f_values(p.alpha, fr, den), phi)


def g_amplitude(p: Params, theta: float, phi):
    """Amplitude factor of the contour integrand (includes xi'(phi)).

    phi is a float or an array of angles in (0, pi), as for f_phase.
    """
    at, fr, e, den = _integrand_parts(p, theta, phi)
    return _like(_g_values(p, at, fr, e, den), phi)


def contour_integrand(p: Params, theta: float, phi, n: int, f0: complex):
    """The contour integrand with the saddle factor taken out,
    e^{n (f - f0)} g at phi, for the degree n and f0 = f_at_saddle.

    phi is a float or an array of angles in (0, pi), as for f_phase; the
    contour oracle passes every node of one refinement level at once.  The
    quantities that f and g share are computed once, and each value equals
    np.exp(n * (f_phase - f0)) * g_amplitude bit for bit.  Where
    n Re(f - f0) < DEAD_LOG the exponential underflows: the value is exactly
    0 and g is not computed.  Overflow and invalid operations in the
    exponential and in g give non-finite values without a warning, for the
    caller to check.
    """
    at, fr, e, den = _integrand_parts(p, theta, phi)
    w = n * (_f_values(p.alpha, fr, den) - f0)
    live = ~(w.real < DEAD_LOG)  # NaN stays live
    with np.errstate(over="ignore", invalid="ignore"):
        values = np.zeros(fr.phi.shape, dtype=complex)
        values[live] = np.exp(w[live]) * _g_values(
            p, at, _Frame(*(q[live] for q in fr)), e[live], den[live])
    return _like(values, phi)


def t_modulus(p: Params, theta: float, phi):
    """Squared modulus of e^{f} from its trigonometric closed form.

    phi is a float or an array of angles in (0, pi), as for f_phase; the
    monotonicity scan passes its whole grid at once.
    """
    theta = _check_angle_open(theta, "theta")
    phis = _check_angles_open(phi, "phi")
    alpha = p.alpha
    fr = _frame(alpha, phis)
    head = fr.big ** alpha
    # den = |head e^{-iz} - s(theta)|^2 from its real and imaginary parts:
    # expanded, it cancels as phi -> pi when theta is near pi
    gap = head * np.cos(fr.z) - _at_theta(alpha, theta).s
    den = gap * gap + (head * np.sin(fr.z)) ** 2
    return _like(fr.big ** (2.0 * alpha) * _l_value(fr.upper) / den, phi)


def f_prime(p: Params, theta: float, phi):
    """Derivative of the phase in phi, from the closed numerator/denominator
    factorization.

    phi is a float or an array of angles in (0, pi), as for f_phase; the
    saddle scan passes its whole grid at once.  The numerator carries the
    factor s(phi) - s(theta), with s(theta) computed by the same array
    operations as s(phi), so the saddle residual at phi = theta cancels
    exactly instead of by floating-point luck.
    """
    theta = _check_angle_open(theta, "theta")
    phis = _check_angles_open(phi, "phi")
    alpha = p.alpha
    fr = _frame(alpha, phis)
    big, e = fr.big, np.exp(-1j * fr.z)
    s_theta = _s_value(alpha, np.array([theta]))
    small = _theta_major(alpha, phis)
    s_phi = big ** alpha * small
    upp = -2.0 * (big / small) * (s_phi - s_theta) * np.exp(-1j * fr.v)
    head = big ** alpha * e  # (1 - xi) / 2
    low = (alpha * (2.0 * head) * (1.0 - big * np.exp(-1j * fr.y))
           * (-2.0 * (head - s_theta)))
    if (low == 0).any():
        raise ConvergenceError("f_prime: denominator vanished")
    return _like(upp / low * _xi_prime(alpha, fr, e), phi)


@dataclass(frozen=True)
class SaddleData:
    """Closed-form saddle quantities at phi = theta."""

    f_saddle: complex
    g_saddle: complex
    f_second: complex
    m_alpha: complex
    sine_ratio: float


def f_at_saddle(p: Params, theta: float) -> complex:
    theta = _check_angle_open(theta, "theta")
    return complex(math.log(sine_ratio(p.alpha, theta)), theta)


def _saddle_factors(p: Params, theta: float):
    """The quantities at phi = theta plus the factors shared by g and M
    there: lower = e^{iz} - theta_major(alpha, theta) and the three real
    denominator factors Theta_alpha^((a+1)/alpha-1), ((1+x)/2)^b, |lower|^2."""
    alpha, a, b = p.alpha, p.a, p.b
    at = _at_theta(alpha, theta)
    big, small = at.big, at.small
    lower = complex(math.cos(at.z) - small, math.sin(at.z))
    dens = (small ** ((a + 1.0) / alpha - 1.0),
            (1.0 - big * small ** (1.0 / alpha)) ** b,
            _l_value(lower))
    return at, lower, dens


@_saddle_scope
def g_at_saddle(p: Params, theta: float) -> complex:
    theta = _check_angle_open(theta, "theta")
    alpha, a, b = p.alpha, p.a, p.b
    at, lower, (d1, d2, d3) = _saddle_factors(p, theta)
    num = (cmath.exp(-1j * (_PI + at.y * (a + b + 1.0 - alpha)))
           * cmath.exp(b * cmath.log(at.upper)) * lower * at.xi_prime)
    return num / (2.0 * at.big ** alpha * d1 * d2 * d3)


@_saddle_scope
def f_second_at_saddle(p: Params, theta: float) -> complex:
    theta = _check_angle_open(theta, "theta")
    alpha = p.alpha
    at = _at_theta(alpha, theta)
    return ((1.0 + alpha) / (4.0 * alpha * alpha)
            * cmath.exp(-1j * (_PI - 2.0 * alpha * at.y))
            * at.big ** (1.0 - 2.0 * alpha) * at.xi_prime * at.xi_prime
            / at.upper)


@_saddle_scope
def m_alpha(p: Params, theta: float) -> complex:
    """n-free amplitude of the Darboux-type leading term."""
    theta = _check_angle_open(theta, "theta")
    a, b = p.a, p.b
    at, lower, (d1, d2, d3) = _saddle_factors(p, theta)
    num = (cmath.exp(-1j * (_PI / 2.0 + at.y * (a + b + 1.0)))
           * cmath.exp((b + 0.5) * cmath.log(at.upper)) * lower)
    return num / (math.sqrt(at.big) * d1 * d2 * d3)


def sqrt_f_second(f_second: complex) -> complex:
    """Square root of the saddle curvature on the steepest-descent branch.

    Since Re f_second < 0, the root is taken with argument in [pi/4, 3pi/4]
    (equivalently i * principal sqrt of -f_second).  This is the branch under
    which the convergent Gaussian integral produces the amplitude identity
    g / sqrt(f'') = alpha/sqrt(1+alpha) * M; the principal branch flips sign
    wherever Im f_second < 0.
    """
    return 1j * cmath.sqrt(-f_second)


def saddle_data(p: Params, theta: float) -> SaddleData:
    """All saddle quantities; the proven contracts on f_second and m_alpha
    hold for alpha >= 1 but the values are computed for any alpha > 0."""
    return SaddleData(
        f_saddle=f_at_saddle(p, theta),
        g_saddle=g_at_saddle(p, theta),
        f_second=f_second_at_saddle(p, theta),
        m_alpha=m_alpha(p, theta),
        sine_ratio=sine_ratio(p.alpha, theta),
    )


# ---------------------------------------------------------------------------
# structure functions of the monotonicity analysis
# ---------------------------------------------------------------------------

def d_of_phi(alpha: float, phi):
    """(1+alpha) cot(phi) + alpha cot((pi-phi)/(1+1/alpha)).

    Strictly decreasing from +inf to 0 on (0, pi); phi is a float or an
    array of angles in [0, pi), and phi = 0 returns +inf.
    """
    alpha = _check_alpha(alpha)
    return _like(_with_limits(phi, "phi", {0.0: math.inf},
                              lambda ts: _d_of_phi(alpha, ts)), alpha, phi)


def _d_of_phi(alpha: float, phi: np.ndarray) -> np.ndarray:
    # d_of_phi for an already checked alpha > 0 and angles in (0, pi)
    v = _PI - phi
    z = alpha * v / (1.0 + alpha)
    return (1.0 + alpha) * (_cosine(phi, v) / _sine(phi, v)) + alpha / np.tan(z)


def phi_star(alpha: float, tol: float = 1e-12) -> float:
    """The unique angle where d_of_phi equals 1, by bisection.

    The upper bracket stays 1e-4 inside pi: d(pi - eps) = O(eps) arises there
    from a cancellation of two O(1/eps) cotangents, so evaluating closer to
    pi produces sign noise, while d < 1 already holds far earlier.
    """
    alpha = _check_alpha(alpha)
    return find_root_bisect(lambda t: _d_of_phi(alpha, np.array([t])).item()
                            - 1.0, 1e-9, _PI - 1e-4, tol)


@dataclass(frozen=True)
class StructureBundle:
    """Values of the structure functions at one angle (floats; h is None
    exactly where its defining quotient degenerates, d = 1) or at an array
    of angles (arrays shaped like it; h is NaN there)."""

    k: float
    l: float
    r: float
    s: float
    u: float
    v: float
    w: float
    d: float
    h: Optional[float]
    delta_cap: float
    lambda_low: float


def structure_functions(alpha: float, phi) -> StructureBundle:
    """The structure functions at phi, a float or an array of angles in
    (0, pi); the claim scan passes its whole grid at once."""
    alpha = _check_alpha(alpha)
    phis = _check_angles_open(phi, "phi")
    fr = _frame(alpha, phis)
    big, z, cy = fr.big, fr.z, fr.cy
    sy = fr.upper.imag
    big_prime = _big_prime(alpha, fr)
    small = _theta_major(alpha, phis)
    cz, sz = np.cos(z), np.sin(z)
    one_p_a = 1.0 + alpha

    k = big ** (2.0 * alpha)
    l = _l_value(fr.upper)
    r = -2.0 * big ** alpha * cz
    s = big ** alpha * small

    d = _d_of_phi(alpha, phis)
    dd2 = d * d - 1.0
    u = 2.0 * sy / one_p_a * big ** (2.0 * alpha + 1.0) * dd2
    w = (2.0 * fr.sine / (one_p_a * one_p_a)
         * big ** (4.0 * alpha + 1.0) * (dd2 * cz - 2.0 * d * sz))

    r_prime = -2.0 * (alpha * big ** (alpha - 1.0) * big_prime * cz
                      + big ** alpha * alpha * sz / one_p_a)
    v = u * r - k * l * r_prime

    with np.errstate(divide="ignore", invalid="ignore"):
        h = np.where(dd2 == 0.0, np.nan, big ** alpha * (cz - 2.0 * d / dd2 * sz))
    delta_cap = dd2 * big * (cy - big) + 2.0 * (1.0 - big * big)
    lambda_low = cy * sz - alpha * sy * cz
    fields = {name: _like(value, alpha, phi) for name, value in (
        ("k", k), ("l", l), ("r", r), ("s", s), ("u", u), ("v", v), ("w", w),
        ("d", d), ("h", h), ("delta_cap", delta_cap), ("lambda_low", lambda_low))}
    if isinstance(fields["h"], float) and math.isnan(fields["h"]):
        fields["h"] = None
    return StructureBundle(**fields)


def lambda_of_phi(alpha: float, phi):
    """The structure function lambda at phi, a float or an array of angles
    in (0, pi)."""
    return structure_functions(alpha, phi).lambda_low
