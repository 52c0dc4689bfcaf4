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
from functools import lru_cache
from typing import Optional

import numpy as np

from .config import DEFAULTS
from .errors import ConvergenceError, InputError, ScopeError, check_angle, check_tol
from .numerics import DEAD_LOG, find_root_bisect
from .polys import Params

__all__ = [
    "ContourPoint",
    "SaddleData",
    "StructureBundle",
    "contour_integrand",
    "contour_point",
    "d_of_phi",
    "f_phase",
    "f_prime",
    "f_second_at_saddle",
    "g_amplitude",
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
    check_angle(ts[~np.isin(ts, list(limits))], name)
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
    angles in (0, pi).  ScopeError where (1+alpha)^2 overflows."""
    alpha = _check_alpha(alpha)
    ts = np.atleast_1d(check_angle(t))
    return _like(_in_range("theta_major_prime", lambda: _major_prime(
        alpha, ts, *_major(alpha, ts)[1:]), "any", alpha=alpha), alpha, t)


def _in_range(name: str, compute, returns: str = "arrays", **where):
    """compute() with numpy's warnings off; an OverflowError, a
    ZeroDivisionError or a non-finite value becomes a ScopeError naming the
    function and where (ValueError, and so InputError, passes).  returns
    reads the value: "arrays" (arrays of one shape), "numbers" (a tuple of
    Python numbers, whose overflow raises: no numpy state is set) or "any"."""
    try:
        if returns == "numbers":
            value = compute()
        else:
            with np.errstate(all="ignore"):
                value = compute()
    except (OverflowError, ZeroDivisionError):
        pass
    else:
        if returns == "any" or (all(map(cmath.isfinite, value))
                                if returns == "numbers"
                                else np.isfinite(value).all()):
            return value
    at = ", ".join(f"{key}={value!r}" for key, value in where.items())
    raise ScopeError(f"{name} at {at} lies beyond the double range")


def _sine_ratio(alpha: float, theta: float) -> float:
    # rho, or nan where it rounds to 0 or below: the true rho is positive,
    # but it can underflow, and alpha y can round past pi
    y = (_PI - theta) / (1.0 + alpha)
    rho = math.sin(y) / math.sin(alpha * y)
    return rho if rho > 0.0 else math.nan


def sine_ratio(alpha: float, theta: float) -> float:
    """Geometric decay factor sin((pi-t)/(1+alpha)) / sin((pi-t)/(1+1/alpha)).
    ScopeError where it leaves the double range, rounding to 0 or below
    included."""
    theta, alpha = check_angle(theta, "theta"), _check_alpha(alpha)
    return _in_range("sine_ratio", lambda: (_sine_ratio(alpha, theta),),
                     "numbers", theta=theta)[0]


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
@np.errstate(all="ignore")
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
    ScopeError where xi or xi_prime leaves the double range.
    """
    phis = np.atleast_1d(np.asarray(phi, dtype=float))
    inside = (phis >= -_PI) & (phis <= _PI)
    if not inside.all():
        bad = float(phis[~inside][0])
        raise InputError(f"phi must lie in [-pi, pi], got {bad!r}")
    alpha, size = p.alpha, np.abs(phis)
    inner = (size > 0.0) & (size < _PI)  # +pi names the same point as -pi

    def upper_branch():
        fr = _frame(alpha, np.where(inner, size, 0.5 * _PI))
        e = np.exp(-1j * fr.z)
        return (np.where(inner, 1.0 - 2.0 * fr.big ** alpha * e,
                         np.where(size == 0.0, 1.0, -1.0)),
                _xi_prime(alpha, fr, e))
    xi, prime = _in_range("contour_point", upper_branch, alpha=alpha)
    prime = np.where(inner, prime, np.nan)
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
    at = _at_theta(p.alpha, check_angle(theta, "theta"))
    fr = _frame(p.alpha, np.atleast_1d(check_angle(phi, "phi")))
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


def _theta_factors(p: Params, at: _AtTheta) -> tuple:
    """The theta-only denominator factors of g and M, Python floats:
    Theta_alpha^((a+1)/alpha-1) and ((1+x)/2)^b."""
    return (at.small ** ((p.a + 1.0) / p.alpha - 1.0),
            (1.0 - at.big * at.small ** (1.0 / p.alpha)) ** p.b)


def _g_values(p: Params, at: _AtTheta, fr: _Frame, e: np.ndarray,
              den: np.ndarray) -> np.ndarray:
    alpha, a, b = p.alpha, p.a, p.b
    ratio = (fr.big / at.big) ** (a + 1.0 - alpha)
    phase = np.exp(-1j * (_PI + fr.y * (a + b + 1.0 - alpha)))
    upper_b = np.exp(b * np.log(fr.upper))  # principal power; Im upper > 0
    d1, d2 = _theta_factors(p, at)
    return (ratio * phase * upper_b * _xi_prime(alpha, fr, e)
            / (2.0 * d1 * d2 * den))


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
    _, fr, _, den = _in_range("f_phase", lambda: _integrand_parts(
        p, theta, phi), "any", alpha=p.alpha, theta=theta)
    return _like(_f_values(p.alpha, fr, den), phi)


def g_amplitude(p: Params, theta: float, phi):
    """Amplitude factor of the contour integrand (includes xi'(phi)).

    phi is a float or an array of angles in (0, pi), as for f_phase.
    """
    return _like(_in_range("g_amplitude", lambda: _g_values(p, *_integrand_parts(
        p, theta, phi)), "any", alpha=p.alpha, theta=theta), phi)


def contour_integrand(p: Params, theta: float, phi, n, f0: complex):
    """The contour integrand with the saddle factor taken out,
    e^{n (f - f0)} g at phi, for the degree n and f0 = f(theta).

    phi is a float or an array of angles in (0, pi), as for f_phase; the
    contour oracle passes every node of one refinement level at once.  n is
    a degree, or a list of degrees, which adds a first axis to the values,
    one C-ordered row per degree.  What f and g share, F = f - f0 and g are
    built once for all the degrees, and each value equals
    np.exp(n * (f_phase - f0)) * g_amplitude bit for bit.  Where
    n Re(f - f0) < DEAD_LOG the exponential underflows: the value is exactly
    0 and g is not computed.  Overflow and invalid operations in f, the
    exponential and g give non-finite values without a warning, for the
    caller to check; ScopeError where the theta data leave the double range.
    """
    many = isinstance(n, (list, tuple, np.ndarray))

    def values():
        at, fr, e, den = _integrand_parts(p, theta, phi)
        f = _f_values(p.alpha, fr, den) - f0
        w = np.multiply.outer(np.array(n if many else [n], float), f)
        live = ~(w.real < DEAD_LOG)  # NaN stays live
        # g once, at the nodes live for some degree
        union = live[0] if len(w) == 1 else live.any(axis=0)
        g = _g_values(p, at, _Frame(*(q[union] for q in fr)), e[union],
                      den[union])
        if len(w) > 1:  # g at each row's live nodes
            g = np.broadcast_to(g, (len(w), g.size))[live[:, union]]
        kept = np.zeros(w.shape, dtype=complex)
        kept[live] = np.exp(w[live]) * g
        return kept
    kept = _in_range("contour_integrand", values, "any", alpha=p.alpha,
                     theta=theta)
    return kept if many else _like(kept[0], phi)


def t_modulus(p: Params, theta: float, phi):
    """Squared modulus of e^{f} from its trigonometric closed form.

    phi is a float or an array of angles in (0, pi), as for f_phase; the
    monotonicity scan passes its whole grid at once.  ScopeError where T
    leaves the double range.
    """
    theta, alpha = check_angle(theta, "theta"), p.alpha

    def values():
        fr = _frame(alpha, np.atleast_1d(check_angle(phi, "phi")))
        head = fr.big ** alpha
        # den = |head e^{-iz} - s(theta)|^2 from its real and imaginary
        # parts: expanded, it cancels as phi -> pi when theta is near pi
        gap = head * np.cos(fr.z) - _at_theta(alpha, theta).s
        den = gap * gap + (head * np.sin(fr.z)) ** 2
        return fr.big ** (2.0 * alpha) * _l_value(fr.upper) / den
    return _like(_in_range("t_modulus", values, alpha=alpha, theta=theta), phi)


def f_prime(p: Params, theta: float, phi):
    """Derivative of the phase in phi, from the closed numerator/denominator
    factorization.

    phi is a float or an array of angles in (0, pi), as for f_phase; the
    saddle scan passes its whole grid at once.  The numerator carries the
    factor s(phi) - s(theta), with s(theta) computed by the same array
    operations as s(phi), so the saddle residual at phi = theta cancels
    exactly instead of by floating-point luck.  ScopeError where xi'
    overflows in its factor (1+1/alpha)^2.
    """
    theta, alpha = check_angle(theta, "theta"), p.alpha
    phis = np.atleast_1d(check_angle(phi, "phi"))

    def values():
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
        return upp / low * _xi_prime(alpha, fr, e)
    return _like(_in_range("f_prime", values, "any", alpha=alpha,
                           theta=theta), phi)


@dataclass(frozen=True)
class SaddleData:
    """Closed-form saddle quantities at phi = theta."""

    f_saddle: complex
    g_saddle: complex
    f_second: complex
    m_alpha: complex
    sine_ratio: float


def _f_second(alpha: float, at: _AtTheta) -> complex:
    return ((1.0 + alpha) / (4.0 * alpha * alpha)
            * cmath.exp(-1j * (_PI - 2.0 * alpha * at.y))
            * at.big ** (1.0 - 2.0 * alpha) * at.xi_prime * at.xi_prime
            / at.upper)


def f_second_at_saddle(p: Params, theta: float) -> complex:
    """f''(theta) alone, which may lie in range where g or M does not."""
    return _in_range("f_second_at_saddle", lambda: (_f_second(p.alpha, _at_theta(
        p.alpha, check_angle(theta, "theta"))),), "numbers", theta=theta)[0]


def _saddle_fields(p: Params, theta: float) -> tuple:
    # the SaddleData fields; g and M share lower and the factors d1, d2, d3
    alpha, a, b, theta = p.alpha, p.a, p.b, check_angle(theta, "theta")
    at = _at_theta(alpha, theta)
    rho = _sine_ratio(alpha, theta)  # nan beyond the range
    f_saddle = complex(math.log(rho), theta)
    lower = complex(math.cos(at.z) - at.small, math.sin(at.z))
    d1, d2 = _theta_factors(p, at)
    d3 = _l_value(lower)
    g_num = (cmath.exp(-1j * (_PI + at.y * (a + b + 1.0 - alpha)))
             * cmath.exp(b * cmath.log(at.upper)) * lower * at.xi_prime)
    m_num = (cmath.exp(-1j * (_PI / 2.0 + at.y * (a + b + 1.0)))
             * cmath.exp((b + 0.5) * cmath.log(at.upper)) * lower)
    return (f_saddle, g_num / (2.0 * at.big ** alpha * d1 * d2 * d3),
            _f_second(alpha, at), m_num / (math.sqrt(at.big) * d1 * d2 * d3),
            rho)


def saddle_data(p: Params, theta: float) -> SaddleData:
    """All saddle quantities, each computed once (m_alpha is the n-free
    amplitude M); the proven contracts on f_second and m_alpha hold for
    alpha >= 1 but the values are computed for any alpha > 0."""
    return SaddleData(*_in_range("saddle_data", lambda: _saddle_fields(
        p, theta), "numbers", theta=theta))


def sqrt_f_second(f_second: complex) -> complex:
    """Square root of the saddle curvature on the steepest-descent branch.

    Since Re f_second < 0, the root is taken with argument in [pi/4, 3pi/4]
    (equivalently i * principal sqrt of -f_second).  This is the branch under
    which the convergent Gaussian integral produces the amplitude identity
    g / sqrt(f'') = alpha/sqrt(1+alpha) * M; the principal branch flips sign
    wherever Im f_second < 0.
    """
    return 1j * cmath.sqrt(-f_second)


# ---------------------------------------------------------------------------
# structure functions of the monotonicity analysis
# ---------------------------------------------------------------------------

def d_of_phi(alpha: float, phi):
    """(1+alpha) cot(phi) + alpha cot((pi-phi)/(1+1/alpha)).

    Strictly decreasing from +inf to 0 on (0, pi); phi is a float or an
    array of angles in [0, pi), and phi = 0 returns +inf.
    """
    alpha = _check_alpha(alpha)
    return _like(_with_limits(phi, "phi", {0.0: math.inf}, lambda ts: _in_range(
        "d_of_phi", lambda: _d_of_phi(alpha, ts), alpha=alpha)), alpha, phi)


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
    alpha, tol = _check_alpha(alpha), check_tol(tol)
    try:
        return find_root_bisect(lambda t: _in_range("phi_star", lambda: _d_of_phi(
            alpha, np.array([t])), alpha=alpha).item() - 1.0, 1e-9, _PI - 1e-4, tol)
    except InputError:  # tol is checked, so the bracket holds no sign change
        raise ScopeError(f"phi_star at alpha={alpha!r}: d - 1 does not change "
                         f"sign on [1e-9, pi - 1e-4]") from None


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
    (0, pi); the claim scan passes its whole grid at once.  ScopeError where
    theta_major' overflows in its factor (1+1/alpha)^2."""
    alpha = _check_alpha(alpha)
    phis = np.atleast_1d(check_angle(phi, "phi"))
    fields = {name: _like(value, alpha, phi) for name, value in _in_range(
        "structure_functions", lambda: _structure_values(alpha, phis), "any",
        alpha=alpha).items()}
    if isinstance(fields["h"], float) and math.isnan(fields["h"]):
        fields["h"] = None
    return StructureBundle(**fields)


def _structure_values(alpha, phis: np.ndarray) -> dict:
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

    h = np.where(dd2 == 0.0, np.nan, big ** alpha * (cz - 2.0 * d / dd2 * sz))
    delta_cap = dd2 * big * (cy - big) + 2.0 * (1.0 - big * big)
    lambda_low = cy * sz - alpha * sy * cz
    return {"k": k, "l": l, "r": r, "s": s, "u": u, "v": v, "w": w, "d": d,
            "h": h, "delta_cap": delta_cap, "lambda_low": lambda_low}
