"""Angle-parametrized functions of the steepest-descent analysis.

Covers the monotone angle maps and their derivatives, the point map x(theta)
and its inverse, the auxiliary map t(theta), the integration contour and its
derivative, the phase f and amplitude g of the contour integrand, the
modulus-square T, all saddle-point data (including the n-free amplitude
factor M), plus the scalar structure functions k, l, r, s, u, v, w, d, h,
Delta and lambda used by the monotonicity and claim scans.

All functions are pure; angles are radians in the open interval (0, pi),
with the proven limit values substituted at exact endpoints where a contract
asks for them.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Optional

from .errors import InputError
from .numerics import complex_pow_principal, find_root_bisect
from .polys import Params

__all__ = [
    "ContourPoint",
    "SaddleData",
    "StructureBundle",
    "contour_point",
    "d_of_phi",
    "f_at_saddle",
    "f_phase",
    "f_prime",
    "f_second_at_saddle",
    "g_amplitude",
    "g_at_saddle",
    "h_of_phi",
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


def _check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not alpha > 0.0:
        raise InputError(f"alpha must be > 0, got {alpha!r}")
    return alpha


def _check_angle_open(t: float, name: str = "angle") -> float:
    t = float(t)
    if not (0.0 < t < _PI):
        raise InputError(f"{name} must lie in (0, pi), got {t!r}")
    return t


def _sin_angle(t: float, v: float) -> float:
    # sin(t) with v = pi - t; the complement form keeps full relative
    # accuracy when t is near pi (v is exact there by Sterbenz).
    return math.sin(t) if t <= 0.5 * _PI else math.sin(v)


def _cos_angle(t: float, v: float) -> float:
    return math.cos(t) if t <= 0.5 * _PI else -math.cos(v)


def theta_major(alpha: float, t: float) -> float:
    """Monotone angle map sin(t) / ((1+alpha) sin((pi-t)/(1+alpha))).

    Strictly increasing from 0 to 1 on (0, pi); the exact endpoints return
    the limit values.  The reciprocal-parameter companion is obtained by
    passing 1/alpha.
    """
    alpha = _check_alpha(alpha)
    t = float(t)
    if t == 0.0:
        return 0.0
    if t == _PI:
        return 1.0
    return _theta_major(alpha, _check_angle_open(t))


def _theta_major(alpha: float, t: float) -> float:
    # theta_major for an already checked alpha > 0 and t in (0, pi)
    v = _PI - t
    return _sin_angle(t, v) / ((1.0 + alpha) * math.sin(v / (1.0 + alpha)))


def theta_major_prime(alpha: float, t: float) -> float:
    """Analytic derivative of theta_major in t."""
    alpha = _check_alpha(alpha)
    t = _check_angle_open(t)
    v = _PI - t
    y = v / (1.0 + alpha)
    sy = math.sin(y)
    u = (1.0 + alpha) * _cos_angle(t, v) * sy + _sin_angle(t, v) * math.cos(y)
    return u / ((1.0 + alpha) ** 2 * sy * sy)


def sine_ratio(alpha: float, theta: float) -> float:
    """Geometric decay factor sin((pi-t)/(1+alpha)) / sin((pi-t)/(1+1/alpha))."""
    alpha = _check_alpha(alpha)
    theta = _check_angle_open(theta, "theta")
    y = (_PI - theta) / (1.0 + alpha)
    return math.sin(y) / math.sin(alpha * y)


def x_of_theta(p: Params, theta: float) -> float:
    """Evaluation point x(theta), strictly decreasing from 1 to -1."""
    theta = float(theta)
    if theta == 0.0:
        return 1.0
    if theta == _PI:
        return -1.0
    _check_angle_open(theta, "theta")
    big = theta_major(1.0 / p.alpha, theta)
    small = theta_major(p.alpha, theta)
    return 1.0 - 2.0 * big * small ** (1.0 / p.alpha)


def theta_of_x(p: Params, x: float, tol: float = 1e-12) -> float:
    """Inverse of x_of_theta by bisection (licensed by strict monotonicity)."""
    x = float(x)
    if not (-1.0 < x < 1.0):
        raise InputError(f"theta_of_x requires x in (-1, 1), got {x!r}")
    return find_root_bisect(lambda t: x_of_theta(p, t) - x, 0.0, _PI, tol)


def t_of_theta(p: Params, theta: float) -> float:
    """Pole location t(theta) of the contour integrand denominator."""
    theta = float(theta)
    if theta == 0.0:
        return 1.0
    if theta == _PI:
        return -1.0
    _check_angle_open(theta, "theta")
    return 1.0 - 2.0 * _s_value(p.alpha, theta)


def _s_value(alpha: float, t: float) -> float:
    # s(t) = theta_major(1/alpha, t)^alpha * theta_major(alpha, t), t checked
    return _theta_major(1.0 / alpha, t) ** alpha * _theta_major(alpha, t)


def _frame(alpha: float, phi: float):
    """Upper-branch quantities at phi that every contour function reads.

    Returns (big, y, z, cos y, upper) with big = theta_major(1/alpha, phi),
    y = (pi-phi)/(1+alpha), z = alpha*y and upper = e^{iy} - big, whose
    imaginary part is sin y (> 0 on (0, pi)).  phi must already be checked.
    """
    big = _theta_major(1.0 / alpha, phi)
    y = (_PI - phi) / (1.0 + alpha)
    cy = math.cos(y)
    return big, y, alpha * y, cy, complex(cy - big, math.sin(y))


def _xi_prime(alpha: float, phi: float, big: float, z: float) -> complex:
    prime = theta_major_prime(1.0 / alpha, phi)
    return (-2.0 * alpha / (1.0 + alpha) * big ** (alpha - 1.0)
            * cmath.exp(-1j * z) * ((1.0 + alpha) * prime + 1j * big))


@dataclass(frozen=True)
class ContourPoint:
    """One sample of the integration contour: parameter, point, derivative."""

    phi: float
    xi: complex
    xi_prime: Optional[complex]


def contour_point(p: Params, phi: float) -> ContourPoint:
    """Contour sample; the lower branch mirrors the upper by conjugation.

    At phi in {0, -pi} the contour passes through +1 / -1 and the derivative
    is undefined (returned as None).  For phi < 0 the reported xi_prime is
    the actual parameter derivative of the conjugate branch.
    """
    phi = float(phi)
    if not (-_PI <= phi <= _PI):
        raise InputError(f"phi must lie in [-pi, pi], got {phi!r}")
    if phi == 0.0:
        return ContourPoint(phi, 1.0 + 0.0j, None)
    if abs(phi) == _PI:  # +pi names the same contour point as -pi
        return ContourPoint(phi, -1.0 + 0.0j, None)
    if phi < 0.0:
        up = contour_point(p, -phi)
        prime = None if up.xi_prime is None else -up.xi_prime.conjugate()
        return ContourPoint(phi, up.xi.conjugate(), prime)
    alpha = p.alpha
    big, _, z, _, _ = _frame(alpha, phi)
    xi = 1.0 - 2.0 * big ** alpha * cmath.exp(-1j * z)
    return ContourPoint(phi, xi, _xi_prime(alpha, phi, big, z))


def f_phase(p: Params, theta: float, phi: float) -> complex:
    """Phase function of the contour integrand, continuous in phi.

    The real part is the log-magnitude; the argument is accumulated factor by
    factor (each factor stays inside an open half-plane, so no branch cut is
    crossed) and shifted by -2*pi so that Im f(theta) = theta at the saddle.
    A single principal Log of the assembled product would jump by 2*pi for
    some parameters and break e^{n f} quadrature.
    """
    theta = _check_angle_open(theta, "theta")
    phi = _check_angle_open(phi, "phi")
    alpha = _check_alpha(p.alpha)
    big, _, z, _, upper = _frame(alpha, phi)
    den = big ** alpha * cmath.exp(-1j * z) - _s_value(alpha, theta)  # Im < 0
    if den == 0:
        raise ValueError("f_phase: integrand pole hit (xi(phi) == t(theta))")
    re = alpha * math.log(big) + math.log(abs(upper)) - math.log(abs(den))
    # (pi + phi) + args - 2 pi, with phi - pi = -(pi - phi) taken exactly
    im = -(_PI - phi) + cmath.phase(upper) - cmath.phase(den)
    return complex(re, im)


def g_amplitude(p: Params, theta: float, phi: float) -> complex:
    """Amplitude factor of the contour integrand (includes xi'(phi))."""
    theta = _check_angle_open(theta, "theta")
    phi = _check_angle_open(phi, "phi")
    alpha, a, b = p.alpha, p.a, p.b
    big, y, z, _, upper = _frame(alpha, phi)
    big_t = _theta_major(1.0 / alpha, theta)
    small_t = _theta_major(alpha, theta)
    den = big ** alpha * cmath.exp(-1j * z) - big_t ** alpha * small_t
    if den == 0:
        raise ValueError("g_amplitude: integrand pole hit")
    ratio = (big / big_t) ** (a + 1.0 - alpha)
    phase = cmath.exp(-1j * (_PI + y * (a + b + 1.0 - alpha)))
    upper_b = complex_pow_principal(upper, b)
    base_b = (1.0 - big_t * small_t ** (1.0 / alpha)) ** b  # ((1+x)/2)^b
    return (ratio * phase * upper_b * _xi_prime(alpha, phi, big, z)
            / (2.0 * small_t ** ((a + 1.0) / alpha - 1.0) * base_b * den))


def t_modulus(p: Params, theta: float, phi: float) -> float:
    """Squared modulus of e^{f} from its trigonometric closed form."""
    theta = _check_angle_open(theta, "theta")
    phi = _check_angle_open(phi, "phi")
    alpha = p.alpha
    big, _, z, cy, _ = _frame(alpha, phi)
    s_theta = _s_value(alpha, theta)
    k = big ** (2.0 * alpha)
    l = 1.0 + big * big - 2.0 * big * cy
    den = k - 2.0 * s_theta * big ** alpha * math.cos(z) + s_theta * s_theta
    return k * l / den


def f_prime(p: Params, theta: float, phi: float) -> complex:
    """Derivative of the phase in phi, from the closed numerator/denominator
    factorization.

    The numerator carries the factor s(phi) - s(theta), so the saddle residual
    at phi = theta cancels exactly instead of by floating-point luck.
    """
    theta = _check_angle_open(theta, "theta")
    phi = _check_angle_open(phi, "phi")
    alpha = p.alpha
    big, y, z, _, _ = _frame(alpha, phi)
    s_theta = _s_value(alpha, theta)
    small = _theta_major(alpha, phi)
    s_phi = big ** alpha * small
    upp = -2.0 * (big / small) * (s_phi - s_theta) * cmath.exp(-1j * (_PI - phi))
    head = big ** alpha * cmath.exp(-1j * z)  # (1 - xi) / 2
    low = (alpha * (2.0 * head) * (1.0 - big * cmath.exp(-1j * y))
           * (-2.0 * (head - s_theta)))
    if low == 0:
        raise ValueError("f_prime: denominator vanished")
    return upp / low * _xi_prime(alpha, phi, big, z)


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
    """The frame at phi = theta plus the factors shared by g and M there:
    lower = e^{iz} - theta_major(alpha, theta) and the three real
    denominator factors Theta_alpha^((a+1)/alpha-1), ((1+x)/2)^b, |lower|^2."""
    alpha, a, b = p.alpha, p.a, p.b
    big, y, z, _, upper = _frame(alpha, theta)
    small = _theta_major(alpha, theta)
    cz = math.cos(z)
    lower = complex(cz - small, math.sin(z))
    dens = (small ** ((a + 1.0) / alpha - 1.0),
            (1.0 - big * small ** (1.0 / alpha)) ** b,
            1.0 + small * small - 2.0 * small * cz)
    return big, y, z, upper, lower, dens


def g_at_saddle(p: Params, theta: float) -> complex:
    theta = _check_angle_open(theta, "theta")
    alpha, a, b = p.alpha, p.a, p.b
    big, y, z, upper, lower, (d1, d2, d3) = _saddle_factors(p, theta)
    num = (cmath.exp(-1j * (_PI + y * (a + b + 1.0 - alpha)))
           * complex_pow_principal(upper, b) * lower
           * _xi_prime(alpha, theta, big, z))
    return num / (2.0 * big ** alpha * d1 * d2 * d3)


def f_second_at_saddle(p: Params, theta: float) -> complex:
    theta = _check_angle_open(theta, "theta")
    alpha = p.alpha
    big, y, z, _, upper = _frame(alpha, theta)
    xi_prime = _xi_prime(alpha, theta, big, z)
    return ((1.0 + alpha) / (4.0 * alpha * alpha)
            * cmath.exp(-1j * (_PI - 2.0 * alpha * y))
            * big ** (1.0 - 2.0 * alpha) * xi_prime * xi_prime / upper)


def m_alpha(p: Params, theta: float) -> complex:
    """n-free amplitude of the Darboux-type leading term."""
    theta = _check_angle_open(theta, "theta")
    a, b = p.a, p.b
    big, y, _, upper, lower, (d1, d2, d3) = _saddle_factors(p, theta)
    num = (cmath.exp(-1j * (_PI / 2.0 + y * (a + b + 1.0)))
           * complex_pow_principal(upper, b + 0.5) * lower)
    return num / (math.sqrt(big) * d1 * d2 * d3)


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

def d_of_phi(alpha: float, phi: float) -> float:
    """(1+alpha) cot(phi) + alpha cot((pi-phi)/(1+1/alpha)).

    Strictly decreasing from +inf to 0 on (0, pi); phi = 0 returns +inf.
    """
    alpha = _check_alpha(alpha)
    phi = float(phi)
    if phi == 0.0:
        return math.inf
    _check_angle_open(phi, "phi")
    v = _PI - phi
    z = alpha * v / (1.0 + alpha)
    cot_phi = _cos_angle(phi, v) / _sin_angle(phi, v)
    return (1.0 + alpha) * cot_phi + alpha / math.tan(z)


def phi_star(alpha: float, tol: float = 1e-12) -> float:
    """The unique angle where d_of_phi equals 1, by bisection.

    The upper bracket stays 1e-4 inside pi: d(pi - eps) = O(eps) arises there
    from a cancellation of two O(1/eps) cotangents, so evaluating closer to
    pi produces sign noise, while d < 1 already holds far earlier.
    """
    alpha = _check_alpha(alpha)
    return find_root_bisect(lambda t: d_of_phi(alpha, t) - 1.0,
                            1e-9, _PI - 1e-4, tol)


@dataclass(frozen=True)
class StructureBundle:
    """Values of the scalar structure functions at one angle.

    h is None exactly where its defining quotient degenerates (d = 1)."""

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


def structure_functions(alpha: float, phi: float) -> StructureBundle:
    alpha = _check_alpha(alpha)
    phi = _check_angle_open(phi, "phi")
    big, y, z, cy, upper = _frame(alpha, phi)
    sy = upper.imag
    big_prime = theta_major_prime(1.0 / alpha, phi)
    small = _theta_major(alpha, phi)
    cz, sz = math.cos(z), math.sin(z)
    sin_phi = _sin_angle(phi, _PI - phi)
    one_p_a = 1.0 + alpha

    k = big ** (2.0 * alpha)
    l = 1.0 + big * big - 2.0 * big * cy
    r = -2.0 * big ** alpha * cz
    s = big ** alpha * small

    d = d_of_phi(alpha, phi)
    dd2 = d * d - 1.0
    u = 2.0 * sy / one_p_a * big ** (2.0 * alpha + 1.0) * dd2
    w = (2.0 * sin_phi / (one_p_a * one_p_a)
         * big ** (4.0 * alpha + 1.0) * (dd2 * cz - 2.0 * d * sz))

    r_prime = -2.0 * (alpha * big ** (alpha - 1.0) * big_prime * cz
                      + big ** alpha * alpha * sz / one_p_a)
    v = u * r - k * l * r_prime

    h = None if dd2 == 0.0 else big ** alpha * (cz - 2.0 * d / dd2 * sz)
    delta_cap = dd2 * big * (cy - big) + 2.0 * (1.0 - big * big)
    lambda_low = cy * sz - alpha * sy * cz
    return StructureBundle(k=k, l=l, r=r, s=s, u=u, v=v, w=w, d=d, h=h,
                           delta_cap=delta_cap, lambda_low=lambda_low)


def h_of_phi(alpha: float, phi: float) -> Optional[float]:
    return structure_functions(alpha, phi).h


def lambda_of_phi(alpha: float, phi: float) -> float:
    alpha = _check_alpha(alpha)
    phi = _check_angle_open(phi, "phi")
    _, _, z, cy, upper = _frame(alpha, phi)
    return cy * math.sin(z) - alpha * upper.imag * math.cos(z)
