import cmath
import math
import random

import numpy as np
import pytest

from biortho import phase
from biortho.errors import ConvergenceError, InputError
from biortho.numerics import fd_derivative
from biortho.polys import Params

PI = math.pi


class TestThetaMajor:
    def test_alpha_one_half_angle(self):
        assert phase.theta_major(1.0, PI / 2) == pytest.approx(math.sqrt(2) / 2)

    def test_alpha_two_closed_form(self):
        assert phase.theta_major(2.0, PI / 2) == pytest.approx(2.0 / 3.0)

    def test_limits(self):
        assert phase.theta_major(2.0, 1e-8) == pytest.approx(0.0, abs=1e-6)
        assert phase.theta_major(2.0, PI - 1e-8) == pytest.approx(1.0, abs=1e-6)
        assert phase.theta_major(3.0, 0.0) == 0.0
        assert phase.theta_major(3.0, PI) == 1.0

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0, 4.0])
    def test_strictly_increasing(self, alpha):
        grid = [(i + 1) * PI / 2001 for i in range(2000)]
        values = [phase.theta_major(alpha, t) for t in grid]
        assert all(v2 > v1 for v1, v2 in zip(values, values[1:]))
        assert all(0.0 < v < 1.0 for v in values)

    def test_prime_alpha_one(self):
        assert phase.theta_major_prime(1.0, PI / 2) == \
            pytest.approx(math.sqrt(2) / 4)

    def test_prime_matches_finite_difference(self):
        rng = random.Random(3)
        for _ in range(30):
            alpha = rng.uniform(0.3, 4.0)
            t = rng.uniform(0.2, PI - 0.2)
            fd = fd_derivative(lambda s: phase.theta_major(alpha, s), t, 1).real
            assert phase.theta_major_prime(alpha, t) == pytest.approx(fd, rel=1e-7)

    def test_prime_d_identity(self):
        # derivative of the 1/alpha map equals d * value / (1+alpha)
        alpha, t = 2.0, PI / 3
        lhs = phase.theta_major_prime(1.0 / alpha, t)
        rhs = phase.d_of_phi(alpha, t) * phase.theta_major(1.0 / alpha, t) / 3.0
        assert lhs == pytest.approx(rhs, rel=1e-11)


class TestPointMap:
    def test_alpha_one_is_cosine(self):
        p = Params(1.0, 0.0, 0.0)
        for t in (0.3, PI / 2, 2.8):
            assert phase.x_of_theta(p, t) == pytest.approx(math.cos(t), abs=1e-14)

    def test_alpha_two_value(self):
        p = Params(2.0, 0.0, 0.0)
        expected = 1.0 - 2.0 * (4.0 / (3.0 * math.sqrt(3.0))) * math.sqrt(2.0 / 3.0)
        assert phase.x_of_theta(p, PI / 2) == pytest.approx(expected, rel=1e-12)

    def test_endpoints(self):
        p = Params(2.5, 0.3, 0.1)
        assert phase.x_of_theta(p, 0.0) == 1.0
        assert phase.x_of_theta(p, PI) == -1.0

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0, 4.0])
    def test_strictly_decreasing_and_roundtrip(self, alpha):
        p = Params(alpha, 0.0, 0.0)
        grid = [(i + 1) * PI / 402 for i in range(401)]
        xs = [phase.x_of_theta(p, t) for t in grid]
        assert all(x2 < x1 for x1, x2 in zip(xs, xs[1:]))
        for t in (0.2, 1.0, PI / 2, 2.6):
            x = phase.x_of_theta(p, t)
            assert phase.theta_of_x(p, x, 1e-12) == pytest.approx(t, abs=1e-9)

    def test_inverse_of_value(self):
        p = Params(1.0, 0.0, 0.0)
        assert phase.theta_of_x(p, 0.0, 1e-12) == pytest.approx(PI / 2, abs=1e-10)

    def test_inverse_domain(self):
        with pytest.raises(ValueError):
            phase.theta_of_x(Params(1.0, 0.0, 0.0), 1.0)


class TestPoleMap:
    def test_alpha_one_is_cosine(self):
        p = Params(1.0, 0.0, 0.0)
        assert phase.t_of_theta(p, 1.1) == pytest.approx(math.cos(1.1), abs=1e-14)

    def test_alpha_two_composition(self):
        p = Params(2.0, 0.0, 0.0)
        expected = 1.0 - 2.0 * (4.0 / (3.0 * math.sqrt(3.0))) ** 2 * (2.0 / 3.0)
        assert phase.t_of_theta(p, PI / 2) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("alpha, theta", [
        (2.0, 0.7), (3.5, 2.2), (0.5, 1.3), (1.7, PI / 2),
    ])
    def test_consistency_with_x(self, alpha, theta):
        p = Params(alpha, 0.3, -0.2)
        x = phase.x_of_theta(p, theta)
        t = phase.t_of_theta(p, theta)
        assert ((1.0 - x) / 2.0) ** alpha == pytest.approx((1.0 - t) / 2.0, abs=1e-12)
        assert (1.0 + x) / 2.0 == \
            pytest.approx(1.0 - ((1.0 - t) / 2.0) ** (1.0 / alpha), abs=1e-12)


class TestContour:
    def test_alpha_one_unit_circle(self):
        p = Params(1.0, 0.0, 0.0)
        for i in range(200):
            phi = -PI + (i + 0.5) * 2.0 * PI / 200
            assert abs(phase.contour_point(p, phi).xi) == \
                pytest.approx(1.0, abs=1e-12)

    def test_passes_through_plus_minus_one(self):
        p = Params(3.0, 0.0, 0.0)
        assert phase.contour_point(p, 0.0).xi == 1.0 + 0.0j
        assert phase.contour_point(p, -PI).xi == -1.0 + 0.0j
        assert phase.contour_point(p, 0.0).xi_prime is None
        assert abs(phase.contour_point(p, 1e-8).xi - 1.0) < 1e-6
        assert abs(phase.contour_point(p, PI - 1e-8).xi + 1.0) < 1e-6

    def test_conjugate_symmetry(self):
        p = Params(2.0, 0.0, 0.0)
        for phi in (0.3, 1.2, 2.9):
            up = phase.contour_point(p, phi)
            dn = phase.contour_point(p, -phi)
            assert dn.xi == up.xi.conjugate()

    @pytest.mark.parametrize("alpha", [1.0, 2.0, 4.0])
    def test_derivative_never_vanishes(self, alpha):
        p = Params(alpha, 0.0, 0.0)
        for i in range(2000):
            phi = (i + 1) * PI / 2001
            assert abs(phase.contour_point(p, phi).xi_prime) > 0.0

    def test_upper_half_plane(self):
        p = Params(4.0, 0.0, 0.0)
        for phi in (0.2, 1.0, 2.0, 3.0):
            assert phase.contour_point(p, phi).xi.imag >= 0.0

    def test_domain(self):
        assert phase.contour_point(Params(1.0, 0.0, 0.0), PI).xi == -1.0 + 0.0j
        with pytest.raises(ValueError):
            phase.contour_point(Params(1.0, 0.0, 0.0), 3.5)


class TestPhaseFunction:
    def test_saddle_value_closed_form(self):
        # alpha=2, theta=pi/2: log(sin(pi/6)/sin(pi/3)) + i pi/2
        p = Params(2.0, 0.0, 0.0)
        f = phase.f_phase(p, PI / 2, PI / 2)
        assert f.real == pytest.approx(-0.5493061443340549, abs=1e-12)
        assert f.imag == pytest.approx(PI / 2, abs=1e-12)

    def test_matches_saddle_helper(self):
        rng = random.Random(5)
        for _ in range(100):
            alpha = rng.uniform(0.3, 4.0)
            theta = rng.uniform(0.05, PI - 0.05)
            p = Params(alpha, rng.uniform(-0.9, 2.0), rng.uniform(-0.9, 2.0))
            assert abs(phase.f_phase(p, theta, theta)
                       - phase.saddle_data(p, theta).f_saddle) < 1e-12

    def test_real_part_is_half_log_modulus(self):
        rng = random.Random(6)
        p = Params(2.3, 0.0, 0.0)
        for _ in range(200):
            theta = rng.uniform(0.05, PI - 0.05)
            phi = rng.uniform(0.05, PI - 0.05)
            assert phase.f_phase(p, theta, phi).real == pytest.approx(
                0.5 * math.log(phase.t_modulus(p, theta, phi)), abs=1e-11)

    def test_modulus_grid_consistency(self):
        p = Params(1.5, 0.0, 0.0)
        for i in range(100):
            theta = (i + 1) * PI / 101
            for j in range(100):
                phi = (j + 1) * PI / 101
                t_direct = phase.t_modulus(p, theta, phi)
                t_from_f = math.exp(2.0 * phase.f_phase(p, theta, phi).real)
                assert abs(t_direct - t_from_f) <= 1e-11 * max(1.0, t_direct)

    def test_continuous_in_phi(self):
        # the argument must never jump by a branch cut's 2*pi; the real part
        # varies like alpha*log(phi) near the left endpoint, so only its
        # interior increments are bounded
        p = Params(3.7, 0.0, 0.0)
        theta = 2.0
        prev = phase.f_phase(p, theta, 0.01)
        for i in range(1, 400):
            phi = 0.01 + i * (PI - 0.02) / 400
            cur = phase.f_phase(p, theta, phi)
            assert abs(cur.imag - prev.imag) < 0.5
            if 0.2 < phi < PI - 0.2:
                assert abs(cur.real - prev.real) < 0.5
            prev = cur


class TestAmplitudeFunction:
    def test_continuity_at_saddle(self):
        p = Params(2.0, 0.5, -0.3)
        theta = 1.1
        g0 = phase.saddle_data(p, theta).g_saddle
        for phi in (theta - 1e-6, theta + 1e-6):
            assert abs(phase.g_amplitude(p, theta, phi) - g0) <= 1e-4 * abs(g0)

    def test_matches_raw_product_form(self):
        # assemble the amplitude from the contour sample and the pole map
        p = Params(4.0, 1.2, -0.5)
        theta, phi = 2.2, 1.3
        cp = phase.contour_point(p, phi)
        t = phase.t_of_theta(p, theta)
        om_root = ((1.0 - cp.xi) / 2.0) ** (1.0 / p.alpha)
        raw = (((1.0 - cp.xi) / (1.0 - t)) ** ((p.a + 1.0) / p.alpha - 1.0)
               * ((1.0 - om_root) / (1.0 - ((1.0 - t) / 2.0) ** (1.0 / p.alpha))) ** p.b
               * cp.xi_prime / (cp.xi - t))
        assert phase.g_amplitude(p, theta, phi) == pytest.approx(raw, rel=1e-12)


PHI_FORMS = [phase.f_phase, phase.g_amplitude, phase.t_modulus, phase.f_prime]


def lambda_of_phi(alpha, phi):
    # the structure function lambda alone, a float or an array like phi
    return phase.structure_functions(alpha, phi).lambda_low


# every public function of an angle, as fn(p, theta, angles), with the
# angles it accepts: "open" for (0, pi), "closed" for [0, pi], "from_zero"
# for [0, pi) and "contour" for [-pi, pi]
ARRAY_FORMS = {
    "theta_major": ("closed", lambda p, th, t: phase.theta_major(p.alpha, t)),
    "theta_major_prime": ("open",
                          lambda p, th, t: phase.theta_major_prime(p.alpha, t)),
    "x_of_theta": ("closed", lambda p, th, t: phase.x_of_theta(p, t)),
    "t_of_theta": ("closed", lambda p, th, t: phase.t_of_theta(p, t)),
    "contour_point.xi": ("contour",
                         lambda p, th, t: phase.contour_point(p, t).xi),
    "contour_point.xi_prime": (
        "contour", lambda p, th, t: phase.contour_point(p, t).xi_prime),
    "f_phase": ("open", phase.f_phase),
    "g_amplitude": ("open", phase.g_amplitude),
    "t_modulus": ("open", phase.t_modulus),
    "f_prime": ("open", phase.f_prime),
    "contour_integrand": ("open", lambda p, th, t: phase.contour_integrand(
        p, th, t, 5, phase.saddle_data(p, th).f_saddle)),
    "d_of_phi": ("from_zero", lambda p, th, t: phase.d_of_phi(p.alpha, t)),
    "lambda_of_phi": ("open", lambda p, th, t: lambda_of_phi(p.alpha, t)),
}
STRUCTURE_FIELDS = ("k", "l", "r", "s", "u", "v", "w", "d", "h", "delta_cap",
                    "lambda_low")

ENDS = {"open": (), "closed": (0.0, PI), "from_zero": (0.0,),
        "contour": (0.0, PI, -PI)}


def draw_angles(rng, domain, count=40):
    lo = -PI if domain == "contour" else 0.0
    angles = [rng.uniform(lo + 1e-12, PI - 1e-12) for _ in range(count)]
    for i, end in enumerate(ENDS[domain]):
        angles[7 * i + 3] = end
    return np.array(angles)


def scalar_theta_major(alpha, t):
    """theta_major in scalar libm arithmetic, for t in (0, pi)."""
    v = PI - t
    sin_t = math.sin(t) if t <= PI / 2 else math.sin(v)
    return sin_t / ((1.0 + alpha) * math.sin(v / (1.0 + alpha)))


def scalar_theta_major_prime(alpha, t):
    v = PI - t
    y = v / (1.0 + alpha)
    near = t <= PI / 2
    sin_t, cos_t = ((math.sin(t), math.cos(t)) if near
                    else (math.sin(v), -math.cos(v)))
    u = (1.0 + alpha) * cos_t * math.sin(y) + sin_t * math.cos(y)
    return u / ((1.0 + alpha) ** 2 * math.sin(y) * math.sin(y))


def scalar_s(alpha, t):
    return scalar_theta_major(1.0 / alpha, t) ** alpha * scalar_theta_major(alpha, t)


def scalar_xi_prime(alpha, phi):
    big = scalar_theta_major(1.0 / alpha, phi)
    z = alpha * ((PI - phi) / (1.0 + alpha))
    prime = scalar_theta_major_prime(1.0 / alpha, phi)
    return (-2.0 * alpha / (1.0 + alpha) * big ** (alpha - 1.0)
            * cmath.exp(-1j * z) * ((1.0 + alpha) * prime + 1j * big))


def scalar_t_modulus(p, theta, phi):
    """t_modulus in scalar libm arithmetic, with the condition number of
    the difference in its denominator, which cancels near the saddle."""
    alpha = p.alpha
    big = scalar_theta_major(1.0 / alpha, phi)
    y = (PI - phi) / (1.0 + alpha)
    s_theta = scalar_s(alpha, theta)
    l = (math.cos(y) - big) * (math.cos(y) - big) + math.sin(y) * math.sin(y)
    head = big ** alpha
    gap = head * math.cos(alpha * y) - s_theta
    den = gap * gap + (head * math.sin(alpha * y)) ** 2
    return (big ** (2.0 * alpha) * l / den,
            1.0 + (abs(head * math.cos(alpha * y)) + s_theta) / abs(gap))


def scalar_f_prime(p, theta, phi):
    """f_prime in scalar libm arithmetic, with the condition numbers of its
    two cancelling differences s(phi) - s(theta) and head - s(theta)."""
    alpha = p.alpha
    big = scalar_theta_major(1.0 / alpha, phi)
    y = (PI - phi) / (1.0 + alpha)
    s_theta = scalar_s(alpha, theta)
    s_phi = big ** alpha * scalar_theta_major(alpha, phi)
    upp = (-2.0 * (big / scalar_theta_major(alpha, phi)) * (s_phi - s_theta)
           * cmath.exp(-1j * (PI - phi)))
    head = big ** alpha * cmath.exp(-1j * alpha * y)
    low = (alpha * (2.0 * head) * (1.0 - big * cmath.exp(-1j * y))
           * (-2.0 * (head - s_theta)))
    kappa = (1.0 + (s_phi + s_theta) / abs(s_phi - s_theta)
             + (abs(head) + s_theta) / abs(head - s_theta))
    return upp / low * scalar_xi_prime(alpha, phi), kappa


def scalar_structure(alpha, phi):
    """The structure functions in scalar libm arithmetic, as a dict; h is
    NaN where d = 1."""
    v_ = PI - phi
    big = scalar_theta_major(1.0 / alpha, phi)
    big_prime = scalar_theta_major_prime(1.0 / alpha, phi)
    small = scalar_theta_major(alpha, phi)
    y = v_ / (1.0 + alpha)
    z = alpha * y
    cy, sy, cz, sz = math.cos(y), math.sin(y), math.cos(z), math.sin(z)
    near = phi <= PI / 2
    sin_phi, cos_phi = ((math.sin(phi), math.cos(phi)) if near
                        else (math.sin(v_), -math.cos(v_)))
    one_p_a = 1.0 + alpha
    d = one_p_a * (cos_phi / sin_phi) + alpha / math.tan(alpha * v_ / one_p_a)
    dd2 = d * d - 1.0
    k = big ** (2.0 * alpha)
    l = (cy - big) * (cy - big) + sy * sy
    r = -2.0 * big ** alpha * cz
    u = 2.0 * sy / one_p_a * big ** (2.0 * alpha + 1.0) * dd2
    r_prime = -2.0 * (alpha * big ** (alpha - 1.0) * big_prime * cz
                      + big ** alpha * alpha * sz / one_p_a)
    return {
        "k": k, "l": l, "r": r, "s": big ** alpha * small, "u": u,
        "v": u * r - k * l * r_prime,
        "w": (2.0 * sin_phi / (one_p_a * one_p_a) * big ** (4.0 * alpha + 1.0)
              * (dd2 * cz - 2.0 * d * sz)),
        "d": d,
        "h": math.nan if dd2 == 0.0 else big ** alpha * (cz - 2.0 * d / dd2 * sz),
        "delta_cap": dd2 * big * (cy - big) + 2.0 * (1.0 - big * big),
        "lambda_low": cy * sz - alpha * sy * cz,
    }


def random_scan_cases(seed, count=40, points=40):
    rng = random.Random(seed)
    for _ in range(count):
        alpha = rng.choice([1.0, 2.0, 4.0, rng.uniform(0.3, 5.0)])
        theta = rng.uniform(0.05, PI - 0.05)
        yield alpha, theta, np.array([rng.uniform(1e-6, PI - 1e-6)
                                      for _ in range(points)])


def as_floats(values):
    # None (the float form of an undefined value) as NaN
    return np.array([math.nan if v is None else v for v in values])


class TestArrayForm:
    """Every public function of an angle gives on an array exactly its float
    calls, and matches scalar libm references to within 4 ulp times the
    condition number of the cancelling sums in each formula (numpy's pow,
    exp, log and tan may round differently from libm by 1 ulp)."""

    @pytest.mark.parametrize("name", sorted(ARRAY_FORMS))
    def test_bitwise_equal_to_float_calls(self, name):
        domain, fn = ARRAY_FORMS[name]
        rng = random.Random(11)
        for _ in range(40):
            p = Params(rng.choice([1.0, 2.0, 4.0, rng.uniform(0.3, 5.0)]),
                       rng.uniform(-0.9, 2.0), rng.uniform(-0.9, 2.0))
            theta = rng.uniform(0.05, PI - 0.05)
            phis = draw_angles(rng, domain).reshape(4, 10)
            batch = fn(p, theta, phis)
            assert batch.shape == phis.shape
            singles = [fn(p, theta, float(v)) for v in phis.flat]
            assert all(v is None or type(v) in (float, complex) for v in singles)
            assert as_floats(singles).astype(batch.dtype).tobytes() == \
                batch.flatten().tobytes()

    def test_structure_functions_bitwise_equal_to_float_calls(self):
        rng = random.Random(13)
        for _ in range(40):
            alpha = rng.choice([1.0, 2.0, 4.0, rng.uniform(0.3, 5.0)])
            phis = draw_angles(rng, "open").reshape(4, 10)
            batch = phase.structure_functions(alpha, phis)
            singles = [phase.structure_functions(alpha, float(v))
                       for v in phis.flat]
            for name in STRUCTURE_FIELDS:
                values = [getattr(sb, name) for sb in singles]
                assert all(v is None or type(v) is float for v in values)
                assert getattr(batch, name).shape == phis.shape
                assert as_floats(values).tobytes() == \
                    getattr(batch, name).flatten().tobytes()

    @pytest.mark.parametrize("fn", [phase.theta_major, phase.theta_major_prime,
                                    phase.d_of_phi, lambda_of_phi])
    def test_alpha_array_equal_to_float_calls(self, fn):
        rng = random.Random(12)
        alphas = np.array([rng.uniform(0.25, 4.0) for _ in range(50)])
        angles = np.array([rng.uniform(0.05, PI - 0.05) for _ in range(50)])
        singles = [fn(float(a), float(t)) for a, t in zip(alphas, angles)]
        assert np.array(singles).tobytes() == fn(alphas, angles).tobytes()

    @pytest.mark.parametrize("fn", [phase.theta_major, phase.theta_major_prime,
                                    phase.d_of_phi, lambda_of_phi])
    @pytest.mark.parametrize("bad", [0.0, math.inf, math.nan])
    def test_bad_alpha_raises(self, fn, bad):
        for alpha in (bad, np.array([2.0, bad])):
            with pytest.raises(InputError, match="alpha must be finite"):
                fn(alpha, 1.0)

    @pytest.mark.parametrize("form, scalar", [(phase.t_modulus, scalar_t_modulus),
                                              (phase.f_prime, scalar_f_prime)])
    def test_within_four_ulp_of_scalar_form(self, form, scalar):
        for alpha, theta, phis in random_scan_cases(21):
            p = Params(alpha, 0.0, 0.0)
            values = form(p, theta, phis)
            ref, kappa = np.array([scalar(p, theta, float(v)) for v in phis]).T
            ulps = np.abs(values - ref) / np.spacing(np.abs(ref).real)
            assert np.all(ulps <= 4.0 * kappa.real), (alpha, theta)

    def test_structure_functions_within_four_ulp_of_scalar_form(self):
        # d cancels near pi, and its error reaches every field built on it;
        # u, v and w are compared on the scale of their row, as the claim
        # scan does, and h also inherits the cancellation of d^2 - 1
        for alpha, _, phis in random_scan_cases(22):
            array = phase.structure_functions(alpha, phis)
            ref = [scalar_structure(alpha, float(v)) for v in phis]

            def field(name):
                return np.array([r[name] for r in ref])
            d = field("d")
            kappa_d = 1.0 + (np.abs((1.0 + alpha) / np.tan(phis))
                             + np.abs(alpha / np.tan(alpha * (PI - phis)
                                                     / (1.0 + alpha)))) / np.abs(d)
            row = np.maximum.reduce([np.abs(field(n)) for n in "uvw"])
            scales = {"k": 1.0, "l": 1.0, "r": 1.0, "s": 1.0, "lambda_low": 1.0,
                      "d": kappa_d, "delta_cap": kappa_d}
            for name, kappa in scales.items():
                ulps = (np.abs(getattr(array, name) - field(name))
                        / np.spacing(np.abs(field(name))))
                assert np.all(ulps <= 4.0 * kappa), (alpha, name)
            for name in "uvw":
                ulps = np.abs(getattr(array, name) - field(name)) / np.spacing(row)
                assert np.all(ulps <= 4.0 * kappa_d), (alpha, name)
            h = field("h")
            assert np.array_equal(np.isnan(array.h), np.isnan(h))
            kappa_h = kappa_d * (1.0 + (d * d + 1.0) / np.abs(d * d - 1.0))
            ulps = np.abs(array.h - h) / np.spacing(np.abs(h))
            assert np.all(ulps[~np.isnan(h)] <= 4.0 * kappa_h[~np.isnan(h)])

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                        reason="long double is plain double here")
    @pytest.mark.parametrize("alpha, theta", [(2.0, 2.9), (0.7, 2.9),
                                              (2.0, 1.0), (4.0, 2.5)])
    def test_t_modulus_against_long_double(self, alpha, theta):
        # l = |e^{iy} - Theta|^2 and, for theta near pi, the denominator
        # |Theta^alpha e^{-iz} - s(theta)|^2 tend to 0 as phi -> pi; in their
        # expanded forms they cancelled to 1e4-1e5 ulp at phi <= 3.13
        ld = np.longdouble
        phis = np.linspace(2.5, 3.13, 400)

        def big_of(a, t):
            v = PI - t  # exact, as in the code under test
            sin_t = np.where(t <= PI / 2, np.sin(t), np.sin(v))
            return sin_t / ((1 + a) * np.sin(v / (1 + a)))
        a = ld(alpha)
        t = phis.astype(ld)
        th = np.array([theta], dtype=ld)
        s_theta = big_of(1 / a, th) ** a * big_of(a, th)
        big = big_of(1 / a, t)
        y = (PI - t) / (1 + a)
        k = big ** (2 * a)
        l = (np.cos(y) - big) ** 2 + np.sin(y) ** 2
        den = ((big ** a * np.cos(a * y) - s_theta) ** 2
               + (big ** a * np.sin(a * y)) ** 2)
        ref = k * l / den
        values = phase.t_modulus(Params(alpha, 0.0, 0.0), theta, phis)
        ulps = np.abs(values - ref.astype(float)) / np.spacing(ref.astype(float))
        assert ulps.max() <= 1e3, ulps.max()

    @pytest.mark.parametrize("fn", PHI_FORMS)
    @pytest.mark.parametrize("bad", [0.0, PI, -0.5, 4.0, math.nan])
    def test_bad_phi_raises_as_for_float(self, fn, bad):
        p = Params(2.0, 0.5, -0.3)
        for phi in (bad, np.array([0.3, bad, 1.2])):
            with pytest.raises(InputError, match="phi must lie in"):
                fn(p, 1.0, phi)

    @pytest.mark.parametrize("name", sorted(ARRAY_FORMS))
    @pytest.mark.parametrize("bad", [-3.5, 3.5, math.nan])
    def test_bad_angle_raises_for_arrays(self, name, bad):
        _, fn = ARRAY_FORMS[name]
        p = Params(2.0, 0.5, -0.3)
        for angle in (bad, np.array([0.3, bad, 1.2])):
            with pytest.raises(InputError, match="must lie in"):
                fn(p, 1.0, angle)

    @pytest.mark.parametrize("name", ["f_phase", "g_amplitude",
                                      "contour_integrand"])
    def test_pole_raises_as_for_float(self, monkeypatch, name):
        # xi(phi) never meets t(theta) for phi in (0, pi), so the pole is
        # planted: at alpha = 1, big = s(theta) and z = 0 make den exactly 0
        # at the node phi = 1.3 (the frame at theta itself stays untouched)
        p = Params(1.0, 0.0, 0.0)
        theta = 1.0
        frame = phase._frame
        root = phase.theta_major(1.0, theta)

        def at_pole(alpha, phi):
            fr = frame(alpha, phi)
            if phi[-1] == 1.3:
                fr.big[-1] = root * root  # s(theta) at alpha = 1
                fr.z[-1] = 0.0
            return fr

        monkeypatch.setattr(phase, "_frame", at_pole)
        fn = ARRAY_FORMS[name][1]
        for phi in (1.3, np.array([0.4, 1.3])):
            with pytest.raises(ConvergenceError, match="pole hit"):
                fn(p, theta, phi)


class TestContourIntegrand:
    def test_equals_exp_of_f_times_g(self):
        # at every live node the kernel's value is the product of the public
        # pieces, bit for bit; at every dead node it is exactly 0
        rng = random.Random(29)
        live_nodes = dead_nodes = 0
        for _ in range(60):
            p = Params(rng.choice([1.0, 2.0, 4.0, rng.uniform(0.3, 5.0)]),
                       rng.uniform(-0.9, 2.0),
                       rng.choice([rng.uniform(-0.9, 2.0), -0.999]))
            theta = rng.choice([rng.uniform(0.05, 0.6), rng.uniform(0.6, 2.5),
                                rng.uniform(2.5, PI - 0.05)])
            n = rng.choice([1, 5, 40, 512, 4096])
            f0 = phase.saddle_data(p, theta).f_saddle
            ends = [1e-12, 1e-9, 1e-6, PI - 1e-6, PI - 1e-9, PI - 1e-12]
            phis = np.array(ends + [theta] + [rng.uniform(1e-12, PI - 1e-12)
                                              for _ in range(41)]).reshape(6, 8)
            values = phase.contour_integrand(p, theta, phis, n, f0)
            w = n * (phase.f_phase(p, theta, phis) - f0)
            live = ~(w.real < -745.0)
            with np.errstate(over="ignore", invalid="ignore"):
                expected = np.exp(w[live]) * phase.g_amplitude(p, theta,
                                                               phis[live])
            assert values.shape == phis.shape
            assert values[live].tobytes() == expected.tobytes()
            assert (values[~live] == 0.0).all()
            live_nodes += np.count_nonzero(live)
            dead_nodes += np.count_nonzero(~live)
        assert live_nodes > 0 and dead_nodes > 0

    def test_degree_list_gives_each_single_call(self):
        # a list of degrees adds a first axis, one row per degree, each bit
        # for bit the call at that degree alone, in any order
        rng = random.Random(31)
        for _ in range(30):
            p = Params(rng.choice([1.0, 2.0, 4.0, rng.uniform(0.3, 5.0)]),
                       rng.uniform(-0.9, 2.0), rng.uniform(-0.9, 2.0))
            theta = rng.uniform(0.05, PI - 0.05)
            ns = rng.sample([1, 2, 5, 40, 512, 4096, 2 ** 20], 4)
            f0 = phase.saddle_data(p, theta).f_saddle
            phis = np.array([1e-12, PI - 1e-12, theta] + [
                rng.uniform(1e-9, PI - 1e-9) for _ in range(21)]).reshape(3, 8)
            values = phase.contour_integrand(p, theta, phis, ns, f0)
            assert values.shape == (len(ns),) + phis.shape
            for k, n in enumerate(ns):
                single = phase.contour_integrand(p, theta, phis, n, f0)
                assert values[k].tobytes() == single.tobytes(), (p, n)


class TestPhaseDerivative:
    def test_zero_at_saddle(self):
        rng = random.Random(7)
        for _ in range(50):
            p = Params(rng.uniform(0.3, 4.0), rng.uniform(-0.9, 2.0),
                       rng.uniform(-0.9, 2.0))
            theta = rng.uniform(0.05, PI - 0.05)
            assert abs(phase.f_prime(p, theta, theta)) <= 1e-10

    def test_matches_finite_difference(self):
        rng = random.Random(8)
        for _ in range(50):
            p = Params(rng.uniform(1.0, 4.0), rng.uniform(-0.5, 1.5),
                       rng.uniform(-0.5, 1.5))
            theta = rng.uniform(0.3, PI - 0.3)
            phi = rng.uniform(0.3, PI - 0.3)
            fp = phase.f_prime(p, theta, phi)
            fd = fd_derivative(lambda t: phase.f_phase(p, theta, t), phi, 1)
            assert abs(fp - fd) <= 1e-6 * max(1.0, abs(fp))

    def test_sign_structure(self):
        for alpha in (1.0, 2.0, 4.0):
            p = Params(alpha, 0.0, 0.0)
            theta = 1.2
            for phi in (0.3, 0.8, 1.1):
                assert phase.f_prime(p, theta, phi).real > 0.0
            for phi in (1.3, 2.0, 2.9):
                assert phase.f_prime(p, theta, phi).real < 0.0

    def test_steep_growth_away_from_saddle(self):
        p = Params(2.0, 0.3, 0.1)
        theta = 1.0
        at = abs(phase.f_prime(p, theta, theta))
        near = min(abs(phase.f_prime(p, theta, theta - 1e-4)),
                   abs(phase.f_prime(p, theta, theta + 1e-4)))
        assert near >= 1e3 * max(at, 1e-300)


class TestSaddleData:
    def test_alpha_two_f_saddle(self):
        sd = phase.saddle_data(Params(2.0, 0.0, 0.0), PI / 2)
        assert sd.f_saddle.real == pytest.approx(-0.5493061443340549, abs=1e-12)
        assert sd.f_saddle.imag == pytest.approx(PI / 2)
        assert sd.f_saddle.real == pytest.approx(math.log(sd.sine_ratio))

    def test_alpha_one_amplitude_closed_form(self):
        rng = random.Random(9)
        for _ in range(50):
            a, b = rng.uniform(-0.9, 2.0), rng.uniform(-0.9, 2.0)
            theta = rng.uniform(0.05, PI - 0.05)
            sd = phase.saddle_data(Params(1.0, a, b), theta)
            expected = (cmath.exp(1j * ((a + b + 1) * theta / 2
                                        - a * PI / 2 - PI / 4))
                        * math.sin(theta / 2) ** (-a - 0.5)
                        * math.cos(theta / 2) ** (-b - 0.5))
            assert abs(sd.m_alpha - expected) <= 1e-11 * abs(expected)

    @pytest.mark.parametrize("alpha", [1.0, 1.5, 2.0, 4.0])
    def test_concavity(self, alpha):
        p = Params(alpha, 0.0, 0.0)
        for i in range(50):
            theta = 0.3 + i * (PI - 0.6) / 49
            assert phase.f_second_at_saddle(p, theta).real < 0.0

    def test_f_second_matches_finite_difference(self):
        rng = random.Random(10)
        for _ in range(30):
            p = Params(rng.uniform(1.0, 4.0), rng.uniform(-0.5, 1.5),
                       rng.uniform(-0.5, 1.5))
            theta = rng.uniform(0.3, PI - 0.3)
            sd = phase.saddle_data(p, theta)
            fd = fd_derivative(lambda t: phase.f_phase(p, theta, t), theta, 2)
            assert abs(sd.f_second - fd) <= 1e-5 * abs(sd.f_second)

    def test_amplitude_identity(self):
        # g / sqrt(f'') = alpha/sqrt(1+alpha) M on the descent branch
        rng = random.Random(11)
        for _ in range(100):
            alpha = rng.uniform(0.3, 4.0)
            p = Params(alpha, rng.uniform(-0.9, 2.5), rng.uniform(-0.9, 2.5))
            theta = rng.uniform(0.1, PI - 0.1)
            sd = phase.saddle_data(p, theta)
            lhs = sd.g_saddle / phase.sqrt_f_second(sd.f_second)
            rhs = alpha / math.sqrt(1.0 + alpha) * sd.m_alpha
            assert abs(lhs - rhs) <= 1e-10 * abs(rhs)

    @pytest.mark.parametrize("alpha", [0.05, 0.1, 10.0, 50.0])
    def test_amplitude_identity_extreme_alpha(self, alpha):
        p = Params(alpha, 0.3, -0.2)
        sd = phase.saddle_data(p, 1.3)
        lhs = sd.g_saddle / phase.sqrt_f_second(sd.f_second)
        rhs = alpha / math.sqrt(1.0 + alpha) * sd.m_alpha
        assert abs(lhs - rhs) <= 1e-12 * abs(rhs)

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                        reason="long double is plain double here")
    @pytest.mark.parametrize("alpha", [1.0, 2.0, 4.0])
    @pytest.mark.parametrize("theta", [2.9, 3.1, 3.14])
    def test_saddle_amplitudes_against_long_double(self, alpha, theta):
        # |e^{iz} - Theta_alpha|^2 divides g and M; expanded as
        # 1 + Theta_alpha^2 - 2 Theta_alpha cos z it lost 1e5 ulp at 3.14.
        # The real parts of e^{iy} - Theta and e^{iz} - Theta_alpha still
        # cancel to about eps/(pi - theta), some 1e3 ulp at 3.14.  b = 0
        # leaves out ((1+x)/2)^b, which cancels likewise.
        ld, a = np.longdouble, 0.5
        pi, al = ld(PI), ld(alpha)  # the float pi, as in the code
        v = pi - ld(theta)  # theta > pi/2: the code takes sin, cos of v
        i = np.clongdouble(1j)

        def big_of(c):
            return np.sin(v) / ((1 + c) * np.sin(v / (1 + c)))

        def prime_of(c):
            w = v / (1 + c)
            return (((1 + c) * -np.cos(v) * np.sin(w) + np.sin(v) * np.cos(w))
                    / ((1 + c) ** 2 * np.sin(w) ** 2))
        big, small = big_of(1 / al), big_of(al)
        y = v / (1 + al)
        z = al * y
        upper = (np.cos(y) - big) + i * np.sin(y)
        lower = (np.cos(z) - small) + i * np.sin(z)
        dens = small ** ((a + 1) / al - 1) * ((np.cos(z) - small) ** 2 + np.sin(z) ** 2)
        xi_prime = (-2 * al / (1 + al) * big ** (al - 1) * np.exp(-i * z)
                    * ((1 + al) * prime_of(1 / al) + i * big))
        g = (np.exp(-i * (pi + y * (a + 1 - al))) * lower * xi_prime
             / (2 * big ** al * dens))
        m = (np.exp(-i * (pi / 2 + y * (a + 1))) * np.sqrt(upper) * lower
             / (np.sqrt(big) * dens))
        p = Params(alpha, a, 0.0)
        for value, ref in ((phase.saddle_data(p, theta).g_saddle, g),
                           (phase.saddle_data(p, theta).m_alpha, m)):
            ulps = abs(np.clongdouble(value) - ref) / np.spacing(float(abs(ref)))
            assert ulps <= 1e4, ulps

    def test_sqrt_branch_argument(self):
        rng = random.Random(12)
        for _ in range(50):
            p = Params(rng.uniform(1.0, 4.0), 0.0, 0.0)
            theta = rng.uniform(0.1, PI - 0.1)
            root = phase.sqrt_f_second(phase.f_second_at_saddle(p, theta))
            assert PI / 4 - 1e-12 <= cmath.phase(root) <= 3 * PI / 4 + 1e-12


class TestModulusDescent:
    def test_saddle_value_is_sine_ratio_squared(self):
        p = Params(2.0, 0.0, 0.0)
        for theta in (0.5, PI / 2, 2.4):
            rho = phase.sine_ratio(2.0, theta)
            assert phase.t_modulus(p, theta, theta) == \
                pytest.approx(rho * rho, rel=1e-12)

    def test_alpha_one_saddle_is_one(self):
        assert phase.t_modulus(Params(1.0, 0.0, 0.0), PI / 2, PI / 2) == \
            pytest.approx(1.0, rel=1e-13)

    def test_vanishes_at_ends(self):
        p = Params(2.0, 0.0, 0.0)
        assert phase.t_modulus(p, 1.0, 1e-6) < 1e-12
        assert phase.t_modulus(p, 1.0, PI - 1e-6) < 1e-9

    @pytest.mark.parametrize("alpha", [1.0, 1.5, 2.0, 4.0])
    @pytest.mark.parametrize("theta", [PI / 6, PI / 3, PI / 2, 2 * PI / 3])
    def test_monotone_descent(self, alpha, theta):
        p = Params(alpha, 0.0, 0.0)
        grid = [(i + 1) * PI / 2001 for i in range(2000)]
        values = [phase.t_modulus(p, theta, phi) for phi in grid]
        for (p1, v1), (p2, v2) in zip(zip(grid, values),
                                      zip(grid[1:], values[1:])):
            if p2 <= theta:
                assert v2 > v1
            elif p1 >= theta:
                assert v2 < v1

    def test_derivative_factorization_sign(self):
        # sign of T' matches (s(phi)-s(theta)) * (w - u s(phi) s(theta))
        p = Params(2.0, 0.0, 0.0)
        theta = PI / 3
        s_theta = phase.structure_functions(2.0, theta).s
        h = 1e-6
        for phi in (0.4, 0.9, 1.5, 2.2, 2.9):
            t_prime = (phase.t_modulus(p, theta, phi + h)
                       - phase.t_modulus(p, theta, phi - h)) / (2 * h)
            sb = phase.structure_functions(2.0, phi)
            predicted = (sb.s - s_theta) * (sb.w - sb.u * sb.s * s_theta)
            assert math.copysign(1.0, t_prime) == math.copysign(1.0, predicted)


class TestAuxiliaryD:
    def test_alpha_one_at_half_pi(self):
        assert phase.d_of_phi(1.0, PI / 2) == pytest.approx(1.0, abs=1e-12)

    def test_tends_to_zero_at_pi(self):
        assert abs(phase.d_of_phi(2.0, PI - 1e-6)) < 1e-3

    def test_pole_at_zero(self):
        assert phase.d_of_phi(2.0, 0.0) == math.inf

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0, 4.0])
    def test_strictly_decreasing(self, alpha):
        grid = [(i + 1) * (PI - 2e-4) / 1001 for i in range(1000)]
        values = [phase.d_of_phi(alpha, t) for t in grid]
        assert all(v2 < v1 for v1, v2 in zip(values, values[1:]))

    def test_phi_star_alpha_one(self):
        assert phase.phi_star(1.0, 1e-12) == pytest.approx(PI / 2, abs=1e-10)

    @pytest.mark.parametrize("alpha", [0.5, 2.0, 4.0])
    def test_phi_star_is_root(self, alpha):
        p0 = phase.phi_star(alpha, 1e-13)
        assert abs(phase.d_of_phi(alpha, p0) - 1.0) <= 1e-10

    def test_d_brackets_one_around_phi_star(self):
        p0 = phase.phi_star(4.0)
        assert phase.d_of_phi(4.0, p0 - 1e-3) > 1.0
        assert phase.d_of_phi(4.0, p0 + 1e-3) < 1.0


class TestStructureBundle:
    def test_quadratic_identity_random(self):
        rng = random.Random(13)
        for _ in range(500):
            alpha = rng.uniform(1.0, 4.0)
            phi = rng.uniform(0.02, PI - 0.02)
            sb = phase.structure_functions(alpha, phi)
            scale = max(abs(sb.u * sb.s ** 2), abs(sb.v * sb.s), abs(sb.w))
            assert abs(sb.u * sb.s ** 2 + sb.v * sb.s + sb.w) <= 1e-9 * scale

    def test_ranges(self):
        for alpha in (0.5, 1.0, 2.5):
            for phi in (0.1, 1.0, 2.0, 3.0):
                sb = phase.structure_functions(alpha, phi)
                assert sb.k > 0.0
                assert sb.l > 0.0
                assert 0.0 < sb.s < 1.0

    @pytest.mark.parametrize("alpha", [1.0, 2.0, 4.0])
    def test_u_vanishes_at_phi_star_with_negative_w(self, alpha):
        p0 = phase.phi_star(alpha)
        sb = phase.structure_functions(alpha, p0)
        assert abs(sb.u) <= 1e-9 * max(abs(sb.v), abs(sb.w))
        assert sb.w < 0.0

    def test_h_limits(self):
        h_low = phase.structure_functions(2.0, 1e-6).h
        h_high = phase.structure_functions(2.0, PI - 1e-6).h
        assert h_low == pytest.approx(0.0, abs=1e-3)
        assert h_high == pytest.approx(1.0, abs=1e-3)

    def test_lambda_zero_at_alpha_one(self):
        for i in range(100):
            phi = (i + 1) * PI / 101
            assert lambda_of_phi(1.0, phi) == 0.0

    @pytest.mark.parametrize("alpha", [1.0, 1.5, 2.0, 4.0])
    def test_lambda_nonnegative_above_one(self, alpha):
        for i in range(1000):
            phi = (i + 1) * PI / 1001
            assert lambda_of_phi(alpha, phi) >= -1e-12

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.8])
    def test_lambda_negative_below_one(self, alpha):
        for i in range(1000):
            phi = (i + 1) * PI / 1001
            assert lambda_of_phi(alpha, phi) < 0.0

    @pytest.mark.parametrize("alpha", [1.0, 1.5, 2.0, 4.0])
    def test_delta_lower_bound(self, alpha):
        # Delta >= (d^2 Th + Th + 2) lambda / ((1+alpha) sin Z)
        for i in range(1000):
            phi = (i + 1) * PI / 1001
            sb = phase.structure_functions(alpha, phi)
            big = phase.theta_major(1.0 / alpha, phi)
            z = alpha * (PI - phi) / (1.0 + alpha)
            bound = ((sb.d ** 2 * big + big + 2.0) * sb.lambda_low
                     / ((1.0 + alpha) * math.sin(z)))
            assert sb.delta_cap >= bound - 1e-10

    @pytest.mark.parametrize("alpha", [1.0, 2.0, 4.0])
    def test_h_sign_pattern_and_weak_decrease(self, alpha):
        # h <= 0 before the d = 1 angle, h >= 1 after, weakly decreasing on
        # each side (monotonicity is not necessarily strict)
        p0 = phase.phi_star(alpha)
        prev = {"left": None, "right": None}
        for i in range(2000):
            phi = (i + 1) * PI / 2001
            h = phase.structure_functions(alpha, phi).h
            if h is None or abs(phi - p0) < 1e-6:
                continue
            side = "left" if phi < p0 else "right"
            if side == "left":
                assert h <= 1e-12
            else:
                assert h >= 1.0 - 1e-12
            if prev[side] is not None:
                assert h <= prev[side] + 1e-9
            prev[side] = h

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.8])
    def test_counterexample_region_below_one(self, alpha):
        found = False
        phi = 0.09
        while phi > 1e-4:
            sb = phase.structure_functions(alpha, phi)
            if sb.u > 0.0 and sb.h is not None and 0.0 < sb.h < 1.0:
                found = True
                break
            phi *= 0.7
        assert found
