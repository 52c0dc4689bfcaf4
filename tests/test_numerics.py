import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biortho.numerics import (
    complex_pow_principal,
    dd_add,
    dd_div,
    dd_mul,
    dd_sum,
    fd_derivative,
    find_root_bisect,
    fit_loglog_slope,
)


class TestComplexPow:
    def test_identity(self):
        assert complex_pow_principal(1.0 + 0j, 0.37) == pytest.approx(1.0)

    def test_principal_sqrt_of_minus_one(self):
        assert complex_pow_principal(-1.0 + 0.0j, 0.5) == pytest.approx(1j)

    def test_argument_doubling(self):
        z = complex(math.cos(-math.pi / 3), math.sin(-math.pi / 3))
        expected = complex(math.cos(-2 * math.pi / 3), math.sin(-2 * math.pi / 3))
        assert complex_pow_principal(z, 2.0) == pytest.approx(expected)

    def test_zero_base(self):
        assert complex_pow_principal(0j, 2.0) == 0j
        with pytest.raises(ValueError):
            complex_pow_principal(0j, -1.0)

    @given(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0),
           st.floats(0.05, 3.0), st.floats(-3.0, 3.0))
    @settings(max_examples=60, deadline=None)
    def test_exponent_additivity(self, p, q, r, arg):
        # z^p z^q = z^(p+q) while the factor arguments stay inside one branch
        if abs(p * arg) > math.pi or abs(q * arg) > math.pi or \
                abs((p + q) * arg) > math.pi:
            return
        z = r * complex(math.cos(arg), math.sin(arg))
        lhs = complex_pow_principal(z, p) * complex_pow_principal(z, q)
        rhs = complex_pow_principal(z, p + q)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


class TestBisect:
    def test_linear(self):
        assert find_root_bisect(lambda x: x - 0.5, 0.0, 1.0, 1e-12) == \
            pytest.approx(0.5, abs=1e-12)

    def test_cosine(self):
        assert find_root_bisect(math.cos, 1.0, 2.0, 1e-12) == \
            pytest.approx(math.pi / 2, abs=1e-12)

    def test_cube_root_of_two(self):
        root = find_root_bisect(lambda x: x ** 3 - 2.0, 1.0, 2.0, 1e-13)
        assert root == pytest.approx(2.0 ** (1.0 / 3.0), abs=1e-12)

    def test_bad_bracket(self):
        with pytest.raises(ValueError):
            find_root_bisect(lambda x: x + 10.0, 0.0, 1.0, 1e-12)


class TestFiniteDifference:
    def test_exp_first(self):
        assert abs(fd_derivative(math.exp, 0.0, 1) - 1.0) <= 1e-9

    def test_exp_second(self):
        assert abs(fd_derivative(math.exp, 0.0, 2) - 1.0) <= 1e-7

    def test_sin_third(self):
        assert abs(fd_derivative(math.sin, 0.0, 3) - (-1.0)) <= 1e-5

    def test_complex_valued(self):
        d = fd_derivative(lambda t: complex(math.cos(t), math.sin(t)), 0.3, 1)
        expected = complex(-math.sin(0.3), math.cos(0.3))
        assert abs(d - expected) <= 1e-9

    def test_bad_order(self):
        with pytest.raises(ValueError):
            fd_derivative(math.exp, 0.0, 4)


class TestSlopeFit:
    def test_inverse_n(self):
        rows = [(n, 1.0 / n) for n in (8, 16, 32, 64)]
        assert fit_loglog_slope(rows) == pytest.approx(-1.0, abs=1e-12)

    def test_constant(self):
        rows = [(n, 3.7) for n in (8, 16, 32, 64)]
        assert fit_loglog_slope(rows) == pytest.approx(0.0, abs=1e-12)

    def test_three_halves(self):
        rows = [(n, n ** -1.5) for n in (8, 16, 32, 64)]
        assert fit_loglog_slope(rows) == pytest.approx(-1.5, abs=1e-12)

    def test_too_few_rows(self):
        with pytest.raises(ValueError):
            fit_loglog_slope([(8, 1.0), (16, 0.5)])

    def test_non_increasing(self):
        with pytest.raises(ValueError):
            fit_loglog_slope([(8, 1.0), (8, 0.5), (16, 0.2)])


class TestDoubleDouble:
    def test_mul_catches_rounding(self):
        h, l = dd_mul(1.0 + 2 ** -30, 0.0, 1.0 - 2 ** -30, 0.0)
        exact = 1.0 - 2.0 ** -60
        assert h + l == pytest.approx(exact, abs=1e-32)
        assert l != 0.0

    def test_div_roundtrip(self):
        h, l = dd_div(1.0, 0.0, 3.0, 0.0)
        back_h, back_l = dd_mul(h, l, 3.0, 0.0)
        assert abs((back_h - 1.0) + back_l) < 1e-31

    def test_vector_sum_cancellation(self):
        hs = np.array([1e16, 1.0, -1e16, 1e-8])
        ls = np.zeros(4)
        h, l = dd_sum(hs, ls)
        assert float(h) + float(l) == pytest.approx(1.00000001, abs=1e-18)

    def test_add_is_exact_for_two_doubles(self):
        from fractions import Fraction
        h, l = dd_add(0.1, 0.0, 0.2, 0.0)
        exact = Fraction(0.1) + Fraction(0.2)
        assert Fraction(h) + Fraction(l) == exact
