import math

import numpy as np
import pytest

from biortho.numerics import (
    dd_add,
    dd_div,
    dd_mul,
    dd_sum,
    dd_two_sum,
    fd_derivative,
    find_root_bisect,
    fit_loglog_slope,
)


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

    def test_div_within_its_bound(self):
        # the ratios t = (1-|x|)/(1+|x|) of the polynomial evaluators, with
        # x across [0, 1], near 1 and near 0, against exact rationals
        from fractions import Fraction
        rng = np.random.default_rng(3)
        xs = np.concatenate([
            rng.uniform(0.0, 1.0, 2000),
            1.0 - 10.0 ** -rng.uniform(0.0, 15.9, 1000),
            10.0 ** -rng.uniform(0.0, 300.0, 500),
            [0.0, 1.0, 5e-324, 2.0 ** -53, 1.0 - 2.0 ** -53, 0.5]])
        th, tl = dd_div(*dd_two_sum(1.0, -xs), *dd_two_sum(1.0, xs))
        assert np.all(np.abs(tl) <= np.spacing(th) / 2)  # normalized
        worst = 0.0
        for x, h, l in zip(xs, th, tl):
            exact = (1 - Fraction(float(x))) / (1 + Fraction(float(x)))
            if exact == 0:
                assert h == l == 0.0
                continue
            rel = abs(Fraction(float(h)) + Fraction(float(l)) - exact) / exact
            worst = max(worst, float(rel))
        assert worst <= 2.25 * 2.0 ** -104

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
