import itertools
import math

import numpy as np
import pytest

from biortho import polys
from biortho.errors import ScopeError
from biortho.numerics import (
    _dd_mul_split,
    _split,
    dd_add,
    dd_div,
    dd_horner_step,
    dd_mul,
    dd_pow,
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

    def test_products_match_the_dekker_formulas_bitwise(self):
        # dd_mul and dd_div split y once and share one product core; a
        # test-local transcription of Dekker's product, each factor split on
        # its own, gives the same bits
        def split(a):
            a_t = 134217729.0 * a
            hi = a_t - (a_t - a)
            return hi, a - hi

        def two_prod(a, b):
            (ah, al), (bh, bl), p = split(a), split(b), a * b
            return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl

        rng = np.random.default_rng(5)
        xh, yh = rng.uniform(-1.0, 1.0, (2, 4000)) * 10.0 ** rng.integers(
            -30, 30, (2, 4000))
        xh[:6] = yh[:6] = [0.0, -0.0, 1.0, -1.0, 5e-324, 1e150]
        xl, yl = np.array([xh, yh]) * rng.uniform(-2.0 ** -53, 2.0 ** -53, (2, 4000))
        ph, pe = two_prod(xh, yh)
        pe = pe + (xh * yl + xl * yh)
        rh = ph + pe
        expect = (rh, pe - (rh - ph))
        got = dd_mul(xh, xl, yh, yl)
        assert all(g.tobytes() == e.tobytes() for g, e in zip(got, expect))
        xs = rng.uniform(0.0, 1.0, 4000)
        nh, nl = dd_two_sum(1.0, -xs)
        dh, dl = dd_two_sum(1.0, xs)
        q1 = nh / dh
        th, te = two_prod(q1, dh)
        rh, rl = dd_add(nh, nl, -th, -(te + q1 * dl))
        q2 = (rh + rl) / dh
        s = q1 + q2
        expect = (s, q2 - (s - q1))
        got = dd_div(nh, nl, dh, dl)
        assert all(g.tobytes() == e.tobytes() for g, e in zip(got, expect))

    @staticmethod
    def assert_step_is_the_reference(acc_h, acc_l, t_h, t_l, c_h, c_l):
        # one in-place step against dd_add(*_dd_mul_split(...)), by bytes;
        # returns the reference result
        halves = _split(t_h)
        with np.errstate(all="ignore"):
            expect = dd_add(*_dd_mul_split(acc_h, acc_l, t_h, t_l, halves),
                            c_h, c_l)
            got = acc_h.copy(), acc_l.copy()
            dd_horner_step(*got, t_h, t_l, halves, c_h, c_l,
                           np.empty((4,) + acc_h.shape))
        assert all(g.tobytes() == e.tobytes() for g, e in zip(got, expect))
        return expect

    def test_horner_step_on_edge_operands(self):
        # every combination of signed zeros, the smallest subnormal, 2^+-1000
        # (whose Dekker split overflows into nan), t = 0 and t = 1 and
        # mixed signs
        highs = [0.0, -0.0, 5e-324, -5e-324, 2.0 ** 1000, -2.0 ** 1000,
                 2.0 ** -1000, -2.0 ** -1000, 1.0, -0.7, 0.3]
        lows = [0.0, -0.0, 5e-324, 2.0 ** -1060, -2.0 ** -60]
        ts = [(0.0, 0.0), (1.0, 0.0), (0.5, 2.0 ** -56), (1.0 / 3.0, 1.8e-17),
              (5e-324, 0.0), (2.0 ** -1000, 0.0)]
        acc_h, acc_l, c_h, c_l = (np.array(v) for v in zip(
            *itertools.product(highs, lows, highs, lows)))
        for t_h, t_l in ts:
            self.assert_step_is_the_reference(
                acc_h, acc_l, np.full(acc_h.shape, t_h), np.full(acc_h.shape, t_l),
                c_h, c_l)
        # one element, where numpy takes another path for in-place operations
        self.assert_step_is_the_reference(*(np.array([v]) for v in (
            -0.7, 2.0 ** -60, 1.0 / 3.0, 1.8e-17, 0.3, -0.0)))

    def test_horner_step_on_the_kernel_grids(self):
        # the grids of TestHornerKernel's reference-loop comparison (same
        # draws), stepped degree by degree through the coefficient tables
        rng = np.random.default_rng(29)
        ends = np.array([1.0, -1.0, 0.0, -0.0, 5e-324, -5e-324])
        compared = 0
        for alpha in (0.5, 1.0, 2.0, 4.0, 0.7, 1.3, 2.3, 3.1):
            a, b = (float(v) for v in rng.uniform(-0.95, 2.5, size=2))
            for n, m in zip((0, 240, *rng.integers(1, 240, size=2)),
                            rng.permutation([1, 2, 41, 1001])):
                xs = rng.uniform(-1.0, 1.0, size=m)
                xs[:6] = rng.choice(ends, size=min(m, 6), replace=False)
                try:
                    coef_h, coef_l = polys._biortho_table(alpha, a, b, int(n))
                except ScopeError:
                    continue
                t_h, t_l = dd_div(*dd_two_sum(1.0, -np.abs(xs)),
                                  *dd_two_sum(1.0, np.abs(xs)))
                r = np.where(xs < 0.0, 0, n)
                step = np.where(xs < 0.0, 1, -1)
                acc = coef_h[r], coef_l[r]
                for _ in range(n):
                    r = r + step
                    acc = self.assert_step_is_the_reference(
                        *acc, t_h, t_l, coef_h[r], coef_l[r])
                compared += 1
        assert compared == 32

    def test_pow_equals_the_product_from_one(self):
        # dd_pow starts from the power of n's lowest set bit and splits each
        # square once; the plain loop from (1, 0) gives the same bits for
        # every n and normalized base
        def reference(h, l, n):
            ph, pl = np.ones_like(h), np.zeros_like(h)
            while n:
                if n & 1:
                    ph, pl = dd_mul(ph, pl, h, l)
                n >>= 1
                if n:
                    h, l = dd_mul(h, l, h, l)
            return ph, pl

        rng = np.random.default_rng(41)
        xs = np.concatenate([rng.uniform(0.0, 1.0, 24),
                             1.0 - 10.0 ** -rng.uniform(1.0, 15.0, 8)])
        base_h, base_l = dd_two_sum(1.0, xs)
        h = np.concatenate([0.5 * base_h, rng.uniform(0.5, 1.8, 8),
                            [1.0, 0.5 * (1.0 + 2.0 ** -52), 1.0, 0.75]])
        l = np.concatenate([0.5 * base_l, np.spacing(h[32:40]) * rng.uniform(
            -0.5, 0.5, 8), [0.0, 0.0, 2.0 ** -54, -2.0 ** -55]])
        assert np.array_equal(h + l, h)  # normalized
        for n in range(1101):
            got, expect = dd_pow(h, l, n), reference(h, l, n)
            assert all(g.tobytes() == e.tobytes() for g, e in zip(got, expect)), n

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
