import math
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest

from biortho import polys
from biortho.errors import InputError, ScopeError
from biortho.phase import x_of_theta
from biortho.polys import (
    Params,
    chu_vandermonde_sides,
    eval_biortho,
    eval_biortho_grid,
    eval_jacobi_recurrence,
    eval_jacobi_rep,
    jacobi_recurrence_grid,
    jacobi_rep_grid,
    normalization_at_one,
)


def gamma(x):
    return math.gamma(x)


class TestParams:
    def test_valid(self):
        Params(2.0, -0.5, 1.2)

    @pytest.mark.parametrize("alpha, a, b", [
        (0.0, 0.0, 0.0), (-1.0, 0.0, 0.0), (1.0, -1.0, 0.0), (1.0, 0.0, -1.5),
        (math.inf, 0.0, 0.0), (1.0, math.inf, 0.0), (1.0, 0.0, math.inf),
        (math.nan, 0.0, 0.0),
    ])
    def test_invalid(self, alpha, a, b):
        with pytest.raises(ValueError):
            Params(alpha, a, b)


class TestBiortho:
    def test_degree_zero_is_one(self):
        for p in (Params(1.0, 0.0, 0.0), Params(2.5, 0.7, -0.3)):
            for x in (-1.0, -0.4, 0.0, 0.9, 1.0):
                res = eval_biortho(p, 0, x)
                assert res.value == pytest.approx(1.0, abs=1e-14)
                assert res.condition_estimate == 1.0

    def test_value_at_one_is_normalization(self):
        p = Params(2.0, 0.5, -0.3)
        for n in (0, 1, 5, 12):
            assert eval_biortho(p, n, 1.0).value == \
                pytest.approx(normalization_at_one(p, n), rel=1e-13)

    def test_near_one_matches_normalization(self):
        p = Params(2.0, 0.5, -0.3)
        for n in (1, 6, 12):
            val = eval_biortho(p, n, 1.0 - 1e-13).value
            assert val == pytest.approx(normalization_at_one(p, n), rel=1e-8)

    def test_degree_one_expansion(self):
        # alpha=2, a=b=0: the three raw terms give P_1(x) = x/2
        p = Params(2.0, 0.0, 0.0)
        assert eval_biortho(p, 1, 0.0).value == pytest.approx(0.0, abs=1e-15)
        assert eval_biortho(p, 1, 0.6).value == pytest.approx(0.3, rel=1e-14)

    def test_alpha_one_matches_classical_rep(self):
        p = Params(1.0, 0.5, -0.3)
        ref = eval_jacobi_rep(0.5, -0.3, 7, 0.3)
        assert eval_biortho(p, 7, 0.3).value == pytest.approx(ref, rel=1e-10)

    def test_boundary_minus_one(self):
        p = Params(2.0, 0.5, -0.3)
        closed = eval_biortho(p, 7, -1.0).value
        near = eval_biortho(p, 7, -1.0 + 1e-12).value
        assert closed == pytest.approx(near, rel=1e-9)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            eval_biortho(Params(1.0, 0.0, 0.0), 3, 1.5)
        with pytest.raises(ValueError):
            eval_biortho(Params(1.0, 0.0, 0.0), -1, 0.5)
        with pytest.raises(ValueError):
            eval_biortho(Params(1.0, 0.0, 0.0), 3, math.nan)
        with pytest.raises(ValueError):
            eval_biortho_grid(Params(1.0, 0.0, 0.0), 3, [0.5, math.nan])

    def test_condition_estimate_at_least_one(self):
        p = Params(3.0, 1.2, -0.5)
        _, conds = eval_biortho_grid(p, 10, np.linspace(-0.99, 0.99, 21))
        assert np.all(conds >= 1.0)

    def test_reduction_grid(self):
        # alpha = 1 collapses to the classical family
        xs = np.linspace(-1.0, 1.0, 41)
        for a in (-0.5, 0.0, 0.7, 2.3):
            for b in (-0.5, 2.3):
                p = Params(1.0, a, b)
                for n in (0, 3, 11, 30):
                    vals, _ = eval_biortho_grid(p, n, xs)
                    ref = jacobi_recurrence_grid(a, b, n, xs)
                    rel = np.abs(vals - ref) / np.maximum(1.0, np.abs(ref))
                    assert float(rel.max()) <= 1e-9

    @pytest.mark.parametrize("n", [3, 6, 10])
    def test_is_degree_n_polynomial(self, n):
        # (n+1)-th divided difference at n+2 Chebyshev points vanishes
        p = Params(2.0, 0.5, -0.3)
        xs = [math.cos((2 * k + 1) * math.pi / (2 * (n + 2)))
              for k in range(n + 2)][::-1]
        ys = [eval_biortho(p, n, x).value for x in xs]

        def divided(xs_, ys_):
            dd = list(ys_)
            for k in range(1, len(xs_)):
                dd = [(dd[i + 1] - dd[i]) / (xs_[i + k] - xs_[i])
                      for i in range(len(dd) - 1)]
            return dd[0]

        leading = divided(xs[:n + 1], ys[:n + 1])
        extra = divided(xs, ys)
        assert abs(extra) <= 1e-8 * abs(leading)


def _poch(c, n):
    out = Fraction(1)
    for j in range(n):
        out *= c + j
    return out


def _biortho_coef_reference(alpha, a, b, n):
    """coef(r) = B[r] * sum_s (-1)^s C(r, s) A[s] in exact rationals."""
    fa, fb, falpha = Fraction(a), Fraction(b), Fraction(alpha)
    big_a = [_poch((fa + s + 1) / falpha, n) / math.factorial(n)
             for s in range(n + 1)]
    coefs = []
    for r in range(n + 1):
        big_b = _poch(fb + n - r + 1, r) / math.factorial(r)
        coefs.append(big_b * sum((-1) ** s * math.comb(r, s) * big_a[s]
                                 for s in range(r + 1)))
    return coefs


class TestBiorthoTable:
    @pytest.mark.parametrize("alpha", [0.5, 2.0, 0.7, 2.3])
    def test_coefficients_are_rounded_exact_rationals(self, alpha):
        for a in (-0.5, 0.3, 1.25):
            for b in (-0.5, 0.3, 1.25):
                for n in range(13):
                    coef_h, coef_l = polys._biortho_table(alpha, a, b, n)
                    for r, exact in enumerate(_biortho_coef_reference(alpha, a, b, n)):
                        assert coef_h[r] == float(exact)
                        assert coef_l[r] == float(exact - Fraction(coef_h[r]))
                        assert coef_h[r] + coef_l[r] == coef_h[r]

    @pytest.mark.parametrize("alpha", [0.5, 2.3])
    def test_minus_one_is_the_last_coefficient(self, alpha):
        # the generic path; at x = -1 only term r = n survives
        for a, b in ((0.3, -0.5), (1.25, 0.7)):
            p = Params(alpha, a, b)
            for n in range(13):
                res = eval_biortho(p, n, -1.0)
                values, cond = eval_biortho_grid(p, n, [-1.0])
                assert np.float64(res.value).tobytes() == values.tobytes()
                assert np.float64(res.condition_estimate).tobytes() == cond.tobytes()
                assert res.value == float(_biortho_coef_reference(alpha, a, b, n)[n])

    def test_beyond_double_range_is_a_scope_error(self):
        with pytest.raises(ScopeError, match="contour"):
            eval_biortho(Params(1.0, 0.0, 0.0), 400, 0.0)

    def test_table_beyond_double_range_refused_before_the_rows(self):
        # the largest term first overflows in a late row; the log bound
        # refuses before the big-integer row loop (seconds for these)
        for args in ((97.3, 0.2, 0.1, 1029), (100.0, 0.0, 0.0, 1029)):
            polys._biortho_table.cache_clear()
            start = time.monotonic()
            with pytest.raises(ScopeError, match="contour"):
                polys._biortho_table(*args)
            assert time.monotonic() - start < 0.5, args

    def test_large_degree_conditions_finite_without_warnings(self):
        xs = np.linspace(-0.999, 0.999, 41)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values, cond = eval_biortho_grid(Params(2.0, 0.5, -0.3), 400, xs)
        assert not np.any(np.isnan(cond))
        assert np.all(np.isfinite(values))


def _exact_bernstein_value(alpha, a, b, n, x):
    """P_n(x) as an exact rational for a float x, from the integers of
    _poch_numerators: A[s] = N(s)/den_a and B[r] = Poch(n-r+b+1, r)/r!."""
    numerator, den_a = polys._poch_numerators(a, alpha, n)
    big_n = [numerator(s) for s in range(n + 1)]
    tops, bots = [], []
    for r in range(n + 1):
        num_b, den_b = polys._poch_numerators(b, 1.0, r)
        inner = sum((-1) ** s * math.comb(r, s) * big_n[s] for s in range(r + 1))
        tops.append(num_b(n - r) * inner)
        bots.append(den_b * den_a)
    den = math.lcm(*bots)
    # (1-x)/2 = u/2^k and (1+x)/2 = v/2^k are exact dyadics
    u, v = Fraction(1 - Fraction(x), 2), Fraction(1 + Fraction(x), 2)
    scale = math.lcm(u.denominator, v.denominator)
    u, v = int(u * scale), int(v * scale)
    total = sum(t * (den // d) * u ** r * v ** (n - r)
                for r, (t, d) in enumerate(zip(tops, bots)))
    return Fraction(total, den * scale ** n)


class TestAccuracyModel:
    """The condition estimate is that of the outer Bernstein sum that runs."""

    def test_alpha_one_matches_classical_bitwise(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            a, b = rng.uniform(-0.95, 3.0, size=2)
            n = int(rng.integers(0, 61))
            xs = rng.uniform(-1.0, 1.0, size=3)
            values, cond = eval_biortho_grid(Params(1.0, a, b), n, xs)
            ref_values, ref_cond = jacobi_rep_grid(a, b, n, xs)
            assert values.tobytes() == ref_values.tobytes(), (a, b, n)
            assert cond.tobytes() == ref_cond.tobytes(), (a, b, n)

    def test_reliable_where_the_outer_sum_is_accurate(self):
        # at theta = pi/2 the value agrees with the contour oracle to 2e-16 at
        # n = 20 (outer-sum condition 5.4e5) and is off by 0.19 at n = 100
        # (condition 4.9e31)
        p = Params(2.0, 0.5, -0.3)
        x = x_of_theta(p, math.pi / 2)
        assert eval_biortho(p, 20, x).reliable
        assert not eval_biortho(p, 100, x).reliable

    def test_error_within_the_outer_sum_bound(self):
        rng = np.random.default_rng(5)
        checked = 0
        for _ in range(60):
            alpha = float(rng.choice([0.5, 1.0, 2.0, 4.0, 0.7, 1.3, 2.9]))
            a, b = (float(v) for v in rng.uniform(-0.95, 2.5, size=2))
            n = int(rng.integers(1, 121))
            xs = rng.uniform(-1.0, 1.0, size=3)
            try:
                values, cond = eval_biortho_grid(Params(alpha, a, b), n, xs)
            except ScopeError:
                continue
            for x, value, c in zip(xs, values, cond):
                bound = 2 * n * (n + 1) * 2.0 ** -104 * c
                if not bound < 0.5:
                    continue
                exact = _exact_bernstein_value(alpha, a, b, n, float(x))
                rel = abs(Fraction(float(value)) - exact) / abs(exact)
                assert rel <= bound + 2.0 ** -52, (alpha, a, b, n, x, float(rel))
                checked += 1
        assert checked >= 150


class TestClassicalJacobi:
    def test_degree_zero(self):
        assert eval_jacobi_rep(0.3, -0.2, 0, 0.77) == pytest.approx(1.0)

    def test_legendre_p2(self):
        for x in (-0.9, 0.0, 0.4, 1.0):
            assert eval_jacobi_rep(0.0, 0.0, 2, x) == \
                pytest.approx((3 * x * x - 1) / 2, abs=1e-13)

    def test_value_at_one(self):
        a, b, n = 0.7, -0.2, 5
        expected = gamma(n + a + 1) / (gamma(n + 1) * gamma(a + 1))
        assert eval_jacobi_rep(a, b, n, 1.0) == pytest.approx(expected, rel=1e-13)

    def test_recurrence_legendre_p3(self):
        assert eval_jacobi_recurrence(0.0, 0.0, 3, 0.5) == pytest.approx(-0.4375)

    def test_recurrence_degree_zero(self):
        assert eval_jacobi_recurrence(1.3, 0.1, 0, -0.2) == 1.0

    def test_rep_vs_recurrence(self):
        assert eval_jacobi_rep(1.0, 1.0, 4, 0.2) == \
            pytest.approx(eval_jacobi_recurrence(1.0, 1.0, 4, 0.2), rel=1e-12)

    @pytest.mark.parametrize("a, b", [(0.0, 0.0), (-0.5, 1.25), (0.3, -0.7),
                                      (1 / 3, 0.1), (2.7, -0.99)])
    def test_table_is_rounded_exact_rationals(self, a, b):
        fa, fb = Fraction(a), Fraction(b)
        for n in range(13):
            t_h, t_l = polys._jacobi_table(a, b, n)
            for r in range(n + 1):
                # (-1)^r Poch(r+a+1, n-r)/(n-r)! * Poch(n-r+b+1, r)/r!
                exact = ((-1) ** r * _poch(fa + r + 1, n - r) * _poch(fb + n - r + 1, r)
                         / (math.factorial(n - r) * math.factorial(r)))
                assert t_h[r] == float(exact)
                assert t_l[r] == float(exact - Fraction(t_h[r]))

    @pytest.mark.parametrize("n", [505, 515, 600])
    def test_beyond_double_double_range_is_a_scope_error(self, n):
        # some term exceeds 2^996, where the double-double products give NaN
        polys._jacobi_table.cache_clear()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ScopeError, match="contour"):
                jacobi_rep_grid(0.0, 0.0, n, np.array([1.0, 0.3]))

    @pytest.mark.parametrize("a, b", [(math.inf, 0.0), (0.0, math.inf),
                                      (math.nan, 0.0), (-1.0, 0.0)])
    def test_bad_parameters_raise(self, a, b):
        for fn in (jacobi_rep_grid, jacobi_recurrence_grid):
            with pytest.raises(InputError, match="finite a, b > -1"):
                fn(a, b, 3, [0.5])

    def test_cross_oracle_grid(self):
        xs = np.linspace(-1.0, 1.0, 41)
        for a, b in ((-0.5, 0.7), (0.0, 0.0), (2.3, -0.5)):
            for n in (5, 20, 40):
                vals, conds = jacobi_rep_grid(a, b, n, xs)
                ref = jacobi_recurrence_grid(a, b, n, xs)
                mask = conds <= 1e10
                rel = np.abs(vals - ref) / np.maximum(1.0, np.abs(ref))
                assert float(rel[mask].max()) <= 1e-10


class TestNormalization:
    def test_degree_zero(self):
        assert normalization_at_one(Params(2.7, 1.1, 0.3), 0) == pytest.approx(1.0)

    def test_alpha_one_a_zero(self):
        assert normalization_at_one(Params(1.0, 0.0, 0.4), 5) == \
            pytest.approx(1.0, rel=1e-13)

    def test_ratio_one_when_exponent_is_one(self):
        # (a+1)/alpha = 1 makes the Gamma ratio collapse
        assert normalization_at_one(Params(2.0, 1.0, 0.0), 3) == \
            pytest.approx(1.0, rel=1e-13)

    @pytest.mark.parametrize("alpha, a", [(2.0, 0.5), (0.7, -0.45), (1 / 3, 1.25)])
    def test_correctly_rounded(self, alpha, a):
        # Poch(c, n)/n! with c = (a+1)/alpha the exact rational of the floats
        c = (Fraction(a) + 1) / Fraction(alpha)
        exact = Fraction(1)
        for n in range(0, 60):
            assert normalization_at_one(Params(alpha, a, 0.0), n) == float(exact)
            exact *= (c + n) / (n + 1)

    @pytest.mark.parametrize("alpha, n", [(0.001, 800), (2.0, 1030)])
    def test_beyond_range_is_a_scope_error(self, alpha, n):
        # an overflowing value, and a degree past the exact tables' limit
        with pytest.raises(ScopeError):
            eval_biortho(Params(alpha, 0.0, 0.0), n, 1.0)


class TestChuVandermonde:
    def test_hand_case(self):
        lhs, rhs = chu_vandermonde_sides(2, 1, 0.0)
        assert lhs == -2.0 and rhs == -2.0

    def test_single_term(self):
        n, a = 7, 0.4
        lhs, rhs = chu_vandermonde_sides(n, 0, a)
        expected = gamma(n + a + 1) / (gamma(n + 1) * gamma(a + 1))
        assert lhs == pytest.approx(expected, rel=1e-13)
        assert lhs == rhs

    def test_deep_cancellation_case(self):
        lhs, rhs = chu_vandermonde_sides(6, 6, 0.7)
        assert abs(lhs - rhs) <= 1e-10 * abs(rhs)

    def test_full_range(self):
        for a in (-0.9, -0.5, 0.0, 1.5, 3.2):
            for n in range(0, 21):
                for r in range(0, n + 1):
                    lhs, rhs = chu_vandermonde_sides(n, r, a)
                    assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))

    def test_sides_are_rounded_exact_rationals(self):
        for a in (0.7, 1 / 3, -0.45):
            fa = Fraction(a)
            for n in range(21):
                for r in range(n + 1):
                    lhs = sum(Fraction((-1) ** s * math.comb(r, s))
                              * _poch(fa + s + 1, n) for s in range(r + 1))
                    lhs /= math.factorial(n) * math.factorial(r)
                    rhs = (-1) ** r * _poch(fa + r + 1, n - r) / (
                        math.factorial(n - r) * math.factorial(r))
                    assert chu_vandermonde_sides(n, r, a) == (float(lhs), float(rhs))

    def test_bad_r(self):
        with pytest.raises(ValueError):
            chu_vandermonde_sides(3, 4, 0.0)
