import functools
import math
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest

from biortho import polys
from biortho.errors import InputError, ScopeError
from biortho.numerics import dd_add, dd_div, dd_mul, dd_pow, dd_two_sum
from biortho.phase import x_of_theta
from biortho.polys import (
    Params,
    chu_vandermonde_sides,
    eval_biortho,
    eval_biortho_degrees,
    eval_biortho_grid,
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
        ref = jacobi_rep_grid(0.5, -0.3, 7, [0.3])[0][0]
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


@functools.lru_cache(maxsize=None)
def _exact_coefficients(alpha, a, b, n):
    """coef(r) of the outer sum as integers over one common denominator,
    from the integers of _poch_numerators: A[s] = N(s)/den_a and
    B[r] = Poch(n-r+b+1, r)/r!."""
    numerator, den_a = polys._poch_numerators(a, alpha, n)
    big_n = [numerator(s) for s in range(n + 1)]
    tops, bots = [], []
    for r in range(n + 1):
        num_b, den_b = polys._poch_numerators(b, 1.0, r)
        inner = sum((-1) ** s * math.comb(r, s) * big_n[s] for s in range(r + 1))
        tops.append(num_b(n - r) * inner)
        bots.append(den_b * den_a)
    den = math.lcm(*bots)
    return [t * (den // d) for t, d in zip(tops, bots)], den


def _exact_bernstein_terms(alpha, a, b, n, x):
    """The terms coef(r) ((1-x)/2)^r ((1+x)/2)^(n-r) of P_n(x) for a float
    x, as integers over one common denominator."""
    tops, den = _exact_coefficients(alpha, a, b, n)
    # (1-x)/2 = u/2^k and (1+x)/2 = v/2^k are exact dyadics
    u, v = Fraction(1 - Fraction(x), 2), Fraction(1 + Fraction(x), 2)
    scale = math.lcm(u.denominator, v.denominator)
    u, v = int(u * scale), int(v * scale)
    return [t * u ** r * v ** (n - r) for r, t in enumerate(tops)], den * scale ** n


def _exact_bernstein_value(alpha, a, b, n, x):
    """P_n(x) as an exact rational for a float x."""
    terms, den = _exact_bernstein_terms(alpha, a, b, n, x)
    return Fraction(sum(terms), den)


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
        # at theta = pi/2 the value is within 1e-16 of the exact one at n = 40
        # (outer-sum condition 1.4e12, error bound 3.4e-16) and off by 0.18
        # at n = 100 (condition 4.9e31)
        p = Params(2.0, 0.5, -0.3)
        x = x_of_theta(p, math.pi / 2)
        for n in (20, 40):
            res = eval_biortho(p, n, x)
            assert res.error_bound == 3 * n * (n + 2) * 2.0 ** -104 * res.condition_estimate
            assert res.reliable
        assert eval_biortho(p, 40, x).condition_estimate > 1e12
        assert not eval_biortho(p, 100, x).reliable

    def test_error_within_the_outer_sum_bound(self):
        rng = np.random.default_rng(5)
        checked = {"interior": 0, "large n, near +-1": 0}
        draws = [("interior", 1, 121, lambda: rng.uniform(-1.0, 1.0, size=3))] * 60 + [
            ("large n, near +-1", 121, 241, lambda: np.concatenate([
                rng.uniform(-1.0, 1.0, size=1),
                rng.choice([-1.0, 1.0], size=2)
                * (1.0 - 10.0 ** -rng.uniform(1.0, 15.0, size=2))]))] * 20
        for group, low, high, draw_xs in draws:
            alpha = float(rng.choice([0.5, 1.0, 2.0, 4.0, 0.7, 1.3, 2.9]))
            a, b = (float(v) for v in rng.uniform(-0.95, 2.5, size=2))
            n = int(rng.integers(low, high))
            xs = draw_xs()
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
                checked[group] += 1
        assert checked["interior"] >= 150
        assert checked["large n, near +-1"] >= 30


# x = 0 (u = w, t = 1), x = +-1 (t = 0) and x within 1e-12 of +-1 on
# either side of the Horner order
BRANCH_XS = (0.0, -0.0, 1.0, -1.0, 1.0 - 1e-12, -1.0 + 1e-12, 1.0 - 2.0 ** -53,
             -1.0 + 2.0 ** -53)


def _horner_reference(coef_h, coef_l, n, xs):
    # the Horner pass with one dd_mul (which splits t again) and one dd_add
    # per degree, and the largest term's index stored through a boolean mask
    flip = xs < 0.0
    base_h, base_l = dd_two_sum(1.0, np.abs(xs))
    t_h, t_l = dd_div(*dd_two_sum(1.0, -np.abs(xs)), base_h, base_l)
    r, step = np.where(flip, 0, n), np.where(flip, 1, -1)
    acc_h, acc_l = coef_h[r], coef_l[r]
    mags = np.abs(coef_h)
    peak, top = mags[r], np.zeros(xs.shape, dtype=int)
    for k in range(1, n + 1):
        r = r + step
        acc_h, acc_l = dd_add(*dd_mul(acc_h, acc_l, t_h, t_l), coef_h[r], coef_l[r])
        peak, mag = peak * t_h, mags[r]
        top[mag > peak] = k
        peak = np.maximum(peak, mag)
    j, rel_l = n - top, np.divide(t_l, t_h, out=np.zeros_like(t_h), where=t_h > 0.0)
    peak = mags[np.where(flip, top, j)] * t_h ** j * (1.0 + j * rel_l)
    values = np.add(*dd_mul(acc_h, acc_l, *dd_pow(0.5 * base_h, 0.5 * base_l, n)))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        cond = np.where(values != 0.0, peak / np.abs(acc_h + acc_l), np.inf)
    return values, np.maximum(cond, 1.0)


class TestHornerKernel:
    """The Horner pass in t = min(u, w)/max(u, w) at the points where it
    branches: the order of the coefficients, t = 0 and t = 1."""

    @staticmethod
    def assert_matches_exact(alpha, a, b, n, xs, values, cond):
        """Where cond < 1e6, the value is within 1 ulp of the exact sum and
        cond within 4 ulps of the exact largest-term ratio; returns the
        number of points checked."""
        checked = 0
        for x, value, c in zip(xs, values, cond):
            terms, den = _exact_bernstein_terms(alpha, a, b, n, float(x))
            total = sum(terms)
            if total == 0 or not c < 1e6:
                continue
            exact = Fraction(total, den)
            assert abs(Fraction(float(value)) - exact) <= Fraction(
                float(np.spacing(abs(float(exact))))), (alpha, a, b, n, x)
            ratio = max(Fraction(max(abs(t) for t in terms), abs(total)), 1)
            assert abs(Fraction(float(c)) - ratio) <= 4 * Fraction(
                float(np.spacing(float(ratio)))), (alpha, a, b, n, x)
            checked += 1
        return checked

    @pytest.mark.parametrize("alpha, a, b, n", [
        (2.0, 0.5, -0.3, 1), (2.0, 0.5, -0.3, 7), (2.0, 0.5, -0.3, 40),
        (1.0, 0.3, 0.3, 10), (0.7, 1.25, -0.5, 33), (4.0, -0.5, 1.25, 120),
    ])
    def test_branch_points(self, alpha, a, b, n):
        # one point at a time, then all of them in one grid with interior
        # points of both signs: each point takes its own order
        p = Params(alpha, a, b)
        xs = np.array(BRANCH_XS + (-0.7, -0.2, 0.05, 0.6, 0.97))
        values, cond = eval_biortho_grid(p, n, xs)
        assert self.assert_matches_exact(alpha, a, b, n, xs, values, cond) >= 7
        for i, x in enumerate(xs):
            one_value, one_cond = eval_biortho_grid(p, n, [x])
            assert one_value.tobytes() == values[i:i + 1].tobytes(), x
            assert one_cond.tobytes() == cond[i:i + 1].tobytes(), x

    def test_endpoints_take_one_coefficient(self):
        # t = 0 leaves coef[0] at x = 1 and coef[n] at x = -1, exactly
        coef_h, _ = polys._biortho_table(2.3, 0.3, -0.5, 25)
        values, cond = eval_biortho_grid(Params(2.3, 0.3, -0.5), 25, [1.0, -1.0])
        assert values.tolist() == [coef_h[0], coef_h[-1]]
        assert cond.tolist() == [1.0, 1.0]

    def test_drawn_grids(self):
        rng = np.random.default_rng(17)
        checked = 0
        for _ in range(12):
            alpha = float(rng.choice([0.5, 1.0, 2.0, 4.0, 0.7, 2.9]))
            a, b = (float(v) for v in rng.uniform(-0.95, 2.5, size=2))
            n = int(rng.integers(1, 241))
            xs = np.concatenate([rng.choice(BRANCH_XS, size=3),
                                 rng.uniform(-1.0, 1.0, size=3)])
            try:
                values, cond = eval_biortho_grid(Params(alpha, a, b), n, xs)
            except ScopeError:
                continue
            checked += self.assert_matches_exact(alpha, a, b, n, xs, values, cond)
        assert checked >= 30

    def test_bitwise_equal_to_the_reference_loop(self):
        # compared on this machine, not against stored digests: cond goes
        # through libm pow, which may round differently elsewhere
        rng = np.random.default_rng(29)
        ends = np.array([1.0, -1.0, 0.0, -0.0, 5e-324, -5e-324])
        compared = rows = 0
        for alpha in (0.5, 1.0, 2.0, 4.0, 0.7, 1.3, 2.3, 3.1):
            a, b = (float(v) for v in rng.uniform(-0.95, 2.5, size=2))
            degrees = []
            for n, m in zip((0, 240, *rng.integers(1, 240, size=2)),
                            rng.permutation([1, 2, 41, 1001])):
                xs = rng.uniform(-1.0, 1.0, size=m)
                xs[:6] = rng.choice(ends, size=min(m, 6), replace=False)
                try:
                    table = polys._biortho_table(alpha, a, b, int(n))
                except ScopeError:
                    continue
                values, cond = eval_biortho_grid(Params(alpha, a, b), n, xs)
                ref_values, ref_cond = _horner_reference(*table, int(n), xs)
                assert values.tobytes() == ref_values.tobytes(), (alpha, n, m)
                assert cond.tobytes() == ref_cond.tobytes(), (alpha, n, m)
                compared += 1
                degrees.append(int(n))
            # the same degrees as the rows of one pass, on the last grid
            values, cond = eval_biortho_degrees(Params(alpha, a, b), degrees, xs)
            for n, row_values, row_cond in zip(degrees, values, cond):
                ref_values, ref_cond = _horner_reference(
                    *polys._biortho_table(alpha, a, b, n), n, xs)
                assert row_values.tobytes() == ref_values.tobytes(), (alpha, n)
                assert row_cond.tobytes() == ref_cond.tobytes(), (alpha, n)
                rows += 1
        assert compared == rows == 32

    def test_largest_term_at_every_point(self):
        # value = acc base^n and cond = peak/|acc|, so cond |value| is the
        # largest term to a few roundings even where the sum cancels and the
        # value itself is wrong; the float powers of t alone drift by up to
        # j ulps at power j
        rng = np.random.default_rng(23)
        checked = [0, 0]  # points of the lower and of the drawn degree
        for _ in range(8):
            alpha = float(rng.choice([0.5, 1.0, 2.0, 4.0, 0.7, 2.9]))
            a, b = (float(v) for v in rng.uniform(-0.95, 2.5, size=2))
            n = int(rng.integers(1, 241))
            xs = rng.uniform(-1.0, 1.0, size=4)
            try:
                values, cond = eval_biortho_grid(Params(alpha, a, b), n, xs)
            except ScopeError:
                continue
            # and on the lower row of a pass with a lower degree, whose row
            # at n is the call at n alone
            low = n // 3 + 1
            rows_values, rows_cond = eval_biortho_degrees(Params(alpha, a, b),
                                                          [low, n], xs)
            assert rows_values[1].tobytes() == values.tobytes()
            assert rows_cond[1].tobytes() == cond.tobytes()
            for m, m_values, m_cond in ((n, values, cond),
                                        (low, rows_values[0], rows_cond[0])):
                for x, value, c in zip(xs, m_values, m_cond):
                    if not (c > 1.0 and 0.0 < abs(value) < math.inf):
                        continue
                    terms, den = _exact_bernstein_terms(alpha, a, b, m, float(x))
                    peak = Fraction(max(abs(t) for t in terms), den)
                    rel = abs(Fraction(float(c)) * abs(Fraction(float(value)))
                              - peak) / peak
                    assert rel <= 8 * 2.0 ** -53, (alpha, a, b, m, x, float(rel))
                    checked[m == n] += 1
        assert min(checked) >= 20


class TestDegreeRows:
    """eval_biortho_degrees runs its degrees as the rows of one Horner pass;
    each row is the grid call at its degree alone, bit for bit."""

    def test_seeded_sweep(self):
        rng = np.random.default_rng(41)
        rows = 0
        for alpha in (0.5, 1.0, 2.0, 4.0, 0.7, 1.3, 2.3, 3.1):
            p = Params(alpha, *(float(v) for v in rng.uniform(-0.95, 2.5, size=2)))
            for m in (1, 2, 41):
                ns = [int(n) for n in rng.integers(0, 80, size=4)] + [0, 3]
                rng.shuffle(ns)
                xs = rng.uniform(-1.0, 1.0, size=m)
                xs[:3] = [1.0, -1.0, 0.0][:m]
                values, cond = eval_biortho_degrees(p, ns, xs)
                assert values.shape == cond.shape == (len(ns), m)
                for n, row_values, row_cond in zip(ns, values, cond):
                    one_values, one_cond = eval_biortho_grid(p, n, xs)
                    assert row_values.tobytes() == one_values.tobytes(), (p, n)
                    assert row_cond.tobytes() == one_cond.tobytes(), (p, n)
                    rows += 1
        assert rows == 144

    def test_rows_across_blocks(self, monkeypatch):
        # a grid wider than a block runs block by block for every row
        monkeypatch.setattr(polys, "_HORNER_BLOCK", 64)
        p, xs = Params(2.3, 0.3, -0.5), np.linspace(-1.0, 1.0, 101)
        values, cond = eval_biortho_degrees(p, [7, 30, 0, 30], xs.reshape(1, 101))
        assert values.shape == (4, 1, 101)
        for n, row_values, row_cond in zip([7, 30, 0, 30], values, cond):
            ref_values, ref_cond = _horner_reference(
                *polys._biortho_table(2.3, 0.3, -0.5, n), n, xs)
            assert row_values.ravel().tobytes() == ref_values.tobytes(), n
            assert row_cond.ravel().tobytes() == ref_cond.tobytes(), n

    def test_errors_in_degree_order(self):
        p = Params(2.0, 0.5, -0.3)
        # what the grid calls at each degree raise first
        with pytest.raises(InputError, match="degree"):
            eval_biortho_degrees(p, [-1, 3], [2.0])
        with pytest.raises(InputError, match=r"\|x\| <= 1"):
            eval_biortho_degrees(p, [3, -1], [0.5, 2.0])
        with pytest.raises(InputError, match="degree"):
            eval_biortho_degrees(p, [3, -1], [0.5])
        with pytest.raises(ScopeError, match="degree 1030"):
            eval_biortho_degrees(p, [3, 1030, -1], [0.5])
        values, cond = eval_biortho_degrees(p, [], [0.5, 0.25])
        assert values.shape == cond.shape == (0, 2)


class TestClassicalJacobi:
    def test_degree_zero(self):
        assert jacobi_rep_grid(0.3, -0.2, 0, [0.77])[0][0] == pytest.approx(1.0)

    def test_legendre_p2(self):
        for x in (-0.9, 0.0, 0.4, 1.0):
            assert jacobi_rep_grid(0.0, 0.0, 2, [x])[0][0] == \
                pytest.approx((3 * x * x - 1) / 2, abs=1e-13)

    def test_value_at_one(self):
        a, b, n = 0.7, -0.2, 5
        expected = gamma(n + a + 1) / (gamma(n + 1) * gamma(a + 1))
        assert jacobi_rep_grid(a, b, n, [1.0])[0][0] == \
            pytest.approx(expected, rel=1e-13)

    def test_recurrence_legendre_p3(self):
        assert jacobi_recurrence_grid(0.0, 0.0, 3, [0.5])[0] == \
            pytest.approx(-0.4375)

    def test_recurrence_degree_zero(self):
        assert jacobi_recurrence_grid(1.3, 0.1, 0, [-0.2])[0] == 1.0

    def test_rep_vs_recurrence(self):
        assert jacobi_rep_grid(1.0, 1.0, 4, [0.2])[0][0] == \
            pytest.approx(jacobi_recurrence_grid(1.0, 1.0, 4, [0.2])[0], rel=1e-12)

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
            with pytest.raises(InputError, match="must be finite and > -1"):
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
        # a = -1 and -3 zero a factor of N(s - 1): N(s) is a product anew
        for a in (0.7, 1 / 3, -0.45, -1.0, -3.0):
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

    @pytest.mark.parametrize("a", [math.inf, -math.inf, math.nan])
    def test_non_finite_a_raises(self, a):
        with pytest.raises(InputError, match="a must be finite"):
            chu_vandermonde_sides(3, 1, a)
