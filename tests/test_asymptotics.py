import math
import statistics

import pytest

from biortho import phase
from biortho.asymptotics import (
    convergence_table,
    darboux_biortho,
    darboux_classical,
    envelope_bound,
)
from biortho.errors import ConvergenceError, ScopeError
from biortho.numerics import fit_loglog_slope
from biortho.polys import Params, eval_jacobi_recurrence
from biortho.quadrature import rodrigues_contour_eval

PI = math.pi


class TestClassicalLeadingTerm:
    def test_legendre_form(self):
        # P_n(cos t) ~ sqrt(2/(pi n sin t)) cos((n+1/2) t - pi/4)
        for n in (5, 20):
            for theta in (0.7, PI / 2, 2.1):
                expected = (math.sqrt(2.0 / (PI * n * math.sin(theta)))
                            * math.cos((n + 0.5) * theta - PI / 4))
                assert darboux_classical(0.0, 0.0, n, theta) == \
                    pytest.approx(expected, rel=1e-13)

    def test_argument_at_half_pi(self):
        a, b, n = 0.7, -0.2, 9
        big_n = n + 0.5 * (a + b + 1.0)
        expected = (math.sin(PI / 4) ** (-a - 0.5) * math.cos(PI / 4) ** (-b - 0.5)
                    * math.cos(big_n * PI / 2 - a * PI / 2 - PI / 4)
                    / math.sqrt(PI * n))
        assert darboux_classical(a, b, n, PI / 2) == pytest.approx(expected)

    def test_remainder_rate(self):
        # absolute error decays like n^(-3/2)
        rows = []
        for k in range(3, 11):
            n = 2 ** k
            err = abs(eval_jacobi_recurrence(0.0, 0.0, n, math.cos(PI / 3))
                      - darboux_classical(0.0, 0.0, n, PI / 3))
            rows.append((n, err))
        slope = fit_loglog_slope(rows)
        assert -1.8 <= slope <= -1.2


class TestBiorthoLeadingTerm:
    def test_alpha_one_n_ten(self):
        value = darboux_biortho(Params(1.0, 0.0, 0.0), 10, PI / 2)
        expected = (math.sqrt(2.0) / math.sqrt(PI * 10.0)
                    * math.cos(10.5 * PI / 2 - PI / 4))
        assert value == pytest.approx(expected, rel=1e-13)

    def test_alpha_one_matches_classical(self):
        for n in (2, 7, 33, 100):
            for theta in (0.5, PI / 2, 2.4):
                for a, b in ((0.0, 0.0), (0.7, -0.2)):
                    lhs = darboux_biortho(Params(1.0, a, b), n, theta)
                    rhs = darboux_classical(a, b, n, theta)
                    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))

    def test_alpha_two_near_contour_value(self):
        p = Params(2.0, 0.0, 0.0)
        n, theta = 64, PI / 2
        approx = darboux_biortho(p, n, theta)
        ref = rodrigues_contour_eval(p, n, theta, 1e-10).value
        sd = phase.saddle_data(p, theta)
        envelope = (math.sqrt(2.0) * 2.0 / math.sqrt(3.0)
                    * sd.sine_ratio ** n * abs(sd.m_alpha) / math.sqrt(PI * n))
        assert abs(approx - ref) <= 0.03 * envelope

    def test_scope_gate(self):
        with pytest.raises(ScopeError):
            darboux_biortho(Params(0.5, 0.0, 0.0), 10, 1.0)
        # the override computes a finite number without claiming correctness
        value = darboux_biortho(Params(0.5, 0.0, 0.0), 10, 1.0,
                                allow_unproven=True)
        assert math.isfinite(value)


class TestConvergenceTable:
    def test_alpha_one_contour_rate(self):
        report = convergence_table(Params(1.0, 0.0, 0.0), PI / 2,
                                   [2 ** k for k in range(3, 11)], "contour")
        assert -1.3 <= report.slope <= -0.7

    def test_alpha_two_rate(self):
        report = convergence_table(Params(2.0, 0.5, -0.3), 2 * PI / 5,
                                   [2 ** k for k in range(3, 11)], "contour")
        assert -1.3 <= report.slope <= -0.7

    def test_rows_never_dropped(self):
        n_list = [2 ** k for k in range(3, 10)]
        report = convergence_table(Params(2.0, 0.0, 0.0), 2 * PI / 5,
                                   n_list, "contour")
        assert [row.n for row in report.rows] == n_list
        assert all(row.abs_err == pytest.approx(
            abs(row.reference - row.asymptotic)) for row in report.rows)

    def test_exact_and_contour_references_agree(self):
        p = Params(2.0, 0.0, 0.0)
        n_list = [8, 16, 32]
        exact = convergence_table(p, PI / 3, n_list, "exact",
                                  envelope_threshold=0.0)
        contour = convergence_table(p, PI / 3, n_list, "contour",
                                    envelope_threshold=0.0)
        for r1, r2 in zip(exact.rows, contour.rows):
            assert r1.reference == pytest.approx(r2.reference, rel=1e-7)

    def test_auto_reference_spans_switchover(self):
        # the exact/contour hand-off leaves no discontinuity in the fit
        report = convergence_table(Params(2.0, 0.5, -0.3), 2 * PI / 5,
                                   [2 ** k for k in range(3, 11)], "auto")
        assert -1.3 <= report.slope <= -0.7

    def test_insufficient_rows(self):
        with pytest.raises(ConvergenceError):
            convergence_table(Params(1.0, 0.0, 0.0), PI / 2, [8, 16], "contour")

    def test_scope(self):
        with pytest.raises(ScopeError):
            convergence_table(Params(0.8, 0.0, 0.0), 1.0, [8, 16, 32])


class TestEnvelopeBound:
    def test_legendre_constant(self):
        const, rows = envelope_bound(Params(1.0, 0.0, 0.0), PI / 2,
                                     [2 ** k for k in range(3, 10)])
        assert const == pytest.approx(math.sqrt(2.0 / PI), rel=0.2)
        med = statistics.median(v for _, v in rows)
        assert const <= 10.0 * med

    def test_finite_up_to_256(self):
        const, rows = envelope_bound(Params(2.0, 0.0, 0.0), PI / 3,
                                     [8, 16, 32, 64, 128, 256])
        assert math.isfinite(const)
        assert len(rows) == 6

    def test_stability_alpha_two(self):
        const, rows = envelope_bound(Params(2.0, 0.0, 0.0), PI / 3,
                                     [32, 64, 128, 256])
        med = statistics.median(v for _, v in rows)
        assert const <= 10.0 * med

    def test_scope(self):
        with pytest.raises(ScopeError):
            envelope_bound(Params(0.5, 0.0, 0.0), 1.0, [8, 16, 32])
