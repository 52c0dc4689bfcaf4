import cmath
import math
import time
import warnings

import numpy as np
import pytest

from biortho import phase, quadrature
from biortho.errors import ConvergenceError
from biortho.numerics import log_gamma
from biortho.polys import Params, eval_biortho, eval_jacobi_rep
from biortho.quadrature import QuadResult, integrate_interval, rodrigues_contour_eval

PI = math.pi


def beta_moment(a, b, j=0):
    # integral of (1-x)^(a+j) (1+x)^b over (-1, 1)
    return 2.0 ** (a + j + b + 1) * math.exp(
        log_gamma(a + j + 1) + log_gamma(b + 1) - log_gamma(a + j + b + 2))


class TestIntervalRule:
    def test_plain_length(self):
        res = integrate_interval(lambda x: 1.0, (0.0, 0.0), 1e-12)
        assert res.value == pytest.approx(2.0, rel=1e-12)
        assert res.evaluations > 0

    def test_weighted_constant(self):
        res = integrate_interval(lambda x: 1.0, (0.5, 0.0), 1e-12)
        assert res.value == pytest.approx(beta_moment(0.5, 0.0), rel=1e-11)

    def test_odd_function_cancels(self):
        res = integrate_interval(lambda x: x, (0.0, 0.0), 1e-12)
        assert abs(res.value) <= 1e-12

    @pytest.mark.parametrize("a, b", [
        (-0.5, -0.5), (0.0, 1.2), (1.2, -0.5), (-0.9, 2.0),
    ])
    def test_beta_moment_family(self, a, b):
        for j in range(7):
            res = integrate_interval(lambda x, jj=j: (1.0 - x) ** jj,
                                     (a, b), 1e-11)
            assert res.value == pytest.approx(beta_moment(a, b, j), rel=1e-10)

    @pytest.mark.parametrize("a, b", [
        (-0.99, 0.0), (0.0, -0.99), (-0.99, -0.99), (-0.999, 0.5),
    ])
    def test_exponents_near_minus_one(self, a, b):
        # the node range must widen as the endpoint power approaches -1
        res = integrate_interval(lambda x: 1.0, (a, b), 1e-11)
        assert res.value == pytest.approx(beta_moment(a, b), rel=1e-10)

    def test_vectorized_mode(self):
        res = integrate_interval(lambda xs: np.cos(xs), (0.0, 0.0), 1e-12)
        assert res.value == pytest.approx(2.0 * math.sin(1.0), rel=1e-12)

    def test_error_estimate_honest(self):
        res = integrate_interval(lambda x: 1.0 / (1.1 - x), (-0.5, 0.3), 1e-10)
        assert res.error_estimate <= 1e-8 * abs(res.value)

    def test_bad_exponents(self):
        with pytest.raises(ValueError):
            integrate_interval(lambda x: 1.0, (-1.0, 0.0), 1e-10)

    def test_stall_raises(self):
        # a jump discontinuity defeats double-exponential convergence
        with pytest.raises(ConvergenceError):
            integrate_interval(lambda x: np.where(x > 0.123456, 1.0, 0.0),
                               (0.0, 0.0), 1e-14)


class TestContourRule:
    def test_alpha_one_reduces_to_classical(self):
        res = rodrigues_contour_eval(Params(1.0, 0.0, 0.0), 6, PI / 3, 1e-10)
        ref = eval_jacobi_rep(0.0, 0.0, 6, math.cos(PI / 3))
        assert res.value == pytest.approx(ref, rel=1e-9)

    def test_cross_oracle_alpha_two(self):
        p = Params(2.0, 0.5, -0.3)
        res = rodrigues_contour_eval(p, 8, PI / 2, 1e-10)
        ref = eval_biortho(p, 8, phase.x_of_theta(p, PI / 2)).value
        assert res.value == pytest.approx(ref, rel=1e-8)

    def test_envelope_scaling(self):
        # |P_n| <= Const n^(-1/2) rho^n with one constant across n
        p = Params(2.0, 0.0, 0.0)
        theta = PI / 3
        rho = phase.sine_ratio(2.0, theta)
        consts = []
        for n in (64, 128, 256):
            value = rodrigues_contour_eval(p, n, theta, 1e-10, scaled=True).value
            consts.append(abs(value) * math.sqrt(n))
        assert max(consts) <= 10.0 * min(consts)

    def test_scaled_mode_consistent(self):
        p = Params(2.0, 0.3, 0.1)
        n, theta = 12, 1.1
        rho = phase.sine_ratio(2.0, theta)
        plain = rodrigues_contour_eval(p, n, theta, 1e-10).value
        scaled = rodrigues_contour_eval(p, n, theta, 1e-10, scaled=True).value
        assert plain == pytest.approx(rho ** n * scaled, rel=1e-13)

    def test_threshold_rejects_small_n(self):
        # a = -0.9, alpha = 4 puts the boundedness threshold near 0.975;
        # b = -0.9 pushes it to 0.9, so n = 0 invalid but n = 1 fine
        with pytest.raises(ValueError):
            rodrigues_contour_eval(Params(4.0, -0.9, -0.9), 0, 1.0)
        p = Params(4.0, -0.99, 0.0)
        assert rodrigues_contour_eval(p, 1, 1.0, 1e-9).evaluations > 0

    def test_near_endpoint_theta(self):
        p = Params(2.0, 0.5, -0.3)
        for theta in (0.15, PI - 0.15):
            x = phase.x_of_theta(p, theta)
            ref = eval_biortho(p, 16, x).value
            res = rodrigues_contour_eval(p, 16, theta, 1e-9)
            assert res.value == pytest.approx(ref, rel=1e-9)

    def test_theta_domain(self):
        with pytest.raises(ValueError):
            rodrigues_contour_eval(Params(1.0, 0.0, 0.0), 5, 0.0)

    def test_endpoint_decay(self):
        # integrand magnitude near the contour ends is negligible vs peak
        for alpha in (1.0, 2.0, 4.0):
            p = Params(alpha, 0.0, 0.0)
            for theta in (PI / 4, PI / 2, 3 * PI / 4):
                n = 8
                f0 = phase.f_at_saddle(p, theta)
                peak = abs(phase.g_at_saddle(p, theta))
                for phi in (1e-6, PI - 1e-6):
                    w = n * (phase.f_phase(p, theta, phi) - f0)
                    mag = 0.0 if w.real < -700 else abs(
                        cmath.exp(w) * phase.g_amplitude(p, theta, phi))
                    assert mag <= 1e-30 * peak

    def test_evaluation_growth_at_most_linear(self):
        p = Params(2.0, 0.5, -0.3)
        counts = {}
        for n in (64, 128, 256, 512):
            counts[n] = rodrigues_contour_eval(p, n, PI / 3, 1e-9).evaluations
        for n in (128, 256, 512):
            assert counts[n] <= (n / (n // 2)) * counts[n // 2]

    def test_evaluation_cap(self):
        # near x = 1 the panel count grows without bound; the cap turns an
        # endless run into a typed error within seconds
        p = Params(2.0, 0.0, 0.0)
        theta = phase.theta_of_x(p, 0.9999999)
        start = time.perf_counter()
        with pytest.raises(ConvergenceError, match="integrand evaluations"):
            rodrigues_contour_eval(p, 3, theta, 1e-10)
        assert time.perf_counter() - start < 30.0
        # three decades farther from x = 1 the same call converges
        x = 0.9999
        res = rodrigues_contour_eval(p, 3, phase.theta_of_x(p, x), 1e-10)
        assert res.value == pytest.approx(eval_biortho(p, 3, x).value, rel=1e-8)

    @pytest.mark.parametrize("alpha, a, b, n, theta", [
        (2.0, 1.2, -0.5, 20, PI / 4),  # a criterion-3 point
        (2.0, 0.5, -0.3, 512, PI / 3),
    ])
    def test_evaluations_count_every_phase_call(self, monkeypatch,
                                                alpha, a, b, n, theta):
        # the reported count is the whole integrand cost: every phi node
        # that reaches f_phase, whether it arrives alone or in a batch
        nodes = [0]
        inner = quadrature.f_phase

        def counted(p, theta, phi):
            nodes[0] += np.size(phi)
            return inner(p, theta, phi)

        monkeypatch.setattr(quadrature, "f_phase", counted)
        res = rodrigues_contour_eval(Params(alpha, a, b), n, theta, 1e-9)
        assert res.evaluations == nodes[0]

    @pytest.mark.parametrize("n, evaluations", [
        (64, 1248), (512, 1376), (4096, 1632),
    ])
    def test_evaluation_counts(self, n, evaluations):
        # the panel set of the split rule, pinned by its node count
        res = rodrigues_contour_eval(Params(2.0, 0.5, -0.3), n, PI / 3, 1e-9,
                                     scaled=True)
        assert res.evaluations == evaluations

    @pytest.mark.parametrize("bad", [complex(1e3, 0.0), complex(math.nan, 0.0)])
    def test_non_finite_integrand_raises(self, monkeypatch, bad):
        # numpy's exp returns inf/nan with a warning where cmath raised;
        # the oracle must turn that into a typed error, not a number
        inner = quadrature.f_phase

        def spoiled(p, theta, phi):
            f = inner(p, theta, phi)
            f.flat[f.size // 2] = bad
            return f

        monkeypatch.setattr(quadrature, "f_phase", spoiled)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConvergenceError, match="non-finite"):
                rodrigues_contour_eval(Params(2.0, 0.5, -0.3), 20, PI / 3, 1e-9)

    def test_result_type(self):
        res = rodrigues_contour_eval(Params(1.0, 0.0, 0.0), 4, 1.0, 1e-9)
        assert isinstance(res, QuadResult)
        assert res.error_estimate >= 0.0
