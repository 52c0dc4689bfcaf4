import cmath
import itertools
import math
import random
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biortho import phase, quadrature
from biortho.errors import ConvergenceError, InputError, ScopeError
from biortho.polys import Params, eval_biortho, eval_biortho_grid, jacobi_rep_grid
from biortho.quadrature import (
    QuadResult,
    integrate_interval,
    integrate_moments,
    rodrigues_contour_degrees,
    rodrigues_contour_eval,
)

PI = math.pi


def beta_moment(a, b, j=0):
    # integral of (1-x)^(a+j) (1+x)^b over (-1, 1)
    return 2.0 ** (a + j + b + 1) * math.exp(
        math.lgamma(a + j + 1) + math.lgamma(b + 1) - math.lgamma(a + j + b + 2))


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


def reference_interval(f, a, b, tol):
    """integrate_interval as one scalar loop: one node at a time, the live
    nodes of a level evaluated together; (value, error, evaluations)."""
    def node(t):
        u = 0.5 * PI * math.sinh(t)
        tail = math.log1p(math.exp(-abs(2.0 * u)))
        log_1px = math.log(2.0) - (max(-2.0 * u, 0.0) + tail)
        log_1mx = math.log(2.0) - (max(2.0 * u, 0.0) + tail)
        log_cosh_u = abs(u) + tail - math.log(2.0)
        log_dxdt = math.log(0.5 * PI * math.cosh(t)) - 2.0 * log_cosh_u
        return math.tanh(u), a * log_1mx + b * log_1px + log_dxdt

    def level(ts):
        live = [(x, w) for x, w in map(node, ts) if w > -745.0]
        if not live:
            return 0.0, 0.0, 0
        xs, logws = map(np.array, zip(*live))
        contrib = np.asarray(f(xs), dtype=float) * np.exp(logws)
        return float(np.sum(contrib)), float(np.sum(np.abs(contrib))), len(live)

    t_max = max(7.5, math.log(484.0 / min(1.0, 1.0 + a, 1.0 + b)) + 0.5)
    total, l1_total, evaluations = level([float(k) for k in range(
        -int(t_max), int(t_max) + 1)])
    h = 1.0
    for _ in range(12):
        h *= 0.5
        k_max = int(t_max / h)
        s_new, l1_new, count = level([k * h for k in range(-k_max, k_max + 1)
                                      if k % 2])
        evaluations += count
        prev, total = total, 0.5 * total + h * s_new
        l1_total = 0.5 * l1_total + h * l1_new
        scale = max(abs(total), l1_total)
        if abs(total - prev) <= tol * scale or scale == 0.0:
            return total, abs(total - prev), evaluations
    raise ConvergenceError("stalled")


class TestSharedMoments:
    """integrate_moments gives every pair the QuadResult of its own
    integrate_interval call, bit for bit."""

    @staticmethod
    def assert_same_as_separate_calls(f, pairs, tol):
        def outcome(call):
            try:
                return [(r.value.hex(), r.error_estimate.hex(), r.evaluations)
                        for r in call()]
            except ConvergenceError as exc:
                return str(exc)
        singles = [outcome(lambda pair=pair: [integrate_interval(f, pair, tol)])
                   for pair in pairs]
        stalled = [single for single in singles if isinstance(single, str)]
        # a stalled pair raises the error of the first one that stalls alone
        assert outcome(lambda: integrate_moments(f, pairs, tol)) == (
            stalled[0] if stalled else [single[0] for single in singles])

    @pytest.mark.parametrize("alpha", [1.5, 2.0, 3.0])
    def test_biorthogonality_moments(self, alpha):
        # the moments of acceptance criterion 2
        for a, b in itertools.product((-0.5, 0.0, 1.2), repeat=2):
            p = Params(alpha, a, b)
            for n in (1, 2, 5, 8):
                self.assert_same_as_separate_calls(
                    lambda xs, n=n: eval_biortho_grid(p, n, xs)[0],
                    [(alpha * j + a, b) for j in range(n + 1)], 1e-10)

    # Exponents closer to -1 than -0.999 need hundreds of thousands of nodes
    # per call (the cutoff t_max grows like log(1/(1+a))) and may stall;
    # test_exponents_near_minus_one covers that range.
    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.tuples(st.floats(-0.999, 6.0), st.floats(-0.999, 6.0)),
                    min_size=1, max_size=5),
           st.sampled_from([1e-12, 1e-10, 1e-7]))
    def test_drawn_exponents(self, pairs, tol):
        self.assert_same_as_separate_calls(
            lambda xs: np.cos(3.0 * xs) + xs * xs, pairs, tol)

    @pytest.mark.parametrize("f", [lambda x: 1.0, np.cos,
                                   lambda x: 1.0 / (1.1 - x),
                                   lambda x: (1.0 - x) ** 3])
    @pytest.mark.parametrize("a, b", [(0.0, 0.0), (-0.9, 2.0), (1.2, -0.5),
                                      (5.5, -0.999)])
    def test_interval_rule_matches_scalar_loop(self, f, a, b):
        res = integrate_interval(f, (a, b), 1e-11)
        value, err, evaluations = reference_interval(f, a, b, 1e-11)
        assert (res.value.hex(), res.error_estimate.hex(), res.evaluations) \
            == (value.hex(), err.hex(), evaluations)

    @pytest.mark.parametrize("level, k_max", [(0, 7), (0, 9), (1, 15),
                                              (4, 120), (6, 480), (3, 111)])
    def test_cached_level_parts_match_a_fresh_build(self, level, k_max):
        # each cached level holds the node parts of _node_parts(k h) for the
        # k of that level, bit for bit
        ks, *parts = quadrature._moment_level(level, k_max)
        expected = [k for k in range(-k_max, k_max + 1) if k % 2 or not level]
        assert ks.tolist() == expected
        fresh = np.array([quadrature._node_parts(k * 2.0 ** -level)
                          for k in expected])
        for cached, column in zip(parts, fresh.T):
            assert cached.tobytes() == column.copy().tobytes()
            assert not cached.flags.writeable

    def test_constant_integrand(self):
        # a scalar f value is broadcast over the abscissae
        self.assert_same_as_separate_calls(lambda x: 1.0,
                                           [(0.5, 0.0), (-0.9, 2.0)], 1e-12)

    def test_stalled_pair_raises(self):
        # the jump stalls every pair; the error is that of the first pair
        def f(x):
            return np.where(x > 0.123456, 1.0, 0.0)
        with pytest.raises(ConvergenceError) as single:
            integrate_interval(f, (0.5, 0.0), 1e-14)
        with pytest.raises(ConvergenceError) as shared:
            integrate_moments(f, [(0.5, 0.0), (0.0, 0.0)], 1e-14)
        assert str(shared.value) == str(single.value)

    def test_bad_exponents(self):
        with pytest.raises(ValueError):
            integrate_moments(lambda x: 1.0, [(0.0, 0.0), (0.0, -1.0)], 1e-10)


# (alpha, a, b, n, theta, scaled) at tol 1e-9 with float.hex of the value and
# the error estimate and the evaluation count: n from 1 to 4096, theta near
# either end and inside, b near -1
CONTOUR_PINS = [
    (2.0, 0.5, -0.3, 1, 0.2, False,
     "0x1.693a436de7552p-1", "0x1.2cc428f5cf438p-49", 425),
    (2.0, 0.5, -0.3, 8, PI / 3, False,
     "-0x1.d7fb12aeaadcbp-10", "0x1.0c308d2d00286p-53", 426),
    (1.0, 0.0, 0.0, 3, 2.9, False,
     "-0x1.a9fdab3fb3d0dp-1", "0x1.1d6051fa9337bp-44", 424),
    (4.0, 1.2, -0.95, 5, 1.7, False,
     "0x1.bef90979670cbp-17", "0x1.8af75397b3052p-43", 214),
    (0.7, -0.5, 1.2, 20, 0.35, True,
     "0x1.03cfcb9d60e92p-3", "0x1.14fa413cc60cbp-47", 849),
    (2.0, 1.2, -0.5, 40, PI / 4, False,
     "0x1.9d7dfa278abd3p-24", "0x1.ea68ba849f5c2p-61", 425),
    (3.0, -0.8, -0.99, 64, 2.6, True,
     "-0x1.dfa1c454e68bdp-6", "0x1.34a9abcde9ebap-46", 850),
    (1.0, 0.3, 0.3, 128, 1.2, False,
     "-0x1.2ddd352bbbf72p-4", "0x1.845230c731cbdp-43", 426),
    (2.0, 0.5, -0.3, 512, PI / 3, True,
     "-0x1.df01c3e6f6512p-8", "0x1.c76f7dbd88e6ap-46", 852),
    (0.5, 0.2, -0.9, 1024, 0.45, True,
     "0x1.14409918ceef8p-3", "0x1.f3255bdfa8340p-42", 3401),
    (2.5, 1.7, 0.4, 2048, 3.0, True,
     "0x1.05fc6280850a6p-3", "0x1.982f26ea8e946p-37", 3386),
    (2.0, 0.5, -0.999, 4096, 2.2, True,
     "0x1.85ec071efb2e2p-8", "0x1.0fd9cf14f264cp-41", 852),
]


def fresh_level_nodes(theta, level):
    """Nodes and weights of one tanh-sinh level of the contour rule, built
    from scratch over |t| <= 6.5: [0, theta] first, then [theta, pi]."""
    h = 2.0 ** -level
    ks = np.arange(-int(6.5 / h), int(6.5 / h) + 1)
    t = h * (ks[ks % 2 != 0] if level else ks)
    q = np.exp(-2.0 * np.abs(PI / 2 * np.sinh(t)))
    unit_weight = PI / 2 * np.cosh(t) * 4.0 * q / ((1.0 + q) * (1.0 + q))
    phis, weights = [], []
    for lo, hi in ((0.0, theta), (theta, PI)):
        r = 0.5 * (hi - lo)
        dist = r * (2.0 * q / (1.0 + q))
        phi = np.where(t <= 0.0, lo + dist, hi - dist)
        keep = (dist >= 1e-20) & (phi > 0.0) & (phi < PI)
        phis.append(phi[keep])
        weights.append(r * unit_weight[keep])
    return np.concatenate(phis), np.concatenate(weights)


def reference_contour(p, n, theta, tol, scaled):
    """rodrigues_contour_eval as one public phase.contour_integrand call per
    level on freshly built nodes, with the same evaluation cap; (value, error
    estimate, last level, node count of each level run)."""
    f0 = phase.saddle_data(p, theta).f_saddle
    f2 = phase.f_second_at_saddle(p, theta)
    gauss_width = math.sqrt(2.0 * PI / (n * max(abs(f2), 1e-12)))
    scale = abs(phase.saddle_data(p, theta).g_saddle) * min(gauss_width, PI)
    floor_factor = 2.0 * (n + 1) * np.finfo(float).eps
    cond_scale = (1.0 + p.alpha) ** 2 / p.alpha
    total, l1_total, h, sizes = 0j, 0.0, 1.0, []
    for level in itertools.count():
        phi, weight = fresh_level_nodes(theta, level)
        if sum(sizes) + phi.size > 64_000:
            raise ConvergenceError("over 64000 integrand evaluations")
        values = phase.contour_integrand(p, theta, phi, n, f0)
        if not np.isfinite(values).all():
            raise ConvergenceError("non-finite integrand value")
        sizes.append(phi.size)
        contrib = weight * values
        rounding = np.abs(contrib) * (1.0 + cond_scale / (PI - phi))
        prev, total = total, 0.5 * total + h * complex(np.sum(contrib))
        l1_total = 0.5 * l1_total + h * float(np.sum(rounding))
        err_total = max(abs(total - prev), floor_factor * l1_total)
        if level and err_total <= tol * scale:
            break
        h *= 0.5
    value = (cmath.exp(1j * n * theta) * total / (1j * PI)).real
    err = err_total / PI
    if not scaled:
        rho_n = math.exp(n * f0.real)
        value, err = rho_n * value, rho_n * err
    return value, err, level, sizes


class TestContourRule:
    def test_alpha_one_reduces_to_classical(self):
        res = rodrigues_contour_eval(Params(1.0, 0.0, 0.0), 6, PI / 3, 1e-10)
        ref = jacobi_rep_grid(0.0, 0.0, 6, [math.cos(PI / 3)])[0][0]
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

    def test_check_degree_rejects_n_zero(self):
        # every degree must be an integer >= 1, whatever (alpha, a, b): n = 0
        # is an InputError, and n = 1 runs even at a = -0.99
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
                f0 = phase.saddle_data(p, theta).f_saddle
                peak = abs(phase.saddle_data(p, theta).g_saddle)
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
        # a tolerance below the rounding floor can never be met: the
        # evaluation cap turns the endless refinement into a typed error
        # within seconds, where a bare level difference of exactly 0 would
        # have reported convergence
        p = Params(2.0, 0.0, 0.0)
        start = time.perf_counter()
        with pytest.raises(ConvergenceError, match="integrand evaluations"):
            rodrigues_contour_eval(p, 3, 1.0, 1e-30)
        assert time.perf_counter() - start < 30.0
        # the same call at a reachable tolerance converges
        res = rodrigues_contour_eval(p, 3, 1.0, 1e-10)
        ref = eval_biortho(p, 3, phase.x_of_theta(p, 1.0)).value
        assert abs(res.value - ref) <= res.error_estimate

    @pytest.mark.parametrize("alpha, a, b, n, theta", [
        (2.0, 1.2, -0.5, 20, PI / 4),  # a criterion-3 point
        (2.0, 0.5, -0.3, 512, PI / 3),
    ])
    def test_evaluations_count_every_phase_call(self, monkeypatch,
                                                alpha, a, b, n, theta):
        # the reported count is the whole integrand cost: every phi node
        # that reaches the integrand, whether it arrives alone or in a batch
        nodes = [0]
        inner = quadrature.contour_integrand

        def counted(p, theta, phi, n, f0):
            nodes[0] += np.size(phi)
            return inner(p, theta, phi, n, f0)

        monkeypatch.setattr(quadrature, "contour_integrand", counted)
        res = rodrigues_contour_eval(Params(alpha, a, b), n, theta, 1e-9)
        assert res.evaluations == nodes[0]

    @pytest.mark.parametrize("n, evaluations", [
        (64, 426), (512, 852), (4096, 852),
    ])
    def test_evaluation_counts(self, n, evaluations):
        # the levels the tanh-sinh rule runs, pinned by its node count
        res = rodrigues_contour_eval(Params(2.0, 0.5, -0.3), n, PI / 3, 1e-9,
                                     scaled=True)
        assert res.evaluations == evaluations

    def test_cached_nodes_match_a_fresh_build(self):
        # the cached theta-free levels over |t| <= 3.5 give the nodes and
        # weights of a build from scratch over |t| <= 6.5, bit for bit:
        # levels 0-4 from one build, level by level, and each later level
        thetas = np.concatenate([np.linspace(0.0, PI, 203)[1:-1],
                                 [1e-9, 1e-3, PI - 1e-3, PI - 1e-9]])
        batches = [range(5)] + [range(level, level + 1) for level in range(5, 9)]
        for levels in batches:
            for theta in thetas:
                phi, weight, bounds = quadrature._contour_nodes(float(theta),
                                                                levels)
                fresh = [fresh_level_nodes(float(theta), level)
                         for level in levels]
                assert bounds == [0, *itertools.accumulate(
                    ref_phi.size for ref_phi, _ in fresh)], (theta, levels)
                ref_phi, ref_weight = map(np.concatenate, zip(*fresh))
                assert phi.tobytes() == ref_phi.tobytes(), (theta, levels)
                assert weight.tobytes() == ref_weight.tobytes(), (theta, levels)

    @pytest.mark.parametrize("bad", [complex(1e3, 0.0), complex(math.nan, 0.0)])
    def test_non_finite_integrand_raises(self, monkeypatch, bad):
        # numpy's exp returns inf/nan with a warning where cmath raised;
        # the oracle must turn that into a typed error, not a number.  The
        # bad value enters as f, before the exponential of the integrand.
        inner = phase._f_values

        def spoiled(alpha, fr, den):
            f = inner(alpha, fr, den)
            f.flat[f.size // 2] = bad
            return f

        monkeypatch.setattr(phase, "_f_values", spoiled)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConvergenceError, match="non-finite"):
                rodrigues_contour_eval(Params(2.0, 0.5, -0.3), 20, PI / 3, 1e-9)

    @pytest.mark.parametrize(
        "alpha, a, b, n, theta, scaled, value, error_estimate, evaluations",
        CONTOUR_PINS)
    def test_pinned_results(self, alpha, a, b, n, theta, scaled, value,
                            error_estimate, evaluations):
        # value, estimate and count to the last bit: a change that moves the
        # integrand's arithmetic or the panel set shows here
        res = rodrigues_contour_eval(Params(alpha, a, b), n, theta, 1e-9,
                                     scaled=scaled)
        assert (res.value.hex(), res.error_estimate.hex(), res.evaluations) \
            == (value, error_estimate, evaluations)

    def test_result_type(self):
        res = rodrigues_contour_eval(Params(1.0, 0.0, 0.0), 4, 1.0, 1e-9)
        assert isinstance(res, QuadResult)
        assert res.error_estimate >= 0.0


CRIT3_PARAMS = list(itertools.product((1.0, 2.0, 4.0), (-0.5, 0.0, 1.2),
                                      (-0.5, 0.0, 1.2)))
CRIT3_THETAS = (PI / 4, PI / 2, 3 * PI / 4)


def first_batch_cases(tol, count=10):
    """Seeded contour calls at tol: criterion-3 points, dyadic n up to 4096
    scaled, theta near 0 and pi, and b near -1."""
    rng = random.Random(f"first batch {tol}")

    cases = []
    for _ in range(count):
        cases.append((Params(*rng.choice(CRIT3_PARAMS)), rng.randint(1, 40),
                      rng.choice(CRIT3_THETAS), False))
        cases.append((Params(*rng.choice(CRIT3_PARAMS)), 2 ** rng.randint(6, 12),
                      rng.choice(CRIT3_THETAS), True))
        cases.append((Params(*rng.choice(CRIT3_PARAMS)), rng.randint(1, 40),
                      rng.choice((1e-3, 0.05, PI - 0.05, PI - 1e-3)),
                      rng.random() < 0.5))
        p = Params(rng.choice((1.0, 2.0, 4.0)), rng.choice((-0.5, 0.0, 1.2)),
                   rng.choice((-0.99, -0.999)))
        cases.append((p, rng.randint(1, 40), rng.uniform(0.1, 3.0),
                      rng.random() < 0.5))
    return cases


class TestFirstBatch:
    """Levels 0-4 share one integrand call; the sums, the floor and the stop
    test still run level by level, so every result is that of one call per
    level, bit for bit."""

    @pytest.mark.parametrize("tol", [1e-2, 1e-4, 1e-9])
    def test_matches_one_call_per_level(self, tol):
        stops = set()
        for p, n, theta, scaled in first_batch_cases(tol):
            try:
                value, err, level, sizes = reference_contour(p, n, theta, tol,
                                                             scaled)
            except ConvergenceError:
                with pytest.raises(ConvergenceError):
                    rodrigues_contour_eval(p, n, theta, tol, scaled=scaled)
                continue
            res = rodrigues_contour_eval(p, n, theta, tol, scaled=scaled)
            # every node of levels 0-4 reached the integrand, used or not
            prefix = [fresh_level_nodes(theta, lv)[0].size for lv in range(5)]
            evaluations = sum(sizes) + sum(prefix[len(sizes):])
            assert (res.value.hex(), res.error_estimate.hex(), res.evaluations) \
                == (value.hex(), err.hex(), evaluations), (p, n, theta, scaled)
            stops.add(level)
        # the sweep covers stops inside the batch and after it
        assert stops & {1, 2, 3} if tol > 1e-9 else max(stops) > 4

    def test_unused_prefix_level_never_raises(self, monkeypatch):
        # a non-finite value at the last node of level 4, which the first
        # call holds, is checked only if the loop reaches level 4
        p, n, theta = Params(2.0, 0.5, -0.3), 20, PI / 3
        clean = rodrigues_contour_eval(p, n, theta, 1e-2)
        assert reference_contour(p, n, theta, 1e-2, False)[2] < 4
        # in a batch, a non-finite value of the one-level call of level 6,
        # in its middle row (n = 4096), fails that degree alone; n = 20
        # stops at level 5, before that call
        ns = [20, 512, 4096, 1024]
        alone = [outcome(lambda: rodrigues_contour_eval(
            p, n_k, theta, 1e-9, scaled=True)) for n_k in ns]
        assert [one[0][2] for one in alone] == [426, 852, 852, 852]
        inner, calls = quadrature.contour_integrand, []

        def spoiled(p, theta, phi, n, f0):
            values = inner(p, theta, phi, n, f0)
            values[..., -1] = complex(math.nan, 0.0)
            return values

        monkeypatch.setattr(quadrature, "contour_integrand", spoiled)
        res = rodrigues_contour_eval(p, n, theta, 1e-2)
        assert (res.value.hex(), res.error_estimate.hex(), res.evaluations) \
            == (clean.value.hex(), clean.error_estimate.hex(), clean.evaluations)
        with pytest.raises(ConvergenceError, match="non-finite"):
            rodrigues_contour_eval(p, n, theta, 1e-9)

        def spoiled_row(p, theta, phi, n, f0):
            values = inner(p, theta, phi, n, f0)
            calls.append(list(n))
            if len(calls) == 3:
                values[len(n) // 2, 0] = complex(math.nan, 0.0)
            return values

        monkeypatch.setattr(quadrature, "contour_integrand", spoiled_row)
        outcomes = quadrature._contour_outcomes(p, ns, theta, 1e-9, True)
        assert calls[2] == [512, 4096, 1024]
        assert (type(outcomes[2]), str(outcomes[2])) == (
            ConvergenceError, "rodrigues_contour_eval: non-finite integrand value")
        assert [outcome(lambda: r) for k, r in enumerate(outcomes) if k != 2] \
            == [one for k, one in enumerate(alone) if k != 2]

        # a row that stops early in a call leaves each later row its own
        # first non-finite node: n = 20 stops at level 3, and n = 1024 runs
        # into the last node of level 4, spoiled in its row only
        def spoiled_last_row(p, theta, phi, n, f0):
            values = inner(p, theta, phi, n, f0)
            values[-1, -1] = complex(math.nan, 0.0)
            return values

        monkeypatch.setattr(quadrature, "contour_integrand", spoiled_last_row)
        first, last = quadrature._contour_outcomes(p, [20, 1024], theta, 1e-2,
                                                   False)
        assert outcome(lambda: first) == outcome(lambda: clean)
        assert (type(last), str(last)) == (
            ConvergenceError, "rodrigues_contour_eval: non-finite integrand value")


def outcome(call):
    """What a call returns as comparable data: its result's bits, or the
    type and message of the error it raises."""
    try:
        res = call()
    except (InputError, ScopeError, ConvergenceError) as exc:
        return type(exc), str(exc)
    return [(r.value.hex(), r.error_estimate.hex(), r.evaluations)
            for r in (res if isinstance(res, list) else [res])]


def singles(p, ns, theta, tol, scaled=False):
    """The first error of the single calls at ns, or all their results."""
    results = []
    for n in ns:
        one = outcome(lambda: rodrigues_contour_eval(p, n, theta, tol,
                                                     scaled=scaled))
        if isinstance(one, tuple):
            return one
        results += one
    return results


def batch(p, ns, theta, tol, scaled=False):
    return outcome(lambda: rodrigues_contour_degrees(p, ns, theta, tol,
                                                     scaled=scaled))


class TestDegreeBatch:
    """rodrigues_contour_degrees shares each integrand call among the
    degrees still running; every result is its single call's, bit for bit,
    and an error is the one the first failing single call raises."""

    def test_criterion_four_grid(self):
        ns = [2 ** k for k in range(3, 13)]
        for alpha, a, b, theta in itertools.product(
                (1.0, 2.0, 4.0), (0.0, 0.5), (0.0, -0.3),
                (PI / 4, 2 * PI / 5, PI / 2)):
            p = Params(alpha, a, b)
            assert batch(p, ns, theta, 1e-10, True) \
                == singles(p, ns, theta, 1e-10, True), (p, theta)

    @pytest.mark.parametrize("tol", [1e-4, 1e-9, 1e-12])
    def test_seeded_sweep(self, tol):
        # mixed, unsorted and repeated degrees, scaled or not, with stops
        # inside the first batch and after it, and at tol 1e-12 some caps
        rng = random.Random(f"degree batch {tol}")
        results = errors = 0
        for p, n, theta, scaled in first_batch_cases(tol, count=6):
            ns = [n] + rng.sample(range(1, 41), 3) + [2 ** rng.randint(6, 12), n]
            expected = singles(p, ns, theta, tol, scaled)
            assert batch(p, ns, theta, tol, scaled) == expected, (p, ns, theta)
            if isinstance(expected, list):
                results += len(expected)
            else:
                errors += 1
        assert results >= 60 and (errors > 0 or tol > 1e-12)

    def test_one_degree_and_none(self):
        p = Params(2.0, 0.5, -0.3)
        assert batch(p, [512], PI / 3, 1e-9, True) == singles(
            p, [512], PI / 3, 1e-9, True)
        assert rodrigues_contour_degrees(p, [], PI / 3) == []

    def test_cap_of_one_degree(self):
        # at tol 1e-12 the floor of n = 4096 stays above the tolerance: that
        # degree runs into the cap while the smaller ones converge
        p, ns = Params(2.0, 0.5, -0.3), [8, 64, 4096, 512]
        expected = singles(p, ns, PI / 3, 1e-12, True)
        assert expected[0] is ConvergenceError
        assert "integrand evaluations" in expected[1]
        assert batch(p, ns, PI / 3, 1e-12, True) == expected
        assert batch(p, [8, 64, 512], PI / 3, 1e-12, True) == singles(
            p, [8, 64, 512], PI / 3, 1e-12, True)

    def test_degree_errors_in_order(self):
        # an invalid degree raises only when no earlier degree fails first
        p = Params(0.5, 0.0, 0.0)
        for ns in ([8, 0, 16], [8, 2.5], [2048, 0], [0, 2048], [8, 2 ** 1100]):
            expected = singles(p, ns, 1.0, 1e-10)
            assert isinstance(expected, tuple)
            assert batch(p, ns, 1.0, 1e-10) == expected, ns
        assert batch(p, [2048, 0], 1.0, 1e-10)[0] is ScopeError
        assert batch(p, [0, 2048], 1.0, 1e-10)[0] is InputError

    def test_shared_errors(self):
        # the theta, tol, saddle-data and (1+alpha)^2 checks come after each
        # degree's own checks; every ScopeError of the single call
        for p, ns, theta, tol in [
                (Params(2.0, 0.0, 0.0), [8, 16], 0.0, 1e-10),
                (Params(2.0, 0.0, 0.0), [0, 16], 0.0, 1e-10),
                (Params(2.0, 0.0, 0.0), [8, 16], 1.0, 0.0),
                (Params(1e225, 0.0, 0.0), [3, 5], 1e-300, 1e-10),
                (Params(1e175, 0.0, 0.0), [3, 5], 3.141592653588793, 1e-10),
                (Params(0.5, -0.999, 40.0), [3, 5], 1e-300, 1e-10),
                (Params(0.5, 0.0, 0.0), [8, 512, 2048], 1.0, 1e-10)]:
            expected = singles(p, ns, theta, tol)
            assert isinstance(expected, tuple), (p, ns, theta, tol)
            assert batch(p, ns, theta, tol) == expected, (p, ns, theta, tol)

    def test_pole_hit(self, monkeypatch):
        # planted as in the phase tests: at alpha = 1, big = s(theta) and
        # z = 0 make den exactly 0 at the last node of each integrand call
        p, theta = Params(1.0, 0.0, 0.0), 1.0
        frame, root = phase._frame, phase.theta_major(1.0, theta)

        def at_pole(alpha, phi):
            fr = frame(alpha, phi)
            if phi.size > 1:
                fr.big[-1], fr.z[-1] = root * root, 0.0
            return fr

        monkeypatch.setattr(phase, "_frame", at_pole)
        expected = singles(p, [8, 64], theta, 1e-9)
        assert expected == (ConvergenceError,
                            "integrand pole hit (xi(phi) == t(theta))")
        assert batch(p, [8, 64], theta, 1e-9) == expected

    def test_non_finite_value_of_one_degree(self, monkeypatch):
        # f - f0 = 1/4 at one node: e^{n/4} overflows from n = 2840 on, so
        # only the largest degree sees a non-finite value
        inner = phase._f_values

        def spoiled(alpha, fr, den):
            f = inner(alpha, fr, den)
            f.flat[f.size // 2] = f0 + 0.25
            return f

        p, theta = Params(2.0, 0.5, -0.3), PI / 3
        f0 = phase.saddle_data(p, theta).f_saddle
        monkeypatch.setattr(phase, "_f_values", spoiled)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            expected = singles(p, [8, 4096, 64], theta, 1e-9, True)
            assert expected == (ConvergenceError, "rodrigues_contour_eval: "
                                "non-finite integrand value")
            assert batch(p, [8, 4096, 64], theta, 1e-9, True) == expected
            assert batch(p, [8, 64], theta, 1e-9, True) == singles(
                p, [8, 64], theta, 1e-9, True)

    def test_one_integrand_call_per_batch_of_levels(self, monkeypatch):
        # the degrees share every integrand call: the nodes evaluated are
        # those of the degree that runs longest
        calls = []
        inner = quadrature.contour_integrand

        def counted(p, theta, phi, n, f0):
            calls.append((np.size(phi), list(n)))
            return inner(p, theta, phi, n, f0)

        monkeypatch.setattr(quadrature, "contour_integrand", counted)
        results = rodrigues_contour_degrees(Params(2.0, 0.5, -0.3),
                                            [8, 512, 4096], PI / 3, 1e-9,
                                            scaled=True)
        assert sum(size for size, _ in calls) == max(r.evaluations
                                                     for r in results)
        assert calls[0][1] == [8, 512, 4096]


def assert_within_estimate(p, n, theta, tol):
    """The contour value agrees with the double sum within its estimate."""
    res = rodrigues_contour_eval(p, n, theta, tol)
    ref = eval_biortho(p, n, phase.x_of_theta(p, theta))
    assert ref.condition_estimate < 1e3
    assert abs(res.value - ref.value) <= res.error_estimate, \
        (res, ref.value)
    return res


# (alpha, n) at a = b = 0, evaluated 1e-7 from x = +-1
NEAR_END_CASES = [(2.0, 3), (2.0, 20), (1.5, 1), (1.0, 20), (4.0, 20)]


class TestContourAccuracy:
    """Inputs near x = +-1 and at b near -1, where the end behaviour of the
    integrand dominates, and the error estimate against the double sum."""

    @pytest.mark.parametrize("a, b, theta", [
        (0.5, -0.9, 1.2), (0.5, -0.95, 1.2), (0.5, -0.99, 1.2),
        (1.26, -0.99, 1.19),
    ])
    def test_b_near_minus_one(self, a, b, theta):
        # the end behaviour (pi - phi)^(n+b) is what the double-exponential
        # map absorbs, in a few hundred evaluations
        res = assert_within_estimate(Params(2.0, a, b), 1, theta, 1e-10)
        assert res.evaluations <= 500

    @pytest.mark.parametrize("alpha, n", NEAR_END_CASES)
    def test_near_x_plus_one(self, alpha, n):
        # theta ~ 1e-6..4e-4: the [0, theta] half is tiny
        p = Params(alpha, 0.0, 0.0)
        theta = phase.theta_of_x(p, 1.0 - 1e-7)
        assert_within_estimate(p, n, theta, 1e-10)

    @pytest.mark.parametrize("tol", [1e-9, 1e-10])
    @pytest.mark.parametrize("alpha, n", NEAR_END_CASES)
    def test_near_x_minus_one(self, alpha, n, tol):
        # the integrand loses digits as phi -> pi (cos y - big and den
        # cancel there); the rounding floor counts that loss, so the call
        # returns a value its estimate covers or raises, never a value
        # with an understated estimate
        p = Params(alpha, 0.0, 0.0)
        theta = phase.theta_of_x(p, -(1.0 - 1e-7))
        try:
            assert_within_estimate(p, n, theta, tol)
        except ConvergenceError:
            pass

    def test_estimate_covers_error(self):
        # a seeded sample of the criterion-3 grid: the reported estimate
        # bounds the distance to the double sum with a factor-2 margin
        rng = random.Random(3)
        points = []
        for alpha, a, b in itertools.product((1.0, 2.0, 4.0), (-0.5, 0.0, 1.2),
                                             (-0.5, 0.0, 1.2)):
            points += [(Params(alpha, a, b), n, theta)
                       for theta in (PI / 4, PI / 2, 3 * PI / 4)
                       for n in range(1, 41)]
        checked = 0
        for p, n, theta in rng.sample(points, 260):
            x = phase.x_of_theta(p, theta)
            ref = eval_biortho(p, n, x)
            if ref.condition_estimate > 1e9:
                continue
            res = rodrigues_contour_eval(p, n, theta, 1e-9)
            assert abs(res.value - ref.value) <= 2.0 * res.error_estimate, \
                (p, n, theta, res, ref.value)
            checked += 1
        assert checked >= 200

    def test_unscaled_overflow_is_scope_error(self):
        # rho > 1 at alpha < 1: rho^n leaves the double range, while the
        # scaled value is an ordinary number
        p = Params(0.5, 0.9, -0.99)
        theta = phase.theta_of_x(p, -0.5)
        scaled = rodrigues_contour_eval(p, 4096, theta, 1e-10, scaled=True)
        assert math.isfinite(scaled.value)
        with pytest.raises(ScopeError, match="scaled=True"):
            rodrigues_contour_eval(p, 4096, theta, 1e-10)
