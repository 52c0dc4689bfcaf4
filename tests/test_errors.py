"""The failure contract: every failure is InputError, ScopeError or
ConvergenceError, and the CLI maps exactly those to exit codes 2, 3 and 4;
no NaN, infinite or fractional argument escapes as a raw exception or a
number."""

import cmath
import itertools
import math
import warnings

import numpy as np
import pytest

from biortho import asymptotics, phase, polys, verify
from biortho.asymptotics import darboux_classical
from biortho.cli import main
from biortho.errors import ConvergenceError, InputError, ScopeError
from biortho.numerics import fd_derivative, find_root_bisect, fit_loglog_slope
from biortho.polys import Params
from biortho.quadrature import integrate_moments, rodrigues_contour_eval


class TestLibraryTypes:
    @pytest.mark.parametrize("name, alpha, a, b, theta", [
        ("sine_ratio", 5e-324, 0.0, 0.0, 1.0),
        ("saddle_data", 1e3, -0.5, 1e3, 1e-300),  # g leaves the range
        ("f_second_at_saddle", 50.0, 3.0, -0.999, 1e-12),
        ("saddle_data", 1.0, 1e6, 0.0, 1e-300),  # M leaves the range
    ])
    def test_saddle_data_beyond_double_range(self, name, alpha, a, b, theta):
        first = alpha if name == "sine_ratio" else Params(alpha, a, b)
        with pytest.raises(ScopeError, match=f"{name} at theta={theta!r}"):
            getattr(phase, name)(first, theta)

    def test_saddle_guard_keeps_input_errors(self):
        with pytest.raises(InputError, match="theta must lie in"):
            phase.saddle_data(Params(2.0, 0.0, 0.0), 0.0)

    def test_contour_underflow_is_scope(self):
        # every integrand value underflows; the call used to return 0 +- 0
        with pytest.raises(ScopeError, match="underflows"):
            rodrigues_contour_eval(Params(0.5, -0.999, 40.0), 3, 1e-300)

    def test_f_prime_denominator_is_convergence(self, monkeypatch):
        # planted as in the pole test: at alpha = 1, big = s(theta) and z = 0
        # make head - s(theta), a factor of the denominator, exactly 0
        theta, frame = 1.0, phase._frame
        root = phase.theta_major(1.0, theta)

        def at_zero(alpha, phi):
            fr = frame(alpha, phi)
            fr.big[-1], fr.z[-1] = root * root, 0.0
            return fr

        monkeypatch.setattr(phase, "_frame", at_zero)
        with pytest.raises(ConvergenceError, match="denominator vanished"):
            phase.f_prime(Params(1.0, 0.0, 0.0), theta, np.array([0.4, 1.3]))

    @pytest.mark.parametrize("call", [
        lambda: find_root_bisect(math.cos, 2.0, 1.0, 1e-12),
        lambda: find_root_bisect(math.cos, 0.0, 1.0, 1e-12),
        lambda: fd_derivative(math.sin, 0.5, 4),
        lambda: fit_loglog_slope([(8, 1.0), (16, 0.5)]),
        lambda: fit_loglog_slope([(8, 1.0), (8, 0.5), (16, 0.2)]),
        lambda: fit_loglog_slope([(8, 1.0), (16, 0.0), (32, 0.2)]),
        lambda: darboux_classical(math.inf, 0.0, 4, 1.0),
        lambda: darboux_classical(0.0, math.inf, 4, 1.0),
    ])
    def test_argument_checks_are_input_errors(self, call):
        with pytest.raises(InputError):
            call()


REPRODUCERS = [
    ["eval", "--alpha", "2", "--a", "0", "--b", "0", "--n", "3",
     "--theta", "1e-300", "--method", "contour"],
    ["eval", "--alpha", "0.001", "--a", "0", "--b", "0", "--n", "1",
     "--theta", "1e-300", "--method", "asymptotic", "--allow-unproven"],
    ["eval", "--alpha", "50", "--a", "3", "--b=-0.999", "--n", "1",
     "--theta", "3.141592653589", "--method", "contour"],
    ["table", "--alpha", "50", "--a", "3", "--b=-0.999", "--theta", "1e-6",
     "--n-dyadic", "3..6", "--reference", "contour"],
    ["eval", "--alpha", "0.5", "--a=-0.999", "--b", "40", "--n", "3",
     "--theta", "1e-300", "--method", "contour"],
]

# saddle data beyond the double range near theta = 0 and pi and at large
# alpha: every point of this product once ended in a traceback
GRID = [["eval", "--alpha", alpha, f"--a={a}", f"--b={b}", "--n", n,
         "--theta", theta, "--method", method, "--allow-unproven"]
        for (alpha, a, b), method, theta, n in itertools.product(
            [("1000", "-0.5", "1000"), ("50", "3", "-0.999")],
            ["contour", "asymptotic"],
            ["1e-300", "1e-6", "3.141592653589"],
            ["1", "40"])]


@pytest.mark.parametrize("argv", REPRODUCERS + GRID,
                         ids=lambda argv: " ".join(argv))
def test_cli_failure_is_one_typed_line(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.startswith("biortho: ")
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n")
    assert "Traceback" not in captured.err


# ---------------------------------------------------------------------------
# the argument layer: one rule per argument, at every entry point
# ---------------------------------------------------------------------------

P = Params(2.0, 0.5, -0.3)
HUGE = 2 ** 1100  # an integer beyond the double range
BAD_DEGREES = [math.nan, math.inf, -math.inf, 2.5, 0.5, -1, HUGE]
DEGREE_CALLS = {
    "eval_biortho": lambda n: polys.eval_biortho(P, n, 0.3),
    "eval_biortho_grid": lambda n: polys.eval_biortho_grid(P, n, [0.3]),
    "jacobi_rep_grid": lambda n: polys.jacobi_rep_grid(0.5, -0.3, n, [0.3]),
    "jacobi_recurrence_grid":
        lambda n: polys.jacobi_recurrence_grid(0.5, -0.3, n, [0.3]),
    "normalization_at_one": lambda n: polys.normalization_at_one(P, n),
    "chu_vandermonde_sides": lambda n: polys.chu_vandermonde_sides(n, 0, 0.5),
    "rodrigues_contour_eval": lambda n: rodrigues_contour_eval(P, n, 1.0),
    "darboux_biortho": lambda n: asymptotics.darboux_biortho(P, n, 1.0),
    "darboux_classical": lambda n: darboux_classical(0.5, -0.3, n, 1.0),
}
N_LIST_CALLS = {
    "convergence_table":
        lambda n: asymptotics.convergence_table(P, 1.0, [n, 16, 32]),
    "envelope_bound": lambda n: asymptotics.envelope_bound(P, 1.0, [n]),
}
ANGLE_CALLS = {
    "rodrigues_contour_eval": lambda t: rodrigues_contour_eval(P, 8, t),
    "darboux_biortho": lambda t: asymptotics.darboux_biortho(P, 8, t),
    "darboux_classical": lambda t: darboux_classical(0.5, -0.3, 8, t),
    "convergence_table": lambda t: asymptotics.convergence_table(
        P, t, [8, 16, 32]),
    "x_of_theta": lambda t: phase.x_of_theta(P, t),
    "sine_ratio": lambda t: phase.sine_ratio(2.0, t),
    "saddle_data": lambda t: phase.saddle_data(P, t),
}
TOL_CALLS = {
    "rodrigues_contour_eval": lambda tol: rodrigues_contour_eval(P, 8, 1.0, tol),
    "integrate_moments": lambda tol: integrate_moments(
        np.cos, [(0.0, 0.0)], tol),
    "theta_of_x": lambda tol: phase.theta_of_x(P, 0.3, tol),
    "phi_star": lambda tol: phase.phi_star(2.0, tol),
}
X_CALLS = {
    "eval_biortho": lambda x: polys.eval_biortho(P, 8, x),
    "eval_biortho_grid": lambda x: polys.eval_biortho_grid(P, 8, [0.2, x]),
    "jacobi_rep_grid": lambda x: polys.jacobi_rep_grid(0.5, -0.3, 8, [x]),
    "theta_of_x": lambda x: phase.theta_of_x(P, x),
}
AB_CALLS = {
    "jacobi_rep_grid": lambda a, b: polys.jacobi_rep_grid(a, b, 3, [0.3]),
    "jacobi_recurrence_grid":
        lambda a, b: polys.jacobi_recurrence_grid(a, b, 3, [0.3]),
    "darboux_classical": lambda a, b: darboux_classical(a, b, 3, 1.0),
}


def _named(calls, values):
    return [pytest.param(calls[name], value, id=f"{name}-{value!r:.12}")
            for name, value in itertools.product(calls, values)]


LIBRARY_GRID = (
    _named(DEGREE_CALLS, BAD_DEGREES)
    + _named(N_LIST_CALLS, BAD_DEGREES + [0])
    + _named(ANGLE_CALLS, [math.nan, math.inf, -math.inf, -1.0, 4.0])
    + _named(TOL_CALLS, [math.nan, -1.0, 0.0, math.inf])
    + _named(X_CALLS, [math.nan, math.inf, 1.5])
    + [pytest.param(lambda v, call=call, which=which:
                    call(*((v, 0.0) if which == "a" else (0.0, v))), v,
                    id=f"{name}-{which}={v!r}")
       for name, call in AB_CALLS.items() for which in "ab"
       for v in (math.nan, math.inf, -1.0)]
)


class TestArgumentLayer:
    @pytest.mark.parametrize("call, value", LIBRARY_GRID)
    def test_invalid_argument_is_typed(self, call, value):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises((InputError, ScopeError)):
                call(value)

    @pytest.mark.parametrize("name", ["rodrigues_contour_eval",
                                      "darboux_biortho", "darboux_classical"])
    def test_degree_beyond_double_range_is_scope(self, name):
        with pytest.raises(ScopeError, match="exceeds the double range"):
            DEGREE_CALLS[name](HUGE)

    @pytest.mark.parametrize("call", [
        # an infinite exponent ran 12 levels of NaN into a ConvergenceError
        lambda: integrate_moments(np.cos, [(math.inf, 0.0)], 1e-10),
        # n_max = -1 checked no degree and passed
        lambda: verify.reduction_check(0.0, 0.0, -1),
        lambda: verify.reduction_check(0.0, 0.0, 2.5),
        lambda: verify.biorthogonality_check(P, math.nan),
    ])
    def test_shared_rules_at_the_other_entry_points(self, call):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InputError):
                call()

    def test_fractional_degree_is_not_truncated(self):
        # envelope_bound used to take n = 2.5 as 2
        with pytest.raises(InputError, match="degree must be an integer"):
            asymptotics.envelope_bound(P, 1.0, [2.5])

    def test_nan_bisection_tolerance(self):
        # it used to return the bracket midpoint pi/2 as the root
        with pytest.raises(InputError, match="tol must be finite and > 0"):
            phase.theta_of_x(P, 0.3, math.nan)

    def test_messages_keep_their_wording(self):
        for call, match in (
                (lambda: phase.sine_ratio(2.0, math.nan), "theta must lie in"),
                (lambda: phase.f_prime(P, 1.0, [0.5, 4.0]), "phi must lie in"),
                (lambda: polys.eval_biortho(P, 3, 1.5),
                 "eval_biortho requires \\|x\\| <= 1")):
            with pytest.raises(InputError, match=match):
                call()

    def test_integer_valued_floats_still_work(self):
        assert polys.eval_biortho(P, 8.0, 0.3) == polys.eval_biortho(P, 8, 0.3)
        assert rodrigues_contour_eval(P, np.int64(8), 1.0) == \
            rodrigues_contour_eval(P, 8, 1.0)


def test_nan_bisect_tol_in_config_exits_two(capsys, tmp_path):
    # the contour used to run at theta = pi/2 in place of theta(0.3)
    cfg = tmp_path / "nan.cfg"
    cfg.write_text("bisect_tol = nan\n")
    code = main(["eval", "--alpha", "2", "--a", "0.5", "--b=-0.3", "--n", "8",
                 "--x", "0.3", "--method", "contour", "--config", str(cfg)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("biortho: ") and captured.err.count("\n") == 1


# contour-dump at alpha = 10^k, k = -300, -275, ..., 300, and at the ends of
# the double range: each run below printed NaN/inf rows with exit 0 or ended
# in an OverflowError traceback
DUMP_ALPHAS = [f"1e{k}" for k in range(-300, 301, 25)] + ["5e-324", "1.7e308"]


def _dump_beyond_range(alpha: str, what: str) -> bool:
    value = float(alpha)
    if value <= 1e-175:
        return True
    if what == "contour":  # xi' overflows at the top of the range
        return value == 1.7e308
    return value >= 1e25


@pytest.mark.parametrize("alpha, what", [
    (alpha, what) for alpha in DUMP_ALPHAS
    for what in ("contour", "T", "partition")])
def test_contour_dump_at_extreme_alpha(capsys, alpha, what):
    code = main(["contour-dump", "--alpha", alpha, "--what", what,
                 "--theta", "1.0", "--n", "8", "--points", "50"])
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    if _dump_beyond_range(alpha, what):
        assert code == 3
        assert captured.out == ""
        assert captured.err.startswith("biortho: ")
        assert "double range" in captured.err
    else:
        assert code == 0
        assert "nan" not in captured.out and "inf" not in captured.out


def test_exact_reference_that_is_not_reliable_exits_three(capsys):
    # it printed rows with error bounds up to 2.7e6 and slope +39.4
    code = main(["table", "--alpha", "2", "--a", "0.5", "--b=-0.3",
                 "--theta", "1.0471975511965976", "--n-dyadic", "3..8",
                 "--reference", "exact"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "not reliable" in captured.err


def test_error_bound_is_infinite_beyond_the_model():
    result = polys.eval_biortho(P, 300, 0.3)
    assert result.error_bound == math.inf and not result.reliable
    assert polys.eval_biortho(P, 20, 0.3).error_bound < 0.5


# ---------------------------------------------------------------------------
# the range guard: values beyond the double range are ScopeError, never a raw
# exception or a numpy warning
# ---------------------------------------------------------------------------

EXTREME_ALPHAS = [float(f"1e{k}") for k in range(-300, 301, 25)] + [5e-324,
                                                                    1.7e308]
RANGE_COMMANDS = [
    ["eval", "--a", "0", "--b", "0", "--n", "3", "--method", "asymptotic",
     "--allow-unproven"],
    ["eval", "--a", "0", "--b", "0", "--n", "3", "--method", "contour"],
    ["table", "--a", "0", "--b", "0", "--n-dyadic", "3..5", "--reference",
     "contour", "--allow-unproven"],
]
# each ended in a traceback: log(rho) at rho = 0, and (1+alpha)^2 in the
# contour's rounding floor
RANGE_TRACEBACKS = [
    ("1e+225", "1e-300", 1),
    ("1e+175", repr(math.pi - 1e-12), 1),
]


def test_cli_range_grid_ends_in_exit_codes(capsys):
    # 405 invocations: 30 ended in a traceback, 20 printed a RuntimeWarning
    codes = {}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for alpha, theta in itertools.product(
                EXTREME_ALPHAS,
                ["1e-300", "1e-100", "1e-12", "1.0", repr(math.pi - 1e-12)]):
            for i, command in enumerate(RANGE_COMMANDS):
                code = main(command + ["--alpha", repr(alpha), "--theta",
                                       theta])
                codes[repr(alpha), theta, i] = code
                captured = capsys.readouterr()
                assert code in (0, 3, 4), (alpha, theta, command)
                assert "Traceback" not in captured.err
    for key in RANGE_TRACEBACKS:
        assert codes[key] == 3, key


SADDLE_ALPHAS = EXTREME_ALPHAS + [0.3, 0.7, 1.0, 2.0, 4.0, 1e3, 1e6]
SADDLE_THETAS = [1e-300, 1e-100, 1e-12, 1e-3, 0.5, 1.5, 3.0, math.pi - 1e-3,
                 math.pi - 1e-12, math.nextafter(math.pi, 0.0)]


def test_saddle_grid_ends_in_a_value_or_a_typed_error():
    for alpha, theta in itertools.product(SADDLE_ALPHAS, SADDLE_THETAS):
        for call in (lambda: phase.saddle_data(Params(alpha, 0.0, 0.0), theta),
                     lambda: verify.saddle_and_concavity_check(
                         ([alpha], [theta]))):
            try:
                call()
            except (ScopeError, ConvergenceError):
                pass


@pytest.mark.parametrize("alpha, theta", [
    (1e225, 1e-300),      # rho underflows to 0: log(rho) was a ValueError
    (1e-300, 1.0),        # (1+1/alpha)^2 overflows in xi'
    (1.7e308, 1e-300),
])
def test_saddle_points_beyond_the_range(alpha, theta):
    with pytest.raises(ScopeError, match=f"saddle_data at theta={theta!r}"):
        phase.saddle_data(Params(alpha, 0.0, 0.0), theta)


def test_saddle_check_keeps_its_record_where_g_leaves_the_range():
    # f'' alone is in range at (alpha, theta) = (1e-50, 0.5); g and M are not
    p = Params(1e-50, 0.0, 0.0)
    with pytest.raises(ScopeError):
        phase.saddle_data(p, 0.5)
    assert cmath.isfinite(phase.f_second_at_saddle(p, 0.5))
    assert len(verify.saddle_and_concavity_check(([1e-50], [0.5]))) == 1


@pytest.mark.parametrize("alpha", [
    1e225,  # rho rounds below 0: log(rho) was a ValueError
    1e300,  # the exact reference's rho^-n overflowed: an OverflowError
])
def test_envelope_bound_beyond_the_range(alpha):
    with pytest.raises(ScopeError):
        asymptotics.envelope_bound(Params(alpha, 0.0, 0.0), 1e-300, [8])


def test_d_of_phi_grid_is_a_value_or_scope():
    # 14 of these points overflowed with a RuntimeWarning into inf or nan;
    # every finite value is the unguarded kernel's, and phi_star, which
    # bisects d, raised InputError after three warnings at alpha = 1e300
    beyond = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for alpha, phi in itertools.product(
                EXTREME_ALPHAS, [1e-300, 1e-12, 1.0, 3.0, math.pi - 1e-12]):
            try:
                d = phase.d_of_phi(alpha, phi)
            except ScopeError as exc:
                assert "d_of_phi at alpha=" in str(exc)
                beyond += 1
                continue
            with np.errstate(all="ignore"):
                assert d == phase._d_of_phi(alpha, np.array([phi])).item()
        for alpha in EXTREME_ALPHAS:
            try:
                phase.phi_star(alpha)
            except (InputError, ScopeError) as exc:
                assert alpha < 1e300 or isinstance(exc, ScopeError)
    assert beyond >= 14


def test_sine_ratio_below_zero_is_scope():
    # alpha y rounds past pi, so sin(alpha y) and rho turn negative
    with pytest.raises(ScopeError, match="sine_ratio at theta=1e-300"):
        phase.sine_ratio(1e225, 1e-300)


def test_phi_star_is_a_root_or_scope():
    # at large alpha the bracket can miss the root; that was an InputError
    # (the tolerance's error type) at 1e25, 1e100, 1e225 and 1e275
    for k in range(-300, 301, 25):
        try:
            root = phase.phi_star(10.0 ** k)
        except ScopeError:
            continue
        assert 0.0 < root < math.pi, k


RANGE_CALLS = {
    "theta_major_prime": lambda al, t: phase.theta_major_prime(al, t),
    "f_prime": lambda al, t: phase.f_prime(Params(al, 0.5, -0.3), 1.0, t),
    "structure_functions": lambda al, t: phase.structure_functions(al, t),
    "contour_integrand": lambda al, t: phase.contour_integrand(
        Params(al, 0.5, -0.3), 1.0, t, 3, 0j),
    "f_phase": lambda al, t: phase.f_phase(Params(al, 0.5, -0.3), 1.0, t),
    "g_amplitude": lambda al, t: phase.g_amplitude(Params(al, 0.5, -0.3), t, t),
}


@pytest.mark.parametrize("name", RANGE_CALLS)
def test_overflow_at_extreme_alpha_is_scope(name):
    # (1+alpha)^2 in theta_major' overflowed as a raw OverflowError, and the
    # theta factors of g divided by zero
    beyond = 0
    for alpha, t in itertools.product(EXTREME_ALPHAS + [0.3, 2.0],
                                      [1e-300, 1e-12, 1.0, 3.0,
                                       math.pi - 1e-12]):
        try:
            RANGE_CALLS[name](alpha, t)
        except ScopeError as exc:
            assert f"{name} at alpha=" in str(exc)
            beyond += 1
        except ConvergenceError:
            pass
    assert beyond >= 29


@pytest.mark.parametrize("call", [
    pytest.param(lambda: verify.biorthogonality_check(P, 2, math.nan),
                 id="biortho_tol-nan"),
    pytest.param(lambda: verify.biorthogonality_check(P, 2, 0.0),
                 id="biortho_tol-0"),
    pytest.param(lambda: verify.reduction_check(0.0, 0.0, 4, math.nan),
                 id="reduction_tol-nan"),
    pytest.param(lambda: verify.identity_suite(math.nan), id="samples-nan"),
    pytest.param(lambda: verify.identity_suite(2.5), id="samples-2.5"),
    pytest.param(lambda: asymptotics.convergence_table(
        P, 1.0, [8, 16, 32], envelope_threshold=math.nan),
        id="envelope_threshold-nan"),
    pytest.param(lambda: asymptotics.convergence_table(
        P, 1.0, [8, 16, 32], envelope_threshold=1.5),
        id="envelope_threshold-1.5"),
])
def test_verify_thresholds_are_checked(call):
    # NaN thresholds gave fail records, a ConvergenceError or a TypeError
    with pytest.raises(InputError):
        call()


def test_nan_biortho_tol_in_config_exits_two(capsys, tmp_path):
    cfg = tmp_path / "nan.cfg"
    cfg.write_text("biortho_tol = nan\n")
    code = main(["verify", "--suite", "biortho", "--config", str(cfg),
                 "--jobs", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("biortho: ") and captured.err.count("\n") == 1
