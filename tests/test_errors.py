"""The failure contract: every failure is InputError, ScopeError or
ConvergenceError, and the CLI maps exactly those to exit codes 2, 3 and 4."""

import itertools
import math

import numpy as np
import pytest

from biortho import phase
from biortho.asymptotics import darboux_classical
from biortho.cli import main
from biortho.errors import ConvergenceError, InputError, ScopeError
from biortho.numerics import fd_derivative, find_root_bisect, fit_loglog_slope
from biortho.polys import Params
from biortho.quadrature import rodrigues_contour_eval


class TestLibraryTypes:
    @pytest.mark.parametrize("name, alpha, a, b, theta", [
        ("sine_ratio", 5e-324, 0.0, 0.0, 1.0),
        ("g_at_saddle", 1e3, -0.5, 1e3, 1e-300),
        ("f_second_at_saddle", 50.0, 3.0, -0.999, 1e-12),
        ("m_alpha", 1.0, 1e6, 0.0, 1e-300),
    ])
    def test_saddle_data_beyond_double_range(self, name, alpha, a, b, theta):
        first = alpha if name == "sine_ratio" else Params(alpha, a, b)
        with pytest.raises(ScopeError, match=f"{name} at theta={theta!r}"):
            getattr(phase, name)(first, theta)

    def test_saddle_guard_keeps_input_errors(self):
        with pytest.raises(InputError, match="theta must lie in"):
            phase.m_alpha(Params(2.0, 0.0, 0.0), 0.0)

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
