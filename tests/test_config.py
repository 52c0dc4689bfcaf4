"""config.DEFAULTS is the library's keyword default: a call that leaves a
setting out returns, bit for bit, the call that passes the DEFAULTS value."""

import math

import pytest

from biortho.asymptotics import convergence_table
from biortho.config import DEFAULTS
from biortho.errors import InputError
from biortho.polys import Params
from biortho.quadrature import rodrigues_contour_eval
from biortho.verify import reduction_check, run_suite

PI = math.pi


def test_contour_tol_default():
    # here tol 1e-9 stops a level earlier, with another value and estimate
    p = Params(1.5, 0.0, 0.0)
    assert repr(rodrigues_contour_eval(p, 3, 2.5)) == \
        repr(rodrigues_contour_eval(p, 3, 2.5, DEFAULTS["contour_tol"]))


def test_reduction_defaults():
    assert repr(reduction_check(0.5, -0.3).as_dict()) == repr(reduction_check(
        0.5, -0.3, DEFAULTS["reduction_n_max"],
        DEFAULTS["reduction_tol"]).as_dict())


def test_convergence_table_defaults():
    p = Params(2.0, 0.0, 0.0)
    n_list = [8, 16, 32, 64, 128]
    assert repr(convergence_table(p, PI / 3, n_list, "contour")) == repr(
        convergence_table(p, PI / 3, n_list, "contour",
                          contour_tol=DEFAULTS["contour_tol"],
                          envelope_threshold=DEFAULTS["envelope_threshold"]))


def test_run_suite_rejects_unknown_settings():
    with pytest.raises(InputError, match="scan_grids"):
        run_suite("reduction", scan_grids=10)
