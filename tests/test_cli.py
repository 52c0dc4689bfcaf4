import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from biortho import cli
from biortho.cli import main
from biortho.errors import ConvergenceError, InputError, ScopeError

PI = math.pi
GOLDEN_VERIFY = Path(__file__).parent / "data" / "verify_all_seed7.jsonl"
GOLDEN_TABLE = Path(__file__).parent / "data" / "table_contour_a2.csv"
SRC = Path(__file__).resolve().parents[1] / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEval:
    def test_exact_trivial(self, capsys):
        code, out, _ = run(capsys, "eval", "--alpha", "1", "--a", "0", "--b", "0",
                           "--n", "0", "--x", "0.3", "--method", "exact")
        assert code == 0
        record = json.loads(out)
        assert record["value"] == 1.0
        assert record["method"] == "exact"
        assert record["condition_estimate"] == 1.0
        assert record["inputs"]["n"] == 0

    def test_exact_states_its_accuracy(self, capsys):
        # the double-double sum is far from correctly rounded here, and the
        # record says so next to the condition estimate
        code, out, _ = run(capsys, "eval", "--alpha", "2", "--a", "0.5",
                           "--b=-0.3", "--n", "64", "--x", "0.258",
                           "--method", "exact")
        assert code == 0
        record = json.loads(out)
        assert record["reliable"] is False
        assert record["error_bound"] == pytest.approx(2.2e-9, rel=0.01)
        bound = 3 * 64 * 66 * 2.0 ** -104 * record["condition_estimate"]
        assert record["error_bound"] == pytest.approx(bound, rel=1e-15)

    def test_scope_exit_code(self, capsys):
        code, _, err = run(capsys, "eval", "--alpha", "0.5", "--a", "0",
                           "--b", "0", "--n", "10", "--theta", "1.0",
                           "--method", "asymptotic")
        assert code == 3
        assert "alpha" in err

    def test_exact_beyond_double_range_exit_three(self, capsys):
        code, out, err = run(capsys, "eval", "--alpha", "2", "--a", "0.5",
                             "--b", "-0.3", "--n", "800", "--x", "0",
                             "--method", "exact")
        assert code == 3
        assert out == ""
        assert "contour" in err

    def test_exact_value_at_one_beyond_double_range_exit_three(self, capsys):
        # x = 1 reads P_n(1) = Poch((a+1)/alpha, n)/n! directly, which
        # overflows here; the same command at x = 0.5 is refused the same way
        for x in ("1", "0.5"):
            code, out, err = run(capsys, "eval", "--alpha", "0.001", "--a", "0",
                                 "--b", "0", "--n", "800", "--x", x,
                                 "--method", "exact")
            assert code == 3, x
            assert out == ""
            assert "exceed" in err

    def test_allow_unproven(self, capsys):
        code, out, _ = run(capsys, "eval", "--alpha", "0.5", "--a", "0",
                           "--b", "0", "--n", "10", "--theta", "1.0",
                           "--method", "asymptotic", "--allow-unproven")
        assert code == 0
        assert math.isfinite(json.loads(out)["value"])

    def test_contour_matches_exact(self, capsys):
        args = ["--alpha", "2", "--a", "0.5", "--b", "-0.3", "--n", "8",
                "--theta", "1.5707963"]
        code1, out1, _ = run(capsys, "eval", *args, "--method", "contour")
        code2, out2, _ = run(capsys, "eval", *args, "--method", "exact")
        assert code1 == code2 == 0
        v1 = json.loads(out1)["value"]
        v2 = json.loads(out2)["value"]
        assert v1 == pytest.approx(v2, rel=1e-8)

    def test_contour_reports_evaluations(self, capsys):
        code, out, _ = run(capsys, "eval", "--alpha", "2", "--a", "0.5",
                           "--b", "-0.3", "--n", "8", "--theta", "1.5707963",
                           "--method", "contour")
        assert code == 0
        record = json.loads(out)
        assert record["evaluations"] == 214
        assert record["error_estimate"] <= 1e-10 * abs(record["value"])

    def test_exact_accepts_theta(self, capsys):
        code, out, _ = run(capsys, "eval", "--alpha", "2", "--a", "0.5",
                           "--b", "-0.3", "--n", "8", "--theta", "1.5707963",
                           "--method", "exact")
        assert code == 0
        record = json.loads(out)
        assert "x" in record["inputs"]
        assert record["value"] == pytest.approx(0.0029405264014408304, rel=1e-9)

    def test_both_x_and_theta_rejected(self, capsys):
        code, _, err = run(capsys, "eval", "--alpha", "1", "--a", "0",
                           "--b", "0", "--n", "1", "--x", "0.1",
                           "--theta", "1.0", "--method", "exact")
        assert code == 2
        assert "exactly one" in err

    def test_neither_rejected(self, capsys):
        code, _, _ = run(capsys, "eval", "--alpha", "1", "--a", "0", "--b", "0",
                         "--n", "1", "--method", "exact")
        assert code == 2

    def test_jobs_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--alpha", "1", "--a", "0", "--b", "0", "--n", "1",
                  "--x", "0.1", "--method", "exact", "--jobs", "2"])
        assert exc.value.code == 2

    def test_contour_budget_exit_four(self, capsys, tmp_path):
        # a contour_tol below the rounding floor runs into the cap
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("contour_tol = 1e-30\n")
        code, out, err = run(capsys, "eval", "--alpha", "2", "--a", "0",
                             "--b", "0", "--n", "3", "--x", "0.5",
                             "--method", "contour", "--config", str(cfg))
        assert code == 4
        assert out == ""
        assert "integrand evaluations" in err

    def test_contour_beyond_double_range_exit_three(self, capsys):
        # rho^n overflows at alpha < 1; the scaled value would be finite
        code, out, err = run(capsys, "eval", "--alpha", "0.5", "--a", "0.9",
                             "--b", "-0.99", "--n", "4096", "--x", "-0.5",
                             "--method", "contour")
        assert code == 3
        assert out == ""
        assert "scaled=True" in err

    @pytest.mark.parametrize("exc, code", [
        (InputError("bad input"), 2),
        (OSError("no file"), 2),
        # a message that reads like a usage error still counts as numerical
        (ConvergenceError("x must be > 0, got 0; need a value"), 4),
        (ScopeError("beyond the double range"), 3),
    ])
    def test_exit_code_follows_exception_type(self, capsys, monkeypatch,
                                              exc, code):
        def fail(*args, **kwargs):
            raise exc
        monkeypatch.setattr(cli, "eval_biortho", fail)
        got, _, err = run(capsys, "eval", "--alpha", "1", "--a", "0", "--b",
                          "0", "--n", "1", "--x", "0.1", "--method", "exact")
        assert got == code
        assert str(exc) in err

    def test_bad_params_exit_two(self, capsys):
        code, _, _ = run(capsys, "eval", "--alpha", "-1", "--a", "0", "--b", "0",
                         "--n", "1", "--x", "0.1", "--method", "exact")
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ["eval", "--alpha", "inf", "--a", "0", "--b", "0", "--n", "3",
         "--theta", "1", "--method", "asymptotic"],
        ["eval", "--alpha", "2", "--a", "0", "--b", "inf", "--n", "3",
         "--theta", "1", "--method", "contour"],
        ["eval", "--alpha", "2", "--a=-inf", "--b", "0", "--n", "3",
         "--x", "0.5", "--method", "exact"],
        ["contour-dump", "--alpha", "inf", "--what", "contour", "--points", "3"],
        ["table", "--alpha", "inf", "--a", "0", "--b", "0", "--theta", "1",
         "--n-dyadic", "3..5"],
    ])
    def test_non_finite_params_exit_two(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "finite" in err


class TestVerify:
    def test_identities_green(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("identity_samples = 50\n")
        code, out, _ = run(capsys, "verify", "--suite", "identities",
                           "--seed", "7", "--config", str(cfg))
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        assert all(r["status"] == "pass" for r in records)
        for key in ("check_id", "params", "status", "witness", "tolerance"):
            assert key in records[0]

    def test_lemmas_include_counterexamples(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("scan_grid = 300\n")
        code, out, _ = run(capsys, "verify", "--suite", "lemmas",
                           "--seed", "7", "--config", str(cfg), "--jobs", "1")
        assert code == 0
        ids = [json.loads(line)["check_id"] for line in out.splitlines()]
        assert "claim_counterexample" in ids

    def test_unknown_suite_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "bogus"])
        assert exc.value.code == 2

    def test_unknown_config_key(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.txt"
        for line, message in ((b"not_a_key = 1", "unknown config key"),
                              (b"quad_tol = abc", "not a valid float"),
                              (b"scan_grid = 1.5", "not a valid int"),
                              (b"\xff\xfe quad_tol = 1", "not a text file")):
            cfg.write_bytes(line + b"\n")
            code, _, err = run(capsys, "verify", "--suite", "identities",
                               "--config", str(cfg))
            assert code == 2, line
            assert message in err

    def test_repeated_config_key(self, capsys, tmp_path):
        # each line is parsed as it is read: a bad value is reported even
        # when a good one for the same key follows, and a repeat is refused
        cfg = tmp_path / "cfg.txt"
        for text, message in (("quad_tol = abc\nquad_tol = 1e-9\n",
                               ":1: quad_tol = 'abc' is not a valid float"),
                              ("quad_tol = 1e-9\nquad_tol = 1e-9\n",
                               ":2: repeated config key 'quad_tol'")):
            cfg.write_text(text)
            code, out, err = run(capsys, "verify", "--suite", "identities",
                                 "--config", str(cfg))
            assert code == 2, text
            assert out == ""
            assert message in err

    def test_determinism(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("identity_samples = 30\nscan_grid = 200\n"
                       "biortho_n_max = 1\nreduction_n_max = 4\n")
        out1 = tmp_path / "r1.jsonl"
        out2 = tmp_path / "r2.jsonl"
        assert main(["verify", "--suite", "all", "--seed", "7",
                     "--config", str(cfg), "--output", str(out1)]) == 0
        assert main(["verify", "--suite", "all", "--seed", "7",
                     "--config", str(cfg), "--output", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_default_suite_matches_golden_bytes(self, tmp_path, jobs):
        """`verify --suite all --seed 7` prints the checked-in bytes.

        Some witnesses' last digits depend on the libm and on numpy's SIMD
        kernels; the file was written on x86-64 with AVX-512, glibc and
        numpy 2.4.  Regenerate it with `python -m biortho.cli verify --suite
        all --seed 7 --jobs 1 --output tests/data/verify_all_seed7.jsonl`
        only together with a note of every value that moved.
        """
        out = tmp_path / "verify.jsonl"
        assert main(["verify", "--suite", "all", "--seed", "7", "--jobs", jobs,
                     "--output", str(out)]) == 0
        assert out.read_bytes() == GOLDEN_VERIFY.read_bytes()

    def test_import_leaves_the_process_pool_out(self):
        # only `verify --suite all --jobs N` (N > 1) starts a process pool,
        # and it imports concurrent.futures itself
        probe = ("import sys, biortho.cli; "
                 "sys.exit('concurrent.futures' in sys.modules)")
        done = subprocess.run([sys.executable, "-c", probe],
                              env={**os.environ, "PYTHONPATH": str(SRC)},
                              timeout=60)
        assert done.returncode == 0

    def test_failing_check_exits_one(self, capsys, tmp_path):
        # an unreachable tolerance forces a fail record
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("reduction_tol = 1e-18\nreduction_n_max = 4\n")
        code, out, _ = run(capsys, "verify", "--suite", "reduction",
                           "--config", str(cfg))
        assert code == 1
        statuses = {json.loads(line)["status"] for line in out.splitlines()}
        assert "fail" in statuses


class TestTable:
    def test_header_and_slope(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("contour_tol = 1e-9\n")
        code, out, _ = run(capsys, "table", "--alpha", "1", "--a", "0",
                           "--b", "0", "--theta", str(PI / 2),
                           "--n-dyadic", "3..9", "--reference", "contour",
                           "--config", str(cfg))
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == ("n,reference,asymptotic,abs_err,rel_err,"
                            "envelope_ok,scaled_reference,scaled_asymptotic,"
                            "log10_rho_n")
        assert lines[-1].startswith("# slope = ")
        slope = float(lines[-1].split("=")[1])
        assert -1.3 <= slope <= -0.7
        assert len(lines) == 9  # header + 7 rows + slope

    def test_scaled_columns_keep_underflowed_rows(self, capsys):
        # from n = 2048 at theta = pi/3, rho^n underflows and the reference
        # and asymptotic columns read -0.0; the scaled columns keep the data
        code, out, _ = run(capsys, "table", "--alpha", "2", "--a", "0",
                           "--b", "0", "--theta", str(PI / 3),
                           "--n-dyadic", "3..12")
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:-1]]
        assert [row[0] for row in rows] == [str(2 ** k) for k in range(3, 13)]
        for row in rows:
            reference = float(row[1])
            scaled_ref, scaled_asym, log10_rho_n = map(float, row[6:])
            assert scaled_ref != 0.0 and scaled_asym != 0.0
            if int(row[0]) >= 512:  # the leading term is O(1/n) off
                assert scaled_ref == pytest.approx(scaled_asym, rel=1e-3)
            if int(row[0]) < 2048:
                assert reference == pytest.approx(
                    scaled_ref * 10.0 ** log10_rho_n, rel=1e-12)
        assert float(rows[-2][1]) == 0.0 and float(rows[-2][8]) < -330.0

    def test_contour_table_matches_golden_bytes(self, capsys):
        """The multi-degree contour pass end to end, n = 8..4096: the bytes
        of tests/data/table_contour_a2.csv.  Its last digits depend on the
        libm and on numpy's SIMD kernels, as for the verify golden file;
        regenerate it with `python -m biortho.cli table --alpha 2 --a 0.5
        --b -0.3 --theta 1.0471975511965976 --n-dyadic 3..12 --reference
        contour` only together with a note of every value that moved."""
        code, out, _ = run(capsys, "table", "--alpha", "2", "--a", "0.5",
                           "--b", "-0.3", "--theta", "1.0471975511965976",
                           "--n-dyadic", "3..12", "--reference", "contour")
        assert code == 0
        assert out.encode() == GOLDEN_TABLE.read_bytes()

    def test_alpha_two_slope(self, capsys):
        code, out, _ = run(capsys, "table", "--alpha", "2", "--a", "0",
                           "--b", "0", "--theta", str(PI / 3),
                           "--n-dyadic", "3..9")
        assert code == 0
        slope = float(out.strip().splitlines()[-1].split("=")[1])
        assert -1.3 <= slope <= -0.7

    def test_bad_dyadic_range(self, capsys):
        code, _, _ = run(capsys, "table", "--alpha", "1", "--a", "0",
                         "--b", "0", "--theta", "1.0", "--n-dyadic", "9..3")
        assert code == 2

    @pytest.mark.parametrize("dyadic", ["3..4", "9..10", "5..5"])
    def test_two_degrees_cannot_fit_a_slope(self, capsys, dyadic):
        code, _, err = run(capsys, "table", "--alpha", "1", "--a", "0",
                           "--b", "0", "--theta", "1.0", "--n-dyadic", dyadic)
        assert code == 2
        assert "K1 >= K0 + 2" in err


@pytest.mark.parametrize("argv", [
    ["eval", "--n", "5000", "--method", "asymptotic"],
    # rows n = 8 .. 1024 fit; the table is not printed either
    ["table", "--n-dyadic", "3..12", "--reference", "contour"],
], ids=["asymptotic", "table"])
def test_rho_n_beyond_double_range_exit_three(capsys, argv):
    # rho = 1.51 > 1 at alpha = 0.5, theta = 1: rho^n overflows from n ~ 1716
    code, out, err = run(capsys, *argv, "--alpha", "0.5", "--a", "0", "--b",
                         "0", "--theta", "1.0", "--allow-unproven")
    assert code == 3
    assert out == ""
    assert "double range" in err
    assert "Traceback" not in err and err.count("\n") == 1


def _record_field(name):
    return lambda out: [json.loads(line)[name] for line in out.splitlines()]


class TestSettings:
    """Each config override changes what its consumer reports."""

    @pytest.mark.parametrize("base, override, argv, read", [
        ("biortho_n_max = 1\n", "biortho_tol = 1e-5\n",
         ["verify", "--suite", "biortho"], _record_field("tolerance")),
        ("biortho_n_max = 1\n", "quad_tol = 1e-4\n",
         ["verify", "--suite", "biortho"], _record_field("witness")),
        ("", "bisect_tol = 1e-3\n",
         ["eval", "--alpha", "2", "--a", "0", "--b", "0", "--n", "4",
          "--x", "0.3", "--method", "contour"],
         lambda out: json.loads(out)["inputs"]["theta"]),
        ("", "envelope_threshold = 0.0\n",
         ["table", "--alpha", "2", "--a", "0", "--b", "0",
          "--theta", str(PI / 3), "--n-dyadic", "3..7"],
         lambda out: [line.split(",")[5]
                      for line in out.strip().splitlines()[1:-1]]),
    ], ids=["biortho_tol", "quad_tol", "bisect_tol", "envelope_threshold"])
    def test_override_reaches_its_consumer(self, capsys, tmp_path, base,
                                           override, argv, read):
        reports = []
        for text in (base, base + override):
            cfg = tmp_path / "cfg.txt"
            cfg.write_text(text)
            code, out, _ = run(capsys, *argv, "--config", str(cfg))
            assert code == 0
            reports.append(read(out))
        assert reports[0] != reports[1]


class TestContourDump:
    def test_unit_circle(self, capsys):
        code, out, _ = run(capsys, "contour-dump", "--alpha", "1",
                           "--what", "contour", "--points", "360")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "phi,re_xi,im_xi"
        for line in lines[1:]:
            _, re_xi, im_xi = (float(v) for v in line.split(","))
            assert re_xi ** 2 + im_xi ** 2 == pytest.approx(1.0, abs=1e-9)

    def test_partition_segments(self, capsys):
        code, out, _ = run(capsys, "contour-dump", "--alpha", "2",
                           "--what", "partition", "--theta", str(PI / 3),
                           "--n", "100", "--points", "500")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "phi,re_xi,im_xi,segment"
        segments = [line.rsplit(",", 1)[1] for line in lines[1:]]
        assert {"left", "center", "right"} <= set(segments)
        half_width = 100.0 ** (-0.5 + 1.0 / 12.0)
        for line in lines[1:]:
            phi = float(line.split(",", 1)[0])
            seg = line.rsplit(",", 1)[1]
            if seg == "center":
                assert PI / 3 - half_width <= phi <= PI / 3 + half_width

    def test_t_profile_unimodal(self, capsys):
        code, out, _ = run(capsys, "contour-dump", "--alpha", "2",
                           "--what", "T", "--theta", str(PI / 3),
                           "--points", "300")
        assert code == 0
        lines = out.strip().splitlines()
        values = [float(line.split(",")[1]) for line in lines[1:]]
        phis = [float(line.split(",")[0]) for line in lines[1:]]
        peak = phis[values.index(max(values))]
        assert peak == pytest.approx(PI / 3, abs=0.05)
        # single rise-fall pattern
        rises = [v2 > v1 for v1, v2 in zip(values, values[1:])]
        assert rises.count(False) > 0 and rises.count(True) > 0
        switch = rises.index(False)
        assert all(not r for r in rises[switch:])

    def test_partition_requires_args(self, capsys):
        code, _, _ = run(capsys, "contour-dump", "--alpha", "2",
                         "--what", "partition")
        assert code == 2
        for theta, n in (("1.0", "0"), ("nan", "5")):
            code, out, _ = run(capsys, "contour-dump", "--alpha", "2",
                               "--what", "partition", "--theta", theta,
                               "--n", n)
            assert code == 2 and out == ""

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "contour.csv"
        code, out, _ = run(capsys, "contour-dump", "--alpha", "1",
                           "--what", "contour", "--points", "16",
                           "--output", str(target))
        assert code == 0
        assert out == ""
        assert target.read_text().startswith("phi,re_xi,im_xi")
