"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Budgets are asserted with the stated margins.
"""

import itertools
import json
import math
import statistics
import time

import numpy as np
import pytest

from biortho import phase
from biortho.asymptotics import convergence_table, envelope_bound
from biortho.cli import main as cli_main
from biortho.numerics import fit_loglog_slope
from biortho.polys import (
    Params,
    chu_vandermonde_sides,
    eval_biortho_degrees,
    eval_biortho_grid,
    jacobi_recurrence_grid,
)
from biortho.quadrature import rodrigues_contour_degrees
from biortho.verify import (
    biorthogonality_check,
    claim_check,
    counterexample_scan,
    identity_suite,
    monotonicity_scan,
    saddle_and_concavity_check,
)

PI = math.pi


def _report(name, ok, detail, elapsed, budget):
    status = "PASS" if ok else "FAIL"
    print(f"{status} {name}: {detail} [{elapsed:.1f}s / budget {budget:.0f}s]")
    assert ok, f"{name}: {detail}"
    assert elapsed < budget, f"{name} exceeded budget: {elapsed:.1f}s"


def test_criterion_01_alpha_one_reduction():
    start = time.monotonic()
    xs = np.linspace(-1.0, 1.0, 41)
    worst = 0.0
    for a, b in itertools.product((-0.5, 0.0, 0.7, 2.3), repeat=2):
        p = Params(1.0, a, b)
        for n in range(0, 31):
            vals, _ = eval_biortho_grid(p, n, xs)
            ref = jacobi_recurrence_grid(a, b, n, xs)
            rel = np.abs(vals - ref) / np.maximum(1.0, np.abs(ref))
            worst = max(worst, float(rel.max()))
    elapsed = time.monotonic() - start
    _report("criterion 1 (alpha=1 reduction)", worst <= 1e-9,
            f"max rel diff {worst:.3e} <= 1e-9", elapsed, 10.0)


def test_criterion_02_biorthogonality():
    start = time.monotonic()
    worst = 0.0
    for alpha, a, b in itertools.product((1.5, 2.0, 3.0),
                                         (-0.5, 0.0, 1.2), (-0.5, 0.0, 1.2)):
        p = Params(alpha, a, b)
        for n in range(1, 9):
            rec = biorthogonality_check(p, n, tol=1e-7, quad_tol=1e-10)
            assert rec.status == "pass", (alpha, a, b, n, rec.witness)
            worst = max(worst, rec.witness["worst_ratio"])
    elapsed = time.monotonic() - start
    _report("criterion 2 (biorthogonality)", worst <= 1e-7,
            f"max |I_j|/|I_n| = {worst:.3e} <= 1e-7", elapsed, 60.0)


def test_criterion_03_rodrigues_oracle_agreement():
    start = time.monotonic()
    worst = 0.0
    checked = 0
    for alpha, a, b in itertools.product((1.0, 2.0, 4.0),
                                         (-0.5, 0.0, 1.2), (-0.5, 0.0, 1.2)):
        p = Params(alpha, a, b)
        for theta in (PI / 4, PI / 2, 3 * PI / 4):
            # one pass per (p, theta) for each evaluator, rows n = 1..40
            vals, conds = eval_biortho_degrees(p, range(1, 41),
                                               [phase.x_of_theta(p, theta)])
            rows = [k for k in range(40) if not conds[k, 0] > 1e9]
            results = rodrigues_contour_degrees(p, [k + 1 for k in rows],
                                                theta, 1e-9)
            for k, res in zip(rows, results):
                worst = max(worst, abs(res.value - vals[k, 0]) / abs(vals[k, 0]))
            checked += len(rows)
    elapsed = time.monotonic() - start
    _report("criterion 3 (contour vs double sum)", worst <= 1e-7,
            f"max rel diff {worst:.3e} <= 1e-7 over {checked} points",
            elapsed, 120.0)


def test_criterion_04_darboux_rate():
    start = time.monotonic()
    slopes = []
    for alpha, a, b, theta in itertools.product(
            (1.0, 2.0, 4.0), (0.0, 0.5), (0.0, -0.3),
            (PI / 4, 2 * PI / 5, PI / 2)):
        report = convergence_table(Params(alpha, a, b), theta,
                                   [2 ** k for k in range(3, 11)], "contour")
        slopes.append(report.slope)
        assert -1.3 <= report.slope <= -0.7, (alpha, a, b, theta, report.slope)
    elapsed = time.monotonic() - start
    _report("criterion 4 (Darboux-type O(1/n) rate)", True,
            f"36 slopes in [{min(slopes):.3f}, {max(slopes):.3f}] "
            "within [-1.3, -0.7]", elapsed, 600.0)


def test_criterion_05_classical_rate():
    start = time.monotonic()
    rows = []
    from biortho.asymptotics import darboux_classical
    for k in range(3, 11):
        n = 2 ** k
        err = abs(jacobi_recurrence_grid(0.0, 0.0, n, [math.cos(PI / 3)])[0]
                  - darboux_classical(0.0, 0.0, n, PI / 3))
        rows.append((n, err))
    slope = fit_loglog_slope(rows)
    elapsed = time.monotonic() - start
    _report("criterion 5 (classical O(n^-3/2) remainder)",
            -1.8 <= slope <= -1.2, f"slope {slope:.3f} in [-1.8, -1.2]",
            elapsed, 60.0)


def test_criterion_06_lemma_suite():
    start = time.monotonic()
    records = saddle_and_concavity_check(
        ((1.0, 1.5, 2.0, 4.0), (PI / 6, PI / 3, PI / 2, 2 * PI / 3)),
        tol=1e-10, scan_grid=2000)
    assert all(r.status == "pass" for r in records)
    for alpha, theta in itertools.product((1.0, 1.5, 2.0, 4.0),
                                          (PI / 6, PI / 3, PI / 2, 2 * PI / 3)):
        rec = monotonicity_scan(alpha, theta, 2000)
        assert rec.status == "pass", (alpha, theta, rec.witness)
    p = Params(1.5, 0.0, 0.0)
    worst_t = 0.0
    for i in range(100):
        theta = (i + 1) * PI / 101
        for j in range(100):
            phi = (j + 1) * PI / 101
            direct = phase.t_modulus(p, theta, phi)
            from_f = math.exp(2.0 * phase.f_phase(p, theta, phi).real)
            worst_t = max(worst_t, abs(direct - from_f) / max(1.0, direct))
    elapsed = time.monotonic() - start
    _report("criterion 6 (saddle/concavity/monotonicity lemmas)",
            worst_t <= 1e-11,
            f"16 saddle+descent scans green; |T - |e^f|^2| <= {worst_t:.2e}",
            elapsed, 30.0)


def test_criterion_07_structure_suite():
    start = time.monotonic()
    import random
    rng = random.Random(7)
    worst_quad = 0.0
    for _ in range(500):
        alpha = rng.uniform(1.0, 4.0)
        phi = rng.uniform(0.02, PI - 0.02)
        sb = phase.structure_functions(alpha, phi)
        scale = max(abs(sb.u * sb.s ** 2), abs(sb.v * sb.s), abs(sb.w))
        worst_quad = max(worst_quad,
                         abs(sb.u * sb.s ** 2 + sb.v * sb.s + sb.w) / scale)
    assert worst_quad <= 1e-9
    for alpha in (1.0, 1.5, 2.0, 4.0):
        rec = claim_check(alpha, 2000)
        assert rec.status == "pass", (alpha, rec.witness)
        assert rec.witness["w_at_star"] < 0.0
        for i in range(500):
            phi = (i + 1) * PI / 501
            assert phase.structure_functions(alpha, phi).lambda_low >= -1e-12
    for alpha in (0.3, 0.5, 0.8):
        for i in range(500):
            phi = (i + 1) * PI / 501
            assert phase.structure_functions(alpha, phi).lambda_low < 0.0
    for alpha in (0.3, 0.5, 0.8, 0.99):
        rec = counterexample_scan(alpha)
        assert rec.status == "pass", (alpha, rec.witness)
    elapsed = time.monotonic() - start
    _report("criterion 7 (structure-function suite)", True,
            f"quadratic residual {worst_quad:.2e}; dichotomy, lambda signs "
            "and counterexamples all green", elapsed, 30.0)


def test_criterion_08_appendix_identities():
    start = time.monotonic()
    records = identity_suite(1000, seed=7)
    assert all(r.status == "pass" for r in records), \
        [(r.check_id, r.witness) for r in records if r.status != "pass"]
    worst_chu = 0.0
    for a in (-0.9, -0.5, 0.0, 1.5, 3.2):
        for n in range(0, 21):
            for r in range(0, n + 1):
                lhs, rhs = chu_vandermonde_sides(n, r, a)
                worst_chu = max(worst_chu,
                                abs(lhs - rhs) / max(1.0, abs(rhs)))
    elapsed = time.monotonic() - start
    closed = max(r.witness["worst_residual"] for r in records
                 if r.check_id != "identity_lambda_prime")
    _report("criterion 8 (appendix identities)",
            worst_chu <= 1e-10 and closed <= 1e-10,
            f"identity residual {closed:.2e}; summation residual "
            f"{worst_chu:.2e}", elapsed, 10.0)


def test_criterion_09_envelope_bound():
    start = time.monotonic()
    combos = ((1.0, 0.0, 0.0, PI / 2), (1.0, 0.5, -0.3, PI / 3),
              (2.0, 0.0, 0.0, PI / 3), (2.0, 0.5, -0.3, 2 * PI / 5),
              (4.0, 0.0, 0.0, PI / 2), (4.0, -0.5, 0.0, 2 * PI / 3))
    worst_ratio = 0.0
    for alpha, a, b, theta in combos:
        const, rows = envelope_bound(Params(alpha, a, b), theta,
                                     [2 ** k for k in range(3, 10)])
        med = statistics.median(v for _, v in rows)
        worst_ratio = max(worst_ratio, const / med)
        assert math.isfinite(const)
    elapsed = time.monotonic() - start
    _report("criterion 9 (uniform envelope bound)", worst_ratio <= 10.0,
            f"max/median = {worst_ratio:.2f} <= 10 over 6 combos",
            elapsed, 120.0)


def test_criterion_10_determinism(tmp_path):
    start = time.monotonic()
    out1 = tmp_path / "run1.jsonl"
    out2 = tmp_path / "run2.jsonl"
    code1 = cli_main(["verify", "--suite", "all", "--seed", "7",
                      "--output", str(out1)])
    code2 = cli_main(["verify", "--suite", "all", "--seed", "7",
                      "--output", str(out2)])
    identical = out1.read_bytes() == out2.read_bytes()
    records = [json.loads(line) for line in out1.read_text().splitlines()]
    elapsed = time.monotonic() - start
    _report("criterion 10 (byte-identical verify runs)",
            code1 == 0 and code2 == 0 and identical,
            f"{len(records)} records identical across runs", elapsed, 120.0)
