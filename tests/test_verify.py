import json
import math
import random
import time

import numpy as np
import pytest

from biortho import phase, verify
from biortho.polys import Params, eval_biortho_grid, jacobi_recurrence_grid
from biortho.verify import (
    biorthogonality_check,
    claim_check,
    counterexample_scan,
    identity_suite,
    monotonicity_scan,
    reduction_check,
    run_suite,
    saddle_and_concavity_check,
)

PI = math.pi


class TestBiorthogonality:
    def test_legendre_case(self):
        rec = biorthogonality_check(Params(1.0, 0.0, 0.0), 3, 1e-7, 1e-10)
        assert rec.status == "pass"
        assert rec.witness["worst_ratio"] <= 1e-7

    def test_alpha_two_generic(self):
        rec = biorthogonality_check(Params(2.0, 0.5, -0.3), 6, 1e-8, 1e-11)
        assert rec.status == "pass"

    def test_lowest_degree(self):
        rec = biorthogonality_check(Params(2.0, 0.0, 0.0), 1, 1e-7, 1e-10)
        assert rec.status == "pass"

    def test_requires_positive_degree(self):
        with pytest.raises(ValueError):
            biorthogonality_check(Params(2.0, 0.0, 0.0), 0)


class TestIdentitySuite:
    def test_all_pass(self):
        records = identity_suite(200, seed=7)
        assert len(records) == 8
        assert all(r.status == "pass" for r in records)

    def test_reproducible(self):
        r1 = identity_suite(50, seed=3)
        r2 = identity_suite(50, seed=3)
        assert [r.as_dict() for r in r1] == [r.as_dict() for r in r2]

    def test_matches_pointwise_loop(self):
        # all samples in one array call report what a loop of float calls
        # over the same draws reports: the first sample of largest residual
        records = identity_suite(100, seed=5)
        for record, (check_id, tol, names, draw, residuals) in zip(
                records, verify._identity_definitions()):
            rng = random.Random(5)
            worst, worst_point = -1.0, None
            for _ in range(100):
                point = draw(rng)
                residual = float(residuals(*point))
                if residual > worst:
                    worst, worst_point = residual, dict(zip(names, point))
            assert record.check_id == check_id
            assert record.witness == {"worst_residual": worst,
                                      "worst_point": worst_point}
            assert record.status == ("pass" if worst <= tol else "fail")

    def test_seed_changes_witness(self):
        r1 = identity_suite(50, seed=3)
        r2 = identity_suite(50, seed=4)
        assert [r.witness for r in r1] != [r.witness for r in r2]


class TestLemmaScans:
    def test_saddle_and_concavity(self):
        records = saddle_and_concavity_check(
            ((1.0, 2.0, 4.0), (PI / 3, 2 * PI / 3)), scan_grid=500)
        assert len(records) == 6
        assert all(r.status == "pass" for r in records)
        for r in records:
            assert r.witness["sign_changes"] == 1
            assert r.witness["re_f_second"] < 0.0

    @pytest.mark.parametrize("alpha, theta", [
        (1.0, PI / 2), (2.0, PI / 3), (4.0, 2 * PI / 3),
    ])
    def test_monotone_descent_passes(self, alpha, theta):
        rec = monotonicity_scan(alpha, theta, 2000)
        assert rec.check_id == "t_monotone_descent"
        assert rec.status == "pass"

    def test_small_alpha_is_evidence_only(self):
        rec = monotonicity_scan(0.5, PI / 2, 2000)
        assert rec.check_id == "t_descent_structure"
        assert rec.status == "pass"
        assert "monotone_on_grid" in rec.witness

    @pytest.mark.parametrize("alpha", [1.0, 2.0, 4.0])
    def test_claim_dichotomy(self, alpha):
        rec = claim_check(alpha, 1000)
        assert rec.status == "pass"
        assert rec.witness["dichotomy_failure"] is None
        assert rec.witness["w_at_star"] < 0.0

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 1.0, 2.0, 4.0])
    @pytest.mark.parametrize("theta", [0.2, PI / 3, 2.8])
    def test_scans_match_pointwise_loops(self, alpha, theta):
        # the array scans decide as the per-angle loops they replace: same
        # statuses and integer witnesses (theta = 0.2 with alpha < 1 has
        # hundreds of T violations and several sign changes of Re f')
        p = Params(alpha, 0.0, 0.0)
        saddle = saddle_and_concavity_check(((alpha,), (theta,)),
                                            scan_grid=300)[0]
        signs = [re > 0.0 for re in
                 (phase.f_prime(p, theta, (i + 1) * PI / 301).real
                  for i in range(300)) if re != 0.0]
        changes = sum(s1 != s2 for s1, s2 in zip(signs, signs[1:]))
        assert saddle.witness["sign_changes"] == changes
        assert saddle.status == (
            "pass" if abs(phase.f_prime(p, theta, theta)) <= 1e-10
            and changes == 1 and phase.f_second_at_saddle(p, theta).real < 0.0
            else "fail")

        rec = monotonicity_scan(alpha, theta, 300)
        spacing = PI / 301
        lo = max(spacing / 10.0, theta - 10.0 * spacing)
        hi = min(PI - spacing / 10.0, theta + 10.0 * spacing)
        merged = sorted([(i + 1) * PI / 301 for i in range(300)]
                        + [lo + k * (hi - lo) / 200.0 for k in range(201)])
        grid = [merged[0]]
        for ph in merged[1:]:
            if ph - grid[-1] > 1e-9:
                grid.append(ph)
        values = [phase.t_modulus(p, theta, ph) for ph in grid]
        violations = [(p1, p2) for p1, p2, v1, v2 in
                      zip(grid, grid[1:], values, values[1:])
                      if (p2 <= theta and not v2 > v1)
                      or (p1 >= theta and not v2 < v1)]
        assert rec.witness["violations"] == len(violations)
        if alpha >= 1.0:
            assert rec.status == ("pass" if not violations else "fail")
            assert rec.witness["first_violation"] == (
                violations[0] if violations else None)

    @pytest.mark.parametrize("alpha", [1.0, 2.0, 4.0])
    @pytest.mark.parametrize("tol", [1e-9, 1e-16, 0.9])
    def test_claim_matches_pointwise_loop(self, alpha, tol):
        rec = claim_check(alpha, 300, tol)
        worst, failure = -1.0, None
        for i in range(300):
            ph = (i + 1) * PI / 301
            sb = phase.structure_functions(alpha, ph)
            u, v, w, s, h = (getattr(sb, k) for k in "uvwsh")
            scale = max(abs(u * s ** 2), abs(v * s), abs(w), 1e-300)
            worst = max(worst, abs(u * s ** 2 + v * s + w) / scale)
            if abs(u) <= tol * max(abs(u), abs(v), abs(w)):
                if not w < 0.0:
                    failure = {"phi": ph, "u": u, "w": w}
            elif h is not None and 0.0 < h < 1.0:
                failure = {"phi": ph, "u": u, "h": h}
        assert rec.witness["worst_quadratic_residual"] == worst
        assert rec.witness["dichotomy_failure"] == failure

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.8, 0.99])
    def test_counterexample_matches_pointwise_loop(self, alpha):
        # the array scan reports the first angle of the sequence that the
        # per-angle loop it replaces stopped at
        rec = counterexample_scan(alpha)
        ph = 0.19
        while ph > 1e-6:
            sb = phase.structure_functions(alpha, ph)
            if sb.u > 0.0 and sb.h is not None and 0.0 < sb.h < 1.0:
                break
            ph *= 0.7
        assert rec.witness == {"phi": ph, "u": sb.u, "h": sb.h,
                               "lambda": sb.lambda_low}

    def test_claim_scope(self):
        with pytest.raises(ValueError):
            claim_check(0.5)

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.8, 0.99])
    def test_counterexample_found(self, alpha):
        rec = counterexample_scan(alpha)
        assert rec.status == "pass"
        assert 0.0 < rec.witness["h"] < 1.0
        assert rec.witness["u"] > 0.0
        assert rec.witness["lambda"] < 0.0

    def test_counterexample_scope(self):
        with pytest.raises(ValueError):
            counterexample_scan(1.5)


class TestReduction:
    @pytest.mark.parametrize("a, b, n_max, tol", [
        (0.0, 0.0, 20, 1e-9),
        (-0.5, 1.7, 20, 1e-9),
        (0.5, -0.3, 30, 1e-8),
    ])
    def test_passes(self, a, b, n_max, tol):
        rec = reduction_check(a, b, n_max, tol)
        assert rec.status == "pass"
        assert rec.witness["worst_rel"] <= tol

    @pytest.mark.parametrize("a, b, n_max", [
        (0.0, 0.0, 20), (-0.5, 1.7, 20), (0.5, -0.3, 30), (1.25, -0.5, 0),
    ])
    def test_witness_of_the_degree_by_degree_loop(self, a, b, n_max):
        # one pass over the degrees and one recurrence pass give the witness
        # of one grid call and one recurrence call per degree
        xs = np.linspace(-1.0, 1.0, 41)
        worst, worst_at = -1.0, None
        for n in range(n_max + 1):
            vals, _ = eval_biortho_grid(Params(1.0, a, b), n, xs)
            ref = jacobi_recurrence_grid(a, b, n, xs)
            rel = np.abs(vals - ref) / np.maximum(1.0, np.abs(ref))
            idx = int(np.argmax(rel))
            if rel[idx] > worst:
                worst, worst_at = float(rel[idx]), {"n": n, "x": float(xs[idx])}
        assert repr(reduction_check(a, b, n_max).witness) == repr(
            {"worst_rel": worst, "worst_at": worst_at})


class TestSuiteRunner:
    def test_unknown_suite(self):
        with pytest.raises(ValueError):
            run_suite("nope")

    def test_all_records_json_serializable(self):
        records = run_suite("identities", seed=7, identity_samples=20)
        text = json.dumps([r.as_dict() for r in records])
        assert "check_id" in text

    def test_full_suite_reproducible_and_green(self):
        r1 = run_suite("all", seed=7, identity_samples=100, scan_grid=400,
                       biortho_n_max=2, reduction_n_max=8)
        r2 = run_suite("all", seed=7, identity_samples=100, scan_grid=400,
                       biortho_n_max=2, reduction_n_max=8)
        assert [r.as_dict() for r in r1] == [r.as_dict() for r in r2]
        assert all(r.status == "pass" for r in r1)

    def test_default_suite_perf_budget(self):
        # full default suite must finish well inside five minutes
        start = time.monotonic()
        records = run_suite("all", seed=7)
        elapsed = time.monotonic() - start
        assert elapsed < 300.0
        assert all(r.status in ("pass", "skipped") for r in records)
