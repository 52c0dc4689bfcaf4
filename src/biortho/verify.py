"""Certification harness: every lemma, claim and appendix identity as a
machine-checkable record.

Each check returns a CheckRecord carrying the worst witness found, the
tolerance it was judged against, and a pass/fail/skipped status.  Checks are
pure given their arguments (random sampling is seeded), so a fixed seed and
configuration reproduce identical records byte for byte.
"""

from __future__ import annotations

import math
import random
from dataclasses import asdict, dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from . import phase
from .errors import ConvergenceError, InputError
from .numerics import fd_derivative
from .polys import (
    Params,
    chu_vandermonde_sides,
    eval_biortho_grid,
    jacobi_recurrence_grid,
)
from .quadrature import integrate_interval

__all__ = [
    "CheckRecord",
    "biorthogonality_check",
    "claim_check",
    "counterexample_scan",
    "identity_suite",
    "monotonicity_scan",
    "reduction_check",
    "saddle_and_concavity_check",
    "run_suite",
    "SUITE_NAMES",
]

_PI = math.pi


@dataclass(frozen=True)
class CheckRecord:
    check_id: str
    params: Dict
    status: str  # "pass" | "fail" | "skipped"
    witness: Dict
    tolerance: float

    def as_dict(self) -> Dict:
        return asdict(self)


def _record(check_id, params, ok, witness, tol, skipped=False) -> CheckRecord:
    status = "skipped" if skipped else ("pass" if ok else "fail")
    return CheckRecord(check_id=check_id, params=params, status=status,
                       witness=witness, tolerance=tol)


# ---------------------------------------------------------------------------
# biorthogonality
# ---------------------------------------------------------------------------

def biorthogonality_check(p: Params, n: int, tol: float = 1e-7,
                          quad_tol: float = 1e-10) -> CheckRecord:
    """Moments of P_n against the test system (1-x)^(alpha j), j = 0..n.

    Passes iff every |I_j|, j < n, is at most tol * |I_n| and I_n itself is
    resolved; the scale-free form is used because the defining relation fixes
    no magnitude for I_n.
    """
    if n < 1:
        raise InputError("biorthogonality_check requires n >= 1")
    params = {"alpha": p.alpha, "a": p.a, "b": p.b, "n": n}
    moments = []
    try:
        for j in range(n + 1):
            def integrand(xs):
                vals, _ = eval_biortho_grid(p, n, xs)
                return vals
            res = integrate_interval(integrand, (p.alpha * j + p.a, p.b),
                                     quad_tol, vectorized=True)
            moments.append(res.value)
    except ConvergenceError as exc:
        return _record("biorthogonality", params, False,
                       {"reason": f"quadrature did not converge: {exc}"},
                       tol, skipped=True)
    i_n = abs(moments[-1])
    worst_j = max(range(n), key=lambda j: abs(moments[j])) if n > 0 else 0
    worst_ratio = abs(moments[worst_j]) / i_n if i_n > 0 else math.inf
    ok = i_n > tol and worst_ratio <= tol
    witness = {"worst_j": worst_j, "worst_ratio": worst_ratio, "i_n": moments[-1]}
    return _record("biorthogonality", params, ok, witness, tol)


# ---------------------------------------------------------------------------
# appendix identities
# ---------------------------------------------------------------------------

def _residual(lhs, rhs) -> float:
    return abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs))


def _identity_definitions():
    """(check_id, tolerance, evaluator(rng) -> (residual, point)) triples."""

    def sample_angles(rng):
        return rng.uniform(0.25, 4.0), rng.uniform(0.05, _PI - 0.05)

    def ratio_to_sine_quotient(rng):
        alpha, th = sample_angles(rng)
        y = (_PI - th) / (1.0 + alpha)
        z = alpha * y
        big = phase.theta_major(1.0 / alpha, th)
        small = phase.theta_major(alpha, th)
        lhs = (complex(math.cos(y) - big, math.sin(y))
               / complex(math.cos(z) - small, -math.sin(z)))
        rhs = -math.sin(y) / math.sin(z)
        return abs(lhs - rhs) / max(1.0, abs(rhs)), {"alpha": alpha, "theta": th}

    def quadratic_in_theta(rng):
        alpha, ph = sample_angles(rng)
        y = (_PI - ph) / (1.0 + alpha)
        big = phase.theta_major(1.0 / alpha, ph)
        prime = phase.theta_major_prime(1.0 / alpha, ph)
        lhs = ((1.0 + alpha) * big * big
               - (1.0 + 2.0 * alpha) * big * math.cos(y) + alpha)
        rhs = (1.0 + alpha) * prime * math.sin(y)
        return _residual(lhs, rhs), {"alpha": alpha, "phi": ph}

    def cos_gap_to_d(rng):
        alpha, ph = sample_angles(rng)
        y = (_PI - ph) / (1.0 + alpha)
        z = alpha * y
        big = phase.theta_major(1.0 / alpha, ph)
        d = phase.d_of_phi(alpha, ph)
        lhs = (1.0 + alpha) / math.sin(ph) * (big - math.cos(y))
        rhs = d * math.cos(z) - math.sin(z)
        return _residual(lhs, rhs), {"alpha": alpha, "phi": ph}

    def sine_quotient_to_d(rng):
        alpha, ph = sample_angles(rng)
        y = (_PI - ph) / (1.0 + alpha)
        z = alpha * y
        d = phase.d_of_phi(alpha, ph)
        lhs = (1.0 + alpha) * math.sin(y) / math.sin(ph)
        rhs = d * math.sin(z) + math.cos(z)
        return _residual(lhs, rhs), {"alpha": alpha, "phi": ph}

    def theta_prime_to_d(rng):
        alpha, ph = sample_angles(rng)
        lhs = phase.theta_major_prime(1.0 / alpha, ph)
        rhs = (phase.d_of_phi(alpha, ph) * phase.theta_major(1.0 / alpha, ph)
               / (1.0 + alpha))
        return _residual(lhs, rhs), {"alpha": alpha, "phi": ph}

    def d_prime_two_forms(rng):
        alpha, ph = sample_angles(rng)
        z = alpha * (_PI - ph) / (1.0 + alpha)
        big = phase.theta_major(1.0 / alpha, ph)
        lhs = (-(1.0 + alpha) / math.sin(ph) ** 2
               + alpha * alpha / (1.0 + alpha) / math.sin(z) ** 2)
        rhs = -(1.0 + alpha) / math.sin(ph) ** 2 * (1.0 - big * big)
        return _residual(lhs, rhs), {"alpha": alpha, "phi": ph}

    def lambda_prime_fd(rng):
        alpha, ph = sample_angles(rng)
        # keep the Richardson stencil inside (0, pi)
        ph = min(max(ph, 0.1), _PI - 0.1)
        y = (_PI - ph) / (1.0 + alpha)
        z = alpha * y
        lhs = fd_derivative(lambda t: phase.lambda_of_phi(alpha, t), ph, 1).real
        rhs = (1.0 - alpha) * math.sin(y) * math.sin(z)
        return _residual(lhs, rhs), {"alpha": alpha, "phi": ph}

    def chu_vandermonde(rng):
        n = rng.randrange(0, 21)
        r = rng.randrange(0, n + 1)
        a = rng.uniform(-0.95, 3.5)
        lhs, rhs = chu_vandermonde_sides(n, r, a)
        return _residual(lhs, rhs), {"n": n, "r": r, "a": a}

    return [
        ("identity_chu_vandermonde", 1e-10, chu_vandermonde),
        ("identity_saddle_ratio", 1e-10, ratio_to_sine_quotient),
        ("identity_theta_quadratic", 1e-10, quadratic_in_theta),
        ("identity_cos_gap", 1e-10, cos_gap_to_d),
        ("identity_sine_quotient", 1e-10, sine_quotient_to_d),
        ("identity_theta_prime", 1e-11, theta_prime_to_d),
        ("identity_d_prime", 1e-10, d_prime_two_forms),
        ("identity_lambda_prime", 1e-7, lambda_prime_fd),
    ]


def identity_suite(samples: int = 1000, seed: int = 7) -> List[CheckRecord]:
    """Numeric certification of the trigonometric and Gamma identities.

    Each identity is sampled at `samples` seeded random points; residuals are
    relative to max(1, |lhs|, |rhs|).  The derivative-of-lambda check runs at
    a looser tolerance because its left side is a finite difference.
    """
    if samples < 1:
        raise InputError("samples must be >= 1")
    records = []
    for check_id, tol, evaluator in _identity_definitions():
        rng = random.Random(seed)
        worst = -1.0
        worst_point = None
        for _ in range(samples):
            residual, point = evaluator(rng)
            if residual > worst:
                worst, worst_point = residual, point
        ok = worst <= tol
        records.append(_record(
            check_id, {"samples": samples, "seed": seed}, ok,
            {"worst_residual": worst, "worst_point": worst_point}, tol))
    return records


# ---------------------------------------------------------------------------
# lemma scans
# ---------------------------------------------------------------------------

def saddle_and_concavity_check(grid: Tuple[Sequence[float], Sequence[float]],
                               tol: float = 1e-10,
                               scan_grid: int = 2000) -> List[CheckRecord]:
    """Saddle residual, uniqueness of the sign change of Re f', and
    concavity Re f'' < 0 at each (alpha, theta) grid point."""
    alphas, thetas = grid
    records = []
    for alpha in alphas:
        for theta in thetas:
            p = Params(alpha, 0.0, 0.0)
            residual = abs(phase.f_prime(p, theta, theta))
            f2 = phase.f_second_at_saddle(p, theta)
            signs = []
            for i in range(scan_grid):
                ph = (i + 1) * _PI / (scan_grid + 1)
                re = phase.f_prime(p, theta, ph).real
                if re != 0.0:
                    signs.append(re > 0.0)
            changes = sum(1 for s1, s2 in zip(signs, signs[1:]) if s1 != s2)
            ok = residual <= tol and changes == 1 and f2.real < 0.0
            records.append(_record(
                "saddle_and_concavity",
                {"alpha": alpha, "theta": theta, "grid": scan_grid},
                ok,
                {"saddle_residual": residual, "sign_changes": changes,
                 "re_f_second": f2.real},
                tol))
    return records


def monotonicity_scan(alpha: float, theta: float,
                      grid_size: int = 2000) -> CheckRecord:
    """Grid surrogate for unimodality of the modulus-square T.

    For alpha >= 1 this is a pass/fail check (strictly increasing before the
    saddle, strictly decreasing after, with a 10x-refined band around it).
    For alpha < 1 no claim is made; the scan records the observed descent
    structure as evidence and always reports pass.
    """
    if grid_size < 100:
        raise InputError("grid_size must be >= 100")
    p = Params(alpha, 0.0, 0.0)
    base = [(i + 1) * _PI / (grid_size + 1) for i in range(grid_size)]
    spacing = _PI / (grid_size + 1)
    lo = max(spacing / 10.0, theta - 10.0 * spacing)
    hi = min(_PI - spacing / 10.0, theta + 10.0 * spacing)
    fine = [lo + k * (hi - lo) / 200.0 for k in range(201)]
    merged = sorted(base + fine)
    # drop near-coincident points: strict comparison is meaningless there
    grid = [merged[0]]
    for ph in merged[1:]:
        if ph - grid[-1] > 1e-9:
            grid.append(ph)
    values = [phase.t_modulus(p, theta, ph) for ph in grid]
    violations = []
    for (p1, v1), (p2, v2) in zip(zip(grid, values), zip(grid[1:], values[1:])):
        if p2 <= theta and not v2 > v1:
            violations.append((p1, p2, v1, v2))
        elif p1 >= theta and not v2 < v1:
            violations.append((p1, p2, v1, v2))
    params = {"alpha": alpha, "theta": theta, "grid": grid_size}
    if alpha >= 1.0:
        ok = not violations
        witness = {"violations": len(violations),
                   "first_violation": violations[0][:2] if violations else None}
        return _record("t_monotone_descent", params, ok, witness, 0.0)
    # evidence-only for alpha < 1: the descent-structure report
    witness = {"violations": len(violations),
               "monotone_on_grid": not violations,
               "note": "no pass/fail claim for alpha < 1; scan evidence only"}
    return _record("t_descent_structure", params, True, witness, 0.0)


def claim_check(alpha: float, grid_size: int = 2000,
                tol: float = 1e-9) -> CheckRecord:
    """Dichotomy scan: at every grid angle either u vanishes (with w < 0) or
    the quotient h lies outside (0, 1); plus the quadratic identity
    u s^2 + v s + w = 0 at every grid point."""
    if alpha < 1.0:
        raise InputError("claim_check applies to alpha >= 1")
    p0 = phase.phi_star(alpha)
    worst_quad = -1.0
    dichotomy_fail = None
    for i in range(grid_size):
        ph = (i + 1) * _PI / (grid_size + 1)
        sb = phase.structure_functions(alpha, ph)
        scale = max(abs(sb.u * sb.s ** 2), abs(sb.v * sb.s), abs(sb.w), 1e-300)
        worst_quad = max(worst_quad,
                         abs(sb.u * sb.s ** 2 + sb.v * sb.s + sb.w) / scale)
        u_scale = max(abs(sb.u), abs(sb.v), abs(sb.w))
        if abs(sb.u) <= tol * u_scale:
            if not sb.w < 0.0:
                dichotomy_fail = {"phi": ph, "u": sb.u, "w": sb.w}
        elif sb.h is not None and 0.0 < sb.h < 1.0:
            dichotomy_fail = {"phi": ph, "u": sb.u, "h": sb.h}
    sb0 = phase.structure_functions(alpha, p0)
    u0_scale = max(abs(sb0.u), abs(sb0.v), abs(sb0.w))
    star_ok = abs(sb0.u) <= 1e-6 * u0_scale and sb0.w < 0.0
    ok = worst_quad <= tol and dichotomy_fail is None and star_ok
    return _record(
        "claim_dichotomy", {"alpha": alpha, "grid": grid_size}, ok,
        {"worst_quadratic_residual": worst_quad,
         "dichotomy_failure": dichotomy_fail,
         "phi_star": p0, "u_at_star": sb0.u, "w_at_star": sb0.w},
        tol)


def counterexample_scan(alpha: float) -> CheckRecord:
    """For alpha < 1, find an angle with u > 0 and h strictly inside (0, 1),
    and verify lambda < 0 there; failure to find one is a fail record."""
    if not (0.0 < alpha < 1.0):
        raise InputError("counterexample_scan applies to 0 < alpha < 1")
    ph = 0.19
    witness = None
    while ph > 1e-6:
        sb = phase.structure_functions(alpha, ph)
        if sb.u > 0.0 and sb.h is not None and 0.0 < sb.h < 1.0:
            witness = {"phi": ph, "u": sb.u, "h": sb.h,
                       "lambda": sb.lambda_low}
            break
        ph *= 0.7
    ok = witness is not None and witness["lambda"] < 0.0
    return _record("claim_counterexample", {"alpha": alpha}, ok,
                   witness or {"reason": "no witness found in (1e-6, 0.2)"},
                   0.0)


def reduction_check(a: float, b: float, n_max: int = 30,
                    tol: float = 1e-9) -> CheckRecord:
    """alpha = 1 double sum against the classical recurrence oracle on a
    41-point grid; differences are relative to max(1, |reference|)."""
    p = Params(1.0, a, b)
    xs = np.linspace(-1.0, 1.0, 41)
    worst = -1.0
    worst_at = None
    for n in range(0, n_max + 1):
        vals, _ = eval_biortho_grid(p, n, xs)
        ref = jacobi_recurrence_grid(a, b, n, xs)
        rel = np.abs(vals - ref) / np.maximum(1.0, np.abs(ref))
        idx = int(np.argmax(rel))
        if rel[idx] > worst:
            worst = float(rel[idx])
            worst_at = {"n": n, "x": float(xs[idx])}
    ok = worst <= tol
    return _record("alpha_one_reduction", {"a": a, "b": b, "n_max": n_max},
                   ok, {"worst_rel": worst, "worst_at": worst_at}, tol)


# ---------------------------------------------------------------------------
# suite assembly
# ---------------------------------------------------------------------------

SUITE_NAMES = ("all", "identities", "lemmas", "biortho", "reduction")

_DEFAULT_SADDLE_GRID = ((1.0, 1.5, 2.0, 4.0),
                        (_PI / 6.0, _PI / 3.0, _PI / 2.0, 2.0 * _PI / 3.0))
_DEFAULT_BIORTHO_CASES = ((1.5, 0.5, -0.3), (2.0, 0.0, 0.0), (3.0, 1.2, -0.5))


def run_suite(suite: str, seed: int = 7, *, identity_samples: int = 1000,
              scan_grid: int = 2000, biortho_n_max: int = 4,
              biortho_tol: float = 1e-7, quad_tol: float = 1e-10,
              reduction_n_max: int = 20,
              reduction_tol: float = 1e-9) -> List[CheckRecord]:
    """Run one named suite (or everything) with the default grids."""
    if suite not in SUITE_NAMES:
        raise InputError(f"unknown suite {suite!r}; choose from {SUITE_NAMES}")
    records: List[CheckRecord] = []
    if suite in ("all", "identities"):
        records.extend(identity_suite(identity_samples, seed))
    if suite in ("all", "lemmas"):
        records.extend(saddle_and_concavity_check(_DEFAULT_SADDLE_GRID,
                                                  scan_grid=scan_grid))
        for alpha in (1.0, 1.5, 2.0, 4.0):
            for theta in (_PI / 3.0, _PI / 2.0):
                records.append(monotonicity_scan(alpha, theta, scan_grid))
        for alpha in (0.5, 0.8):
            records.append(monotonicity_scan(alpha, _PI / 2.0, scan_grid))
        for alpha in (1.0, 1.5, 2.0, 4.0):
            records.append(claim_check(alpha, scan_grid))
        for alpha in (0.3, 0.5, 0.8, 0.99):
            records.append(counterexample_scan(alpha))
    if suite in ("all", "biortho"):
        for alpha, a, b in _DEFAULT_BIORTHO_CASES:
            for n in range(1, biortho_n_max + 1):
                records.append(biorthogonality_check(
                    Params(alpha, a, b), n, biortho_tol, quad_tol))
    if suite in ("all", "reduction"):
        for a, b in ((0.0, 0.0), (0.5, -0.3), (-0.5, 1.7)):
            records.append(reduction_check(a, b, reduction_n_max,
                                           reduction_tol))
    return records
