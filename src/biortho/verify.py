"""Certification harness: every lemma, claim and appendix identity as a
machine-checkable record.

Each check returns a CheckRecord carrying the worst witness found, the
tolerance it was judged against, and a pass/fail/skipped status.  Checks are
pure given their arguments (random sampling is seeded), so a fixed seed and
configuration reproduce identical records byte for byte.

The phase functions take arrays, so each identity evaluates all of its
seeded samples, and each lemma and claim scan its whole angle grid, in one
call; the biorthogonality check integrates all n+1 moments on shared
tanh-sinh nodes (quadrature.integrate_moments).
"""

from __future__ import annotations

import math
import random
from dataclasses import asdict, dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from . import phase
from .config import DEFAULTS
from .errors import ConvergenceError, InputError, check_degree, check_tol
from .numerics import fd_derivative
from .polys import (
    Params,
    _recurrence_rows,
    chu_vandermonde_sides,
    eval_biortho_degrees,
    eval_biortho_grid,
)
from .quadrature import integrate_moments

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

def biorthogonality_check(p: Params, n: int,
                          tol: float = DEFAULTS["biortho_tol"],
                          quad_tol: float = DEFAULTS["quad_tol"]
                          ) -> CheckRecord:
    """Moments of P_n against the test system (1-x)^(alpha j), j = 0..n.

    Passes iff every |I_j|, j < n, is at most tol * |I_n| and I_n itself is
    resolved; the scale-free form is used because the defining relation fixes
    no magnitude for I_n.  All n+1 moments share their tanh-sinh nodes, so
    P_n is evaluated once per abscissa.
    """
    n, tol = check_degree(n, 1), check_tol(tol)
    params = {"alpha": p.alpha, "a": p.a, "b": p.b, "n": n}

    def integrand(xs):
        vals, _ = eval_biortho_grid(p, n, xs)
        return vals
    try:
        moments = [res.value for res in integrate_moments(
            integrand, [(p.alpha * j + p.a, p.b) for j in range(n + 1)],
            quad_tol)]
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

def _residual(lhs, rhs):
    return np.abs(lhs - rhs) / np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs)))


def _identity_definitions():
    """(check_id, tolerance, names, draw, residuals) for each identity.

    draw(rng) returns one sample point, a tuple of numbers with the names
    given; residuals takes each coordinate as an array over all the samples
    and returns their residuals as one array.
    """

    def draw_angles(rng):
        return rng.uniform(0.25, 4.0), rng.uniform(0.05, _PI - 0.05)

    def ratio_to_sine_quotient(alpha, theta):
        y = (_PI - theta) / (1.0 + alpha)
        z = alpha * y
        big = phase.theta_major(1.0 / alpha, theta)
        small = phase.theta_major(alpha, theta)
        lhs = (((np.cos(y) - big) + 1j * np.sin(y))
               / ((np.cos(z) - small) - 1j * np.sin(z)))
        rhs = -np.sin(y) / np.sin(z)
        return np.abs(lhs - rhs) / np.maximum(1.0, np.abs(rhs))

    def quadratic_in_theta(alpha, phi):
        y = (_PI - phi) / (1.0 + alpha)
        big = phase.theta_major(1.0 / alpha, phi)
        prime = phase.theta_major_prime(1.0 / alpha, phi)
        lhs = ((1.0 + alpha) * big * big
               - (1.0 + 2.0 * alpha) * big * np.cos(y) + alpha)
        rhs = (1.0 + alpha) * prime * np.sin(y)
        return _residual(lhs, rhs)

    def cos_gap_to_d(alpha, phi):
        y = (_PI - phi) / (1.0 + alpha)
        z = alpha * y
        big = phase.theta_major(1.0 / alpha, phi)
        d = phase.d_of_phi(alpha, phi)
        lhs = (1.0 + alpha) / np.sin(phi) * (big - np.cos(y))
        rhs = d * np.cos(z) - np.sin(z)
        return _residual(lhs, rhs)

    def sine_quotient_to_d(alpha, phi):
        y = (_PI - phi) / (1.0 + alpha)
        z = alpha * y
        d = phase.d_of_phi(alpha, phi)
        lhs = (1.0 + alpha) * np.sin(y) / np.sin(phi)
        rhs = d * np.sin(z) + np.cos(z)
        return _residual(lhs, rhs)

    def theta_prime_to_d(alpha, phi):
        lhs = phase.theta_major_prime(1.0 / alpha, phi)
        rhs = (phase.d_of_phi(alpha, phi) * phase.theta_major(1.0 / alpha, phi)
               / (1.0 + alpha))
        return _residual(lhs, rhs)

    def d_prime_two_forms(alpha, phi):
        z = alpha * (_PI - phi) / (1.0 + alpha)
        big = phase.theta_major(1.0 / alpha, phi)
        lhs = (-(1.0 + alpha) / np.sin(phi) ** 2
               + alpha * alpha / (1.0 + alpha) / np.sin(z) ** 2)
        rhs = -(1.0 + alpha) / np.sin(phi) ** 2 * (1.0 - big * big)
        return _residual(lhs, rhs)

    def draw_lambda_angles(rng):
        alpha, ph = draw_angles(rng)
        # keep the Richardson stencil inside (0, pi)
        return alpha, min(max(ph, 0.1), _PI - 0.1)

    def lambda_prime_fd(alpha, phi):
        y = (_PI - phi) / (1.0 + alpha)
        z = alpha * y
        lhs = fd_derivative(
            lambda t: phase.structure_functions(alpha, t).lambda_low, phi, 1).real
        rhs = (1.0 - alpha) * np.sin(y) * np.sin(z)
        return _residual(lhs, rhs)

    def draw_chu_vandermonde(rng):
        n = rng.randrange(0, 21)
        return n, rng.randrange(0, n + 1), rng.uniform(-0.95, 3.5)

    def chu_vandermonde(n, r, a):
        return _residual(*chu_vandermonde_sides(int(n), int(r), float(a)))

    at_phi = (("alpha", "phi"), draw_angles)
    return [
        ("identity_chu_vandermonde", 1e-10, ("n", "r", "a"),
         draw_chu_vandermonde, np.vectorize(chu_vandermonde, otypes=[float])),
        ("identity_saddle_ratio", 1e-10, ("alpha", "theta"), draw_angles,
         ratio_to_sine_quotient),
        ("identity_theta_quadratic", 1e-10, *at_phi, quadratic_in_theta),
        ("identity_cos_gap", 1e-10, *at_phi, cos_gap_to_d),
        ("identity_sine_quotient", 1e-10, *at_phi, sine_quotient_to_d),
        ("identity_theta_prime", 1e-11, *at_phi, theta_prime_to_d),
        ("identity_d_prime", 1e-10, *at_phi, d_prime_two_forms),
        ("identity_lambda_prime", 1e-7, ("alpha", "phi"), draw_lambda_angles,
         lambda_prime_fd),
    ]


def identity_suite(samples: int = DEFAULTS["identity_samples"],
                   seed: int = 7) -> List[CheckRecord]:
    """Numeric certification of the trigonometric and Gamma identities.

    Each identity is sampled at `samples` seeded random points, all of which
    go to its evaluator in one array call; the first point with the largest
    residual is reported.  Residuals are relative to max(1, |lhs|, |rhs|).
    The derivative-of-lambda check runs at a looser tolerance because its
    left side is a finite difference.
    """
    samples = check_degree(samples, 1)
    records = []
    for check_id, tol, names, draw, residuals in _identity_definitions():
        rng = random.Random(seed)
        points = [draw(rng) for _ in range(samples)]
        values = residuals(*map(np.array, zip(*points)))
        i = int(np.argmax(values))
        worst = float(values[i])
        ok = worst <= tol
        records.append(_record(
            check_id, {"samples": samples, "seed": seed}, ok,
            {"worst_residual": worst,
             "worst_point": dict(zip(names, points[i]))}, tol))
    return records


# ---------------------------------------------------------------------------
# lemma scans
# ---------------------------------------------------------------------------

def saddle_and_concavity_check(
        grid: Tuple[Sequence[float], Sequence[float]], tol: float = 1e-10,
        scan_grid: int = DEFAULTS["scan_grid"]) -> List[CheckRecord]:
    """Saddle residual, uniqueness of the sign change of Re f', and
    concavity Re f'' < 0 at each (alpha, theta) grid point."""
    alphas, thetas = grid
    phis = np.arange(1, scan_grid + 1) * _PI / (scan_grid + 1)
    records = []
    for alpha in alphas:
        for theta in thetas:
            p = Params(alpha, 0.0, 0.0)
            residual = float(abs(phase.f_prime(p, theta, theta)))
            f2 = phase.f_second_at_saddle(p, theta)
            re = phase.f_prime(p, theta, phis).real
            signs = re[re != 0.0] > 0.0
            changes = int(np.count_nonzero(signs[1:] != signs[:-1]))
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
                      grid_size: int = DEFAULTS["scan_grid"]) -> CheckRecord:
    """Grid surrogate for unimodality of the modulus-square T.

    For alpha >= 1 this is a pass/fail check (strictly increasing before the
    saddle, strictly decreasing after, with a 10x-refined band around it).
    For alpha < 1 no claim is made; the scan records the observed descent
    structure as evidence and always reports pass.
    """
    if grid_size < 100:
        raise InputError("grid_size must be >= 100")
    p = Params(alpha, 0.0, 0.0)
    base = np.arange(1, grid_size + 1) * _PI / (grid_size + 1)
    spacing = _PI / (grid_size + 1)
    lo = max(spacing / 10.0, theta - 10.0 * spacing)
    hi = min(_PI - spacing / 10.0, theta + 10.0 * spacing)
    fine = lo + np.arange(201) * (hi - lo) / 200.0
    merged = np.sort(np.concatenate([base, fine]))
    # drop near-coincident points: strict comparison is meaningless there.
    # Only a base point and a fine point can coincide (each family is spaced
    # far wider than 1e-9), so the previous point is the last one kept.
    grid = merged[np.concatenate([[True], np.diff(merged) > 1e-9])]
    values = phase.t_modulus(p, theta, grid)
    p1, p2, v1, v2 = grid[:-1], grid[1:], values[:-1], values[1:]
    bad = ((p2 <= theta) & ~(v2 > v1)) | ((p1 >= theta) & ~(v2 < v1))
    violations = np.flatnonzero(bad)
    params = {"alpha": alpha, "theta": theta, "grid": grid_size}
    if alpha >= 1.0:
        ok = not violations.size
        first = violations[0] if violations.size else None
        witness = {"violations": int(violations.size),
                   "first_violation": None if first is None
                   else (float(p1[first]), float(p2[first]))}
        return _record("t_monotone_descent", params, ok, witness, 0.0)
    # evidence-only for alpha < 1: the descent-structure report
    witness = {"violations": int(violations.size),
               "monotone_on_grid": not violations.size,
               "note": "no pass/fail claim for alpha < 1; scan evidence only"}
    return _record("t_descent_structure", params, True, witness, 0.0)


def claim_check(alpha: float, grid_size: int = DEFAULTS["scan_grid"],
                tol: float = 1e-9) -> CheckRecord:
    """Dichotomy scan: at every grid angle either u vanishes (with w < 0) or
    the quotient h lies outside (0, 1); plus the quadratic identity
    u s^2 + v s + w = 0 at every grid point."""
    if alpha < 1.0:
        raise InputError("claim_check applies to alpha >= 1")
    p0 = phase.phi_star(alpha)
    phis = np.arange(1, grid_size + 1) * _PI / (grid_size + 1)
    sb = phase.structure_functions(alpha, phis)
    u, v, w, s, h = sb.u, sb.v, sb.w, sb.s, sb.h
    us2, vs = u * s ** 2, v * s
    scale = np.maximum(np.maximum.reduce([abs(us2), abs(vs), abs(w)]), 1e-300)
    worst_quad = float(np.max(abs(us2 + vs + w) / scale, initial=-1.0))
    u_zero = abs(u) <= tol * np.maximum.reduce([abs(u), abs(v), abs(w)])
    # the last failing angle is the one reported
    failing = np.flatnonzero((u_zero & ~(w < 0.0))
                             | (~u_zero & (0.0 < h) & (h < 1.0)))
    dichotomy_fail = None
    if failing.size:
        i = failing[-1]
        dichotomy_fail = {"phi": float(phis[i]), "u": float(u[i])}
        dichotomy_fail.update({"w": float(w[i])} if u_zero[i]
                              else {"h": float(h[i])})
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
    phis = [0.19]
    while phis[-1] * 0.7 > 1e-6:
        phis.append(phis[-1] * 0.7)
    sb = phase.structure_functions(alpha, np.array(phis))
    found = np.flatnonzero((sb.u > 0.0) & (0.0 < sb.h) & (sb.h < 1.0))
    witness = None
    if found.size:
        i = found[0]
        witness = {"phi": phis[i], "u": float(sb.u[i]), "h": float(sb.h[i]),
                   "lambda": float(sb.lambda_low[i])}
    ok = witness is not None and witness["lambda"] < 0.0
    return _record("claim_counterexample", {"alpha": alpha}, ok,
                   witness or {"reason": "no witness found in (1e-6, 0.2)"},
                   0.0)


def reduction_check(a: float, b: float,
                    n_max: int = DEFAULTS["reduction_n_max"],
                    tol: float = DEFAULTS["reduction_tol"]) -> CheckRecord:
    """alpha = 1 double sum against the classical recurrence oracle on a
    41-point grid; differences are relative to max(1, |reference|)."""
    p, tol = Params(1.0, a, b), check_tol(tol)
    xs = np.linspace(-1.0, 1.0, 41)
    worst = -1.0
    worst_at = None
    degrees = range(check_degree(n_max) + 1)
    values, _ = eval_biortho_degrees(p, degrees, xs)
    for n, vals, ref in zip(degrees, values,
                            _recurrence_rows(a, b, degrees[-1], xs)):
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


def run_suite(suite: str, seed: int = 7, **settings) -> List[CheckRecord]:
    """Run one named suite (or everything); settings override
    config.DEFAULTS by key."""
    if suite not in SUITE_NAMES:
        raise InputError(f"unknown suite {suite!r}; choose from {SUITE_NAMES}")
    unknown = sorted(set(settings) - set(DEFAULTS))
    if unknown:
        raise InputError(f"unknown settings {unknown}")
    cfg = {**DEFAULTS, **settings}
    scan_grid = cfg["scan_grid"]
    records: List[CheckRecord] = []
    if suite in ("all", "identities"):
        records.extend(identity_suite(cfg["identity_samples"], seed))
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
            for n in range(1, cfg["biortho_n_max"] + 1):
                records.append(biorthogonality_check(
                    Params(alpha, a, b), n, cfg["biortho_tol"],
                    cfg["quad_tol"]))
    if suite in ("all", "reduction"):
        for a, b in ((0.0, 0.0), (0.5, -0.3), (-0.5, 1.7)):
            records.append(reduction_check(a, b, cfg["reduction_n_max"],
                                           cfg["reduction_tol"]))
    return records
