"""Darboux-type leading-term evaluators and convergence-rate machinery.

The biorthogonal leading term is
    sqrt(2) alpha / sqrt(1+alpha) * pi^(-1/2) n^(-1/2) rho^n Re{M e^{i n theta}}
with rho the sine ratio and M the n-free amplitude; it is proven for
alpha >= 1 and reduces to the classical formula at alpha = 1.  For alpha < 1
it is computable but unproven, gated behind allow_unproven.

Convergence tables work with rho^(-n)-scaled quantities internally, so rows
at n in the thousands stay finite even where rho^n underflows; relative
errors are normalized by the non-oscillatory envelope, and rows where the
oscillation factor passes near zero are flagged rather than dropped.  The
contour references of a table or an envelope scan come from one shared pass
over their degrees (quadrature.rodrigues_contour_degrees), and each row still
raises its own error in n order.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from .config import DEFAULTS
from .errors import (ConvergenceError, InputError, ScopeError, check_angle,
                     check_degree)
from .numerics import fit_loglog_slope, times_exp
from .phase import SaddleData, saddle_data, sine_ratio, x_of_theta
from .polys import Params, eval_biortho
from .quadrature import _contour_outcomes

__all__ = [
    "ConvergenceRow",
    "RateReport",
    "convergence_table",
    "darboux_biortho",
    "darboux_classical",
    "envelope_bound",
]

_SQRT_PI = math.sqrt(math.pi)

# reference_mode="auto" switches from the double sum to the contour oracle
# here: the sum loses digits like rho^(-n) while the contour's conditioning
# is n-independent.
_EXACT_REFERENCE_MAX_N = 40


def _leading_parts(p: Params, sd: SaddleData, n: int, theta: float):
    """(scaled asymptotic value, scaled envelope, oscillation ratio, log rho)
    from the n-free saddle data sd at theta.

    'Scaled' means divided by rho^n; the oscillation ratio is
    |Re{M e^{i n theta}}| / |M| in [0, 1].
    """
    amp = math.sqrt(2.0) * p.alpha / math.sqrt(1.0 + p.alpha) / _SQRT_PI
    osc = (sd.m_alpha * cmath.exp(1j * n * theta)).real
    scaled_value = amp * osc / math.sqrt(n)
    scaled_envelope = amp * abs(sd.m_alpha) / math.sqrt(n)
    ratio = abs(osc) / abs(sd.m_alpha)
    return scaled_value, scaled_envelope, ratio, math.log(sd.sine_ratio)


def darboux_biortho(p: Params, n: int, theta: float,
                    allow_unproven: bool = False) -> float:
    """Leading asymptotic term for the biorthogonal polynomial at x(theta).

    Raises ScopeError for alpha < 1 unless allow_unproven is set: the
    steepest-descent derivation needs alpha >= 1, and whether the same
    formula holds below is an open question this package only explores.
    It raises ScopeError too where rho^n (rho > 1 at alpha < 1) takes the
    value beyond the double range.
    """
    if p.alpha < 1.0 and not allow_unproven:
        raise ScopeError(
            f"darboux_biortho is proven only for alpha >= 1 (got alpha="
            f"{p.alpha}); pass allow_unproven=True to evaluate anyway")
    n = check_degree(n, 1)
    scaled_value, _, _, log_rho = _leading_parts(p, saddle_data(p, theta),
                                                 n, theta)
    return times_exp(scaled_value, n * log_rho, "darboux_biortho")


def darboux_classical(a: float, b: float, n: int, theta: float) -> float:
    """Classical Jacobi leading term with N = n + (a+b+1)/2."""
    Params(1.0, a, b)
    n, theta = check_degree(n, 1), check_angle(theta, "theta")
    big_n = n + 0.5 * (a + b + 1.0)
    return (math.sin(0.5 * theta) ** (-a - 0.5)
            * math.cos(0.5 * theta) ** (-b - 0.5)
            * math.cos(big_n * theta - 0.5 * a * math.pi - 0.25 * math.pi)
            / math.sqrt(math.pi * n))


@dataclass(frozen=True)
class ConvergenceRow:
    """One comparison row; rel_err is envelope-normalized and meaningful
    only when envelope_ok (oscillation factor away from its zeros).

    reference and asymptotic underflow to 0 once rho^n leaves the double
    range; scaled_reference and scaled_asymptotic are the same values over
    rho^n, which stay finite, and log10_rho_n is the exponent taken out."""

    n: int
    reference: float
    asymptotic: float
    abs_err: float
    rel_err: float
    envelope_ok: bool
    scaled_reference: float
    scaled_asymptotic: float
    log10_rho_n: float


@dataclass(frozen=True)
class RateReport:
    slope: Optional[float]
    rows: Tuple[ConvergenceRow, ...]
    theta: float
    params: Params


def _scaled_references(p: Params, theta: float, n_list: Sequence[int],
                       mode: str, contour_tol: float, log_rho: float):
    """P_n(x(theta)) / rho^n for each n of n_list, in order, raising each
    row's error when its row is reached; an exact value that is not
    reliable raises ScopeError in "exact" mode and gives way to the contour
    in "auto" mode.  The first row that needs the contour takes it for the
    later rows that need it too, in one rodrigues_contour_degrees pass."""
    contour = {}
    for i, n in enumerate(n_list):
        if mode == "exact" or (mode == "auto" and n <= _EXACT_REFERENCE_MAX_N):
            result = eval_biortho(p, n, x_of_theta(p, theta))
            if result.reliable:
                yield times_exp(result.value, -n * log_rho, f"reference at n={n}")
                continue
            if mode == "exact":
                raise ScopeError(f"convergence_table: the exact reference at "
                                 f"n={n} is not reliable; use the contour "
                                 "reference")
        if n not in contour:
            batch = [m for m in n_list[i:] if m == n or (
                m not in contour
                and (mode == "contour" or m > _EXACT_REFERENCE_MAX_N))]
            contour.update(zip(batch, _contour_outcomes(
                p, batch, theta, contour_tol, scaled=True)))
        outcome = contour[n]
        if isinstance(outcome, Exception):
            raise outcome
        yield outcome.value


def convergence_table(p: Params, theta: float, n_list: Sequence[int],
                      reference_mode: str = "auto", *,
                      contour_tol: float = DEFAULTS["contour_tol"],
                      envelope_threshold: float = DEFAULTS["envelope_threshold"],
                      allow_unproven: bool = False) -> RateReport:
    """Reference-vs-asymptotic comparison over n with a fitted log-log slope.

    reference_mode: "exact" (double sum), "contour", or "auto".  Every n
    produces a row; rows failing the envelope filter keep their data but are
    excluded from the slope fit.  Fewer than three kept rows raise
    ConvergenceError; a row whose rho^n (rho > 1 at alpha < 1) takes a value
    beyond the double range raises ScopeError.
    """
    if p.alpha < 1.0 and not allow_unproven:
        raise ScopeError(
            "convergence_table compares against the alpha >= 1 formula; "
            "pass allow_unproven=True for exploratory alpha < 1 runs")
    if reference_mode not in ("exact", "contour", "auto"):
        raise InputError(f"unknown reference_mode {reference_mode!r}")
    if not 0.0 <= envelope_threshold <= 1.0:
        raise InputError(f"envelope_threshold must lie in [0, 1], got "
                         f"{envelope_threshold!r}")
    n_list = [check_degree(n, 1) for n in n_list]
    if any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise InputError("n_list must be strictly increasing")
    sd = saddle_data(p, theta)
    references = _scaled_references(p, theta, n_list, reference_mode,
                                    contour_tol, math.log(sd.sine_ratio))
    rows = []
    for n in n_list:
        scaled_asym, scaled_env, ratio, log_rho = _leading_parts(p, sd, n, theta)
        scaled_ref = next(references)
        # rho^n underflows to 0 for huge n at alpha >= 1
        what = f"convergence_table at n={n}"
        reference = times_exp(scaled_ref, n * log_rho, what)
        asymptotic = times_exp(scaled_asym, n * log_rho, what)
        rel_err = abs(scaled_ref - scaled_asym) / scaled_env
        rows.append(ConvergenceRow(
            n=n,
            reference=reference,
            asymptotic=asymptotic,
            abs_err=abs(reference - asymptotic),
            rel_err=rel_err,
            envelope_ok=ratio >= envelope_threshold,
            scaled_reference=scaled_ref,
            scaled_asymptotic=scaled_asym,
            log10_rho_n=n * math.log10(sd.sine_ratio),
        ))
    kept = [(row.n, row.rel_err) for row in rows
            if row.envelope_ok and row.rel_err > 0.0]
    if len(kept) < 3:
        raise ConvergenceError(
            f"convergence_table: only {len(kept)} envelope-kept rows; "
            "need at least 3 for a slope fit")
    slope = fit_loglog_slope(kept)
    return RateReport(slope=slope, rows=tuple(rows), theta=theta, params=p)


def envelope_bound(p: Params, theta: float, n_list: Sequence[int], *,
                   contour_tol: float = DEFAULTS["contour_tol"]):
    """Uniform-bound scan: const = max_n |P_n(x(theta))| sqrt(n) rho^(-n).

    Returns (const, rows) where each row is (n, scaled magnitude); the bound
    is considered stable when max/median <= 10 (checked by the caller or the
    certification suite).
    """
    if p.alpha < 1.0:
        raise ScopeError("envelope_bound applies to the proven range alpha >= 1")
    n_list = [check_degree(n, 1) for n in n_list]
    log_rho = math.log(sine_ratio(p.alpha, theta))  # ScopeError at rho <= 0
    rows = [(n, abs(scaled_ref) * math.sqrt(n)) for n, scaled_ref in zip(
        n_list, _scaled_references(p, theta, n_list, "auto", contour_tol,
                                   log_rho))]
    const = max(v for _, v in rows)
    return const, rows
