"""Command-line front end.

Subcommands:
  eval          one polynomial value by the exact sum, the contour oracle,
                or the asymptotic leading term
  verify        run a certification suite, one JSON record per line
  table         convergence table (CSV) with a fitted error-rate slope
  contour-dump  plot data: contour points, T-profiles, or the saddle
                partition of the contour

Exit codes, by exception type: 0 success, 1 verification failure, 2 usage,
input or config error (InputError, OSError, argparse), 3 scope error
(ScopeError: alpha < 1 asymptotics without --allow-unproven, exact coefficients
or an unreliable exact reference (use the contour), or saddle data, contour
values, points or T, an asymptotic term or a table row beyond the double
range), 4 numerical failure (ConvergenceError); nothing else is caught.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import List, Optional

import numpy as np

from . import __version__
from .asymptotics import convergence_table, darboux_biortho
from .config import load_config
from .errors import (ConvergenceError, InputError, ScopeError, check_angle,
                     check_degree)
from .phase import contour_point, t_modulus, theta_of_x, x_of_theta
from .polys import Params, eval_biortho
from .quadrature import rodrigues_contour_eval
from .verify import SUITE_NAMES, run_suite

_PI = math.pi

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_SCOPE = 3
EXIT_NUMERICAL = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="biortho",
        description="Jacobi biorthogonal polynomials: evaluation, "
                    "verification, convergence tables and plot data.")
    parser.add_argument("--version", action="version",
                        version=f"biortho {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--output", default=None,
                        help="output file (default: stdout)")
        sp.add_argument("--config", default=None,
                        help="config file of key = value lines "
                             "(default: $BIORTHO_CONFIG)")

    sp = sub.add_parser("eval", help="evaluate one polynomial value")
    sp.add_argument("--alpha", type=float, required=True)
    sp.add_argument("--a", type=float, required=True)
    sp.add_argument("--b", type=float, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--x", type=float, default=None)
    sp.add_argument("--theta", type=float, default=None)
    sp.add_argument("--method", required=True,
                    choices=("exact", "contour", "asymptotic"))
    sp.add_argument("--allow-unproven", action="store_true",
                    help="evaluate the asymptotic formula outside its "
                         "proven range alpha >= 1")
    add_common(sp)

    sp = sub.add_parser("verify", help="run a certification suite")
    sp.add_argument("--suite", default="all", choices=SUITE_NAMES)
    sp.add_argument("--seed", type=int, default=7)
    sp.add_argument("--jobs", type=int, default=os.cpu_count() or 1,
                    help="worker processes for --suite all")
    add_common(sp)

    sp = sub.add_parser("table", help="convergence table with rate fit")
    sp.add_argument("--alpha", type=float, required=True)
    sp.add_argument("--a", type=float, required=True)
    sp.add_argument("--b", type=float, required=True)
    sp.add_argument("--theta", type=float, required=True)
    sp.add_argument("--n-dyadic", required=True, metavar="K0..K1",
                    help="degrees 2^K0 .. 2^K1 (K1 >= K0 + 2, K0 >= 3)")
    sp.add_argument("--reference", default="contour",
                    choices=("exact", "contour", "auto"))
    sp.add_argument("--allow-unproven", action="store_true")
    add_common(sp)

    sp = sub.add_parser("contour-dump", help="plot data as CSV")
    sp.add_argument("--alpha", type=float, required=True)
    sp.add_argument("--points", type=int, default=360)
    sp.add_argument("--what", required=True,
                    choices=("contour", "T", "partition"))
    sp.add_argument("--theta", type=float, default=None)
    sp.add_argument("--n", type=int, default=None)
    sp.add_argument("--delta", type=float, default=1.0 / 12.0)
    add_common(sp)
    return parser


def _emit(text: str, output: Optional[str]) -> None:
    if output:
        with open(output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_line(record: dict) -> str:
    return json.dumps(record, sort_keys=True, allow_nan=True)


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def _cmd_eval(args, config: dict) -> int:
    if (args.x is None) == (args.theta is None):
        raise InputError("provide exactly one of --x / --theta")
    p = Params(args.alpha, args.a, args.b)
    inputs = {"alpha": args.alpha, "a": args.a, "b": args.b, "n": args.n,
              "method": args.method}
    record: dict = {"inputs": inputs, "method": args.method}
    if args.method == "exact":
        x = args.x if args.x is not None else x_of_theta(p, args.theta)
        inputs["x"] = x
        result = eval_biortho(p, args.n, x)
        record["value"] = result.value
        record["condition_estimate"] = result.condition_estimate
        record["error_bound"] = result.error_bound
        record["reliable"] = result.reliable
    else:
        theta = args.theta if args.theta is not None else \
            theta_of_x(p, args.x, config["bisect_tol"])
        inputs["theta"] = theta
    if args.method == "contour":
        result = rodrigues_contour_eval(p, args.n, theta,
                                        config["contour_tol"])
        record["value"] = result.value
        record["error_estimate"] = result.error_estimate
        record["evaluations"] = result.evaluations
    elif args.method == "asymptotic":
        record["value"] = darboux_biortho(p, args.n, theta,
                                          allow_unproven=args.allow_unproven)
    _emit(_json_line(record) + "\n", args.output)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _suite_task(payload):
    suite, seed, config = payload
    return [r.as_dict() for r in run_suite(suite, seed, **config)]


def _cmd_verify(args, config: dict) -> int:
    if args.suite == "all" and args.jobs > 1:
        # imported here, since no other command starts a process pool
        from concurrent.futures import ProcessPoolExecutor

        # sub-suites are independent; ordered dispatch keeps output stable
        parts = [name for name in SUITE_NAMES if name != "all"]
        payloads = [(name, args.seed, config) for name in parts]
        with ProcessPoolExecutor(max_workers=min(args.jobs, len(parts))) as pool:
            chunks = list(pool.map(_suite_task, payloads))
        records = [r for chunk in chunks for r in chunk]
    else:
        records = _suite_task((args.suite, args.seed, config))
    lines = "".join(_json_line(r) + "\n" for r in records)
    _emit(lines, args.output)
    failed = any(r["status"] == "fail" for r in records)
    return EXIT_VERIFY_FAIL if failed else EXIT_OK


# ---------------------------------------------------------------------------
# table
# ---------------------------------------------------------------------------

def _parse_dyadic(text: str):
    try:
        lo, hi = text.split("..", 1)
        k0, k1 = int(lo), int(hi)
    except ValueError as exc:
        raise InputError(f"bad --n-dyadic {text!r}; expected K0..K1") from exc
    if not (k1 - 2 >= k0 >= 3):  # a slope fit needs three degrees
        raise InputError("--n-dyadic requires K1 >= K0 + 2 and K0 >= 3")
    return [2 ** k for k in range(k0, k1 + 1)]


def _cmd_table(args, config: dict) -> int:
    p = Params(args.alpha, args.a, args.b)
    n_list = _parse_dyadic(args.n_dyadic)
    report = convergence_table(
        p, args.theta, n_list, args.reference,
        contour_tol=config["contour_tol"],
        envelope_threshold=config["envelope_threshold"],
        allow_unproven=args.allow_unproven)
    lines = ["n,reference,asymptotic,abs_err,rel_err,envelope_ok,"
             "scaled_reference,scaled_asymptotic,log10_rho_n"]
    for row in report.rows:
        lines.append(f"{row.n},{row.reference!r},{row.asymptotic!r},"
                     f"{row.abs_err!r},{row.rel_err!r},"
                     f"{'true' if row.envelope_ok else 'false'},"
                     f"{row.scaled_reference!r},{row.scaled_asymptotic!r},"
                     f"{row.log10_rho_n!r}")
    lines.append(f"# slope = {report.slope!r}")
    _emit("\n".join(lines) + "\n", args.output)
    return EXIT_OK


# ---------------------------------------------------------------------------
# contour-dump
# ---------------------------------------------------------------------------

def _cmd_contour_dump(args, config: dict) -> int:
    p = Params(args.alpha, 0.0, 0.0)
    if args.points < 2:
        raise InputError("--points must be >= 2")
    lines: List[str] = []
    if args.what == "contour":
        lines.append("phi,re_xi,im_xi")
        phis = [-_PI + 2.0 * _PI * i / args.points for i in range(args.points)]
        xi = contour_point(p, np.array(phis)).xi
        lines.extend(f"{phi!r},{re!r},{im!r}" for phi, re, im
                     in zip(phis, xi.real.tolist(), xi.imag.tolist()))
    elif args.what == "T":
        if args.theta is None:
            raise InputError("--what T requires --theta")
        lines.append("phi,T")
        phis = [(i + 1) * _PI / (args.points + 1) for i in range(args.points)]
        values = t_modulus(p, args.theta, np.array(phis)).tolist()
        lines.extend(f"{phi!r},{value!r}" for phi, value in zip(phis, values))
    else:
        if args.theta is None or args.n is None:
            raise InputError("--what partition requires --theta and --n")
        theta = check_angle(args.theta, "--theta")
        if not (0.0 < args.delta < 0.5):
            raise InputError("--delta must lie in (0, 0.5)")
        half_width = float(check_degree(args.n, 1)) ** (-0.5 + args.delta)
        lo, hi = theta - half_width, theta + half_width
        lines.append("phi,re_xi,im_xi,segment")
        phis = [(i + 1) * _PI / (args.points + 1) for i in range(args.points)]
        xi = contour_point(p, np.array(phis)).xi
        for phi, re, im in zip(phis, xi.real.tolist(), xi.imag.tolist()):
            segment = "left" if phi <= lo else ("center" if phi < hi else "right")
            lines.append(f"{phi!r},{re!r},{im!r},{segment}")
    _emit("\n".join(lines) + "\n", args.output)
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config_path = args.config or os.environ.get("BIORTHO_CONFIG")
        config = load_config(config_path)
        if args.command == "eval":
            return _cmd_eval(args, config)
        if args.command == "verify":
            return _cmd_verify(args, config)
        if args.command == "table":
            return _cmd_table(args, config)
        return _cmd_contour_dump(args, config)
    except (InputError, OSError) as exc:
        sys.stderr.write(f"biortho: {exc}\n")
        return EXIT_USAGE
    except ScopeError as exc:
        sys.stderr.write(f"biortho: {exc}\n")
        return EXIT_SCOPE
    except ConvergenceError as exc:
        sys.stderr.write(f"biortho: {exc}\n")
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
