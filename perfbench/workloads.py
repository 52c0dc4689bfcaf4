"""The three benchmark workloads.

Each workload turns a seed into an endless stream of rounds; a round is a
list of ops.  An op is one call into biortho (the timed part) plus a check
of its result against an oracle computed outside the timed part.  A
result that disagrees with its oracle fails the op, except on the
exact-path degrees past the known defect's onset, where the disagreement
is counted (``agree_frac``) but does not fail the op.  The run
loop stops after the round in which the time budget ran out, so every run
executes whole rounds and the op mix does not depend on where the clock
stopped.

Parameters are drawn from seeded Kronecker sequences rather than i.i.d.:
every prefix of the stream covers the parameter ranges evenly, so the
throughput of one run depends far less on the seed than independent draws
would make it.  The degree, which sets most of an op's cost, gets a
one-dimensional golden-ratio sequence of its own, the most even there is.
"""

from __future__ import annotations

import cmath
import json
import math
import os
import random
from dataclasses import dataclass, field
from typing import Callable, Iterator, List, Optional

import numpy as np

from biortho import cli, phase, polys, quadrature
from biortho.polys import Params

PI = math.pi
EPS = 2.0 ** -52


@dataclass
class Op:
    kind: str
    call: Callable[[], object]
    # returns one reason per checkpoint where the result disagrees with the
    # oracle; empty when it agrees at all `checkpoints`
    check: Callable[[object], List[str]]
    # False only where a disagreement is a known defect that is counted
    # but does not fail the op
    must_agree: bool = True
    # run just before the op, outside its time
    prepare: Optional[Callable[[], None]] = None
    checkpoints: int = 1


def single(reason: Optional[str]) -> List[str]:
    """The result of a check with one checkpoint, as a list."""
    return [] if reason is None else [reason]


@dataclass
class Stats:
    """Per-run facts a result file records besides the timings."""

    counts: dict = field(default_factory=dict)

    def add(self, key, k=1):
        self.counts[key] = self.counts.get(key, 0) + k


class Kronecker:
    """Seeded additive-recurrence sequence in [0, 1)^dims (Roberts' R_d)."""

    def __init__(self, rng: random.Random, dims: int):
        g = 2.0
        for _ in range(60):  # root of g^(d+1) = g + 1; golden ratio for d=1
            g = (1.0 + g) ** (1.0 / (dims + 1))
        self.steps = [g ** -(j + 1) for j in range(dims)]
        self.point = [rng.random() for _ in range(dims)]

    def __next__(self) -> List[float]:
        self.point = [(u + a) % 1.0 for u, a in zip(self.point, self.steps)]
        return self.point


def pick(u: float, options):
    return options[min(int(u * len(options)), len(options) - 1)]


def integer(u: float, lo: int, hi: int) -> int:
    return lo + min(int(u * (hi - lo + 1)), hi - lo)


def _min_degree(p: Params) -> int:
    """Smallest degree the contour oracle accepts (integrand boundedness)."""
    return max(1, math.ceil(max(1.0 - (p.a + 1.0) / p.alpha, -p.b)))


def leading_term(p: Params, n: int, theta: float):
    """Darboux-type leading term and its envelope, both divided by rho^n.

    The formula of the paper, evaluated from the public saddle data; the
    rho^n factor is left off so it matches contour values at n in the
    thousands, where rho^n underflows.
    """
    sd = phase.saddle_data(p, theta)
    amp = math.sqrt(2.0) * p.alpha / math.sqrt(1.0 + p.alpha) / math.sqrt(PI)
    value = amp * (sd.m_alpha * cmath.exp(1j * n * theta)).real / math.sqrt(n)
    return value, amp * abs(sd.m_alpha) / math.sqrt(n)


# ---------------------------------------------------------------------------
# contour_sweep
# ---------------------------------------------------------------------------

# Parameter grid and tolerance of acceptance criterion 3 (contour against
# the double sum at n <= 40, points with condition estimate above 1e9
# skipped because the double sum is no reference there).
CRIT3_ALPHAS = (1.0, 2.0, 4.0)
CRIT3_AB = (-0.5, 0.0, 1.2)
CRIT3_THETAS = (PI / 4, PI / 2, 3 * PI / 4)
CRIT3_MAX_N = 40
CRIT3_MAX_COND = 1e9
CRIT3_REL_TOL = 1e-7
CONTOUR_TOL = 1e-9
# Large degrees: envelope-relative distance to the leading term is at most
# DARBOUX_C / n.  Over the criterion-3 parameters and theta grid at
# n = 64, 512 and 4096 the largest n * distance seen is 1.57.
DARBOUX_C = 4.0
LARGE_K = (6, 12)      # n = 2^6 .. 2^12, scaled=True
SMALL_PER_ROUND = 3    # one large-n op per round


def contour_sweep(seed: int, stats: Stats) -> Iterator[List[Op]]:
    rng = random.Random(f"contour_sweep/{seed}")
    small_seq, small_n = Kronecker(rng, 4), Kronecker(rng, 1)
    large_seq, large_k = Kronecker(rng, 4), Kronecker(rng, 1)

    def small_op():
        while True:
            (ua, ub, uc, ut), (un,) = next(small_seq), next(small_n)
            p = Params(pick(ua, CRIT3_ALPHAS), pick(ub, CRIT3_AB),
                       pick(uc, CRIT3_AB))
            theta = pick(ut, CRIT3_THETAS)
            n = integer(un, _min_degree(p), CRIT3_MAX_N)
            vals, conds = polys.eval_biortho_grid(
                p, n, np.array([phase.x_of_theta(p, theta)]))
            if conds[0] <= CRIT3_MAX_COND:
                break
            stats.add("small_n_skipped_cond")
        ref = float(vals[0])

        def check(res):
            rel = abs(res.value - ref) / abs(ref)
            if not rel <= CRIT3_REL_TOL:
                return f"contour {p} n={n} theta={theta}: rel diff {rel:.3e}"
            return None
        stats.add("small_n_ops")
        return Op("contour.small_n", lambda: quadrature.rodrigues_contour_eval(
            p, n, theta, CONTOUR_TOL), lambda res: single(check(res)))

    def large_op():
        (ua, ub, uc, ut), (uk,) = next(large_seq), next(large_k)
        p = Params(pick(ua, CRIT3_ALPHAS), pick(ub, CRIT3_AB),
                   pick(uc, CRIT3_AB))
        theta = pick(ut, CRIT3_THETAS)
        n = 2 ** integer(uk, *LARGE_K)
        lead, env = leading_term(p, n, theta)

        def check(res):
            dist = abs(res.value - lead) / env
            if not dist <= DARBOUX_C / n:
                return (f"contour {p} n={n} theta={theta}: leading-term "
                        f"distance {dist:.3e} > {DARBOUX_C}/n")
            return None
        stats.add("large_n_ops")
        return Op("contour.large_n", lambda: quadrature.rodrigues_contour_eval(
            p, n, theta, CONTOUR_TOL, scaled=True),
            lambda res: single(check(res)))

    while True:
        yield [small_op() for _ in range(SMALL_PER_ROUND)] + [large_op()]


# ---------------------------------------------------------------------------
# exact_ladder
# ---------------------------------------------------------------------------

GRID_POINTS = 1001
CHECKPOINTS = 2          # interior points per table checked by the oracle
WARM_PER_TABLE = 5       # warm calls on fresh grids after the cold one
DYADIC_ALPHAS = (0.5, 1.0, 2.0, 4.0)
# Decimal values: their binary expansions use the full 53-bit mantissa.
NON_DYADIC_ALPHAS = (0.7, 1.3, 2.3, 3.1)
EXACT_AB = (-0.5, 0.0, 0.5, 1.25)
# Each round builds one table on every rung of a degree ladder (rungs 20
# wide), so every run has the same mix of cheap and expensive tables.
# Dyadic alphas cover n = 20..239, non-dyadic ones n = 20..119: their cold
# table costs about n^3.3 in Fraction gcds (1.1 s at n=120, 3.6-5.2 s at
# n=180, 12-14 s at n=240), and rungs above n=120 made the run-to-run
# spread of throughput and tail latency larger than the bounds.
LADDER = {"dyadic": (20, 240, 11), "non_dyadic": (20, 120, 5)}  # lo, hi, rungs
ORACLE_TOL = 1e-10
ORACLE_ERR_FACTOR = 10.0
# Up to this degree (the range acceptance criterion 3 covers) a checkpoint
# that disagrees with the oracle fails its op.  Above it the double-sum
# path has a known defect (ROADMAP item 3: disagreements from n = 59 on
# over the ladder's parameters, error 0.19 at n = 100), so a disagreement
# there is counted in agree_frac and polys.exact.mismatches instead.  Over
# 1,280 checkpoints at n <= 48, the largest error was 0.73 of the tolerance.
EXACT_MUST_AGREE_MAX_N = 40


def exact_ladder(seed: int, stats: Stats) -> Iterator[List[Op]]:
    rng = random.Random(f"exact_ladder/{seed}")
    rungs = [(kind, j) for kind, (_, _, count) in LADDER.items()
             for j in range(count)]
    # Each rung has a parameter and a degree sequence of its own, so over a
    # run's rounds its tables spread evenly over alpha, a, b and the rung's
    # degrees: at one degree, alpha, a and b change a cold build's cost by
    # up to 2x.  The degree sets most of that cost, so the degree sequences
    # are the same for every seed, which leaves the tail latency to the code
    # and not to the draw; the seed sets alpha, a, b, the checkpoints, the
    # grids and the order of the tables.
    params = {rung: Kronecker(rng, 3 + CHECKPOINTS) for rung in rungs}
    degree_rng = random.Random("exact_ladder/degrees")
    degrees = {rung: Kronecker(degree_rng, 1) for rung in rungs}
    grid_rng = np.random.default_rng(rng.getrandbits(64))
    while True:
        rng.shuffle(rungs)
        yield [op for kind, j in rungs
               for op in _table_ops(kind, j, next(params[kind, j]),
                                    next(degrees[kind, j])[0], grid_rng,
                                    stats)]


def _table_ops(kind, rung, draw, un, grid_rng, stats) -> List[Op]:
    """A cold call and WARM_PER_TABLE warm calls on one coefficient table."""
    ua, ub, uc, *uts = draw
    lo, hi, count = LADDER[kind]
    n = lo + int((rung + un) * (hi - lo) / count)
    alpha = pick(ua, DYADIC_ALPHAS if kind == "dyadic" else NON_DYADIC_ALPHAS)
    p = Params(alpha, pick(ub, EXACT_AB), pick(uc, EXACT_AB))
    thetas = [PI * (0.15 + 0.7 * u) for u in uts]
    check_x = np.array([phase.x_of_theta(p, t) for t in thetas])
    refs = [quadrature.rodrigues_contour_eval(p, n, t, ORACLE_TOL)
            for t in thetas]
    stats.add(f"tables_{kind}")

    must_agree = n <= EXACT_MUST_AGREE_MAX_N

    def check(result):
        values, _ = result
        reasons = []
        for j, ref in enumerate(refs):
            v = float(values[j])
            tol = ORACLE_ERR_FACTOR * ref.error_estimate \
                + 4.0 * EPS * abs(ref.value)
            stats.add("checkpoints")
            stats.add("must_agree_checkpoints" if must_agree
                      else "counted_checkpoints")
            if abs(v - ref.value) <= tol:
                continue
            stats.add("mismatches")
            reasons.append(f"exact {p} n={n} x={check_x[j]!r}: {v!r} vs "
                           f"oracle {ref.value!r} +- {tol:.3e}")
        return reasons

    ops = []
    for i in range(1 + WARM_PER_TABLE):
        xs = np.concatenate([check_x,
                             grid_rng.uniform(-1.0, 1.0,
                                              GRID_POINTS - CHECKPOINTS)])
        tag = "cold" if i == 0 else "warm"
        stats.add(f"{tag}_ops")
        ops.append(Op(f"grid.{tag}",
                      lambda xs=xs: polys.eval_biortho_grid(p, n, xs),
                      check, must_agree, checkpoints=CHECKPOINTS))
    return ops


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------

VERIFY_SUITES = ("identities", "lemmas", "biortho", "reduction")
# Parameter grid of acceptance criterion 4 (Darboux rate tables).
CRIT4_ALPHAS = (1.0, 2.0, 4.0)
CRIT4_A = (0.0, 0.5)
CRIT4_B = (0.0, -0.3)
CRIT4_THETAS = (PI / 4, 2 * PI / 5, PI / 2)
TABLE_DYADIC = "3..12"
SLOPE_RANGE = (-1.3, -0.7)
EVAL_MAX_N = 12
EVAL_REL_TOL = 1e-7
# Per round: the four verify sub-suites, one table, eval exact x4,
# asymptotic x3 and contour x2, and one contour-dump of each kind.  The
# seven cheap evals balance the seven ops slower than a dump, so the median
# op is a contour-dump, whose cost does not depend on the seed: op_ms_p50
# on certify measures contour-dump latency alone.
EVAL_METHODS = ("exact",) * 4 + ("asymptotic",) * 3 + ("contour",) * 2
DUMP_KINDS = ("contour", "T", "partition")


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def clear_table_caches() -> None:
    polys._biortho_table.cache_clear()
    polys._jacobi_table.cache_clear()


def run_cli(argv: List[str]) -> int:
    """The exit code of the CLI run on `argv`, as a process would give it:
    an argument error's SystemExit becomes its exit code.

    Option values go in as ``--name=value``: given as a separate word, a
    negative value in exponent notation such as ``-1.3e-05`` would be
    taken for an option name.
    """
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code


def _expect_exit(rc, want=0) -> Optional[str]:
    return None if rc == want else f"exit code {rc}, expected {want}"


def certify(seed: int, stats: Stats, scratch: str) -> Iterator[List[Op]]:
    rng = random.Random(f"certify/{seed}")
    verify_seed = rng.randrange(1, 10 ** 6)
    out = os.path.join(scratch, "out.txt")
    first_output = {}
    eval_seq, eval_n = Kronecker(rng, 4), Kronecker(rng, 1)
    # theta sets most of a table's cost, so it cycles every round; the
    # other parameters follow a seeded order
    table_params = [(al, a, b) for al in CRIT4_ALPHAS for a in CRIT4_A
                    for b in CRIT4_B]
    rng.shuffle(table_params)
    dump_seq = Kronecker(rng, 3)
    stats.counts["verify_seed"] = verify_seed

    def cli_op(kind, argv, check):
        """The op is the CLI call; reading its output back is the check's.

        A CLI invocation is a fresh process, so each op starts with empty
        table caches: what it costs then does not depend on the ops before
        it, nor on the oracles, which fill the caches too.
        """
        stats.add(f"{kind}_ops")
        return Op(kind, lambda: run_cli(argv + ["--output", out]),
                  lambda rc: single(check(rc, _read(out) if rc == 0 else b"")),
                  prepare=clear_table_caches)

    def verify_op(suite):
        argv = ["verify", "--suite", suite, "--jobs", "1",
                "--seed", str(verify_seed)]

        def check(rc, text):
            bad = _expect_exit(rc)
            if bad:
                return f"verify {suite}: {bad}"
            if first_output.setdefault(suite, text) != text:
                return f"verify {suite}: output differs from its first run"
            if not text:
                return f"verify {suite}: no records"
            return None
        return cli_op("cli.verify", argv, check)

    def table_op(k):
        alpha, a, b = table_params[k % len(table_params)]
        theta = CRIT4_THETAS[k % len(CRIT4_THETAS)]
        argv = ["table", f"--alpha={alpha!r}", f"--a={a!r}", f"--b={b!r}",
                f"--theta={theta!r}", "--n-dyadic", TABLE_DYADIC,
                "--reference", "contour"]

        def check(rc, text):
            bad = _expect_exit(rc)
            if bad:
                return f"table {argv}: {bad}"
            last = text.decode().strip().splitlines()[-1]
            slope = float(last.split("=", 1)[1])
            if not SLOPE_RANGE[0] <= slope <= SLOPE_RANGE[1]:
                return f"table {argv}: slope {slope} outside {SLOPE_RANGE}"
            return None
        return cli_op("cli.table", argv, check)

    def eval_op(method):
        while True:
            (ua, ub, uc, ut), (un,) = next(eval_seq), next(eval_n)
            p = Params(pick(ua, CRIT3_ALPHAS), pick(ub, CRIT3_AB),
                       pick(uc, CRIT3_AB))
            theta = PI * (0.15 + 0.7 * ut)
            n = integer(un, _min_degree(p), EVAL_MAX_N)
            x = phase.x_of_theta(p, theta)
            vals, conds = polys.eval_biortho_grid(p, n, np.array([x]))
            if conds[0] <= CRIT3_MAX_COND:
                break
        argv = ["eval", f"--alpha={p.alpha!r}", f"--a={p.a!r}",
                f"--b={p.b!r}", "--n", str(n), "--method", method]
        if method == "exact":
            # the double sum is checked against the contour oracle and
            # the contour command against the double sum
            argv += [f"--x={x!r}"]
            ref = quadrature.rodrigues_contour_eval(p, n, theta, ORACLE_TOL).value
            tol = EVAL_REL_TOL
        elif method == "contour":
            argv += [f"--theta={theta!r}"]
            ref, tol = float(vals[0]), EVAL_REL_TOL
        else:
            argv += [f"--theta={theta!r}"]
            lead, _ = leading_term(p, n, theta)
            ref, tol = lead * phase.sine_ratio(p.alpha, theta) ** n, 1e-12

        def check(rc, text):
            bad = _expect_exit(rc)
            if bad:
                return f"eval {argv}: {bad}"
            value = json.loads(text)["value"]
            if not abs(value - ref) <= tol * abs(ref):
                return f"eval {argv}: {value!r} vs oracle {ref!r}"
            return None
        return cli_op("cli.eval", argv, check)

    def dump_op(what):
        ua, ut, un = next(dump_seq)
        points = 360
        argv = ["contour-dump", f"--alpha={pick(ua, CRIT3_ALPHAS)!r}",
                "--what", what, "--points", str(points),
                f"--theta={PI * (0.15 + 0.7 * ut)!r}",
                "--n", str(integer(un, 8, 4096))]

        def check(rc, text):
            bad = _expect_exit(rc)
            if bad:
                return f"contour-dump {argv}: {bad}"
            rows = text.decode().strip().splitlines()
            if len(rows) != points + 1:
                return f"contour-dump {argv}: {len(rows)} lines"
            return None
        return cli_op("cli.contour-dump", argv, check)

    # a fixed seeded order of the commands, repeated every round
    slots = ([("verify", s) for s in VERIFY_SUITES] + [("table", None)]
             + [("eval", m) for m in EVAL_METHODS]
             + [("dump", w) for w in DUMP_KINDS])
    rng.shuffle(slots)
    k = 0
    while True:
        ops = []
        for what, arg in slots:
            if what == "verify":
                ops.append(verify_op(arg))
            elif what == "table":
                ops.append(table_op(k))
            elif what == "eval":
                ops.append(eval_op(arg))
            else:
                ops.append(dump_op(arg))
        k += 1
        yield ops


WORKLOADS = ("contour_sweep", "exact_ladder", "certify")


def stream(name: str, seed: int, stats: Stats, scratch: str):
    """The op stream of workload `name`; certify writes its CLI output
    under `scratch`."""
    if name == "contour_sweep":
        return contour_sweep(seed, stats)
    if name == "exact_ladder":
        return exact_ladder(seed, stats)
    return certify(seed, stats, scratch)


# op_ms_tail percentile of each workload: the highest with at least ten
# samples beyond it in a run of the seed code (on exact_ladder, in runs of
# 4 to 6 rounds), fixed so that the reported percentile does not flip with
# the op count from run to run.
TAIL_PERCENTILE = {"contour_sweep": 98.0, "exact_ladder": 97.0,
                   "certify": 90.0}
