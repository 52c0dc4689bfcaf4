"""Seeded benchmark of biortho: three workloads, end-to-end and per-layer
metrics, and a traced run.  See README.md in this directory.

    python3 perfbench/run.py --workload contour_sweep --seed 1 --seconds 25 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``.  A result file with everything needed to reproduce the run
is written under perfbench/results/ (or to ``--out``).
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
SETUP_PROBES = 9
# Nominal start-up time of the reference probe (an interpreter that imports
# numpy) on a 2-core 2.1 GHz x86 machine; it only sets the unit of setup_s.
REF_STARTUP_S = 0.15
# op_ms_tail needs at least this many samples beyond its percentile
TAIL_MIN_BEYOND = 10
# Nominal time of reference_kernel() on an uncontended core of a 2-core
# 2.1 GHz x86 machine; it only sets the unit of the normalized times.
REF_KERNEL_MS = 0.6
KERNEL_WINDOW = 9


def fail(message: str) -> None:
    sys.stderr.write(f"perfbench: {message}\n")
    sys.exit(2)


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        fail(f"{path.name} not found at the repository root")
    with open(path) as fh:
        return json.load(fh)


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def _probe(*args):
    """Wall time from starting a set-up probe until it is ready, and the
    import time it reports in ms."""
    t0 = perf_counter()
    with subprocess.Popen([sys.executable, str(HERE / "setup_probe.py"), *args],
                          stdout=subprocess.PIPE, cwd=ROOT, env=_env()) as proc:
        line = proc.stdout.readline()
        ready = perf_counter() - t0
    if proc.returncode != 0 or not line:
        fail(f"set-up probe failed with exit code {proc.returncode}")
    return ready, json.loads(line)["import_ms"]


def measure_setup(probes: int = SETUP_PROBES):
    """Set-up time: median wall time from process start to 'ready', raw and
    at the reference speed, the median import time in ms, and the median
    start-up time of the reference probe.

    Each probe is a fresh interpreter, so the import is paid every time, as
    it is by every CLI invocation.  Each is paired with a reference probe
    started just before it; the time of the pair's biortho probe over its
    reference probe, times REF_STARTUP_S, is the set-up time at the
    reference speed.  Process start-up on a shared machine drifts by 20-30%
    over minutes, more than the reference kernel follows.
    """
    ready, ref, ratio, imports = [], [], [], []
    for _ in range(probes):
        r, _ = _probe("--reference")
        t, import_ms = _probe()
        ready.append(t)
        ref.append(r)
        ratio.append(t / r)
        imports.append(import_ms)
    return (statistics.median(ready), REF_STARTUP_S * statistics.median(ratio),
            statistics.median(imports), statistics.median(ref))


def reference_kernel():
    """Fixed interpreter and numpy work that never calls biortho.

    On a shared machine the speed of a core drifts by tens of percent over
    seconds.  The kernel runs before every op; its times around an op
    measure the speed that op saw, and the normalized metrics divide it out.
    """
    acc = 0j
    for k in range(400):
        z = complex(math.cos(k * 0.01), math.sin(k * 0.01))
        acc += cmath.exp(z) * cmath.log(z + 2.0)
    a = np.linspace(0.0, 1.0, 4000)
    for _ in range(20):
        a = np.sqrt(a * a + 1.0) - 1.0 + a * 0.5
    return acc, a


def run_ops(stream, seconds: float, tracer=None):
    """Closed loop: issue ops until `seconds` of op time, finishing the round.

    Returns op durations, op kinds, failure reasons, the number of oracle
    checkpoints and of those where the result disagreed (every checkpoint of
    an op that raised disagrees), and reference-kernel times (one per op,
    measured just before it, outside its time).
    """
    durations, kinds, failures, kernel = [], [], [], []
    checks = disagreements = 0
    busy = 0.0
    for ops in stream:
        for op in ops:
            if op.prepare is not None:
                op.prepare()
            t0 = perf_counter()
            reference_kernel()
            kernel.append(perf_counter() - t0)
            t0 = perf_counter()
            root = tracer.begin_op(op.kind) if tracer else None
            try:
                result = op.call()
                raised = None
            except Exception as exc:  # an op that raises is a failed op
                raised = f"{op.kind}: {type(exc).__name__}: {exc}"
            finally:
                if root is not None:
                    tracer.end_op(root)
            dt = perf_counter() - t0
            if raised is None:
                try:
                    reasons = op.check(result)
                except Exception as exc:
                    raised = f"{op.kind}: check raised {type(exc).__name__}: {exc}"
            busy += dt
            durations.append(dt)
            kinds.append(op.kind)
            checks += op.checkpoints
            if raised is not None:
                disagreements += op.checkpoints
                failures.append(raised)
            else:
                disagreements += len(reasons)
                if reasons and op.must_agree:
                    failures.append(reasons[0])
        if busy >= seconds:
            break
    return durations, kinds, failures, checks, disagreements, kernel


def tail(durations, pct):
    """Nearest-rank `pct` percentile and the number of samples beyond it."""
    ordered = sorted(durations)
    idx = max(math.ceil(pct / 100.0 * len(ordered)) - 1, 0)
    return ordered[idx], len(ordered) - 1 - idx


def machine() -> dict:
    info = {"nproc": os.cpu_count(), "platform": platform.platform(),
            "cpu": platform.processor() or "unknown"}
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    info["cpu"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return info


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def normalized(durations, kernel, window=KERNEL_WINDOW):
    """Op durations at the reference speed: each divided by the median
    kernel time of the `window` ops around it, over REF_KERNEL_MS."""
    half = window // 2
    out = []
    for i, d in enumerate(durations):
        local = statistics.median(kernel[max(0, i - half):i + half + 1])
        out.append(d * REF_KERNEL_MS / (1e3 * local))
    return out


def untraced_baseline(workload, seed, seconds, scratch):
    """Normalized op durations of an untraced run of the same stream, in a
    fresh process."""
    out = Path(scratch) / "untraced.json"
    subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                    "--seed", str(seed), "--seconds", repr(seconds),
                    "--trace", "0", "--out", str(out)],
                   cwd=ROOT, env=_env(), stdout=subprocess.DEVNULL, check=True)
    with open(out) as fh:
        result = json.load(fh)
    return normalized([d for _, d in result["ops"]], result["kernel_s"])


def run(workload: str, seed: int, seconds: float, trace: bool, spec: dict,
        out: Path) -> dict:
    import workloads
    from tracing import Tracer, layer_metrics

    setup_raw, setup_s, import_ms, setup_ref = measure_setup()
    stats = workloads.Stats()
    RESULTS.mkdir(parents=True, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="scratch-", dir=RESULTS)
    tracer = None
    try:
        baseline = untraced_baseline(workload, seed, seconds / 2, scratch) \
            if trace else None
        stream = workloads.stream(workload, seed, stats, scratch)
        if trace:
            tracer = Tracer()
            tracer.install()
        durations, kinds, failures, checks, disagreements, kernel = run_ops(
            stream, seconds / 2 if trace else seconds, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(scratch, ignore_errors=True)

    pct = workloads.TAIL_PERCENTILE[workload]
    tail_s, beyond = tail(durations, pct)
    norm = normalized(durations, kernel)
    attempted, failed = len(durations), len(failures)
    values = {
        "setup_s_raw": setup_raw,
        "setup_s": setup_s,
        "ops_per_s": attempted / sum(durations),
        "op_ms_p50": 1e3 * statistics.median(durations),
        "op_ms_tail": 1e3 * tail_s,
        "fail_frac": failed / attempted,
        "agree_frac": 1.0 - disagreements / checks,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    values["ops_per_s_norm"] = attempted / sum(norm)
    values["op_ms_p50_norm"] = 1e3 * statistics.median(norm)
    values["op_ms_tail_norm"] = 1e3 * tail(norm, pct)[0]
    counts = stats.counts
    inputs = dict(counts)
    if workload == "exact_ladder":
        tables = counts.get("tables_dyadic", 0) + counts.get("tables_non_dyadic", 0)
        inputs["dyadic_alpha_share"] = counts.get("tables_dyadic", 0) / tables
        inputs["non_dyadic_alpha_share"] = counts.get("tables_non_dyadic", 0) / tables
        inputs["must_agree_max_n"] = workloads.EXACT_MUST_AGREE_MAX_N
    result = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "commit": git_commit(), "machine": machine(),
        "python": platform.python_version(), "numpy": np.__version__,
        "attempted": attempted, "failed": failed,
        "checks": checks, "disagreements": disagreements,
        "failures": failures[:20],
        "op_ms_tail_percentile": pct, "samples": attempted,
        "op_ms_tail_samples_beyond": beyond,
        "reference_kernel_ms": 1e3 * statistics.median(kernel),
        "reference_startup_s": setup_ref,
        "inputs": inputs,
        "ops": [[k, d] for k, d in zip(kinds, durations)],
        "kernel_s": kernel,
    }
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units.update(setup_s_raw="s", ops_per_s="1/s", op_ms_p50="ms",
                 op_ms_tail="ms", fail_frac="ratio")
    if trace:
        k = min(len(baseline), attempted)
        values.update(layer_metrics(tracer.spans, attempted))
        values["polys.exact.mismatches"] = counts.get("mismatches", 0) / attempted
        values["cli.import_ms"] = import_ms
        values["trace.ops"] = attempted
        values["trace.overhead_pct"] = 100.0 * (
            sum(norm[:k]) / sum(baseline[:k]) - 1.0)
        spans_file = out.with_suffix(".spans.jsonl")
        tracer.write_spans(spans_file)
        result["tracing"] = {"missing_targets": tracer.missing,
                             "overhead_ops_compared": k,
                             "spans_file": os.path.relpath(spans_file, ROOT)}
    result["metrics"] = {name: {"value": v, "unit": units.get(name, "")}
                         for name, v in values.items()}
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w") as fh:
        json.dump(result, fh, indent=1)
    return result


def summary(result: dict, spec: dict) -> str:
    m = result["metrics"]
    lines = [f"{result['workload']}  seed {result['seed']}  "
             f"trace {int(result['trace'])}  commit {result['commit'][:12]}"]
    per_layer = {e["name"] for e in spec["per_layer"]}
    for name, v in m.items():
        if name in per_layer:
            continue
        extra = ""
        if name.startswith("op_ms_tail"):
            beyond = result["op_ms_tail_samples_beyond"]
            extra = (f"  (p{result['op_ms_tail_percentile']:g} of "
                     f"{result['samples']} ops, {beyond} beyond it")
            extra += (")" if beyond >= TAIL_MIN_BEYOND else
                      f"; too few, it needs {TAIL_MIN_BEYOND}: run longer)")
        if name == "fail_frac":
            extra = f"  ({result['failed']} of {result['attempted']} ops)"
        if name == "agree_frac":
            extra = (f"  ({result['checks'] - result['disagreements']} of "
                     f"{result['checks']} checkpoints agree with the oracle)")
        lines.append(f"  {name:<15} {v['value']:.6g} {v['unit']}{extra}")
    inputs = result["inputs"]
    if "checkpoints" in inputs:
        lines.append(f"  exact path: {inputs.get('mismatches', 0)} of "
                     f"{inputs['checkpoints']} checkpoints disagree with the "
                     "contour oracle; "
                     f"{inputs.get('must_agree_checkpoints', 0)} checkpoints "
                     f"are at n <= {inputs['must_agree_max_n']}, where a "
                     "disagreement fails the op")
    for reason in result["failures"][:5]:
        lines.append(f"  FAILED {reason}")
    if result["trace"]:
        lines.append(f"  trace overhead {m['trace.overhead_pct']['value']:.1f}% "
                     f"over {result['tracing']['overhead_ops_compared']} ops")
        for e in spec["per_layer"]:
            v = m[e["name"]]
            lines.append(f"  {e['name']:<40} {v['value']:.6g} {v['unit']}")
    return "\n".join(lines)


def run_all(args, spec):
    """Every workload in its own process, then one table of all metrics."""
    import workloads

    results = []
    for workload in workloads.WORKLOADS:
        out = RESULTS / f"{workload}-seed{args.seed}-trace{args.trace}.json"
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(args.seed), "--seconds", repr(args.seconds),
             "--trace", str(args.trace), "--out", str(out)],
            cwd=ROOT, env=_env(), stdout=subprocess.DEVNULL)
        if proc.returncode != 0:
            fail(f"{workload} exited with code {proc.returncode}")
        with open(out) as fh:
            results.append(json.load(fh))
    print("\n\n".join(summary(r, spec) for r in results))
    return all(r["failed"] == 0 for r in results)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("contour_sweep", "exact_ladder", "certify",
                                 "all"))  # names of workloads.WORKLOADS
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="op time to measure (default: run_seconds of "
                             "BENCHMARK.json); a traced run spends half on an "
                             "untraced baseline and half traced")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None,
                        help="result file (default: perfbench/results/...)")
    args = parser.parse_args(argv)

    spec = load_spec()
    if not (SRC / "biortho" / "__init__.py").is_file():
        fail(f"no biortho sources under {SRC}")
    sys.path.insert(0, str(SRC))
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    if args.workload == "all":
        return 0 if run_all(args, spec) else 1

    out = args.out or RESULTS / (f"{args.workload}-seed{args.seed}"
                                 f"-trace{args.trace}.json")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                 spec, out)
    print(summary(result, spec))
    names = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {e["name"]: {"value": result["metrics"][e["name"]]["value"],
                           "unit": e["unit"]} for e in names}
    print(json.dumps({"correct": result["failed"] == 0,
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
