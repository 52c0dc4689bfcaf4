"""Self-test of the tracing: every wrapper sits where its name is looked up,
and each workload shows the counter pattern it is built to show.

    python3 perfbench/selftest.py

Exits 1 and lists what is wrong if a library module still binds an
unwrapped function (a rebinding that bypasses a wrapper), or if a counter
is zero where its layer must have run, or non-zero where it must not.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile

import run

sys.path.insert(0, str(run.SRC))

import workloads  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402

# Counters of failures are zero on a healthy library, so they are not
# required to be non-zero anywhere.
MAY_STAY_ZERO = {"quadrature.contour.errors", "verify.fail_records"}
SECONDS = 1.0  # at least one whole round of each workload


def check_bindings(problems):
    from biortho import phase, quadrature

    original = phase.f_phase
    tracer = Tracer()
    tracer.install()
    try:
        problems += [f"missing target {t}" for t in tracer.missing]
        problems += [f"unwrapped binding {b}" for b in tracer.bypasses()]
        # negative control: a rebinding to the original must be reported
        wrapper = quadrature.f_phase
        quadrature.f_phase = original
        if not any(b.startswith("biortho.quadrature.f_phase")
                   for b in tracer.bypasses()):
            problems.append("bypasses() missed a rebinding to the original")
        quadrature.f_phase = wrapper
    finally:
        tracer.uninstall()


def traced_metrics(name):
    run.RESULTS.mkdir(parents=True, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="selftest-", dir=run.RESULTS)
    tracer = Tracer()
    stats = workloads.Stats()
    try:
        stream = workloads.stream(name, 1, stats, scratch)
        tracer.install()
        durations, _, failures, *_ = run.run_ops(stream, SECONDS, tracer)
    finally:
        tracer.uninstall()
        shutil.rmtree(scratch, ignore_errors=True)
    metrics = layer_metrics(tracer.spans, len(durations))
    return metrics, stats.counts, failures


def main() -> int:
    spec = run.load_spec()
    problems = []
    check_bindings(problems)
    per_workload = {}
    counts = {}
    for name in workloads.WORKLOADS:
        metrics, counts[name], failures = traced_metrics(name)
        per_workload[name] = metrics
        problems += [f"{name}: failed op: {f}" for f in failures]

    # Each contour op is one traced contour call, and every counted integrand
    # evaluation calls f_phase once (the phase probes add more), so a
    # ratio above 1 means f_phase is reached without its wrapper.
    contour = per_workload["contour_sweep"]
    if contour["quadrature.contour.calls"] != 1:
        problems.append("contour_sweep: contour calls per op != 1")
    if not 0 < contour["quadrature.contour.counted_eval_ratio"] <= 1:
        problems.append("contour_sweep: counted_eval_ratio = "
                        f"{contour['quadrature.contour.counted_eval_ratio']}, "
                        "expected in (0, 1]")
    if contour["phase.g_amplitude.calls"] > contour["phase.f_phase.calls"]:
        problems.append("contour_sweep: more g_amplitude than f_phase calls")

    exact = per_workload["exact_ladder"]
    if exact["polys.grid.calls"] != 1:
        problems.append("exact_ladder: grid calls per op != 1")
    # the failure rule of the exact path must cover some checkpoints, or a
    # wrong answer could never fail an op
    if not counts["exact_ladder"].get("must_agree_checkpoints", 0) > 0:
        problems.append("exact_ladder: no checkpoint at a degree where a "
                        "disagreement fails the op")
    hit_ratio = workloads.WARM_PER_TABLE / (1 + workloads.WARM_PER_TABLE)
    if abs(exact["polys.table_hit_ratio"] - hit_ratio) > 1e-12:
        problems.append(f"exact_ladder: table_hit_ratio "
                        f"{exact['polys.table_hit_ratio']}, expected {hit_ratio}")
    for key in ["quadrature.contour.calls", "phase.self_ms"] + \
            [k for k in exact if k.startswith("phase.") and k.endswith(".calls")]:
        if exact[key] != 0:
            problems.append(f"exact_ladder: {key} = {exact[key]} inside timed "
                            "ops, expected 0")
    if not exact["polys.grid.cold_ms"] > 0:
        problems.append("exact_ladder: polys.grid.cold_ms has no samples")

    measured = set().union(*(m.keys() for m in per_workload.values()))
    for entry in spec["per_layer"]:
        key = entry["name"]
        if key not in measured or key in MAY_STAY_ZERO:
            continue
        if not any(m[key] for m in per_workload.values()):
            problems.append(f"{key} is zero on every workload")

    for p in problems:
        print("FAIL", p)
    print(json.dumps({name: {k: v for k, v in m.items() if v}
                      for name, m in per_workload.items()}, indent=1))
    print("selftest:", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
