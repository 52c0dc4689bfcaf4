"""Compare two sets of result files metric by metric, for each workload.

    python3 perfbench/compare.py BASE NEW

BASE and NEW are result files written by run.py, or directories of them.
Files of the same workload and trace mode are pooled by taking the median of
each metric.  Every row gives both values and the ratio NEW/BASE with its
base, and says whether the change is in the metric's better direction.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def load(path: Path) -> dict:
    """{(workload, trace): {metric: (median value, unit, files)}}."""
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    pooled = {}
    for f in files:
        with open(f) as fh:
            result = json.load(fh)
        if "workload" not in result or "metrics" not in result:
            continue
        key = (result["workload"], int(result["trace"]))
        for name, m in result["metrics"].items():
            pooled.setdefault(key, {}).setdefault(name, (m["unit"], []))[1] \
                .append(m["value"])
    return {key: {name: (statistics.median(vals), unit, len(vals))
                  for name, (unit, vals) in metrics.items()}
            for key, metrics in pooled.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    with open(HERE.parent / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    better = {m["name"]: m["better"]
              for m in spec["end_to_end"] + spec["per_layer"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    base, new = load(args.base), load(args.new)
    for key in sorted(set(base) & set(new)):
        workload, trace = key
        print(f"{workload} (trace {trace})")
        for name, (b, unit, nb) in base[key].items():
            if name not in new[key]:
                continue
            v, _, nn = new[key][name]
            if b == 0:
                ratio = "n/a (base is 0)"
                verdict = ""
            else:
                ratio = f"{v / b:.3f}x of base {b:.6g} {unit}"
                verdict = ""
                if name in better and v != b:
                    good = (v > b) == (better[name] == "higher")
                    verdict = "better" if good else "worse"
                    if not good and name in bounds:
                        worse = abs(v / b - 1.0)
                        verdict += (" beyond bound" if worse > bounds[name]
                                    else " within bound")
            print(f"  {name:<40} {v:<12.6g} {ratio}  {verdict}"
                  f"  [{nb} vs {nn} files]")
    missing = sorted(set(base) ^ set(new))
    for key in missing:
        print(f"only in one set: {key[0]} (trace {key[1]})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
