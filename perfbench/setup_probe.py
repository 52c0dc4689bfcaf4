"""Set-up probe: a fresh interpreter imports the CLI and reports when it is
ready to run its first op.  The parent times the whole process start.

With ``--reference`` it imports numpy alone instead: the same kind of
start-up work, which no change to biortho can move, so the parent can
divide out how fast processes start on the machine at that moment."""

import json
import sys
from time import perf_counter

t0 = perf_counter()
if sys.argv[1:] == ["--reference"]:
    import numpy  # noqa: F401
else:
    import biortho.cli  # noqa: F401

import_ms = 1e3 * (perf_counter() - t0)
sys.stdout.write(json.dumps({"import_ms": import_ms}) + "\n")
